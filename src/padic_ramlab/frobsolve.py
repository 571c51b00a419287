"""Frobenius fixed-point solvers over the truncated valued rings.

The central equation is the semilinear system phi(x) = x F for a row
vector x over a truncated ring, F the specialized Frobenius matrix of a
height-i module.  Approximate solutions whose defect

    Q = phi(x0) - x0 F

has valuation above the threshold a = p*i/(p-1) lift to exact solutions
via a contraction

    y -> (Q + phi(y)) V / (scaling of valuation i),

unique with correction above b = i/(p-1).  One lift (contraction_lift)
and one pipeline (compute_tstar) serve the tilt ring and the untilted
cyclotomic ring; in the latter the p-th power of a sum has no mixed
terms (characteristic p), so the binomial cross terms of the classical
iteration vanish identically.  What differs between the rings (the
valuation scale, the cut cap, the restart at b, the texts of the
preconditions) is data in SolverParams.  contraction_lift_untilted and
compute_tstar_untilted remain as entry points that insist on an
untilted ring.

The solver finds its candidates by linear algebra: the defect map
x -> phi(x) - x F is F_p-linear (phi is additive in characteristic p,
x F is k-linear), so the approximate solutions at the injectivity cut b
are the kernel of one F_p-linear map, computed by Gauss-Jordan
elimination mod p.  The budget bounds the p^r kernel elements that are
materialized and lifted.

enumerate_jc is the deliberately brute-force oracle: a full grid scan
of coefficient vectors against the congruence, guarded by a budget on
the grid size (p^f)^(d(m+1)).  No semilinear-algebra shortcut is taken
on this path; it is what the kernel and the contraction solver are
validated against.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from . import tiltring
from .errors import (
    BudgetExceeded,
    NonCharacter,
    NoConvergenceWithinCut,
    ParamMismatch,
    PrecisionTooLow,
    RankError,
    RegimeViolation,
    StructureViolation,
)
from .gf import FiniteFieldParams
from .qring import exponent_modulus, gamma_q
from .tiltring import RingSpec, ValuedTrunc, frobenius, galois_act
from .wach import (embed_twisted, mat_inverse_unit, mat_map, mat_mul, specialize,
                   verify_height)

__all__ = [
    "SolverParams",
    "PhiVector",
    "JcSet",
    "LiftResult",
    "TstarResult",
    "enumerate_jc",
    "contraction_lift",
    "contraction_lift_untilted",
    "compute_tstar",
    "compute_tstar_untilted",
    "character_of",
    "galois_act_jc",
]


# -- parameters ---------------------------------------------------------------

@dataclass(frozen=True)
class SolverParams:
    """Numerical regime of one lifting run, in either ring.

    c_work and the thresholds a, b are indexed the way the truncation
    ideals are: in tilt mode these are tilted valuations, in untilted
    mode at level s the ring valuation is c/p^s for index c.  h is the
    guaranteed defect-valuation gain per iterate, already expressed in
    the ring's own valuation units.  The solver reads every difference
    between the modes from here and has one path itself.
    """

    p: int
    i: int
    s: Optional[int]  # None marks tilt mode
    c_work: Fraction
    h: Fraction

    @property
    def b(self):
        return Fraction(self.i, self.p - 1)

    @property
    def a(self):
        return Fraction(self.p * self.i, self.p - 1)

    @property
    def ring_scale(self):
        """Ring valuation of index-1: 1 in tilt mode, 1/p^s untilted."""
        return Fraction(1) if self.s is None else Fraction(1, self.p**self.s)

    @property
    def defect_floor(self):
        """Ring valuation the defect must strictly exceed: a (scaled)."""
        return self.a * self.ring_scale

    @property
    def correction_floor(self):
        """Ring valuation the correction stays above: b (scaled)."""
        return self.b * self.ring_scale

    @property
    def working_floor(self):
        """Ring valuation of the working cut c_work."""
        return self.c_work * self.ring_scale

    @property
    def restarts_at_b(self):
        """Untilted, the cut cap may leave a band the equation cannot
        constrain; a lift restarts from the reduction at b, which already
        pins the solution down, so no unconstrained tail can survive."""
        return self.s is not None

    @property
    def _units(self):
        # how a scaled threshold is written: a, or a/p^s
        return "" if self.s is None else "/p^s"

    @staticmethod
    def level_of(spec):
        """The level s of an untilted ring; None for a tilt ring."""
        return None if spec.mode == tiltring.TILT else spec.level

    @staticmethod
    def h_max(p, i, s, c_work):
        """The largest gain per iterate that c_work guarantees, in ring units."""
        if s is None:
            return c_work / p - Fraction(i, p - 1)
        return min(Fraction(1), (p - 1) * (c_work - i) / p**s) - Fraction(i, p**s)

    def __post_init__(self):
        object.__setattr__(self, "c_work", Fraction(self.c_work))
        object.__setattr__(self, "h", Fraction(self.h))
        if self.i < 0:
            raise ValueError("height i must be >= 0")
        if self.s is not None and self.p**self.s <= self.a:
            raise RegimeViolation(
                f"p^s = {self.p ** self.s} <= a = {self.a}",
                precondition="p^s > a",
            )
        if self.c_work <= self.a:
            raise ValueError(f"c_work = {self.c_work} must exceed a = {self.a}")
        if self.h <= 0:
            raise ValueError("h must be positive")
        bound = self.h_max(self.p, self.i, self.s, self.c_work)
        if self.h > bound:
            raise ValueError(f"h = {self.h} inconsistent: c_work allows h <= {bound}")

    @classmethod
    def for_spec(cls, p, i, spec):
        """Defaults for the ring of spec: c_work two grid steps above a
        in tilt mode (one step plus margin), one ring grid step untilted
        (index step p^s/D = 1/(p-1)); h as large as c_work allows."""
        s = cls.level_of(spec)
        step = Fraction(2, spec.denominator) if s is None else Fraction(1, p - 1)
        c_work = Fraction(p * i, p - 1) + step
        return cls(p=p, i=i, s=s, c_work=c_work, h=cls.h_max(p, i, s, c_work))

    for_tilt = for_spec  # the name tilt-mode callers use

    @classmethod
    def for_untilted(cls, p, i, s):
        # the untilted defaults read only the level of the ring
        return cls.for_spec(p, i, RingSpec(FiniteFieldParams(p), tiltring.UNTILTED, s,
                                           Fraction(1, 2)))

    def check_ring(self, spec):
        """Raise unless these params are for the ring of spec and its cut
        reaches the working cut."""
        if self.s != self.level_of(spec):
            raise ValueError(f"params have s = {self.s}, ring has s = {self.level_of(spec)}")
        if spec.cut < self.working_floor:
            raise PrecisionTooLow(
                f"ring cut {spec.cut} below working cut {self.working_floor}",
                precondition=f"cut >= c_work{self._units} > a{self._units}",
            )

    def check_defect(self, v):
        """Raise unless the defect valuation v exceeds a (scaled)."""
        if v <= self.defect_floor:
            phi = "phi(x0)" if self.s is None else "x0^p"
            raise PrecisionTooLow(
                f"defect valuation {v} does not exceed a{self._units} = {self.defect_floor}",
                precondition=f"val({phi} - x0 F) > a{self._units}",
            )

    def check_correction(self, corr):
        """Raise unless the correction valuation corr exceeds b (scaled)."""
        if corr != math.inf and corr <= self.correction_floor:
            raise StructureViolation(
                f"correction valuation {corr} not above b{self._units} = "
                f"{self.correction_floor}"
            )

    def working_spec(self, spec):
        """The ring a lift runs in: the cut raised by i (ring units), so
        that the division by the scaling element loses nothing below the
        caller's cut.  Untilted the raise is capped at (D-1)/D: the ring
        must stay a k-algebra."""
        cut = spec.cut + self.i * self.ring_scale
        if self.s is not None:
            D = spec.denominator
            cut = max(spec.cut, min(cut, Fraction(D - 1, D)))
        return spec.with_cut(cut)

    def div_exp(self, spec):
        """Monomial index of the scaling element, of ring valuation i*scale."""
        return int(self.i * self.ring_scale * spec.denominator)


# -- vectors ------------------------------------------------------------------

class PhiVector:
    """Row vector over one truncated valued ring."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec, entries):
        for e in entries:
            if e.spec != spec:
                raise ParamMismatch("vector entries live in different rings")
        self.spec = spec
        self.entries = tuple(entries)

    @classmethod
    def zero(cls, spec, d):
        return cls(spec, tuple(ValuedTrunc.zero(spec) for _ in range(d)))

    @property
    def dim(self):
        return len(self.entries)

    def val(self):
        return min((tiltring.val(e) for e in self.entries), default=math.inf)

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other):
        return PhiVector(self.spec, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other):
        return PhiVector(self.spec, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c):
        return PhiVector(self.spec, tuple(a.scale(c) for a in self.entries))

    def frobenius(self):
        return PhiVector(self.spec, tuple(frobenius(e) for e in self.entries))

    def times_matrix(self, M):
        return PhiVector(self.spec, mat_mul((self.entries,), M)[0])

    def shift_down(self, j):
        return PhiVector(self.spec, tuple(e.shift_down(j) for e in self.entries))

    def with_cut(self, cut):
        entries = tuple(e.with_cut(cut) for e in self.entries)
        spec = entries[0].spec if entries else self.spec.with_cut(cut)
        return PhiVector(spec, entries)

    def reduce_to(self, cut):
        if Fraction(cut) > self.spec.cut:
            raise ValueError("reduce_to cannot raise the cut")
        return self.with_cut(cut)

    def _key(self):
        return (self.spec, tuple(e._key() for e in self.entries))

    def __eq__(self, other):
        if not isinstance(other, PhiVector):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_text(self):
        return " | ".join(e.terms_str() for e in self.entries) if self.entries else "()"

    def __repr__(self):
        return f"PhiVector({self.spec.describe()}; {self.to_text()})"


def _defect(x, F_t):
    return x.frobenius() - x.times_matrix(F_t) if x.dim else PhiVector(x.spec, ())


@dataclass(frozen=True)
class JcSet:
    spec: RingSpec
    cut: Fraction
    elements: tuple

    def verify(self, F_t):
        for x in self.elements:
            if not _defect(x, F_t).is_zero():
                raise StructureViolation("stored element fails the congruence")
        return True

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class LiftResult:
    solution: PhiVector
    transcript: tuple  # defect valuations per iterate, math.inf terminal
    iterations: int
    input_defect: object = None  # valuation of the caller's defect (Fraction or inf)


@dataclass(frozen=True)
class TstarResult:
    solutions: tuple
    rank: int
    lifts: tuple
    params: SolverParams
    spec: RingSpec

    def __len__(self):
        return len(self.solutions)


# -- brute-force oracle -------------------------------------------------------

def _all_ring_elements(spec):
    q = spec.params.order
    slots = spec.m_max + 1
    for assignment in product(range(q), repeat=slots):
        yield ValuedTrunc(spec, {m: c for m, c in enumerate(assignment) if c})


def enumerate_jc(module, spec, budget, cut=None, witness=None):
    """Exhaustively list solutions of phi(x) = x F at the given cut.

    The search space is the full coefficient grid, of size
    (p^f)^(d * (m_max+1)); a BudgetExceeded carrying that number is
    raised when it would exceed the budget.
    """
    if cut is not None:
        spec = spec.with_cut(cut)
    d = module.rank
    q = module.params.order
    slots = d * (spec.m_max + 1)
    size = q**slots
    if size > budget:
        raise BudgetExceeded(
            f"search space {size} exceeds budget {budget}",
            search_space=size,
            budget=budget,
        )
    if d == 0:
        empty = PhiVector(spec, ())
        return JcSet(spec=spec, cut=spec.cut, elements=(empty,))
    F_t, _ = specialize(module, spec, witness=witness)
    found = []
    coords = list(_all_ring_elements(spec))
    for combo in product(coords, repeat=d):
        x = PhiVector(spec, combo)
        if _defect(x, F_t).is_zero():
            found.append(x)
    result = JcSet(spec=spec, cut=spec.cut,
                   elements=tuple(sorted(found, key=lambda v: v._key())))
    result.verify(F_t)
    return result


# -- contraction lifting ------------------------------------------------------

def contraction_lift(module, spec, x0, params=None, witness=None):
    """Lift an approximate solution to the exact one, in either ring.

    Returns the unique solution congruent to x0 above valuation b, as a
    LiftResult whose transcript lists defect valuations per iterate.
    The iteration runs in the ring of SolverParams.working_spec; the
    result is reduced back and is the exact truncation of the true
    solution.  Untilted, this needs p^s > a.
    """
    if x0.spec != spec:
        raise ParamMismatch("x0 does not live in the given ring")
    if params is None:
        params = SolverParams.for_spec(module.params.p, module.height, spec)
    params.check_ring(spec)
    if witness is None:
        witness = verify_height(module)
    spec_int = params.working_spec(spec)
    F_t, V_t = specialize(module, spec_int, witness=witness)
    start = x0.with_cut(spec_int.cut)
    defect = _defect(start, F_t)
    input_defect = defect.val()
    params.check_defect(input_defect)
    if params.restarts_at_b:
        start = x0.reduce_to(_candidate_cut(spec, params)).with_cut(spec_int.cut)
        defect = _defect(start, F_t)
        params.check_defect(defect.val())
    v0 = defect.val()
    transcript = [v0]
    max_iter = 1 if v0 == math.inf else math.ceil((spec_int.cut - v0) / params.h) + 8
    Q = defect
    y = PhiVector.zero(spec_int, x0.dim)
    x = start
    while not defect.is_zero():
        if len(transcript) > max_iter:
            raise NoConvergenceWithinCut(
                f"defect still nonzero after {max_iter} iterates at cut {spec_int.cut}")
        y = (Q + y.frobenius()).times_matrix(V_t).shift_down(params.div_exp(spec))
        x = start + y
        defect = _defect(x, F_t)
        prev, v = transcript[-1], defect.val()
        transcript.append(v)
        if v != math.inf and v - prev < params.h:
            raise StructureViolation(
                f"contraction rate violated: defect went {prev} -> {v}, "
                f"gain below h = {params.h}"
            )
    solution = x.reduce_to(spec.cut)
    params.check_correction((solution - x0).val())
    return LiftResult(solution=solution, transcript=tuple(transcript),
                      iterations=len(transcript) - 1, input_defect=input_defect)


def contraction_lift_untilted(module, spec, x0, params=None, witness=None):
    """contraction_lift for an untilted ring O_E / (val > cut); rejects a tilt ring."""
    if SolverParams.level_of(spec) is None:
        raise RegimeViolation("contraction_lift_untilted expects an untilted ring")
    return contraction_lift(module, spec, x0, params=params, witness=witness)


# -- the full pipeline --------------------------------------------------------

def _candidate_cut(spec, params):
    b_ring = params.correction_floor
    if b_ring > 0:
        return b_ring
    # height 0: only the constant band matters
    return Fraction(1, 2 * spec.denominator)


def _kernel_mod_p(rows, n, p):
    """Basis of {v in F_p^n : R v = 0}, by Gauss-Jordan elimination mod p."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r0 = len(pivots)
        pivot = next((r for r in range(r0, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[r0], rows[pivot] = rows[pivot], rows[r0]
        inv = pow(rows[r0][col], -1, p)
        rows[r0] = [(v * inv) % p for v in rows[r0]]
        for r, row in enumerate(rows):
            c = row[col]
            if r != r0 and c:
                rows[r] = [(v - c * w) % p for v, w in zip(row, rows[r0])]
        pivots.append(col)
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free] % p
        basis.append(v)
    return basis


def _candidate_space(spec, params, F_t, budget):
    """Every x at the cut b whose zero extension has defect valuation > a.

    The unknowns are the F_p-digits of the coefficients of x: unknown
    (j, m, t) is digit t of the coefficient of u^m in entry j.  Its
    column is the defect of that unit vector at the full cut, read at
    each monomial of valuation <= a and split into digits; the candidates
    are the kernel.  Its p^r elements are checked against the budget,
    then returned as (coordinates in the kernel basis, candidate) pairs
    sorted by candidate, the order of enumerate_jc.
    """
    k = spec.params
    p, f, d = k.p, k.f, len(F_t)
    spec_b = spec.with_cut(_candidate_cut(spec, params))
    slots = spec_b.m_max + 1
    top = math.floor(params.defect_floor * spec.denominator)
    zero = ValuedTrunc.zero(spec)
    columns = []
    for j in range(d):
        for m in range(slots):
            for t in range(f):
                unit = PhiVector(spec, tuple(
                    ValuedTrunc(spec, {m: p**t}) if jj == j else zero for jj in range(d)))
                columns.append([c for e in _defect(unit, F_t).entries
                                for mono in range(top + 1)
                                for c in k.digits(e.coeffs.get(mono, 0))])
    n = len(columns)
    basis = _kernel_mod_p(zip(*columns), n, p)
    size = p ** len(basis)
    if size > budget:
        raise BudgetExceeded(
            f"solution space p^r = {size} exceeds budget {budget}",
            search_space=size,
            budget=budget,
        )
    found = []
    for combo in product(range(p), repeat=len(basis)):
        v = [sum(c * b[col] for c, b in zip(combo, basis)) % p for col in range(n)]
        coeffs = [k.encode(v[s:s + f]) for s in range(0, n, f)]
        found.append((combo, PhiVector(spec_b, tuple(
            ValuedTrunc(spec_b, dict(enumerate(coeffs[j * slots:(j + 1) * slots])))
            for j in range(d)))))
    return sorted(found, key=lambda cx: cx[1]._key())


def compute_tstar(module, spec, budget, params=None):
    """All exact solutions of phi(x) = x F over the ring of spec, in either mode.

    The candidates are the x at the injectivity cut b whose zero
    extension has defect valuation above a, a kernel of dimension r
    (_candidate_space); each is lifted through contraction_lift.  The
    budget bounds the p^r candidates (a BudgetExceeded carries p^r), not
    the coefficient grid, which only the enumerate_jc oracle scans.  A
    candidate lifts exactly when it is the reduction of a true solution,
    so the lifted set is the full solution set; it is asserted to be the
    F_p-span of the lifts of the kernel basis.
    """
    if params is None:
        params = SolverParams.for_spec(module.params.p, module.height, spec)
    params.check_ring(spec)
    witness = verify_height(module)
    if module.rank == 0:
        empty = PhiVector(spec, ())
        return TstarResult(solutions=(empty,), rank=0, lifts=(), params=params, spec=spec)
    F_t, _ = specialize(module, spec, witness=witness)
    candidates = _candidate_space(spec, params, F_t, budget)
    lifts = [contraction_lift(module, spec, cand.with_cut(spec.cut), params=params,
                              witness=witness)
             for _, cand in candidates]
    solutions = [lifted.solution for lifted in lifts]
    if len(set(solutions)) != len(solutions):
        raise StructureViolation("distinct candidates lifted to one solution")
    _assert_fp_structure(solutions, [c for c, _ in candidates])
    rank = len(candidates[0][0])
    if rank > module.rank * module.params.f:
        raise StructureViolation(
            f"rank {rank} exceeds the bound d*f = {module.rank * module.params.f}"
        )
    lifts.sort(key=lambda lifted: lifted.solution._key())
    return TstarResult(
        solutions=tuple(lifted.solution for lifted in lifts),
        rank=rank,
        lifts=tuple(lifts),
        params=params,
        spec=spec,
    )


def compute_tstar_untilted(module, spec, budget, params=None):
    """compute_tstar for an untilted ring O_E / (val > cut); rejects a tilt ring."""
    if SolverParams.level_of(spec) is None:
        raise RegimeViolation("compute_tstar_untilted expects an untilted ring")
    return compute_tstar(module, spec, budget, params=params)


def _assert_fp_structure(solutions, coords):
    """Assert that each solution is the F_p-combination of the basis lifts
    that its candidate's kernel coordinates name.  Lifting is F_p-linear
    (the lift is unique, reduction at b injective), so for p^r distinct
    solutions this holds exactly when the set is closed under + and
    F_p-scaling, at r vector operations per solution instead of p^r."""
    lift_of = dict(zip(coords, solutions))
    r = len(coords[0])
    basis = [lift_of[tuple(int(j == t) for t in range(r))] for j in range(r)]
    for c, x in zip(coords, solutions):
        combo = PhiVector.zero(x.spec, x.dim)
        for cj, sj in zip(c, basis):
            if cj:
                combo = combo + sj.scale(cj)
        if combo != x:
            raise StructureViolation(
                f"solution {x.to_text()} is not its F_p-combination of the basis lifts")


# -- Galois structure ---------------------------------------------------------

def galois_act_jc(module, vec, power=1):
    """Hom-set Galois action of the module's stored generator.

    The action on maps twists by the module datum: the generator g with
    exponent u_G sends the value vector x to g(x H) where H is the
    matrix of g^(-1) on the basis, H = gamma_{u^(-1)}(G^(-1)).  Only the
    stored generator (and its powers, by iterating) is available; the
    matrix of an unrelated group element is not determined by G.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    for _ in range(power):
        vec = _galois_generator_step(module, vec)
    return vec


def _galois_generator_step(module, vec):
    if module.G is None:
        raise ValueError("module carries no Galois generator matrix")
    spec = vec.spec
    u = module.u_g
    T = exponent_modulus(module.params.p, module.trunc)
    u_inv = pow(u, -1, T) if T > 1 else 1
    G_inv = mat_inverse_unit(module.G)
    H_t = mat_map(lambda e: embed_twisted(gamma_q(e, u_inv), spec), G_inv)
    moved = vec.times_matrix(H_t)
    return PhiVector(spec, tuple(galois_act(e, u) for e in moved.entries))


def character_of(tstar, u):
    """Read the mod-p cyclotomic character power on a rank-1 solution set.

    Applies the coefficient Galois action to a nonzero solution and
    takes the leading-coefficient ratio; the module's Galois matrix is
    trivial mod (q-1), so the twist cannot touch the leading band and
    the ratio equals the character value.  Returns its discrete log to
    the base u mod p, an exponent mod (p-1).
    """
    solutions = tstar.solutions if isinstance(tstar, TstarResult) else tuple(tstar)
    if not solutions:
        raise RankError("empty solution set")
    spec = solutions[0].spec
    p = spec.params.p
    if len(solutions) != p:
        raise RankError(
            f"need a one-dimensional solution set (p = {p} elements), "
            f"got {len(solutions)}"
        )
    if p == 2:
        return 0  # the group F_2^x is trivial
    nonzero = sorted((x for x in solutions if not x.is_zero()), key=lambda v: v._key())
    x = nonzero[0]
    v = x.val()
    g = PhiVector(spec, tuple(galois_act(e, u) for e in x.entries))
    if g.val() != v:
        raise NonCharacter("Galois image has different valuation")
    k = spec.params
    lead = []
    for xe, ge in zip(x.entries, g.entries):
        for m, c in xe.coeffs.items():
            if spec.monomial_val(m) == v:
                lead.append((c, ge.coeffs.get(m, 0)))
        for m, c in ge.coeffs.items():
            if spec.monomial_val(m) == v and m not in xe.coeffs:
                raise NonCharacter("leading band of image not proportional")
    ratio = None
    for c, gc in lead:
        r = k.mul(gc, k.inv(c))
        if ratio is None:
            ratio = r
        elif ratio != r:
            raise NonCharacter("leading-coefficient ratio is not constant")
    if ratio is None or ratio == 0 or not k.in_prime_field(ratio):
        raise NonCharacter(f"leading ratio {ratio} is not in F_p^x")
    base = u % p
    acc = 1
    for j in range(p - 1):
        if acc == ratio:
            return j
        acc = (acc * base) % p
    raise NonCharacter(f"{ratio} is not a power of {base} mod {p}; "
                       "is u a primitive root?")
