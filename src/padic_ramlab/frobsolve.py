"""Frobenius fixed-point solvers over the truncated valued rings.

The central equation is the semilinear system phi(x) = x F for a row
vector x over a truncated ring, F the specialized Frobenius matrix of a
height-i module.  Approximate solutions whose defect Q = phi(x0) - x0 F
has valuation above a = p*i/(p-1) lift to exact solutions via the
contraction y -> (Q + phi(y)) V / (scaling of valuation i), unique with
correction above b = i/(p-1).  One lift and one pipeline serve the tilt
ring and the untilted cyclotomic ring, where the p-th power of a sum has
no mixed terms, so the binomial cross terms of the classical iteration
vanish; what differs between the rings is data in SolverParams.

The defect map x -> phi(x) - x F is F_p-linear (phi is additive in
characteristic p, x F is k-linear).  So the candidates at the
injectivity cut b are the kernel of one F_p-linear map (Gauss-Jordan
elimination mod p), and the lift is F_p-linear as well: compute_tstar
lifts only the r kernel basis vectors, as the rows of one matrix, and
forms the p^r solutions as their F_p-combinations.  The budget bounds
the p^r solutions formed, KERNEL_CELLS the dense matrix of the kernel.
contraction_lift is the one-row case.

Inside, the solver runs on the series engine of qring: a row is a
sequence of coefficient dicts, a valuation is a least monomial index m
(ring valuation m/D), and the thresholds a, b of SolverParams are
integer multiples of the index of the image of q - 1 (index_bounds).
The views (PhiVector, ValuedTrunc) are read once, at entry (x0, and
F_t, V_t, which specialize builds from dicts only to return them), and
built once, for results (solutions, JcSet elements) and error texts.  F
and V are PackedMatrix, packed once per slot width for every product of
the candidate search, the lift and the final check.

The lift does not recompute each defect in full.  The truncated
product is bilinear and phi is additive below the working top, so for
a start row x0 with defect Q = phi(x0) - x0 F and a correction y

    phi(x0 + y) - (x0 + y) F = (Q + phi(y)) - y F

exactly, and Q + phi(y) is the row the next step multiplies by V.  An
iterate is one Frobenius and one add per entry, one fused product for
the step and one fused C - A B (qring.series_matmul) for the defect.

enumerate_jc is the deliberately brute-force oracle: a full grid scan
of coefficient vectors against the congruence, guarded by a budget on
the grid size (p^f)^(d(m+1)).  No semilinear-algebra shortcut is taken
on this path; it is what the kernel and the contraction solver are
validated against.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from . import tiltring
from .errors import (BudgetExceeded, NonCharacter, ParamMismatch, PrecisionTooLow, RankError,
                     RegimeViolation, StructureViolation)
from .gf import FiniteFieldParams
from .qring import (PackedMatrix, exponent_modulus, gamma_q, series_add, series_frobenius,
                    series_matmul, series_scale)
from .tiltring import RingSpec, ValuedTrunc, _divide, galois_act
from .wach import embed_twisted, mat_inverse_unit, mat_mul, specialize

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
    mode at level s the ring valuation is c/p^s for index c.  The gain h
    per iterate is derived from c_work.  The solver reads every
    difference between the modes from here and has one path itself.
    """

    p: int
    i: int
    s: Optional[int]  # None marks tilt mode
    c_work: Fraction

    # The thresholds are cached in the instance dict: the fields alone
    # still define == and hash.

    @functools.cached_property
    def b(self):
        return Fraction(self.i, self.p - 1)

    @functools.cached_property
    def a(self):
        return Fraction(self.p * self.i, self.p - 1)

    @functools.cached_property
    def h(self):
        """The defect-valuation gain per iterate that c_work guarantees, in
        ring units; positive, since c_work > a (and p^s > a untilted)."""
        if self.s is None:
            return self.c_work / self.p - self.b
        return (min(Fraction(1), (self.p - 1) * (self.c_work - self.i) / self.p**self.s)
                - Fraction(self.i, self.p**self.s))

    @functools.cached_property
    def ring_scale(self):
        """Ring valuation of index-1: 1 in tilt mode, 1/p^s untilted."""
        return Fraction(1) if self.s is None else Fraction(1, self.p**self.s)

    @functools.cached_property
    def defect_floor(self):
        """Ring valuation the defect must strictly exceed: a (scaled)."""
        return self.a * self.ring_scale

    @functools.cached_property
    def correction_floor(self):
        """Ring valuation the correction stays above: b (scaled)."""
        return self.b * self.ring_scale

    @functools.cached_property
    def working_floor(self):
        """Ring valuation of the working cut c_work."""
        return self.c_work * self.ring_scale

    def index_bounds(self, spec):
        """The thresholds over the monomial indices m of the ring of spec
        (ring valuation m/D), as integers (defect, correction, gain):
        m <= defect iff m/D <= defect_floor, likewise for correction, and
        an index gain g is below h iff g < gain.  The first two are exact,
        p i e and i e for e = spec.embed_exponent, the index of the image
        of q - 1, since scale * D = (p-1) e in both modes (tilt: scale 1,
        D = p^(N-1)(p-1), e = p^(N-1); untilted: scale p^-s, D = p^s(p-1),
        e = 1).  Their difference (p-1) i e indexes the lift's divisor."""
        e = spec.embed_exponent
        return self.p * self.i * e, self.i * e, math.ceil(self.h * spec.denominator)

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

    def __post_init__(self):
        object.__setattr__(self, "c_work", Fraction(self.c_work))
        if self.i < 0:
            raise ValueError("height i must be >= 0")
        if self.s is not None and self.p**self.s <= self.a:
            raise RegimeViolation(
                f"p^s = {self.p ** self.s} <= a = {self.a}",
                precondition="p^s > a",
            )
        if self.c_work <= self.a:
            raise ValueError(f"c_work = {self.c_work} must exceed a = {self.a}")

    @classmethod
    def for_spec(cls, p, i, spec):
        """Defaults for the ring of spec: c_work two grid steps above a
        in tilt mode (one step plus margin), one ring grid step untilted
        (index step p^s/D = 1/(p-1))."""
        s = cls.level_of(spec)
        step = Fraction(2, spec.denominator) if s is None else Fraction(1, p - 1)
        return cls(p=p, i=i, s=s, c_work=Fraction(p * i, p - 1) + step)

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


# -- vectors ------------------------------------------------------------------

class PhiVector:
    """Row vector over one truncated valued ring."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec, entries):
        for e in entries:
            if e.spec is not spec and e.spec != spec:
                raise ParamMismatch("vector entries live in different rings")
        self.spec = spec
        self.entries = tuple(entries)

    def val(self):
        """Least monomial valuation over the entries; +infinity for zero."""
        m = _index(tuple(e.coeffs for e in self.entries))
        return math.inf if m == math.inf else self.spec.monomial_val(m)

    def is_zero(self):
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other):
        return PhiVector(self.spec, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, c):
        return PhiVector(self.spec, tuple(a.scale(c) for a in self.entries))

    def reduce_to(self, cut):
        if Fraction(cut) > self.spec.cut:
            raise ValueError("reduce_to cannot raise the cut")
        return PhiVector(self.spec.with_cut(cut), tuple(e.with_cut(cut) for e in self.entries))

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


# -- dict rows ----------------------------------------------------------------
# A row is a tuple of coefficient dicts over one ring, zero entries empty,
# and a valuation is a least monomial index (math.inf for zero), of ring
# valuation index/D.

def _index(row):
    """Least monomial index over the entries of a dict row; math.inf for zero."""
    return min((min(e) for e in row if e), default=math.inf)


def _row_key(row):
    """The order of PhiVector._key, for dict rows over one ring."""
    return tuple(tuple(sorted(e.items())) for e in row)


def _truncate(row, last):
    """A dict row without its monomials of index above last."""
    return tuple({m: c for m, c in e.items() if m <= last} for e in row)


def _dicts(spec, rows):
    """The coefficient dicts of rows of ValuedTruncs, after checking once
    that every entry lives in the ring of spec."""
    for row in rows:
        for e in row:
            theirs = getattr(e, "spec", type(e).__name__)
            if theirs is not spec and theirs != spec:
                raise ParamMismatch(f"ring mismatch: {spec} vs {theirs}")
    return [tuple(e.coeffs for e in row) for row in rows]


def _wrap(spec, row):
    """A dict row as a PhiVector over the ring of spec."""
    return PhiVector(spec, tuple(ValuedTrunc._new(spec, e) for e in row))


def _row_add(k, x, y):
    return tuple(series_add(k, a, b) for a, b in zip(x, y))


def _defect_rows(k, X, F, top):
    """phi(x) - x F for every dict row x at once: one fused C - X F with
    C = phi(X)."""
    return series_matmul(k, X, F, top, C=[[series_frobenius(k, a, top) for a in x] for x in X])


@dataclass(frozen=True)
class JcSet:
    spec: RingSpec
    elements: tuple

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

def enumerate_jc(module, spec, budget):
    """Exhaustively list solutions of phi(x) = x F over the ring of spec.

    The search space is the full coefficient grid, of size
    (p^f)^(d * (m_max+1)); a BudgetExceeded carrying that number is
    raised when it would exceed the budget.
    """
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
    F_t, _ = specialize(module, spec)
    k, top, F = spec.params, spec.m_max + 1, _dicts(spec, F_t)
    coords = [{m: c for m, c in enumerate(digits) if c}
              for digits in product(range(q), repeat=top)]
    found = sorted((x for x in product(coords, repeat=d)
                    if not any(_defect_rows(k, [x], F, top)[0])), key=_row_key)
    return JcSet(spec=spec, elements=tuple(_wrap(spec, x) for x in found))


# -- contraction lifting ------------------------------------------------------

def _lift_setup(module, spec, params):
    """params (the defaults of spec if None) checked against the module
    and the ring of spec, its working ring, and the module's F, V
    specialized there, as PackedMatrix: every product by them packs
    their entries once per slot width."""
    if params is None:
        params = SolverParams.for_spec(module.params.p, module.height, spec)
    if (params.p, params.i) != (module.params.p, module.height):
        raise ParamMismatch(f"params have p = {params.p}, i = {params.i}; the module has "
                            f"p = {module.params.p}, i = {module.height}",
                            precondition="params p, i = the module's p, height")
    params.check_ring(spec)
    spec_int = params.working_spec(spec)
    F, V = (PackedMatrix(spec.params, _dicts(spec_int, M))
            for M in specialize(module, spec_int))
    return params, spec_int, F, V


def contraction_lift(module, spec, x0, params=None):
    """Lift an approximate solution to the exact one, in either ring.

    Returns the unique solution congruent to x0 above valuation b, as a
    LiftResult whose transcript lists defect valuations per iterate.
    The iteration (the one-row case of _contract) runs in the ring of
    SolverParams.working_spec; the result is reduced back and is the
    exact truncation of the true solution.  Untilted, this needs p^s > a.
    The height witness is computed inside, by specialize.
    """
    if x0.spec != spec:
        raise ParamMismatch("x0 does not live in the given ring")
    params, spec_int, F, V = _lift_setup(module, spec, params)
    (start,) = _dicts(spec, [x0.entries])
    input_defect = None  # in tilt mode, the first of the transcript
    if params.restarts_at_b:
        # x0's own defect is checked; the restart from its reduction at b
        # has a defect of its own
        m = _index(_defect_rows(spec.params, [start], F, spec_int.m_max + 1)[0])
        input_defect = math.inf if m == math.inf else spec.monomial_val(m)
        params.check_defect(input_defect)
        start = _truncate(start, params.index_bounds(spec)[1])
    # _contract checks the correction from start; from x0 it is the same
    # check, since start and x0 agree up to b
    ((row, transcript),) = _contract(spec, params, F, V, [start], [((1,), start)])
    return LiftResult(solution=_wrap(spec, row), transcript=transcript,
                      iterations=len(transcript) - 1,
                      input_defect=transcript[0] if input_defect is None else input_defect)


def _contraction_step(k, S, V, top, shift):
    """One iterate y -> (Q + phi(y)) V / u^shift on every dict row at
    once, given the rows S = Q + phi(y): one fused matrix product."""
    return [tuple(_divide(e, shift) for e in row) for row in series_matmul(k, S, V, top)]


def _span(k, rows, d):
    """c -> sum_j c_j rows[j] for c in F_p^r over dict rows of length d,
    memoized: each combination is an earlier one plus one scaled row."""
    memo = {(0,) * len(rows): ({},) * d}

    def combine(c):
        if c not in memo:
            j = max(t for t, cj in enumerate(c) if cj)
            row = rows[j] if c[j] == 1 else tuple(series_scale(k, e, c[j]) for e in rows[j])
            memo[c] = _row_add(k, combine(c[:j] + (0,) * (len(c) - j)), row)
        return memo[c]
    return combine


def _contract(spec, params, F, V, basis, candidates):
    """The lifts of candidates, (c, x0) pairs of coefficients c in F_p^r
    and start row x0 = sum_j c_j basis[j], over the r dict rows basis; F
    and V are the dict matrices (or PackedMatrix) at the working cut.
    Returns a (solution row, transcript) pair per candidate, in order.

    The iteration is F_p-linear, so a candidate's k-th defect and
    correction are the combination c of the basis rows' ones.  A basis
    row whose defect is not above a is rejected first; then no
    combination's is.  Stage 1 iterates the r basis rows and records
    their (defects, corrections) per iterate, until every defect is zero
    or (top - 1 - least) // gain + 1 iterates have run, least the least
    start-defect index: a combination's finite defect index is at least
    least, below top, and rises by at least gain per iterate, so by then
    every candidate has reached a zero defect or failed the gain check.
    Stage 2 reads each candidate off the record, checked as if lifted
    alone (gain h per iterate, correction above b); the first candidate
    whose lift fails raises its error.

    Every iterate is engine calls on dict rows, which the callers read
    from views at entry and wrap as views for their results.  A valuation
    is a least monomial index m, of ring valuation m/D, and the
    thresholds are the integers of SolverParams.index_bounds; a Fraction
    is built only for a transcript and for an error text.  Each step
    divides by u^(defect - correction), the image of (q-1)^((p-1)i).
    """
    spec_int = params.working_spec(spec)
    k, top, D, last, d = spec.params, spec_int.m_max + 1, spec.denominator, spec.m_max, len(F)
    defect_floor, correction_floor, gain = params.index_bounds(spec)
    valuation = functools.cache(lambda m: m if m == math.inf else Fraction(m, D))
    Q = _defect_rows(k, basis, F, top)
    least = min(map(_index, Q), default=math.inf)
    if least <= defect_floor:
        params.check_defect(valuation(least))
    defects = S = Q  # y = 0: phi(y) = 0
    Y = [({},) * d] * len(basis)
    record = [(defects, Y)]
    while any(map(any, defects)) and len(record) <= (top - 1 - least) // gain + 1:
        Y = _contraction_step(k, S, V, top, defect_floor - correction_floor)
        S = [[series_add(k, q, series_frobenius(k, y, top)) for q, y in zip(qs, ys)]
             for qs, ys in zip(Q, Y)]
        defects = series_matmul(k, Y, F, top, C=S)
        record.append((defects, Y))

    spans = [(_span(k, defects, d), _span(k, Y, d)) for defects, Y in record]
    lifted = []
    for c, x0 in candidates:
        t = []  # defect indices per iterate
        for defect_of, correction_of in spans:
            m = _index(defect_of(c))
            if t and m - t[-1] < gain:  # never true for m = inf
                raise StructureViolation(
                    f"contraction rate violated: defect went {valuation(t[-1])} -> "
                    f"{valuation(m)}, gain below h = {params.h}")
            t.append(m)
            if m == math.inf:
                break
        y = _truncate(correction_of(c), last)
        if (corr := _index(y)) <= correction_floor:
            raise StructureViolation(
                f"correction valuation {valuation(corr)} not above "
                f"b{params._units} = {params.correction_floor}")
        lifted.append((_row_add(k, x0, y), tuple(map(valuation, t))))
    return lifted


def contraction_lift_untilted(module, spec, x0, params=None):
    """contraction_lift for an untilted ring O_E / (val > cut); rejects a tilt ring."""
    if SolverParams.level_of(spec) is None:
        raise RegimeViolation("contraction_lift_untilted expects an untilted ring")
    return contraction_lift(module, spec, x0, params=params)


# -- the full pipeline --------------------------------------------------------

# The most cells of the dense candidate matrix (unknowns x equations) that
# _candidate_space eliminates: a tilt depth-8 rank-1 kernel at p = 3
# (2188 x 6562) fits, depth 9 (6562 x 19684) exhausts 2 GB.
KERNEL_CELLS = 2 * 10**7


def _candidate_cut(spec, params):
    # height 0 (b = 0): only the constant band matters
    return params.correction_floor or Fraction(1, 2 * spec.denominator)


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


def _candidate_space(spec, params, F, budget):
    """Every x at the cut b whose zero extension has defect valuation > a.

    The unknowns are the F_p-digits of the coefficients of x: unknown
    (j, m, t) is digit t of the coefficient of u^m in entry j.  Its
    column is the defect of that unit vector at the full cut, read at
    each monomial of valuation <= a and split into digits; the candidates
    are the kernel.  A matrix of more than KERNEL_CELLS cells is refused
    before it is built, and the p^r kernel elements are checked against
    the budget.
    F is the dict matrix at the cut or at a higher one; returned are the
    r kernel basis rows and the p^r (coordinates in that basis,
    candidate) pairs, all dict rows, sorted by candidate in the order of
    PhiVector._key (the order of enumerate_jc, which decides whose lift
    error is raised).
    """
    k = spec.params
    p, f, d = k.p, k.f, len(F)
    last_a, last_b, _ = params.index_bounds(spec)
    slots = last_b + 1
    unknowns, equations = d * slots * f, d * (last_a + 1) * f
    if unknowns * equations > KERNEL_CELLS:
        raise BudgetExceeded(
            f"candidate matrix of {unknowns} unknowns x {equations} equations exceeds "
            f"the dense kernel bound of {KERNEL_CELLS} cells",
            search_space=unknowns * equations,
            budget=KERNEL_CELLS,
        )
    units = [tuple({m: p**t} if jj == j else {} for jj in range(d))
             for j in range(d) for m in range(slots) for t in range(f)]
    # the columns read the defect up to a only (a < cut), so it is
    # computed below a + 1
    columns = [[c for e in defect for mono in range(last_a + 1) for c in k.digits(e.get(mono, 0))]
               for defect in _defect_rows(k, units, F, last_a + 1)]
    kernel = _kernel_mod_p(zip(*columns), len(columns), p)
    size = p ** len(kernel)
    if size > budget:
        raise BudgetExceeded(
            f"solution space p^r = {size} exceeds budget {budget}",
            search_space=size,
            budget=budget,
        )
    basis = []
    for v in kernel:
        coeffs = [k.encode(v[s:s + f]) for s in range(0, len(v), f)]
        basis.append(tuple({m: c for m, c in enumerate(coeffs[j * slots:(j + 1) * slots]) if c}
                           for j in range(d)))
    combine = _span(k, basis, d)
    return basis, sorted(((c, combine(c)) for c in product(range(p), repeat=len(basis))),
                         key=lambda cx: _row_key(cx[1]))


def compute_tstar(module, spec, budget, params=None):
    """All exact solutions of phi(x) = x F over the ring of spec, in either mode.

    The candidates are the x at the injectivity cut b whose zero
    extension has defect valuation above a: a kernel of dimension r
    (_candidate_space), whose p^r elements the budget bounds.  Lifting is
    F_p-linear (the lift is unique, reduction at b injective), so only
    the r basis rows are lifted, together (_contract), and each
    solution and its transcript is formed as an F_p-combination of
    theirs.  Each is checked on dict rows: zero defect at the cut,
    reduction at b equal to its candidate, p^r distinct solutions.  Only
    the sorted solutions are wrapped as PhiVectors.

    The module is specialized once, at the working ring of the lift.
    Its F also serves the candidate search and the final check at the
    caller's cut: the engine drops every index at or above that cut's
    top, so the products there are those of F at the cut.

    Every rank takes this one path.  At d = 0 the kernel is empty, r = 0,
    and the one candidate, the zero vector, lifts with transcript (inf,).
    """
    params, _, F, V = _lift_setup(module, spec, params)
    basis, candidates = _candidate_space(spec, params, F, budget)
    rank = len(basis)
    lifted = _contract(spec, params, F, V, basis, candidates)
    rows = [x for x, _ in lifted]
    last_b = params.index_bounds(spec)[1]
    for (_, x0), x, defect in zip(candidates, rows,
                                  _defect_rows(spec.params, rows, F, spec.m_max + 1)):
        if any(defect) or _truncate(x, last_b) != x0:
            raise StructureViolation(f"formed solution {_wrap(spec, x).to_text()} is not the "
                                     f"lift of {_wrap(spec, x0).to_text()}")
    keys = [_row_key(x) for x in rows]
    if len(set(keys)) != len(keys):
        raise StructureViolation("distinct candidates lifted to one solution")
    if rank > module.rank * module.params.f:
        raise StructureViolation(
            f"rank {rank} exceeds the bound d*f = {module.rank * module.params.f}"
        )
    # the keys are distinct, so the sort never compares two lifts
    lifts = tuple(LiftResult(solution=_wrap(spec, x), transcript=t, iterations=len(t) - 1,
                             input_defect=t[0])
                  for _, (x, t) in sorted(zip(keys, lifted)))
    return TstarResult(
        solutions=tuple(x.solution for x in lifts),
        rank=rank,
        lifts=lifts,
        params=params,
        spec=spec,
    )


def compute_tstar_untilted(module, spec, budget, params=None):
    """compute_tstar for an untilted ring O_E / (val > cut); rejects a tilt ring."""
    if SolverParams.level_of(spec) is None:
        raise RegimeViolation("compute_tstar_untilted expects an untilted ring")
    return compute_tstar(module, spec, budget, params=params)


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
    if power == 0:
        return vec
    if module.G is None:
        raise ValueError("module carries no Galois generator matrix")
    spec, u = vec.spec, module.u_g
    T = exponent_modulus(module.params.p, module.trunc)
    u_inv = pow(u, -1, T) if T > 1 else 1
    H_t = tuple(tuple(embed_twisted(gamma_q(e, u_inv), spec) for e in row)
                for row in mat_inverse_unit(module.G))
    for _ in range(power):
        (moved,) = mat_mul((vec.entries,), H_t)
        vec = PhiVector(spec, tuple(galois_act(e, u) for e in moved))
    return vec


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
    x = min((x for x in solutions if not x.is_zero()), key=PhiVector._key)
    row = tuple(e.coeffs for e in x.entries)
    g = tuple(galois_act(e, u).coeffs for e in x.entries)
    m = _index(row)  # the leading band: the monomials of index m
    if _index(g) != m:
        raise NonCharacter("Galois image has different valuation")
    k = spec.params
    ratios = set()
    for xe, ge in zip(row, g):
        if m in xe:
            ratios.add(k.mul(ge.get(m, 0), k.inv(xe[m])))
        elif m in ge:
            raise NonCharacter("leading band of image not proportional")
    if len(ratios) > 1:
        raise NonCharacter("leading-coefficient ratio is not constant")
    ratio = ratios.pop() if ratios else None
    if ratio is None or ratio == 0 or not k.in_prime_field(ratio):
        raise NonCharacter(f"leading ratio {ratio} is not in F_p^x")
    base = u % p
    for j in range(p - 1):
        if pow(base, j, p) == ratio:
            return j
    raise NonCharacter(f"{ratio} is not a power of {base} mod {p}; "
                       "is u a primitive root?")
