"""Mod-p Wach modules: rank-d free modules over k[[q-1]]/(q-1)^N with a
semilinear Frobenius matrix F and, optionally, the matrix G of one
Galois generator acting with exponent u_G.

The defining conditions checked here:

  * height <= i: there is a matrix V with F V = (q-1)^((p-1)i) Id.
    verify_height produces V or fails, from one elimination over
    k[[x]]/x^N that pivots on the entry of lowest x-adic valuation
    (Smith form F = P diag(x^(h_j) u_j) Q, O(d^3) ring operations); the
    same elimination gives mat_inverse_unit.  The cofactor determinant
    and adjugate (mat_det, mat_adjugate, O(d!)) are kept as the test
    oracle and are called by no library path;
  * the Galois action is trivial modulo (q-1): G = Id mod (q-1), and
    G commutes with Frobenius in the semilinear sense
    G * gamma(F) = F * phi(G) (verify_gamma, report-valued);
  * iterated containment: the operator (gamma - 1)^(p^s) applied to
    basis vectors lands in (q-1)^(p^s) M (gamma_power_containment).
    In characteristic p it equals gamma^(p^s) - 1, so the check reads
    G_(p^s) - Id, with the matrix G_(p^s) of gamma^(p^s) built by
    square-and-multiply in O(s log p) matrix products.

specialize() pushes (F, V) into a truncated valued ring, giving the
matrices the fixed-point solvers consume.
"""

import functools
import json
from dataclasses import dataclass
from typing import Optional

from . import qring, tiltring
from .errors import (
    CapacityExceeded,
    HeightExceeded,
    RamlabError,
    RegimeViolation,
    TruncationTooLow,
)
from .gf import FiniteFieldParams
from .qring import QPoly, frobenius_q, gamma_q, invert_unit, try_divide

__all__ = [
    "WachModuleModP",
    "HeightWitness",
    "GammaReport",
    "verify_height",
    "verify_gamma",
    "gamma_power_containment",
    "specialize",
    "make_rank1_module",
    "random_module",
    "standard_rank1_gamma",
    "module_from_dict",
    "module_to_dict",
    "load_module_file",
]


# -- small matrix helpers over QPoly ----------------------------------------

def mat_identity(params, trunc, d):
    one = QPoly.one(params, trunc)
    zero = QPoly.zero(params, trunc)
    return tuple(tuple(one if i == j else zero for j in range(d)) for i in range(d))


def mat_mul(A, B):
    """The product of two matrices over one ring (QPoly or ValuedTrunc).

    Each entry is one fused sum of packed products (qring.series_matmul).
    Every entry passes the view's compatibility check.
    """
    if not A or not B or not B[0]:
        return tuple(() for _ in A)
    first = A[0][0]
    for row in (*A, *B):
        for a in row:
            first._check(a)
    if isinstance(first, QPoly):
        k, top = first.params, first.trunc
        wrap = functools.partial(QPoly._new, k, top)
    else:
        k, top = first.spec.params, first.spec.m_max + 1
        wrap = functools.partial(tiltring.ValuedTrunc._new, first.spec)
    product = qring.series_matmul(k, [[a.coeffs for a in row] for row in A],
                                  [[b.coeffs for b in row] for row in B], top)
    return tuple(tuple(map(wrap, row)) for row in product)


def mat_map(fn, A):
    return tuple(tuple(fn(a) for a in row) for row in A)


def _scalar_mismatch(A, target, zero):
    """The first entry '(i,j)' where A differs from target Id, or None."""
    for i, row in enumerate(A):
        for j, a in enumerate(row):
            if a != (target if i == j else zero):
                return f"({i},{j})"
    return None


def mat_det(A):
    d = len(A)
    if d == 0:
        return None
    if d == 1:
        return A[0][0]
    det = None
    for j in range(d):
        minor = tuple(row[:j] + row[j + 1:] for row in A[1:])
        term = A[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        det = term if det is None else det + term
    return det


def mat_adjugate(A):
    d = len(A)
    if d == 1:
        one = QPoly.one(A[0][0].params, A[0][0].trunc)
        return ((one,),)
    adj = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = tuple(
                tuple(A[r][c] for c in range(d) if c != j)
                for r in range(d) if r != i
            )
            cof = mat_det(minor)
            if (i + j) % 2:
                cof = -cof
            adj[j][i] = cof  # transpose of cofactors
    return tuple(tuple(row) for row in adj)


def _lift(a, trunc):
    """The element a read at the higher truncation trunc, unknown terms zero."""
    return QPoly(a.params, trunc, a.coeffs)


def _eliminate(A):
    """Diagonalize A over k[[x]]/(x^N) by valuation-pivoting elimination.

    Returns (R, col_ops, pivots) with R A C = diag(x^(h_j) u_j) mod x^N,
    where R is invertible, C is the product of col_ops in order (an entry
    (k, c, None) swaps columns k and c; (k, c, m) adds m times
    column k to column c) and pivots = [(h_j, u_j^(-1))], each inverse
    at truncation N - h_j.  Returns None when a remaining submatrix is
    zero mod x^N (then det A = 0 at this truncation).  Each step pivots
    on an entry of lowest valuation v in the remaining submatrix, so
    every entry there is divisible by x^v, and clears the pivot's column
    by row operations and its row by column operations.  The h_j come
    out non-decreasing.  Cleared entries are never read again, so they
    are not written back.

    Precision: a multiplier -(b / x^v) u^(-1), b an entry to clear and
    x^v u the pivot, is known only mod x^(N-v) and is used with its
    unknown terms set to zero.  Its error meets entries of valuation
    >= v, so it is O(x^N) in the matrix being reduced: R and C are
    exact, and R A C = D holds exactly for another lift A' of A mod x^N.
    For A = F, x^h F'^(-1) = x^h F^(-1) mod x^(N - max(sum h_j, h))
    whenever every h_j <= h, so the error stays below the slack of the
    height witness.
    """
    d = len(A)
    N = A[0][0].trunc
    A = [list(row) for row in A]
    R = [list(row) for row in mat_identity(A[0][0].params, N, d)]
    col_ops = []
    pivots = []
    for k in range(d):
        entries = [(A[r][c].valuation(), r, c) for r in range(k, d)
                   for c in range(k, d) if not A[r][c].is_zero()]
        if not entries:
            return None
        v, pr, pc = min(entries)
        A[k], A[pr] = A[pr], A[k]
        R[k], R[pr] = R[pr], R[k]
        if pc != k:
            for row in A:
                row[k], row[pc] = row[pc], row[k]
            col_ops.append((k, pc, None))
        unit_inv = invert_unit(try_divide(A[k][k], v))
        for r in range(k + 1, d):
            if A[r][k].is_zero():
                continue
            neg_m = _lift(try_divide(-A[r][k], v) * unit_inv, N)
            for c in range(k + 1, d):
                if not A[k][c].is_zero():
                    A[r][c] = A[r][c] + neg_m * A[k][c]
            R[r] = [a if b.is_zero() else a + neg_m * b for a, b in zip(R[r], R[k])]
        for c in range(k + 1, d):
            if not A[k][c].is_zero():
                col_ops.append((k, c, _lift(try_divide(-A[k][c], v) * unit_inv, N)))
        pivots.append((v, unit_inv))
    return R, col_ops, pivots


def _scaled_inverse(R, col_ops, scales):
    """C diag(scales) R for an elimination (R, col_ops), at the truncation
    of the scales: C acts as the row operation matching each column
    operation, last first."""
    trunc = scales[0].trunc
    zero = QPoly.zero(scales[0].params, trunc)
    rows = [[zero if b.is_zero() else b.retrunc(trunc) * s for b in row]
            for row, s in zip(R, scales)]
    for k, c, m in reversed(col_ops):
        if m is None:
            rows[k], rows[c] = rows[c], rows[k]
        else:
            m = m.retrunc(trunc)
            rows[k] = [a if b.is_zero() else a + m * b for a, b in zip(rows[k], rows[c])]
    return tuple(map(tuple, rows))


def mat_inverse_unit(A):
    """Inverse of a matrix whose determinant is a unit of k[[x]]/(x^N)."""
    if not A:
        return ()
    found = _eliminate(A)
    if found is None or any(v for v, _ in found[2]):
        raise ZeroDivisionError("not a unit: determinant has zero constant term")
    R, col_ops, pivots = found
    return _scaled_inverse(R, col_ops, [u_inv for _, u_inv in pivots])


# -- the module type ---------------------------------------------------------

@dataclass(frozen=True)
class WachModuleModP:
    params: FiniteFieldParams
    trunc: int
    rank: int
    height: int
    F: tuple            # rank x rank matrix of QPoly
    G: Optional[tuple] = None
    u_g: Optional[int] = None

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.height < 0:
            raise ValueError("height must be >= 0")
        for M, name in ((self.F, "F"), (self.G, "G")):
            if M is None:
                continue
            if len(M) != self.rank or any(len(row) != self.rank for row in M):
                raise ValueError(f"{name} is not a {self.rank}x{self.rank} matrix")
            for row in M:
                for a in row:
                    if a.params != self.params or a.trunc != self.trunc:
                        raise ValueError(f"{name} entry at wrong params/truncation")
        if self.G is not None and self.u_g is None:
            raise ValueError("G given without its exponent u_g")

    @property
    def height_exponent(self):
        """(p-1)*i: the x-power divided out by the quasi-inverse."""
        return (self.params.p - 1) * self.height


@dataclass(frozen=True)
class HeightWitness:
    V: tuple
    slack: int  # truncation at which F V = x^((p-1)i) Id was verified


@dataclass(frozen=True)
class GammaReport:
    trivial_mod_q1: bool
    commutes_with_phi: bool

    @property
    def ok(self):
        return self.trivial_mod_q1 and self.commutes_with_phi


def verify_height(module):
    """Produce V with F V = (q-1)^((p-1)i) Id, or raise HeightExceeded.

    One elimination over k[[x]]/(x^N) (_eliminate) writes
    F = P diag(x^(h_j) u_j) Q with P, Q invertible and u_j units; then
    V = Q^(-1) diag(x^(h - h_j) u_j^(-1)) P^(-1) with h = (p-1)i, which
    is x^h F^(-1), unique at the certified truncation.  HeightExceeded
    is raised when det F = 0 at this truncation (sum h_j >= N or a zero
    remaining block) or some h_j > h.  The witness is certified at
    truncation N - max(sum h_j, h); for the generic case sum h_j <= h
    this is the full N - (p-1)i.
    """
    h = module.height_exponent
    N = module.trunc
    if N <= h:
        raise TruncationTooLow(
            f"truncation {N} too low: need N > (p-1)*i = {h}",
            precondition="N > (p-1)i",
        )
    if module.rank == 0:
        return HeightWitness(V=(), slack=N - h)
    found = _eliminate(module.F)
    delta = sum(v for v, _ in found[2]) if found is not None else N
    if delta >= N:
        raise HeightExceeded(
            "det F = 0 at this truncation: Frobenius is not injective"
        )
    R, col_ops, pivots = found
    top = pivots[-1][0]
    if top > h:
        raise HeightExceeded(
            f"height > {module.height}: elementary divisor x^{top} does not "
            f"divide x^{h}"
        )
    slack = N - max(delta, h)
    V = _scaled_inverse(R, col_ops, [
        u_inv.retrunc(slack).shift(h - v) for v, u_inv in pivots
    ])
    # re-multiply and assert the defining identity at the certified slack
    zero = QPoly.zero(module.params, slack)
    target = QPoly.monomial(module.params, slack, h) if h < slack else zero
    F_cut = mat_map(lambda a: a.retrunc(slack), module.F)
    bad = _scalar_mismatch(mat_mul(F_cut, V), target, zero)
    if bad:
        raise HeightExceeded(f"height > {module.height}: F V != x^{h} Id at entry {bad}")
    return HeightWitness(V=V, slack=slack)


def verify_gamma(module):
    """Check the two Galois conditions; report-valued, never raises.

    (a) G = Id mod (q-1);
    (b) G * gamma(F) = F * phi(G), the semilinear commutation of the
        generator with Frobenius.  A failure of (b) alone is reported
        separately rather than rejecting the module.
    """
    if module.G is None:
        raise ValueError("module carries no Galois generator matrix")
    trivial = all(g.constant_term() == (1 if i == j else 0)
                  for i, row in enumerate(module.G) for j, g in enumerate(row))
    gamma_F = mat_map(lambda a: gamma_q(a, module.u_g), module.F)
    phi_G = mat_map(frobenius_q, module.G)
    lhs = mat_mul(module.G, gamma_F)
    rhs = mat_mul(module.F, phi_G)
    commutes = lhs == rhs
    return GammaReport(trivial_mod_q1=trivial, commutes_with_phi=commutes)


def _gamma_power(module, n):
    """G_n, whose columns are the images of the basis under gamma^n (n >= 1).

    gamma^a is the substitution by u^a on coefficients, so
    G_(a+b) = G_a * gamma_(u^a)(G_b) with G_1 = G.  Square-and-multiply
    over the bits of n: each step is one mat_mul and one gamma_q map,
    at an exponent reduced mod the exponent modulus (still a unit).
    """
    u, modulus = module.u_g, qring.exponent_modulus(module.params.p, module.trunc)

    def step(A, a, B):
        u_a = pow(u, a, modulus)
        return mat_mul(A, mat_map(lambda b: gamma_q(b, u_a), B))

    X, m = module.G, 1
    for bit in bin(n)[3:]:
        X, m = step(X, m, X), 2 * m
        if bit == "1":
            X, m = step(module.G, 1, X), m + 1
    return X


def gamma_power_containment(module, s):
    """Check (gamma - 1)^(p^s) e_j is divisible by (q-1)^(p^s) for all j.

    In characteristic p, (gamma - 1)^(p^s) = gamma^(p^s) - 1, so the
    check reads the valuations of G_(p^s) - Id, with G_(p^s) built by
    square-and-multiply (_gamma_power): O(s log p) matrix products, not
    p^s applications of gamma - 1.  Each application of gamma - 1
    consumes one factor q(q-1)^p, so the truncation floor is
    N > p^s + (p-1)i; below it a failure could be a truncation artifact.
    For s >= 1 the statement needs the generator exponent to lie in
    1 + pZ (the standard wild generator); other units only satisfy the
    s = 0 statement.
    """
    if module.G is None:
        raise ValueError("module carries no Galois generator matrix")
    p = module.params.p
    power = p**s
    if module.trunc <= power + module.height_exponent:
        raise TruncationTooLow(
            f"need N > p^s + (p-1)i = {power + module.height_exponent}, "
            f"have N = {module.trunc}",
            precondition="N > p^s + (p-1)i",
        )
    if s >= 1 and module.u_g % p != 1:
        raise RegimeViolation(
            f"generator exponent {module.u_g} is not 1 mod p; the iterated "
            "containment only applies to the wild generator",
            precondition="u_G = 1 (mod p) for s >= 1",
        )
    one = QPoly.one(module.params, module.trunc)
    minus_id = (g - one if i == j else g
                for i, row in enumerate(_gamma_power(module, power)) for j, g in enumerate(row))
    return all(a.is_zero() or a.valuation() >= power for a in minus_id)


def embed_twisted(a, spec):
    """embed_q of a, its coefficients first twisted by the inverse s-th
    Frobenius of k in untilted mode at level s (trivial for f = 1)."""
    k = a.params
    if spec.mode == tiltring.UNTILTED and k.f > 1:
        a = QPoly(k, a.trunc, {e: k.frobenius_pow(c, -spec.level) for e, c in a.coeffs.items()})
    return tiltring.embed_q(a, spec)


def specialize(module, spec):
    """Push (F, V) into the valued ring given by spec; the height witness
    V is computed inside, by verify_height.

    Entries go through embed_twisted.  The identity
    F_t V_t = (image of q-1)^((p-1)i) is re-asserted at the target cut.
    V is certified only to N - max(sum h_j, (p-1)i); a cut beyond its
    reach raises a CapacityExceeded that names N and that truncation.
    """
    witness = verify_height(module)
    F_t = mat_map(lambda a: embed_twisted(a, spec), module.F)
    try:
        V_t = mat_map(lambda a: embed_twisted(a, spec), witness.V)
    except CapacityExceeded:
        raise CapacityExceeded(
            f"module truncation N={module.trunc} certifies the height witness V only to "
            f"truncation {witness.slack} = N - max(sum h_j, (p-1)i), which does not "
            f"determine its image up to the target cut {spec.cut}",
            precondition="(N - max(sum h_j, (p-1)i)) * val(image of q-1) > cut",
        ) from None
    target_idx = module.height_exponent * spec.embed_exponent
    zero = tiltring.ValuedTrunc.zero(spec)
    target = tiltring.ValuedTrunc(spec, {target_idx: 1}) if target_idx <= spec.m_max else zero
    bad = _scalar_mismatch(mat_mul(F_t, V_t), target, zero)
    if bad:
        raise HeightExceeded(f"specialized F V != (image of q-1)^((p-1)i) at {bad}")
    return F_t, V_t


# -- standard rank-1 family ---------------------------------------------------

def standard_rank1_gamma(params, trunc, i, u):
    """Generator matrix entry for the rank-1 module with F = (q-1)^((p-1)i).

    Solves g / phi(g) = ((q-1)/(q^u-1))^((p-1)i) by the convergent
    product g = prod_n phi^n(rho) with rho = ([u]_q / u)^(-(p-1)i),
    where [u]_q = (q^u-1)/(q-1) is the q-analogue of u.  Each factor is
    1 mod (q-1)^(p^n), so finitely many factors matter at truncation.
    """
    k = params
    p = k.p
    h = (p - 1) * i
    # [u]_q = ((1+x)^u - 1)/x, a unit with constant term u
    q_analog = try_divide(qring.one_plus_x_pow(params, trunc + 1, u), 1)
    rho = invert_unit(q_analog**h).scale(k.pow(u % p, h))
    g = QPoly.one(params, trunc)
    factor = rho
    power = 1
    while power < trunc:
        g = g * factor
        factor = frobenius_q(factor)
        power *= p
    return g


def random_module(rng, p, rank, height, trunc, f=1):
    """A random module passing verification, for randomized checks.

    F = L diag(x^(h_1), .., x^(h_d)) U with unit-triangular L, U and
    h_j <= (p-1)*height, so the claimed height bound holds.  G is
    Id + x * (random matrix), trivial mod (q-1) by construction; the
    generator exponent u_G is always a random element of 1 + pZ, so the
    iterated containment bounds apply.
    """
    params = FiniteFieldParams(p, f)

    def rand_poly(min_exp=0):
        coeffs = {}
        for e in range(min_exp, trunc):
            if rng.random() < 0.35:
                c = rng.randrange(params.order)
                if c:
                    coeffs[e] = c
        return QPoly(params, trunc, coeffs)

    d = rank
    ident = mat_identity(params, trunc, d)
    L = [list(row) for row in ident]
    U = [list(row) for row in ident]
    for r in range(d):
        for c in range(d):
            if r > c:
                L[r][c] = rand_poly()
            elif r < c:
                U[r][c] = rand_poly()
    hmax = (p - 1) * height
    diag = tuple(
        tuple(
            QPoly.monomial(params, trunc, rng.randint(0, hmax)) if r == c
            else QPoly.zero(params, trunc)
            for c in range(d)
        )
        for r in range(d)
    )
    F = mat_mul(mat_mul(tuple(map(tuple, L)), diag), tuple(map(tuple, U)))
    G = tuple(
        tuple(ident[r][c] + rand_poly(min_exp=1) for c in range(d))
        for r in range(d)
    )
    return WachModuleModP(params=params, trunc=trunc, rank=d, height=height,
                          F=F, G=G, u_g=1 + p * rng.randint(1, 4))


def make_rank1_module(p, i, f=1, trunc=None, with_gamma=False, u=None):
    """The height-i rank-1 module with F = (q-1)^((p-1)i).

    Default truncation leaves room for solver specialization at the
    inflated working cut (a + i plus margin in tilt depth 1).
    """
    params = FiniteFieldParams(p, f)
    if trunc is None:
        trunc = (4 * p - 3) * i + 12
    F = ((QPoly.monomial(params, trunc, (p - 1) * i),),) if i > 0 else (
        (QPoly.one(params, trunc),),
    )
    G = None
    u_g = None
    if with_gamma:
        u_g = u if u is not None else p + 1
        G = ((standard_rank1_gamma(params, trunc, i, u_g),),)
    return WachModuleModP(params=params, trunc=trunc, rank=1, height=i,
                          F=F, G=G, u_g=u_g)


# -- module files -------------------------------------------------------------

def module_to_dict(module, name=None, description=None):
    doc = {
        "p": module.params.p,
        "f": module.params.f,
        "N": module.trunc,
        "d": module.rank,
        "i": module.height,
        "F": [[a.terms_str() for a in row] for row in module.F],
    }
    if module.G is not None:
        doc["G"] = [[a.terms_str() for a in row] for row in module.G]
        doc["uG"] = module.u_g
    if name:
        doc["name"] = name
    if description:
        doc["description"] = description
    return doc


def _integer(doc, key, default=None):
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise RamlabError(f"module file: {key} = {value!r} is not an integer",
                          precondition=f"{key} is an integer")
    return value


def _matrix_cells(doc, key, d):
    rows = doc[key]
    if not (isinstance(rows, list) and len(rows) == d
            and all(isinstance(row, list) and len(row) == d
                    and all(isinstance(cell, str) for cell in row) for row in rows)):
        raise RamlabError(f"module file: {key} is not a {d}x{d} matrix of term strings",
                          precondition=f"{key} is a d x d matrix of strings, d = {d}")
    return rows


def module_from_dict(doc):
    """Build a module from its file form, checking the file's contract.

    A missing key, a scalar that is not an integer, G without uG, a uG
    divisible by p, a matrix whose shape is not d x d or a truncation
    N < 1 raises RamlabError naming the violated precondition.
    """
    if not isinstance(doc, dict):
        raise RamlabError("module file: not a JSON object",
                          precondition="file holds one JSON object")
    missing = [key for key in ("p", "N", "d", "i", "F") if key not in doc]
    if missing:
        raise RamlabError(f"module file: missing key(s) {', '.join(missing)}",
                          precondition="keys p, N, d, i, F present")
    if "G" in doc and "uG" not in doc:
        raise RamlabError("module file: G given without uG",
                          precondition="uG present when G is")
    params = FiniteFieldParams(_integer(doc, "p"), _integer(doc, "f", 1))
    trunc = _integer(doc, "N")
    if trunc < 1:
        raise RamlabError(f"module file: N = {trunc}", precondition="N >= 1")
    d = _integer(doc, "d")

    def parse_cell(key, r, c, cell):
        try:
            return qring.parse_terms(cell, params, trunc)
        except ValueError as exc:
            raise ValueError(f"module file: {key}[{r}][{c}]: {exc}") from None

    def parse_matrix(key):
        return tuple(
            tuple(parse_cell(key, r, c, cell) for c, cell in enumerate(row))
            for r, row in enumerate(_matrix_cells(doc, key, d))
        )

    F = parse_matrix("F")
    G = None
    u_g = None
    if "G" in doc:
        G = parse_matrix("G")
        u_g = _integer(doc, "uG")
        if u_g % params.p == 0:
            raise RamlabError(f"module file: uG = {u_g} is divisible by p = {params.p}",
                              precondition="gcd(uG, p) = 1")
    return WachModuleModP(params=params, trunc=trunc, rank=d,
                          height=_integer(doc, "i"), F=F, G=G, u_g=u_g)


def load_module_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return module_from_dict(json.load(fh))
