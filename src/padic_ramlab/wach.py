"""Mod-p Wach modules: rank-d free modules over k[[q-1]]/(q-1)^N with a
semilinear Frobenius matrix F and, optionally, the matrix G of one
Galois generator acting with exponent u_G.

The defining conditions checked here:

  * height <= i: there is a matrix V with F V = (q-1)^((p-1)i) Id.
    verify_height produces V or fails, from one elimination over
    k[[x]]/x^N that pivots on the entry of lowest x-adic valuation
    (Smith form F = P diag(x^(h_j) u_j) Q, O(d^3) ring operations); the
    same elimination gives mat_inverse_unit.  Both run on coefficient
    dicts through the series engine, and build QPoly views only for the
    V or inverse they return.  The cofactor determinant
    and adjugate (mat_det, mat_adjugate, O(d!)) are kept as the test
    oracle and are called by no library path;
  * the Galois action is trivial modulo (q-1): G = Id mod (q-1), and
    G commutes with Frobenius in the semilinear sense
    G * gamma(F) = F * phi(G) (verify_gamma, report-valued);
  * iterated containment: the operator (gamma - 1)^(p^s) applied to
    basis vectors lands in (q-1)^(p^s) M (gamma_power_containment).
    In characteristic p it equals gamma^(p^s) - 1, so the check reads
    G_(p^s) - Id, with the matrix G_(p^s) of gamma^(p^s) built by
    square-and-multiply in O(s log p) dict-matrix products below x^(p^s).

specialize() pushes (F, V) into a truncated valued ring, giving the
matrices the fixed-point solvers consume; it embeds and re-checks on
dicts too, and builds ValuedTrunc views only for its result.
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
from .qring import QPoly, frobenius_q, invert_unit, try_divide

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


def _scalar_mismatch(A, target):
    """The first entry '(i,j)' where the dict matrix A differs from target Id, or None."""
    for i, row in enumerate(A):
        for j, a in enumerate(row):
            if a != (target if i == j else {}):
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


def _eliminate(A):
    """Diagonalize A over k[[x]]/(x^N) by valuation-pivoting elimination.

    Returns (R, col_ops, pivots) with R A C = diag(x^(h_j) u_j) mod x^N,
    where R is invertible, C is the product of col_ops in order (an entry
    (j, c, None) swaps columns j and c; (j, c, m) adds m times
    column j to column c) and pivots = [(h_j, u_j^(-1))], each inverse
    below N - h_j.  After one check that the entries of A share one ring,
    it runs on their coefficient dicts through the series engine: R, the
    m and the u_j^(-1) are dicts, and no view is built.  Returns None
    when a remaining submatrix is zero mod x^N (then det A = 0 at this
    truncation).  Each step pivots on an entry of lowest valuation v in
    the remaining submatrix, so every entry there is divisible by x^v,
    and clears the pivot's column by row operations and its row by
    column operations.  The h_j come out non-decreasing.  Cleared
    entries are never read again, so they are not written back.

    Precision: a multiplier -(b / x^v) u^(-1), b an entry to clear and
    x^v u the pivot, is known only mod x^(N-v) and is used with its
    unknown terms set to zero.  Its error meets entries of valuation
    >= v, so it is O(x^N) in the matrix being reduced: R and C are
    exact, and R A C = D holds exactly for another lift A' of A mod x^N.
    For A = F, x^h F'^(-1) = x^h F^(-1) mod x^(N - max(sum h_j, h))
    whenever every h_j <= h, so the error stays below the slack of the
    height witness.
    """
    first = A[0][0]
    k, N, d = first.params, first.trunc, len(A)
    for row in A:
        for a in row:
            first._check(a)
    A = [[a.coeffs for a in row] for row in A]
    R = [[{0: 1} if r == c else {} for c in range(d)] for r in range(d)]
    col_ops = []
    pivots = []
    for j in range(d):
        entries = [(min(A[r][c]), r, c) for r in range(j, d) for c in range(j, d) if A[r][c]]
        if not entries:
            return None
        v, pr, pc = min(entries)
        A[j], A[pr] = A[pr], A[j]
        R[j], R[pr] = R[pr], R[j]
        if pc != j:
            for row in A:
                row[j], row[pc] = row[pc], row[j]
            col_ops.append((j, pc, None))
        unit_inv = qring.series_invert(k, tiltring._divide(A[j][j], v), N - v)

        def multiplier(b):  # -(b / x^v) u^(-1)
            return qring.series_mul(k, qring.series_neg(k, tiltring._divide(b, v)), unit_inv,
                                    N - v)
        for r in range(j + 1, d):
            if A[r][j]:
                m = multiplier(A[r][j])
                A[r][j + 1:] = _add_multiple(k, A[r][j + 1:], m, A[j][j + 1:], N)
                R[r] = _add_multiple(k, R[r], m, R[j], N)
        col_ops.extend((j, c, multiplier(A[j][c])) for c in range(j + 1, d) if A[j][c])
        pivots.append((v, unit_inv))
    return R, col_ops, pivots


def _add_multiple(k, row, m, other, top):
    """row + m other below top, entry by entry, on coefficient dicts."""
    return [a if not b else qring.series_add(k, a, qring.series_mul(k, m, b, top))
            for a, b in zip(row, other)]


def _scaled_inverse(k, R, col_ops, scales, top):
    """C diag(scales) R below top for an elimination (R, col_ops), on
    coefficient dicts: C acts as the row operation matching each column
    operation, last first."""
    rows = [[qring.series_mul(k, b, s, top) for b in row] for row, s in zip(R, scales)]
    for j, c, m in reversed(col_ops):
        if m is None:
            rows[j], rows[c] = rows[c], rows[j]
        else:
            rows[j] = _add_multiple(k, rows[j], m, rows[c], top)
    return rows


def mat_inverse_unit(A):
    """Inverse of a matrix whose determinant is a unit of k[[x]]/(x^N)."""
    if not A:
        return ()
    found = _eliminate(A)
    if found is None or any(v for v, _ in found[2]):
        raise ZeroDivisionError("not a unit: determinant has zero constant term")
    R, col_ops, pivots = found
    k, N = A[0][0].params, A[0][0].trunc
    inverse = _scaled_inverse(k, R, col_ops, [u_inv for _, u_inv in pivots], N)
    return tuple(tuple(QPoly._new(k, N, a) for a in row) for row in inverse)


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
    this is the full N - (p-1)i.  All of it runs on coefficient dicts,
    the check F V = x^h Id too; only the returned V is built as QPoly.
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
    k = module.params
    V = _scaled_inverse(k, R, col_ops, [
        {e + h - v: c for e, c in u_inv.items() if e + h - v < slack} for v, u_inv in pivots
    ], slack)
    # re-multiply and assert the defining identity at the certified slack
    FV = qring.series_matmul(k, [[a.coeffs for a in row] for row in module.F], V, slack)
    bad = _scalar_mismatch(FV, {h: 1} if h < slack else {})
    if bad:
        raise HeightExceeded(f"height > {module.height}: F V != x^{h} Id at entry {bad}")
    return HeightWitness(V=tuple(tuple(QPoly._new(k, slack, a) for a in row) for row in V),
                         slack=slack)


def verify_gamma(module):
    """Check the two Galois conditions; report-valued, never raises.

    (a) G = Id mod (q-1);
    (b) G * gamma(F) = F * phi(G), the semilinear commutation of the
        generator with Frobenius.  A failure of (b) alone is reported
        separately rather than rejecting the module.
    Both read the coefficient dicts of F and G: series_substitute,
    series_frobenius, two series_matmul and one dict comparison.
    """
    if module.G is None:
        raise ValueError("module carries no Galois generator matrix")
    k, N = module.params, module.trunc
    G, F = ([[a.coeffs for a in row] for row in M] for M in (module.G, module.F))
    trivial = all(g.get(0, 0) == (i == j) for i, row in enumerate(G) for j, g in enumerate(row))
    gamma_F = [[qring.series_substitute(k, a, module.u_g, N) for a in row] for row in F]
    phi_G = [[qring.series_frobenius(k, g, N) for g in row] for row in G]
    commutes = qring.series_matmul(k, G, gamma_F, N) == qring.series_matmul(k, F, phi_G, N)
    return GammaReport(trivial_mod_q1=trivial, commutes_with_phi=commutes)


def _gamma_power(module, n, top):
    """The dict matrix of gamma^n (n >= 1), cut below top.

    gamma^a is the substitution by u^a, so G_(a+b) = G_a * gamma_(u^a)(G_b)
    with G_1 = G: square-and-multiply over the bits of n, each step one
    series_matmul over substituted entries, u^a mod p times the exponent
    modulus of top (still a unit).  The cut is exact: it commutes with sums,
    products and each substitution x -> (1+x)^u - 1, u prime to p, which
    has valuation 1 and so maps x^top k[[x]] into itself.
    """
    k = module.params
    u, modulus = module.u_g, k.p * qring.exponent_modulus(k.p, top)
    G = [[{e: c for e, c in g.coeffs.items() if e < top} for g in row] for row in module.G]

    def step(A, a, B):
        u_a = pow(u, a, modulus)
        B = [[qring.series_substitute(k, b, u_a, top) for b in row] for row in B]
        return qring.series_matmul(k, A, B, top)

    X, m = G, 1
    for bit in bin(n)[3:]:
        X, m = step(X, m, X), 2 * m
        if bit == "1":
            X, m = step(G, 1, X), m + 1
    return X


def gamma_power_containment(module, s):
    """Check (gamma - 1)^(p^s) e_j is divisible by (q-1)^(p^s) for all j.

    In characteristic p, (gamma - 1)^(p^s) = gamma^(p^s) - 1, so the
    check reads G_(p^s) = Id mod x^(p^s), with G_(p^s) built by
    square-and-multiply below p^s, not N (_gamma_power, whose cut is
    exact, so the verdict is the one at N): O(s log p) products, not p^s
    applications of gamma - 1.  Each application of gamma - 1 consumes
    one factor q(q-1)^p, so the truncation floor is N > p^s + (p-1)i;
    below it a failure could be a truncation artifact.  For s >= 1 the
    statement needs the generator exponent to lie in 1 + pZ (the standard
    wild generator); other units only satisfy the s = 0 statement.
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
    return _scalar_mismatch(_gamma_power(module, power, power), {0: 1}) is None


def _twisted_embedding(k, trunc, spec):
    """embed_twisted on the coefficient dicts of sources over k at truncation trunc."""
    embed = tiltring._embedding(k, trunc, spec)
    if spec.mode != tiltring.UNTILTED or k.f == 1:
        return embed
    return lambda a: {m: k.frobenius_pow(c, -spec.level) for m, c in embed(a).items()}


def embed_twisted(a, spec):
    """embed_q of a, its coefficients first twisted by the inverse s-th
    Frobenius of k in untilted mode at level s (trivial for f = 1)."""
    return tiltring.ValuedTrunc._new(spec, _twisted_embedding(a.params, a.trunc, spec)(a.coeffs))


def specialize(module, spec):
    """Push (F, V) into the valued ring given by spec; the height witness
    V is computed inside, by verify_height.

    Entries go through embed_twisted, on coefficient dicts: the field and
    the truncations are checked once per matrix, and ValuedTrunc views
    are built only for the returned F_t and V_t.  The identity
    F_t V_t = (image of q-1)^((p-1)i) is re-asserted at the target cut.
    V is certified only to N - max(sum h_j, (p-1)i); a cut beyond its
    reach raises a CapacityExceeded that names N and that truncation.
    """
    witness = verify_height(module)
    if not module.rank:
        return (), ()
    k = module.params
    embed = _twisted_embedding(k, module.trunc, spec)
    try:
        tiltring._embedding(k, witness.slack, spec)
    except CapacityExceeded:
        raise CapacityExceeded(
            f"module truncation N={module.trunc} certifies the height witness V only to "
            f"truncation {witness.slack} = N - max(sum h_j, (p-1)i), which does not "
            f"determine its image up to the target cut {spec.cut}",
            precondition="(N - max(sum h_j, (p-1)i)) * val(image of q-1) > cut",
        ) from None
    F_t, V_t = ([[embed(a.coeffs) for a in row] for row in M] for M in (module.F, witness.V))
    target = module.height_exponent * spec.embed_exponent
    FV = qring.series_matmul(k, F_t, V_t, spec.m_max + 1)
    bad = _scalar_mismatch(FV, {target: 1} if target <= spec.m_max else {})
    if bad:
        raise HeightExceeded(f"specialized F V != (image of q-1)^((p-1)i) at {bad}")
    wrap = functools.partial(tiltring.ValuedTrunc._new, spec)
    return tuple(tuple(tuple(map(wrap, row)) for row in M) for M in (F_t, V_t))


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
