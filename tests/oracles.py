"""Independent oracles used by the test suite.

These recompute expected values by routes disjoint from the library:
dense polynomial arithmetic, the series product and Galois substitution
one field operation per pair of terms (the library packs them into big
integers), Sylvester resultants over Z with a Bareiss determinant, and direct valuation computations of conjugate differences
in explicit number rings, and the Herbrand function as a piecewise sum
of the integral that defines it.  The height witness is recomputed by the
cofactor determinant and adjugate over k[[x]]/x^N, a route that shares
only the series arithmetic with the elimination in wach.  The Galois
containment is recomputed by applying gamma - 1 p^s times, where the
library squares and multiplies gamma's matrix below p^s, and the
commutation G gamma(F) = F phi(G) by schoolbook products and Horner
substitution.  T* is
recomputed by lifting each of its p^r candidates alone, where the
solver lifts only a basis of r of them.
"""

import math
from fractions import Fraction

from padic_ramlab.errors import HeightExceeded, NotDivisible, TruncationTooLow
from padic_ramlab.frobsolve import _candidate_space, _dicts, _wrap, contraction_lift
from padic_ramlab.qring import invert_unit, try_divide
from padic_ramlab.wach import mat_adjugate, mat_det, specialize


# -- dense polynomial arithmetic over F_p (schoolbook) -----------------------

def dense_mul(a, b, p, n):
    """Coefficient lists (ascending), product truncated below degree n."""
    out = [0] * n
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < n:
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def dense_pow(a, e, p, n):
    out = [1] + [0] * (n - 1)
    for _ in range(e):
        out = dense_mul(out, a, p, n)
    return out


# -- the series engine pair by pair -------------------------------------------
# Coefficient dicts {index -> nonzero k-element} below an exclusive bound
# top, as in qring's series engine, computed one k-operation at a time.

def schoolbook_mul(k, a, b, top):
    """The product below top, one k.mul per pair of terms."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if e1 + e2 < top:
                out[e1 + e2] = k.add(out.get(e1 + e2, 0), k.mul(c1, c2))
    return {e: c for e, c in out.items() if c}


def schoolbook_matmul(k, A, B, top):
    """The matrix product of dict matrices, entry by entry."""
    out = []
    for row in A:
        out_row = []
        for col in zip(*B):
            acc = {}
            for a, b in zip(row, col):
                for e, c in schoolbook_mul(k, a, b, top).items():
                    acc[e] = k.add(acc.get(e, 0), c)
            out_row.append({e: c for e, c in acc.items() if c})
        out.append(out_row)
    return out


def horner_substitute(k, a, u, top):
    """t -> (1+t)^u - 1 for u >= 1 prime to p: the powers of the binomial
    series of u itself (not reduced mod p^T), built by Horner steps."""
    base = {j: c for j in range(1, top) if (c := math.comb(u, j) % k.p)}
    out, power, prev = {}, {0: 1}, 0
    for e in sorted(a):
        for _ in range(e - prev):
            power = schoolbook_mul(k, power, base, top)
        prev = e
        for j, b in power.items():
            out[j] = k.add(out.get(j, 0), k.mul(b, a[e]))
    return {j: c for j, c in out.items() if c}


# -- the Galois action by iteration -------------------------------------------
# Matrices over k[[x]]/x^N as lists of rows of coefficient dicts; the
# columns are vectors in the basis of the module.

def dict_identity(d):
    return [[{0: 1} if r == c else {} for c in range(d)] for r in range(d)]


def gamma_of(module, X):
    """G gamma(X): the generator applied to each column of X, as one
    Horner substitution by u_G itself per entry and a schoolbook product."""
    k, top = module.params, module.trunc
    return schoolbook_matmul(
        k, [[a.coeffs for a in row] for row in module.G],
        [[horner_substitute(k, a, module.u_g, top) for a in row] for row in X], top)


def gamma_minus_one(module, X):
    """(gamma - 1) applied to each column of X."""
    k = module.params
    return [[{e: c for e in m.keys() | a.keys() if (c := k.add(m.get(e, 0), k.neg(a.get(e, 0))))}
             for m, a in zip(m_row, x_row)] for m_row, x_row in zip(gamma_of(module, X), X)]


def gamma_commutation(module):
    """(G = Id mod x, G gamma(F) = F phi(G)) by schoolbook products,
    Horner substitution by u_G itself and the Frobenius c x^e -> c^p x^(p e)
    one term at a time."""
    k, top = module.params, module.trunc
    F, G = ([[a.coeffs for a in row] for row in M] for M in (module.F, module.G))
    trivial = all(g.get(0, 0) == (r == c) for r, row in enumerate(G) for c, g in enumerate(row))
    gamma_F = [[horner_substitute(k, a, module.u_g, top) for a in row] for row in F]
    phi_G = [[{k.p * e: k.pow(c, k.p) for e, c in g.items() if k.p * e < top} for g in row]
             for row in G]
    return trivial, schoolbook_matmul(k, G, gamma_F, top) == schoolbook_matmul(k, F, phi_G, top)


def gamma_images_by_iteration(module, n):
    """The matrix of gamma^n: n applications of gamma to Id."""
    X = dict_identity(module.rank)
    for _ in range(n):
        X = gamma_of(module, X)
    return X


def containment_by_iteration(module, s):
    """(verdict, X) of gamma_power_containment by its definition.

    X is (gamma - 1)^(p^s) applied to Id, one step v -> G gamma(v) - v
    at a time, p^s steps; the verdict is whether every entry of X has
    valuation >= p^s.  The library forms gamma^(p^s) - 1 by
    square-and-multiply on packed series instead.
    """
    power = module.params.p**s
    X = dict_identity(module.rank)
    for _ in range(power):
        X = gamma_minus_one(module, X)
    return all(min(a, default=power) >= power for row in X for a in row), X


# -- integer polynomial helpers ----------------------------------------------

def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mod_monic(f, g):
    """Remainder of f by monic g, over Z (ascending coefficients)."""
    f = list(f)
    dg = len(g) - 1
    while len(f) - 1 >= dg and poly_trim(f):
        shift = len(f) - 1 - dg
        c = f[-1]
        for k in range(dg + 1):
            f[shift + k] -= c * g[k]
        poly_trim(f)
    return f


def bareiss_det(matrix):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant(f, g):
    """Res(f, g) for integer polynomials, via the Sylvester determinant."""
    f = poly_trim(list(f))
    g = poly_trim(list(g))
    df, dg = len(f) - 1, len(g) - 1
    if df < 0 or dg < 0:
        return 0
    n = df + dg
    if n == 0:
        return 1
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for r in range(dg):
        rows.append([0] * r + frev + [0] * (n - df - 1 - r))
    for r in range(df):
        rows.append([0] * r + grev + [0] * (n - dg - 1 - r))
    return bareiss_det(rows)


def vp(n, p):
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# -- cyclotomic filtration oracle --------------------------------------------

def cyclotomic_poly_prime_power(p, n):
    """Phi_{p^n}(X) = sum_j X^(j p^(n-1)), ascending coefficients."""
    deg = p ** (n - 1) * (p - 1)
    out = [0] * (deg + 1)
    for j in range(p):
        out[j * p ** (n - 1)] = 1
    return out


def cyclotomic_conjugate_valuations(p, n):
    """v_L(sigma_a(zeta) - zeta) for all a != 1 in (Z/p^n)^x.

    Computed as v_p of the resultant of Phi_{p^n} with X^a - X, valid
    because the extension is totally ramified, so the norm valuation is
    the extension valuation.
    """
    phi = cyclotomic_poly_prime_power(p, n)
    vals = []
    for a in range(2, p**n):
        if a % p == 0:
            continue
        g = [0] * (a + 1)
        g[a] = 1
        g[1] -= 1
        g = poly_mod_monic(g, phi)
        res = resultant(phi, g)
        vals.append(vp(abs(res), p))
    return vals


def breaks_from_valuations(total_order, vals):
    """Reconstruct shifted break data from conjugate valuations.

    The group at parameter s consists of the identity and the elements
    with valuation >= s; breaks sit at the distinct valuations.
    """
    assert total_order == len(vals) + 1
    pairs = []
    for v in sorted(set(vals)):
        order_after = 1 + sum(1 for w in vals if w > v)
        pairs.append((Fraction(v), order_after))
    return pairs


def herbrand_integral(data, t):
    """phi(t) = integral_0^t |G(s)|/|G(1)| ds, with slope 1 on [0, 1].

    Sums the integral piece by piece, cutting [0, t] at 1 and at each
    break; on each piece the order is read at its midpoint, by a scan of
    the break list of its own (the orders of the breaks below s)."""
    def order(s):
        below = [o for lam, o in data.breaks if lam < s]
        return below[-1] if below else data.total_order

    t = Fraction(t)
    cuts = sorted({Fraction(0), t} | {c for c in [Fraction(1)] + [lam for lam, _ in data.breaks]
                                      if c < t})
    value = Fraction(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        value += (hi - lo) * (1 if mid <= 1 else Fraction(order(mid), order(1)))
    return value


# -- Kummer-Tate filtration oracle -------------------------------------------

def kummer_tate_conjugate_valuations(p):
    """v_L(g(pi) - pi) over nontrivial g for L = Q_p(zeta_p, p^(1/p)).

    With pi = (zeta - 1)/t, t = p^(1/p), and g = (a, j) acting by
    zeta -> zeta^a, t -> zeta^j t:

        g(pi) - pi = t^(-1) [ zeta^(a-j) - zeta^(-j) - zeta + 1 ],

    a pure Z[zeta_p] element over t.  The extension L/Q_p(zeta_p) is
    totally ramified of degree p, so v_L(bracket) = p * v_F(bracket)
    with v_F computed from the norm (a resultant against Phi_p), and
    v_L(t) = p - 1.
    """
    phi = cyclotomic_poly_prime_power(p, 1)

    def zeta_pow(k):
        out = [0] * (k % (p if p > 2 else 2) + 1)
        out[-1] = 1
        return poly_mod_monic(out, phi)

    def add(f, g, sign=1):
        out = [0] * max(len(f), len(g))
        for idx, c in enumerate(f):
            out[idx] += c
        for idx, c in enumerate(g):
            out[idx] += sign * c
        return poly_trim(out)

    vals = []
    for a in range(1, p):
        for j in range(p):
            if a == 1 and j == 0:
                continue
            bracket = add(
                add(zeta_pow((a - j) % p), zeta_pow((-j) % p), sign=-1),
                add(zeta_pow(1), [1], sign=-1),
                sign=-1,
            )
            res = resultant(phi, bracket)
            v_f = vp(abs(res), p)
            vals.append(p * v_f - (p - 1))
    return vals


# -- cofactor linear algebra over k[[x]]/x^N ---------------------------------

def cofactor_height_witness(module):
    """(V, slack) of the height witness by determinant and adjugate.

    V = adj(F) x^(h - delta) w^(-1) with det F = x^delta w, w a unit and
    h = (p-1)i; O(d!) through wach.mat_det / wach.mat_adjugate, the
    cofactor expansion that no library path calls.  Raises the library's
    HeightExceeded / TruncationTooLow on the same inputs as verify_height.
    """
    h = module.height_exponent
    N = module.trunc
    if N <= h:
        raise TruncationTooLow("N <= (p-1)i")
    if module.rank == 0:
        return (), N - h
    det = mat_det(module.F)
    if det.is_zero():
        raise HeightExceeded("det F = 0")
    delta = det.valuation()
    w_inv = invert_unit(try_divide(det, delta))
    slack = N - max(delta, h)

    def entry(a):
        if h >= delta:
            a = a.shift(h - delta)
        else:
            try:
                a = try_divide(a, delta - h)
            except NotDivisible as exc:
                raise HeightExceeded("adjugate entry not divisible") from exc
        return a.retrunc(slack) * w_inv.retrunc(slack)

    V = tuple(tuple(entry(a) for a in row) for row in mat_adjugate(module.F))
    return V, slack


def cofactor_inverse_unit(A):
    """adj(A) / det(A) over k[[x]]/x^N, det(A) a unit."""
    det_inv = invert_unit(mat_det(A))
    return tuple(tuple(a * det_inv for a in row) for row in mat_adjugate(A))


# -- F_p-space closure by brute force ------------------------------------------

def fp_closed(solutions, p):
    """Whether a nonempty set of vectors is closed under F_p-scaling and +,
    by p^(2r) set lookups (the solver checks the span of its basis lifts)."""
    pool = set(solutions)
    return bool(pool) and all(
        x.scale(c) in pool for x in solutions for c in range(p)
    ) and all(x + y in pool for x in solutions for y in solutions)


# -- T* by one lift per candidate ---------------------------------------------

def lift_each_candidate(module, spec, budget, params):
    """(rank, lifts) of T* by lifting every kernel candidate alone, the
    zero candidate included, in candidate order; lifts sorted by solution.

    Shares the kernel and the one-row contraction_lift with the library:
    it checks how compute_tstar forms p^r solutions from r batched lifts.
    The kernel is read from F at the working ring, as compute_tstar reads
    it.  Each candidate, a dict row, enters contraction_lift as a
    PhiVector over the ring of spec.
    """
    spec_int = params.working_spec(spec)
    F_t, _ = specialize(module, spec_int)
    basis, candidates = _candidate_space(spec, params, _dicts(spec_int, F_t), budget)
    lifts = [contraction_lift(module, spec, _wrap(spec, x), params=params)
             for _, x in candidates]
    return len(basis), sorted(lifts, key=lambda lifted: lifted.solution._key())
