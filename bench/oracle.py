"""Correctness checks that share no code with the timed library.

Everything here is schoolbook arithmetic on plain ints, lists and dicts:
the coefficient fields F_{p^f} (f <= 2), truncated series, the
specialisation of a Frobenius matrix into a valued ring, the Galois
substitution x -> (1+x)^u - 1 and the closed forms the CLI must
reproduce.  The checks read the library's inputs and outputs as data
(coefficient dicts, JSON text) and never call into the library.
"""

import json
import math
from fractions import Fraction


# -- the coefficient field ---------------------------------------------------

def _irreducible_quadratic(p):
    """First monic irreducible x^2 + c1 x + c0, ordered by c0 + c1*p.

    A quadratic is irreducible over F_p exactly when it has no root.
    """
    for code in range(p * p):
        c0, c1 = code % p, code // p
        if all((r * r + c1 * r + c0) % p for r in range(p)):
            return (c0, c1)
    raise AssertionError("no irreducible quadratic")


class Field:
    """F_{p^f} for f in {1, 2}; elements are ints c0 + c1*p."""

    def __init__(self, p, f=1):
        if f not in (1, 2):
            raise ValueError("the oracle field supports f <= 2")
        self.p, self.f, self.q = p, f, p**f
        self.modulus = _irreducible_quadratic(p) if f == 2 else None

    def add(self, a, b):
        p = self.p
        if self.f == 1:
            return (a + b) % p
        return (a % p + b % p) % p + ((a // p + b // p) % p) * p

    def neg(self, a):
        p = self.p
        return (-(a % p)) % p + ((-(a // p)) % p) * p

    def mul(self, a, b):
        p = self.p
        if self.f == 1:
            return a * b % p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        # (a0 + a1 w)(b0 + b1 w) with w^2 = -c1 w - c0
        c0, c1 = self.modulus
        hi = a1 * b1
        lo = a0 * b0 - hi * c0
        mid = a0 * b1 + a1 * b0 - hi * c1
        return lo % p + (mid % p) * p

    def power(self, a, n):
        out = 1
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def frob(self, a):
        return self.power(a, self.p)

    def frob_inverse(self, a, s):
        """The inverse of the s-th power of Frobenius (order f)."""
        for _ in range((-s) % self.f):
            a = self.frob(a)
        return a


# -- sparse truncated series {index: coefficient} ------------------------------

def series_mul(field, a, b, top):
    """Product of two sparse series, keeping indices <= top."""
    out = {}
    for i, ci in a.items():
        for j, cj in b.items():
            if i + j <= top:
                out[i + j] = field.add(out.get(i + j, 0), field.mul(ci, cj))
    return {k: c for k, c in out.items() if c}


def series_add(field, a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = field.add(out.get(k, 0), c)
    return {k: c for k, c in out.items() if c}


def ring_shape(p, mode, level, cut):
    """(D, image exponent of q-1, top index) of a truncated valued ring."""
    if mode == "tilt":
        denominator, image = p ** (level - 1) * (p - 1), p ** (level - 1)
    else:
        denominator, image = p**level * (p - 1), 1
    return denominator, image, math.floor(Fraction(cut) * denominator)


def specialise(field, F, mode, level, top, image):
    """Push a matrix of q-series {e: c} into the valued ring."""
    twist = level if mode == "untilted" else 0
    return [
        [{e * image: field.frob_inverse(c, twist) for e, c in entry.items()
          if e * image <= top} for entry in row]
        for row in F
    ]


def solves_phi(field, x, F_t, top):
    """Does the row vector x satisfy phi(x) = x F_t in the ring?"""
    p = field.p
    for j in range(len(F_t)):
        lhs = {p * m: field.frob(c) for m, c in x[j].items() if p * m <= top}
        rhs = {}
        for k in range(len(F_t)):
            rhs = series_add(field, rhs, series_mul(field, x[k], F_t[k][j], top))
        if lhs != rhs:
            return False
    return True


def _vector_key(x):
    return tuple(tuple(sorted(entry.items())) for entry in x)


def check_tstar(problem, answer):
    """Check one solve.

    problem: dict with p, f, d, F (matrix of {e: c}), mode, level, cut
        and, for the rank-1 standard family, the height i under "closed_i".
    answer: dict with rank and solutions (list of vectors of {m: c}).
    Returns (ok, reason).
    """
    field = Field(problem["p"], problem["f"])
    p, d = field.p, problem["d"]
    _, image, top = ring_shape(p, problem["mode"], problem["level"], problem["cut"])
    solutions = answer["solutions"]
    rank = answer["rank"]
    if len(solutions) != p**rank:
        return False, f"|T*| = {len(solutions)} but rank {rank}"
    if rank > d * field.f:
        return False, f"rank {rank} exceeds d*f"
    for x in solutions:
        if len(x) != d:
            return False, "solution has the wrong length"
        for entry in x:
            for m, c in entry.items():
                if not (0 <= m <= top and 0 < c < field.q):
                    return False, f"term {c}*u^{m} outside the ring"
    keys = {_vector_key(x) for x in solutions}
    if len(keys) != len(solutions):
        return False, "repeated solution"
    if _vector_key([{}] * d) not in keys:
        return False, "zero vector missing"
    F_t = specialise(field, problem["F"], problem["mode"], problem["level"], top, image)
    for x in solutions:
        if not solves_phi(field, x, F_t, top):
            return False, "a solution fails phi(x) = x F"
    for x in solutions:
        for y in solutions:
            total = [series_add(field, a, b) for a, b in zip(x, y)]
            if _vector_key(total) not in keys:
                return False, "solutions not closed under addition"
    closed_i = problem.get("closed_i")
    if closed_i is not None:
        m = closed_i * image
        expected = {_vector_key([{m: z} if z else {}]) for z in range(p)}
        if keys != expected:
            return False, "T* differs from {z u^(i p^(N-1))}"
    return True, ""


# -- dense truncated q-series: lists of length n ---------------------------------

def dense(field_entry, n):
    out = [0] * n
    for e, c in field_entry.items():
        if e < n:
            out[e] = c
    return out


def dense_mul(field, a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j in range(n - i):
                if b[j]:
                    out[i + j] = field.add(out[i + j], field.mul(ai, b[j]))
    return out


def dense_add(field, a, b):
    return [field.add(x, y) for x, y in zip(a, b)]


def dense_matmul(field, A, B, n):
    d = len(A)
    out = []
    for i in range(d):
        row = []
        for j in range(len(B[0])):
            acc = [0] * n
            for k in range(d):
                acc = dense_add(field, acc, dense_mul(field, A[i][k], B[k][j], n))
            row.append(acc)
        out.append(row)
    return out


def substitution_table(field, u, n):
    """Rows ((1+x)^u - 1)^e for e < n, via binomial coefficients."""
    p = field.p
    base = [0] + [math.comb(u, j) % p for j in range(1, n)]
    rows = [[1] + [0] * (n - 1)]
    for _ in range(1, n):
        rows.append(dense_mul(field, rows[-1], base, n))
    return rows


def substitute(field, a, table):
    """gamma(a) = sum_e a_e ((1+x)^u - 1)^e."""
    n = len(a)
    out = [0] * n
    for e, c in enumerate(a):
        if c:
            row = table[e]
            out = [field.add(o, field.mul(c, r)) for o, r in zip(out, row)]
    return out


def frobenius_dense(field, a):
    p = field.p
    out = [0] * len(a)
    for e, c in enumerate(a):
        if c and p * e < len(a):
            out[p * e] = field.frob(c)
    return out


def valuation(a):
    for e, c in enumerate(a):
        if c:
            return e
    return None


def check_module(problem, answer):
    """Check one module job.

    problem: dict with p, f, d, N, h (= (p-1)i), F and G (matrices of
        {e: c}) and u (the Galois exponent).
    answer: dict with V (matrix of {e: c}), slack, trivial, commutes and
        containment (one bool per admissible s).
    Returns (ok, reason).
    """
    field = Field(problem["p"], problem["f"])
    p, d, N, h = field.p, problem["d"], problem["N"], problem["h"]
    slack = answer["slack"]
    if not 0 < slack <= N - h:
        return False, f"slack {slack} outside (0, N - h]"
    F = [[dense(e, slack) for e in row] for row in problem["F"]]
    V = [[dense(e, slack) for e in row] for row in answer["V"]]
    if len(V) != d or any(len(row) != d for row in V):
        return False, "V has the wrong shape"
    FV = dense_matmul(field, F, V, slack)
    for i in range(d):
        for j in range(d):
            want = [0] * slack
            if i == j and h < slack:
                want[h] = 1
            if FV[i][j] != want:
                return False, f"F V != x^{h} Id at ({i},{j})"
    G = [[dense(e, N) for e in row] for row in problem["G"]]
    trivial = all(G[i][j][0] == (1 if i == j else 0) for i in range(d) for j in range(d))
    if answer["trivial"] != trivial:
        return False, "G = Id mod (q-1) misreported"
    table = substitution_table(field, problem["u"], N)
    Fn = [[dense(e, N) for e in row] for row in problem["F"]]
    gamma_F = [[substitute(field, a, table) for a in row] for row in Fn]
    phi_G = [[frobenius_dense(field, a) for a in row] for row in G]
    commutes = dense_matmul(field, G, gamma_F, N) == dense_matmul(field, Fn, phi_G, N)
    if answer["commutes"] != commutes:
        return False, "gamma/phi commutation misreported"
    expected = []
    s = 0
    while p**s + h < N:
        expected.append(_containment(field, G, table, p**s, N))
        s += 1
    if answer["containment"] != expected:
        return False, f"containment {answer['containment']} != {expected}"
    return True, ""


def _containment(field, G, table, power, N):
    """Is (gamma - 1)^power e_j divisible by x^power for every j?"""
    d = len(G)
    for j in range(d):
        vec = [[1 if (i == j and e == 0) else 0 for e in range(N)] for i in range(d)]
        for _ in range(power):
            moved = [substitute(field, a, table) for a in vec]
            nxt = []
            for i in range(d):
                acc = [0] * N
                for k in range(d):
                    acc = dense_add(field, acc, dense_mul(field, G[i][k], moved[k], N))
                nxt.append([field.add(x, field.neg(y)) for x, y in zip(acc, vec[i])])
            vec = nxt
        for a in vec:
            v = valuation(a)
            if v is not None and v < power:
                return False
    return True


# -- closed forms for the command line --------------------------------------------

def crystalline(p, i):
    """1 + alpha + beta, alpha the least a with p^a > ip/(p-1)."""
    a = 0
    while p**a <= Fraction(i * p, p - 1):
        a += 1
    beta = max(Fraction(0), Fraction(i * p, p**a * (p - 1)) - Fraction(1, p - 1))
    semi = 1 + a + max(Fraction(i * p, p**a * (p - 1)) - Fraction(1, p**a),
                       Fraction(1, p - 1))
    return 1 + a + beta, semi


def herbrand_phi(total, breaks, t):
    """phi(t) = integral_0^t ds / [G(1) : G(s)] for shifted break data."""
    def order_at(s):
        order = total
        for lam, size in breaks:
            if s > lam:
                order = size
        return order

    t = Fraction(t)
    value = min(t, Fraction(1))
    edges = sorted({Fraction(1), t} | {lam for lam, _ in breaks if 1 < lam < t})
    for lo, hi in zip(edges, edges[1:]):
        if lo >= 1 and hi <= t:
            value += (hi - lo) * Fraction(order_at((lo + hi) / 2), order_at(1))
    return value


def herbrand_mu(total, breaks):
    return herbrand_phi(total, breaks, breaks[-1][0]) if breaks else Fraction(0)


def _rat(doc):
    return Fraction(doc["num"], doc["den"])


def parse_terms(text, variable):
    """'c*v^e + ...' (f = 1) to {e: c}; '0' is the zero series."""
    out = {}
    if text.strip() == "0":
        return out
    for term in text.split("+"):
        coeff, power = term.strip().split("*")
        exponent = int(power.strip()[len(variable) + 1:])
        out[exponent] = int(coeff)
    return out


def check_cli(job, code, stdout):
    """Check one in-process CLI call against closed forms.

    job: dict with the argv list and the facts the benchmark generated
    (break data, module file contents).  Returns (ok, reason).
    """
    if code != 0:
        return False, f"exit code {code}"
    doc = json.loads(stdout)
    if not doc.get("ok"):
        return False, "ok is not true"
    argv, res = job["argv"], doc["results"]
    command = argv[0]
    if command == "bound":
        p, i = int(argv[2]), int(argv[4])
        crys, semi = crystalline(p, i)
        if (p, i) == (3, 1) and (crys, semi) != (2, Fraction(5, 2)):
            return False, "oracle lost the (3,1) closed form"
        if (_rat(res["crystalline"]), _rat(res["semistable"])) != (crys, semi):
            return False, f"bound({p},{i}) differs from 1 + alpha + beta"
    elif command == "grid":
        primes = [int(t) for t in argv[2].split(",")]
        rows = res["rows"]
        want = [(p, i) for p in primes for i in range(1, int(argv[4]) + 1)]
        if [(r["p"], r["i"]) for r in rows] != want:
            return False, "grid rows differ"
        for r in rows:
            if (_rat(r["crystalline"]), _rat(r["semistable"])) != crystalline(r["p"], r["i"]):
                return False, f"grid row ({r['p']},{r['i']}) differs"
    elif command == "herbrand":
        family = argv[1]
        got = _rat(res["mu"])
        if family == "cyclotomic":
            p, n = int(argv[3]), int(argv[5])
            want = 0 if (p, n) == (2, 1) else n
        elif family == "kummer-tate":
            want = 2 + Fraction(1, int(argv[3]) - 1)
        else:
            total, breaks = job["breaks"]
            want = herbrand_mu(total, breaks)
            t = Fraction(job["eval"])
            if _rat(res["eval"]["phi"]) != herbrand_phi(total, breaks, t):
                return False, f"phi({t}) differs"
        if got != want:
            return False, f"mu = {got}, closed form {want}"
    elif command == "solve":
        return _check_solve(job, res)
    elif command != "verify":
        return False, f"unexpected command {command}"
    return True, ""


def _check_solve(job, res):
    module = job["module"]
    p, d = module["p"], module["d"]
    if module.get("f", 1) != 1:
        return False, "solve check supports f = 1 module files"
    head, cut = res["ring"].split("; cut=")
    mode, level = head.split()
    problem = {
        "p": p, "f": 1, "d": d, "cut": Fraction(cut),
        "mode": mode[len("mode="):], "level": int(level.split("=")[1]),
        "F": [[parse_terms(cell, "x") for cell in row] for row in module["F"]],
    }
    i = module["i"]
    standard = d == 1 and problem["F"] == [[{(p - 1) * i: 1}]]
    if standard:
        problem["closed_i"] = i
    solutions = [
        [parse_terms(cell, "u") for cell in text.split(" | ")]
        for text in res["solutions"]
    ]
    if res["cardinality"] != len(solutions):
        return False, "cardinality differs from the listed solutions"
    ok, reason = check_tstar(problem, {"rank": res["rank"], "solutions": solutions})
    if ok and standard and res.get("character_exponent") not in (None, i % (p - 1)):
        return False, "character exponent differs from i mod (p-1)"
    return ok, reason
