"""The truncated coefficient ring k[[q-1]]/(q-1)^N.

Elements are sparse polynomials in the variable x := q - 1 with
coefficients in k = F_{p^f}, truncated at a caller-chosen exponent N.
The ring carries the Frobenius lift q -> q^p (on x, this is the
characteristic-p map c*x^e -> c^p * x^(p*e)) and the Galois action
q -> q^u for units u, i.e. x -> (1+x)^u - 1.

Representation invariants:
  * coeffs maps exponent e in [0, N) to a nonzero k-element;
  * operations never extend precision: results are truncated at N,
    and exact division by x^j lowers the truncation to N - j.

Two elements interoperate only when their (params, trunc) agree.

The ring arithmetic lives here once, as the series engine: functions
over coefficient dicts {index -> nonzero k-element} with every index
below an exclusive bound top.  QPoly (top = N) and tiltring.ValuedTrunc
(top = m_max + 1) are thin views on it that add their own metadata,
compatibility check and text header.

Products are computed on packed integers (Kronecker substitution):

  * Layout.  An element of k is sum_j c_j w^j (its F_p-digits, w a root
    of the field modulus).  Digit j of the coefficient at index e goes
    to slot e(2f - 1) + j of one Python int, each slot a fixed number of
    bytes.  Two slots multiply into slot (e1 + e2)(2f - 1) + (j1 + j2),
    and j1 + j2 <= 2f - 2, so every product slot holds the coefficient
    of x^e w^j for one (e, j).  Unpacking reads the slots (int.to_bytes
    and memoryview.cast for 1-, 2-, 4- and 8-byte slots), folds w^j for
    j >= f through a cached table of w^j mod the field modulus (an
    F_p-linear map, so no k-multiplication per pair) and reduces mod p.
  * No carry.  A product slot sums at most min(|a|, |b|) f pairs of
    digits, each at most (p - 1)^2, where |a| is a's number of terms.
    The slot width is the least of 1, 2, 4, 8 bytes (else the exact
    byte count) whose range exceeds min(|a|, |b|) f (p - 1)^2, so no
    slot carries into the next and every slot is the exact integer sum.
    A fused matrix entry sum_l A_il B_lj is one sum of packed products,
    and its bound gains the inner dimension as a factor.  A matrix with
    only one-term entries is not packed: its products are shifts and
    scales, summed product by product.
  * The substitution t -> (1+t)^u - 1 reads a cached table of the packed
    rows ((1+t)^u - 1)^e, keyed by (p, top, u mod p^T) and built up to
    the largest index substituted so far; their coefficients lie in F_p,
    so the result is sum_e c_e row_e with one accumulator per F_p-digit
    of the c_e, bounded by top (p - 1)^2.
  * A product with a one-term operand is a shift and a scale.
"""

import functools
import itertools
import math
import operator
import sys
from array import array

from .errors import NonUnitExponent, NotDivisible, ParamMismatch
from .gf import FiniteFieldParams

__all__ = [
    "FiniteFieldParams",
    "QPoly",
    "frobenius_q",
    "gamma_q",
    "try_divide",
    "invert_unit",
]


# -- the series engine ------------------------------------------------------
# Inputs and results are coefficient dicts already reduced into k, with
# zeros dropped and every index in [0, top); results are fresh dicts.
# series_mul, series_matmul and series_frobenius also take operands with
# indices >= top: those terms reach only indices >= top, which are dropped.

# Slot widths (bytes) that memoryview.cast reads natively; on a little-endian
# host the bytes of a packed int are then its slots in order.  Other widths,
# and big-endian hosts, take the shift-and-mask route.
_CODES = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


def _slot_bytes(bound):
    """Bytes per slot for slot values up to bound: 1, 2, 4 or 8 when one
    of them suffices, else the exact byte count."""
    need = max(1, -(-bound.bit_length() // 8))
    return next((w for w in (1, 2, 4, 8) if w >= need), need)


def _pack(k, a, off, w):
    """a as one int of w-byte slots: F_p-digit j of the coefficient at
    index e sits in slot (e - off)(2f - 1) + j."""
    if not a:
        return 0
    if k.f == 1 and k.p <= 256:  # a coefficient is its slot's low byte
        buf = bytearray((max(a) - off + 1) * w)
        for e, c in a.items():
            buf[(e - off) * w] = c
        return int.from_bytes(buf, "little")
    p, bits = k.p, 8 * w
    step = (2 * k.f - 1) * bits
    n = 0
    for e, c in a.items():
        at = (e - off) * step
        while c:
            c, d = divmod(c, p)
            n |= d << at
            at += bits
    return n


def _slots(n, w, total):
    """The total w-byte slots of n (n < 2^(8 w total)) as a sequence."""
    code = _CODES.get(w)
    if code:
        return memoryview(n.to_bytes(total * w, "little")).cast(code)
    mask = (1 << 8 * w) - 1
    return [(n >> (8 * w * s)) & mask for s in range(total)]


@functools.lru_cache(maxsize=None)
def _fold_table(k):
    """fold[i][j - f]: F_p-digit i of w^j for f <= j <= 2f - 2, where w is
    the root of the field modulus (encoded as the element p)."""
    f = k.f
    powers = [k.digits(k.pow(k.p, j)) for j in range(f, 2 * f - 1)]
    return tuple(tuple(d[i] for d in powers) for i in range(f))


def _unpack(k, n, w, total, count, off):
    """The dict of a packed product n of total slots: the first count
    indices, reduced into k, index e stored at e + off."""
    p, f = k.p, k.f
    vals = _slots(n, w, total)
    if f == 1:
        return {e + off: r for e, v in enumerate(vals[:count]) if (r := v % p)}
    # Index e holds sum_j v_j w^j over 0 <= j <= 2f - 2; fold the digits
    # j >= f down through w^j mod the field modulus, an F_p-linear map.
    stride = 2 * f - 1
    fold = _fold_table(k)
    out = {}
    for e in range(min(count, total // stride)):
        group = vals[e * stride:(e + 1) * stride]
        high = group[f:]
        c = 0
        for i in reversed(range(f)):
            c = c * p + (group[i] + sum(map(operator.mul, high, fold[i]))) % p
        if c:
            out[e + off] = c
    return out


def series_add(k, a, b):
    """The sum: a copy of the longer operand, the shorter added term by term."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    if k.f == 1:
        p = k.p
        for e, c in b.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out
    add = k.add
    for e, c in b.items():
        s = add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def series_neg(k, a):
    if k.f == 1:
        p = k.p
        return {e: p - c for e, c in a.items()}
    return {e: k.neg(c) for e, c in a.items()}


def series_scale(k, a, c):
    """The product with the k-element c (read mod p^f)."""
    c %= k.order
    if not c:
        return {}
    if k.f == 1:
        p = k.p
        return {e: c0 * c % p for e, c0 in a.items()}
    return {e: k.mul(c0, c) for e, c0 in a.items()}


def _shift_scale(k, a, b, top):
    """The product when a has at most one term: b shifted and scaled."""
    if not a:
        return {}
    ((e0, c0),) = a.items()
    limit = top - e0
    if k.f == 1:
        p = k.p
        return {e + e0: c * c0 % p for e, c in b.items() if e < limit}
    return {e + e0: k.mul(c, c0) for e, c in b.items() if e < limit}


def series_mul(k, a, b, top):
    """The product, dropping every index >= top: one big-int product of
    the packed operands, each shifted down by its valuation."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) < 2:
        return _shift_scale(k, a, b, top)
    va, vb = min(a), min(b)
    span = max(a) - va + max(b) - vb + 1
    count = min(top - va - vb, span)
    if count <= 0:
        return {}
    w = _slot_bytes(len(a) * k.f * (k.p - 1) ** 2)
    product = _pack(k, a, va, w) * _pack(k, b, vb, w)
    return _unpack(k, product, w, span * (2 * k.f - 1), count, va + vb)


def _dot(k, row, col, top):
    """sum_l row[l] * col[l], product by product."""
    out = {}
    for a, b in zip(row, col):
        if a and b:
            term = series_mul(k, a, b, top)
            out = series_add(k, out, term) if out else term
    return out


def series_matmul(k, A, B, top):
    """The matrix product of dict matrices below top, entry (i, j) one
    sum over l of packed(A[i][l]) * packed(B[l][j]), unpacked once.

    Every sum shares one slot width: a slot adds at most n * t * f digit
    products, each at most (p - 1)^2, with n the inner dimension and t the
    smaller of the largest term counts of A's and of B's entries.  When
    one side has only one-term entries (t < 2, e.g. an identity or
    diagonal matrix), every product is a shift and a scale, cheaper than
    packing and unpacking the other side's entries, so the sums are taken
    product by product.  With no rows or no inner dimension the rows are
    empty.
    """
    if not A or not B:
        return [[] for _ in A]
    terms = min(max(map(len, itertools.chain(*A))), max(map(len, itertools.chain(*B))))
    if terms < 2:
        return [[_dot(k, row, col, top) for col in zip(*B)] for row in A]
    w = _slot_bytes(len(B) * terms * k.f * (k.p - 1) ** 2)
    span = max(map(max, filter(None, itertools.chain(*A)))) + \
        max(map(max, filter(None, itertools.chain(*B)))) + 1
    total = span * (2 * k.f - 1)
    PA = [[_pack(k, a, 0, w) for a in row] for row in A]
    PB = [[_pack(k, b, 0, w) for b in row] for row in B]
    return [[_unpack(k, sum(map(operator.mul, row, col)), w, total, top, 0)
             for col in zip(*PB)] for row in PA]


def series_pow(k, a, n, top):
    if n < 0:
        raise ValueError("negative powers not supported")
    result = {0: 1}
    while n:
        if n & 1:
            result = series_mul(k, result, a, top)
        n >>= 1
        if n:
            a = series_mul(k, a, a, top)
    return result


class _PowerTable(dict):
    """c -> c^p in k, each entry computed on its first lookup."""

    def __init__(self, k):
        super().__init__()
        self.k = k

    def __missing__(self, c):
        self[c] = power = self.k.frobenius(c)
        return power


@functools.lru_cache(maxsize=None)
def _frobenius_table(k):
    return _PowerTable(k)


def series_frobenius(k, a, top):
    """c*t^e -> c^p * t^(p*e), the p-th power map in characteristic p.
    On F_p, c^p = c and only the indices move; on a larger field c^p is
    read from one table per field."""
    p = k.p
    if k.f == 1:
        return {p * e: c for e, c in a.items() if p * e < top}
    power = _frobenius_table(k)
    return {p * e: power[c] for e, c in a.items() if p * e < top}


def exponent_modulus(p, top):
    """Smallest p^T with p^T >= top; exponents u act through u mod p^T
    because (1+t)^(p^T) = 1 + t^(p^T) = 1 below top."""
    T = 1
    while T < top:
        T *= p
    return T


def one_plus_t_pow(p, top, u):
    """(1+t)^u - 1 below top, u reduced mod the exponent modulus."""
    u_red = u % exponent_modulus(p, top)
    out = {}
    for j in range(1, top):
        c = math.comb(u_red, j) % p
        if c:
            out[j] = c
    return out


# One seed-0 round of module_checks substitutes through 24 distinct keys
# (top <= 32; gamma_power_containment adds the exponents u^m) and cli_batch
# through 9, 28 distinct between them, so 32 entries still hold both.  Inside
# a round over 99% of module_checks lookups and 88% of cli_batch lookups hit.
# An entry grows to at most top rows of top slots of w bytes: about 2.9 MB at
# p = 2, top = 1200.
@functools.lru_cache(maxsize=32)
def _substitution_rows(p, top, u):
    """upto(n), the list of the rows ((1+t)^u - 1)^e below top for e < n
    (built on first demand, one product per row), packed one F_p
    coefficient per slot; and the slot width: top * (p - 1)^2 bounds any
    sum of the rows with F_p weights.  u is already reduced mod the
    exponent modulus, so equal substitutions share one entry."""
    k = FiniteFieldParams(p)
    w = _slot_bytes(top * (p - 1) ** 2)
    base = one_plus_t_pow(p, top, u)
    rows, power = [], {0: 1}

    def upto(n):
        nonlocal power
        while len(rows) < n:
            rows.append(_pack(k, power, 0, w))
            power = series_mul(k, power, base, top)
        return rows
    return upto, w


def series_substitute(k, a, u, top):
    """The substitution t -> (1+t)^u - 1 for u prime to p: the sum of
    a's coefficients times the cached rows ((1+t)^u - 1)^e."""
    p = k.p
    if u % p == 0:
        raise NonUnitExponent(f"exponent {u} is divisible by p = {p}",
                              precondition="gcd(u, p) = 1")
    if not a:
        return {}
    upto, w = _substitution_rows(p, top, u % exponent_modulus(p, top))
    rows = upto(max(a) + 1)
    if k.f == 1:
        return _unpack(k, sum(c * rows[e] for e, c in a.items()), w, top, top, 0)
    # The rows lie over F_p, so F_p-digit j of the result is the row sum
    # weighted by digit j of a's coefficients: one accumulator per digit,
    # digit plane j stored in slots [j top, (j + 1) top) of one int.
    planes = [0] * k.f
    for e, c in a.items():
        row, j = rows[e], 0
        while c:
            c, d = divmod(c, p)
            planes[j] += d * row
            j += 1
    vals = _slots(sum(plane << (8 * w * top * j) for j, plane in enumerate(planes)),
                  w, k.f * top)
    digits = zip(*(vals[j * top:(j + 1) * top] for j in range(k.f)))
    return {m: c for m, ds in enumerate(digits) if (c := k.encode(ds))}


def series_terms(k, a, letter):
    """Bare term form in the variable letter, e.g. '1*x^0 + 2*x^3'."""
    if not a:
        return "0"
    parts = []
    for e in sorted(a):
        c = a[e]
        cs = str(c) if k.f == 1 else "(" + ",".join(map(str, k.digits(c))) + ")"
        parts.append(f"{cs}*{letter}^{e}")
    return " + ".join(parts)


class QPoly:
    __slots__ = ("params", "trunc", "coeffs")

    def __init__(self, params, trunc, coeffs):
        if trunc < 1:
            raise ValueError("truncation must be >= 1")
        clean = {}
        for e, c in coeffs.items():
            if not (0 <= e < trunc):
                raise ValueError(f"exponent {e} outside [0, {trunc})")
            if c % params.order:
                clean[e] = c % params.order
        self.params = params
        self.trunc = trunc
        self.coeffs = clean

    @classmethod
    def _new(cls, params, trunc, coeffs):
        """Wrap a dict the series engine made: reduced, in [0, trunc)."""
        a = object.__new__(cls)
        a.params, a.trunc, a.coeffs = params, trunc, coeffs
        return a

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, params, trunc):
        return cls(params, trunc, {})

    @classmethod
    def constant(cls, params, trunc, c):
        return cls(params, trunc, {0: c})

    @classmethod
    def one(cls, params, trunc):
        return cls.constant(params, trunc, 1)

    @classmethod
    def x(cls, params, trunc):
        """The variable x = q - 1."""
        return cls(params, trunc, {1: 1})

    @classmethod
    def q(cls, params, trunc):
        return cls(params, trunc, {0: 1, 1: 1})

    @classmethod
    def monomial(cls, params, trunc, e, c=1):
        return cls(params, trunc, {e: c})

    # -- basic queries ---------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def constant_term(self):
        return self.coeffs.get(0, 0)

    def valuation(self):
        """x-adic valuation, or None for the zero element."""
        return min(self.coeffs) if self.coeffs else None

    def _check(self, other):
        try:
            if self.trunc == other.trunc and (self.params is other.params
                                              or self.params == other.params):
                return
            theirs = f"({other.params}, N={other.trunc})"
        except AttributeError:  # not a QPoly; free when nothing is raised
            theirs = type(other).__name__
        raise ParamMismatch(f"operands disagree: ({self.params}, N={self.trunc}) vs {theirs}")

    # -- ring operations (the series engine at top = N) --------------------

    def __add__(self, other):
        self._check(other)
        return QPoly._new(self.params, self.trunc,
                          series_add(self.params, self.coeffs, other.coeffs))

    def __neg__(self):
        return QPoly._new(self.params, self.trunc, series_neg(self.params, self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return QPoly._new(self.params, self.trunc,
                          series_mul(self.params, self.coeffs, other.coeffs, self.trunc))

    def scale(self, c):
        """Multiply by the k-element c."""
        return QPoly._new(self.params, self.trunc, series_scale(self.params, self.coeffs, c))

    def __pow__(self, n):
        return QPoly._new(self.params, self.trunc,
                          series_pow(self.params, self.coeffs, n, self.trunc))

    def shift(self, j):
        """Multiply by x^j (dropping overflow past the truncation)."""
        shifted = {e + j: c for e, c in self.coeffs.items() if e + j < self.trunc}
        if j < 0:  # indices may fall below 0: check them
            return QPoly(self.params, self.trunc, shifted)
        return QPoly._new(self.params, self.trunc, shifted)

    def retrunc(self, new_trunc):
        """Forget information: lower the truncation to new_trunc."""
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation")
        if new_trunc < 1:
            raise ValueError("truncation must be >= 1")
        return QPoly._new(self.params, new_trunc,
                          {e: c for e, c in self.coeffs.items() if e < new_trunc})

    # -- comparison / hashing / display ---------------------------------

    def _key(self):
        return (self.params, self.trunc, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other):
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def terms_str(self):
        """Bare term form, e.g. '1*x^0 + 2*x^3'."""
        return series_terms(self.params, self.coeffs, "x")

    def to_text(self):
        """Full text form: 'p=<p> f=<f> N=<N>; <terms>'."""
        return f"p={self.params.p} f={self.params.f} N={self.trunc}; {self.terms_str()}"

    def __repr__(self):
        return f"QPoly({self.to_text()})"


# -- text parsing ---------------------------------------------------------


def _parse_coeff(tok, params):
    tok = tok.strip()
    if tok.startswith("("):
        digits = [int(t) for t in tok.strip("()").split(",")]
        if len(digits) != params.f:
            raise ValueError(f"coefficient tuple {tok} has wrong length")
        return params.encode(digits)
    return int(tok) % params.order


def _signed_terms(text):
    """Split stripped text at each '+' or '-' outside parentheses into
    (sign, term) pairs; a sign at position 0 belongs to the first term."""
    pieces = []
    sign, start, depth = "+", 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            if pos:
                pieces.append((sign, text[start:pos].strip()))
            sign, start = ch, pos + 1
    pieces.append((sign, text[start:].strip()))
    return pieces


def parse_terms(text, params, trunc):
    """Parse the bare term form: terms 'c', 'x^e', 'x' and 'c*x^e' joined
    by '+' or '-', with an optional leading sign ('1 - x', '-2*x^3')."""
    text = text.strip()
    coeffs = {}
    if text in ("", "0"):
        return QPoly.zero(params, trunc)
    k = params
    for sign, part in _signed_terms(text):
        if not part:
            raise ValueError(f"bad term in {text!r}")
        if "*" in part:
            ctok, xtok = part.split("*", 1)
        elif "x" in part:
            ctok, xtok = "1", part
        else:
            ctok, xtok = part, "x^0"
        xtok = xtok.strip()
        if xtok == "x":
            e = 1
        elif xtok.startswith("x^") and xtok[2:].strip().isdecimal():
            e = int(xtok[2:])
        else:
            raise ValueError(f"bad term {part!r} in {text!r}")
        c = _parse_coeff(ctok, params)
        if sign == "-":
            c = k.neg(c)
        coeffs[e] = k.add(coeffs.get(e, 0), c)
    return QPoly(params, trunc, coeffs)


def parse_qpoly(text):
    """Parse the full text form produced by QPoly.to_text()."""
    head, _, body = text.partition(";")
    fields = dict(item.split("=") for item in head.split())
    params = FiniteFieldParams(int(fields["p"]), int(fields.get("f", 1)))
    return parse_terms(body, params, int(fields["N"]))


# -- Frobenius, Galois substitution, division -------------------------------


def frobenius_q(a):
    """The semilinear Frobenius: c*x^e -> c^p * x^(p*e), i.e. q -> q^p."""
    return QPoly._new(a.params, a.trunc, series_frobenius(a.params, a.coeffs, a.trunc))


def one_plus_x_pow(params, trunc, u):
    """(1+x)^u - 1 truncated at trunc, u reduced mod the exponent modulus."""
    return QPoly(params, trunc, one_plus_t_pow(params.p, trunc, u))


def gamma_q(a, u):
    """The Galois substitution q -> q^u, i.e. x -> (1+x)^u - 1."""
    return QPoly._new(a.params, a.trunc, series_substitute(a.params, a.coeffs, u, a.trunc))


def try_divide(a, j):
    """Exact division by x^j; the result carries truncation N - j."""
    if j == 0:
        return a
    if j < 0:
        raise ValueError("negative divisor exponent")
    v = a.valuation()
    if v is not None and v < j:
        raise NotDivisible(f"element has valuation {v} < {j}")
    if a.trunc - j < 1:
        raise NotDivisible(f"truncation {a.trunc} too low to divide by x^{j}")
    return QPoly._new(a.params, a.trunc - j, {e - j: c for e, c in a.coeffs.items()})


def invert_unit(a):
    """Inverse of a unit (nonzero constant term); exact at truncation N."""
    k = a.params
    c0 = a.constant_term()
    if c0 == 0:
        raise ZeroDivisionError("not a unit: zero constant term")
    c0_inv = k.inv(c0)
    inv = {0: c0_inv}
    # Solve sum_{e'<=e} a_{e-e'} b_{e'} = 0 for e >= 1, coefficient by coefficient.
    for e in range(1, a.trunc):
        acc = 0
        for e1, c1 in a.coeffs.items():
            if 0 < e1 <= e and (e - e1) in inv:
                acc = k.add(acc, k.mul(c1, inv[e - e1]))
        if acc:
            inv[e] = k.neg(k.mul(c0_inv, acc))
    return QPoly._new(a.params, a.trunc, inv)
