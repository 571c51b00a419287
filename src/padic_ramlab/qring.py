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
    F_p-linear map, so no k-multiplication per pair; see digit planes)
    and reduces mod p.
  * No carry.  A product slot sums at most min(|a|, |b|) f pairs of
    digits, each at most (p - 1)^2, where |a| is a's number of terms.
    The slot width is the least of 1, 2, 4, 8 bytes (else the exact
    byte count) whose range exceeds min(|a|, |b|) f (p - 1)^2, so no
    slot carries into the next and every slot is the exact integer sum.
    A fused matrix entry sum_l A_il B_lj is one sum of packed products,
    and its bound gains the inner dimension as a factor.  A matrix with
    only one-term entries is not packed: its products are shifts and
    scales, summed product by product.
  * Fused C - A B.  series_matmul also returns C - A B with one
    unpacking per entry: packed(C_ij) + (p - 1) sum_l packed(A_il)
    packed(B_lj).  -1 = p - 1 mod p, and the fold below is F_p-linear,
    so the negation is a factor p - 1 before the fold; the slot bound
    becomes (p - 1)(bound + 1).  A matrix that right-multiplies many
    times (PackedMatrix: the solver's F and V) reads its term count and
    largest index once and packs its columns once per slot width; a
    product by a plain dict matrix packs both operands on the call and
    builds no object.  Both run the same series_matmul body.
  * Digit planes.  For f > 1, slot j of every index is plane j, read
    as one strided slice of the unpacked slots.  _unpack, the one
    decoder, folds the planes j >= f into digit planes 0..f-1 (plane i
    plus the F_p-digit i of w^j times plane j) and reduces each mod p.
  * Field tables.  For f > 1, and for F_p with p > 256 (which _pack
    sends down the digit path), the arithmetic reads one record per
    field, _field_tables: add, mul, neg, c -> c^p, _unpack's fold and
    _pack's digit bytes.  Up to order _TABLE_ORDER = 256 its entries are
    kept (add and mul rows on first use, at most 65536 entries each);
    above it each lookup but the fold is one gf call, keeping nothing.
    gf.mul stays the schoolbook product.
  * The substitution t -> (1+t)^u - 1 sums c_e times the cached F_p rows
    ((1+t)^u - 1)^e, keyed by (p, top, u mod p^T): one sum per F_p-digit
    of the c_e, each a digit plane that _unpack decodes.
  * A product with a one-term operand is a shift and a scale.
  * Not packed: series_invert, the one unit inverse (invert_unit, wach), goes term by term.
"""

import collections
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
    # a coefficient's f slots are one bytes string of its digits
    step, width, digits = (2 * k.f - 1) * w, k.f * w, _field_tables(k).digits[w]
    buf = bytearray((max(a) - off) * step + width)
    for e, c in a.items():
        at = (e - off) * step
        buf[at:at + width] = digits[c]
    return int.from_bytes(buf, "little")


def _unpack(k, n, w, total, count, off, planar=False):
    """The dict of a packed product n of total slots: the first count
    indices, reduced into k, index e stored at e + off.  planar: n holds
    digit plane j in slots [j count, (j + 1) count) instead, for j < f."""
    p, f, native = k.p, k.f, _CODES.get(w)
    if native:  # the total w-byte slots of n (n < 2^(8 w total))
        vals = memoryview(n.to_bytes(total * w, "little")).cast(native)
    else:
        mask = (1 << 8 * w) - 1
        vals = [(n >> (8 * w * s)) & mask for s in range(total)]
    if f == 1:
        return {e + off: r for e, v in enumerate(vals[:count]) if (r := v % p)}
    # Plane j is slot j of every index: its coefficient of w^j, 0 <= j <=
    # 2f - 2.  Digit plane i is plane i plus, for each j >= f, digit i of
    # w^j mod the field modulus times plane j (an F_p-linear fold), mod p;
    # the codes are read off the digit planes by Horner's rule.
    if planar:
        planes = [vals[j * count:(j + 1) * count] for j in range(f)]
    else:
        stride = 2 * f - 1
        end = min(count, total // stride) * stride
        planes = [vals[j:end:stride] for j in range(stride)]
    fold = _field_tables(k).fold
    code = None
    for i in reversed(range(f)):
        digit = planes[i]
        for plane, c in zip(planes[f:], fold[i]):
            if c:
                digit = map(operator.add, digit, map(operator.mul, plane, itertools.repeat(c)))
        digit = map(operator.mod, digit, itertools.repeat(p))
        code = digit if code is None else \
            map(operator.add, map(operator.mul, code, itertools.repeat(p)), digit)
    return {e + off: c for e, c in enumerate(code) if c}


class _Memo(dict):
    """key -> fn(key), computed on its first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


class _Computed(_Memo):
    """key -> fn(key), computed on every lookup and never kept."""

    def __missing__(self, key):
        return self.fn(key)


_Tables = collections.namedtuple("_Tables", "add mul neg frob fold digits")

# The largest field order whose lookups are kept; each of add and mul then
# has at most _TABLE_ORDER^2 = 65536 entries.
_TABLE_ORDER = 256


@functools.lru_cache(maxsize=None)
def _field_tables(k):
    """The one record of a field's lookups, built from gf: add[a][b],
    mul[a][b], neg[a], frob[a] = a^p, fold[i][j - f] (F_p-digit i of w^j
    for f <= j <= 2f - 2, w the root of the field modulus, encoded as the
    element p) and digits[w][c] (the f w-byte slots of c's F_p-digits, as
    bytes).  Up to order _TABLE_ORDER every entry is kept once computed,
    neg as a tuple over k; above it every lookup but fold calls gf and
    keeps nothing."""
    p, f, order = k.p, k.f, range(k.order)
    kept = k.order <= _TABLE_ORDER
    powers = [k.digits(k.pow(p, j)) for j in range(f, 2 * f - 1)]
    fold = tuple(tuple(d[i] for d in powers) for i in range(f))

    def encode(w, c):
        n, at = 0, 0
        while c:
            c, d = divmod(c, p)
            n |= d << at
            at += 8 * w
        return n.to_bytes(f * w, "little")

    def table(op):
        """op(a, b) as table[a][b]: row a is a tuple over k made on its
        first use, or each entry is computed on lookup."""
        if kept:
            return _Memo(lambda a: tuple(map(op, itertools.repeat(a), order)))
        return _Computed(lambda a: _Computed(functools.partial(op, a)))
    return _Tables(table(k.add), table(k.mul),
                   tuple(map(k.neg, order)) if kept else _Computed(k.neg),
                   (_Memo if kept else _Computed)(k.frobenius), fold, table(encode))


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
    add = _field_tables(k).add
    for e, c in b.items():
        s = add[out.get(e, 0)][c]
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def series_neg(k, a):
    if k.f == 1:
        p = k.p
        return {e: p - c for e, c in a.items()}
    neg = _field_tables(k).neg
    return {e: neg[c] for e, c in a.items()}


def series_scale(k, a, c):
    """The product with the k-element c (read mod p^f)."""
    c %= k.order
    if not c:
        return {}
    if k.f == 1:
        p = k.p
        return {e: c0 * c % p for e, c0 in a.items()}
    row = _field_tables(k).mul[c]
    return {e: row[c0] for e, c0 in a.items()}


def _shift_scale(k, a, b, top):
    """The product when a has at most one term: b shifted and scaled."""
    if not a:
        return {}
    ((e0, c0),) = a.items()
    limit = top - e0
    if k.f == 1:
        p = k.p
        return {e + e0: c * c0 % p for e, c in b.items() if e < limit}
    row = _field_tables(k).mul[c0]
    return {e + e0: row[c] for e, c in b.items() if e < limit}


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


def _high(M):
    """The largest index over the entries of a dict matrix; -1 if all are zero."""
    return max(map(max, filter(None, itertools.chain(*M))), default=-1)


class PackedMatrix:
    """A dict matrix B that right-multiplies many dict matrices (the
    solver's F and V): its largest term count and index are read once,
    and its columns are packed once per slot width."""

    __slots__ = ("k", "rows", "terms", "high", "_by_width")

    def __init__(self, k, rows):
        self.k, self.rows = k, rows
        self.terms = max(map(len, itertools.chain(*rows)), default=0)
        self.high = _high(rows)
        self._by_width = {}

    def __len__(self):
        return len(self.rows)

    def columns(self, w):
        """The columns, each entry packed at slot width w."""
        cols = self._by_width.get(w)
        if cols is None:
            cols = self._by_width[w] = _packed_columns(self.k, self.rows, w)
        return cols


def _packed_columns(k, B, w):
    return list(zip(*[[_pack(k, b, 0, w) for b in row] for row in B]))


def series_matmul(k, A, B, top, C=None):
    """The matrix product of dict matrices below top, entry (i, j) one
    sum over l of packed(A[i][l]) * packed(B[l][j]), unpacked once; with
    a dict matrix C, C - A B, entry (i, j) packed(C[i][j]) + (p - 1)
    times that sum, unpacked once.  B may be a PackedMatrix, whose
    columns are packed once per slot width; a plain B is packed on the
    call and builds no object.

    Every sum shares one slot width: a slot adds at most n * t * f digit
    products, each at most (p - 1)^2, with n the inner dimension and t the
    smaller of the largest term counts of A's and of B's entries; with C
    the bound is (p - 1)(bound + 1).  When one side has only one-term
    entries (t < 2, e.g. an identity or diagonal matrix), every product
    is a shift and a scale, cheaper than packing and unpacking the other
    side's entries, so the sums are taken product by product.  With no
    rows or no inner dimension the rows are empty (C's rows, with C).
    """
    if isinstance(B, PackedMatrix):
        columns, terms, high, B = B.columns, B.terms, B.high, B.rows
    else:
        columns, high = None, None
        terms = max(map(len, itertools.chain(*B)), default=0)
    if not A or not B:
        return [[] for _ in A] if C is None else [list(row) for row in C]
    terms = min(max(map(len, itertools.chain(*A))), terms)
    if terms < 2:
        AB = [[_dot(k, row, col, top) for col in zip(*B)] for row in A]
        if C is None:
            return AB
        return [[series_add(k, c, series_neg(k, ab)) for c, ab in zip(crow, abrow)]
                for crow, abrow in zip(C, AB)]
    bound = len(B) * terms * k.f * (k.p - 1) ** 2
    span = _high(A) + (_high(B) if high is None else high) + 1
    if C is not None:
        bound = (k.p - 1) * (bound + 1)
        span = max(span, _high(C) + 1)
    w = _slot_bytes(bound)
    total = span * (2 * k.f - 1)
    cols = _packed_columns(k, B, w) if columns is None else columns(w)
    PA = [[_pack(k, a, 0, w) for a in row] for row in A]
    if C is None:
        return [[_unpack(k, sum(map(operator.mul, row, col)), w, total, top, 0)
                 for col in cols] for row in PA]
    neg = k.p - 1
    return [[_unpack(k, _pack(k, c, 0, w) + neg * sum(map(operator.mul, row, col)),
                     w, total, top, 0)
             for c, col in zip(crow, cols)] for row, crow in zip(PA, C)]


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


def series_frobenius(k, a, top):
    """c*t^e -> c^p * t^(p*e), the p-th power map in characteristic p.
    On F_p, c^p = c and only the indices move; on a larger field c^p is
    the field record's frob[c]."""
    p = k.p
    if k.f == 1:
        return {p * e: c for e, c in a.items() if p * e < top}
    power = _field_tables(k).frob
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


# One seed-0 round of module_checks substitutes through 28 distinct keys in
# 2,648 lookups (top <= 32; gamma_power_containment adds the tops p^s and the
# exponents u^m) and cli_batch through 8, 32 keys together: 32 entries hold
# both.  Inside a round 99% and 88% of the two workloads' lookups hit.
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
    n = sum(plane << (8 * w * top * j) for j, plane in enumerate(planes))
    return _unpack(k, n, w, k.f * top, top, 0, planar=True)


def series_invert(k, a, top):
    """The inverse of a unit a (nonzero constant term) below top, one
    coefficient at a time: b_e = -b_0 sum_(0 < j <= e) a_j b_(e-j).  On
    F_p each sum is taken in integers and reduced once; a larger field
    reads add and mul from its field record."""
    if not a.get(0):
        raise ZeroDivisionError("not a unit: zero constant term")
    terms = sorted((j, c) for j, c in a.items() if 0 < j < top)
    inv = [k.inv(a[0])] + [0] * (top - 1)
    scale = k.neg(inv[0])
    indices = range(1 if terms else top, top)  # a constant's inverse is a constant
    if k.f == 1:
        for e in indices:
            acc = 0
            for j, c in terms:
                if j > e:
                    break
                acc += c * inv[e - j]
            inv[e] = acc * scale % k.p
    else:
        tables = _field_tables(k)
        add, mul = tables.add, tables.mul
        for e in indices:
            acc = 0
            for j, c in terms:
                if j > e:
                    break
                acc = add[acc][mul[c][inv[e - j]]]
            inv[e] = mul[acc][scale]
    return {e: c for e, c in enumerate(inv) if c}


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
    return QPoly._new(a.params, a.trunc, series_invert(a.params, a.coeffs, a.trunc))
