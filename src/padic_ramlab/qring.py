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
"""

import math

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


def series_add(k, a, b):
    out = dict(a)
    for e, c in b.items():
        s = k.add(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def series_neg(k, a):
    return {e: k.neg(c) for e, c in a.items()}


def series_mul(k, a, b, top):
    """The product, dropping every index >= top."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e >= top:
                continue
            s = k.add(out.get(e, 0), k.mul(c1, c2))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


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
    """c*t^e -> c^p * t^(p*e), the p-th power map in characteristic p."""
    p = k.p
    return {p * e: k.frobenius(c) for e, c in a.items() if p * e < top}


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


def series_substitute(k, a, u, top):
    """The substitution t -> (1+t)^u - 1 for u prime to p."""
    if u % k.p == 0:
        raise NonUnitExponent(f"exponent {u} is divisible by p = {k.p}",
                              precondition="gcd(u, p) = 1")
    base = one_plus_t_pow(k.p, top, u)
    out = {}
    # Horner-style accumulation over ascending exponents.
    power = {0: 1}
    prev_e = 0
    for e in sorted(a):
        for _ in range(e - prev_e):
            power = series_mul(k, power, base, top)
        prev_e = e
        c = a[e]
        out = series_add(k, out, {j: k.mul(b, c) for j, b in power.items()})
    return out


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

    def degree(self):
        return max(self.coeffs) if self.coeffs else None

    def _check(self, other):
        if self.params != other.params or self.trunc != other.trunc:
            raise ParamMismatch(
                f"operands disagree: ({self.params}, N={self.trunc}) vs "
                f"({other.params}, N={other.trunc})"
            )

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
        k = self.params
        return QPoly(self.params, self.trunc, {e: k.mul(c0, c) for e, c0 in self.coeffs.items()})

    def __pow__(self, n):
        return QPoly._new(self.params, self.trunc,
                          series_pow(self.params, self.coeffs, n, self.trunc))

    def shift(self, j):
        """Multiply by x^j (dropping overflow past the truncation)."""
        return QPoly(
            self.params,
            self.trunc,
            {e + j: c for e, c in self.coeffs.items() if e + j < self.trunc},
        )

    def retrunc(self, new_trunc):
        """Forget information: lower the truncation to new_trunc."""
        if new_trunc > self.trunc:
            raise ValueError("cannot raise truncation")
        return QPoly(self.params, new_trunc, {e: c for e, c in self.coeffs.items() if e < new_trunc})

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
