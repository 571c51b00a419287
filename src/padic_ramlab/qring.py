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

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        k = self.params
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = k.add(out.get(e, 0), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return QPoly(self.params, self.trunc, out)

    def __neg__(self):
        k = self.params
        return QPoly(self.params, self.trunc, {e: k.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        k = self.params
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= self.trunc:
                    continue
                s = k.add(out.get(e, 0), k.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return QPoly(self.params, self.trunc, out)

    def scale(self, c):
        """Multiply by the k-element c."""
        k = self.params
        return QPoly(self.params, self.trunc, {e: k.mul(c0, c) for e, c0 in self.coeffs.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers not supported")
        result = QPoly.one(self.params, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        if not self.coeffs:
            return "0"
        k = self.params
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            cs = str(c) if k.f == 1 else "(" + ",".join(map(str, k.digits(c))) + ")"
            parts.append(f"{cs}*x^{e}")
        return " + ".join(parts)

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
        elif xtok.startswith("x^"):
            e = int(xtok[2:])
        else:
            raise ValueError(f"bad term {part!r}")
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
    k = a.params
    p = k.p
    out = {}
    for e, c in a.coeffs.items():
        if p * e < a.trunc:
            out[p * e] = k.frobenius(c)
    return QPoly(a.params, a.trunc, out)


def _exponent_modulus(p, bound):
    """Smallest p^T with p^T >= bound; exponents u act through u mod p^T
    because (1+x)^(p^T) = 1 + x^(p^T) = 1 at this truncation."""
    T = 1
    while T < bound:
        T *= p
    return T


def one_plus_x_pow(params, trunc, u):
    """(1+x)^u - 1 truncated at trunc, u reduced mod the exponent modulus."""
    p = params.p
    u_red = u % _exponent_modulus(p, trunc)
    out = {}
    for j in range(1, trunc):
        c = math.comb(u_red, j) % p
        if c:
            out[j] = c
    return QPoly(params, trunc, out)


def gamma_q(a, u):
    """The Galois substitution q -> q^u, i.e. x -> (1+x)^u - 1."""
    if u % a.params.p == 0:
        raise NonUnitExponent(f"exponent {u} is divisible by p = {a.params.p}",
                              precondition="gcd(u, p) = 1")
    base = one_plus_x_pow(a.params, a.trunc, u)
    k = a.params
    out = QPoly.zero(a.params, a.trunc)
    # Horner-style accumulation over ascending exponents.
    power = QPoly.one(a.params, a.trunc)
    prev_e = 0
    for e in sorted(a.coeffs):
        for _ in range(e - prev_e):
            power = power * base
        prev_e = e
        out = out + power.scale(a.coeffs[e])
    return out


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
    return QPoly(a.params, a.trunc - j, {e - j: c for e, c in a.coeffs.items()})


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
    return QPoly(a.params, a.trunc, inv)
