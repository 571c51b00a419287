"""Arithmetic in the finite coefficient fields F_{p^f}.

Field elements are plain ints in [0, p^f), read as polynomial-basis
digits base p, little-endian: the element sum(c_j * w^j) is encoded as
sum(c_j * p^j), where w is a root of the field modulus.  For f = 1 this
is the usual residue 0..p-1.  For f > 1 the modulus is the
lexicographically first monic irreducible of degree f over F_p, so two
handles with equal (p, f) always denote the same field with the same
basis.  Keeping elements as ints makes them free to hash and compare.
"""

import functools
from dataclasses import dataclass


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _monic(code, p, d):
    """The monic polynomial of degree d whose lower coefficients are the base-p digits of code."""
    return [code // p**j % p for j in range(d)] + [1]


def _poly_rem(a, modulus, p):
    """The remainder of a mod the monic modulus (deg(modulus) coefficients); reduces a in place."""
    f = len(modulus) - 1
    for k in range(len(a) - 1, f - 1, -1):
        c = a[k]
        if c:
            for j in range(f):
                a[k - f + j] = (a[k - f + j] - c * modulus[j]) % p
    return a[:f]


def _poly_is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            if not any(_poly_rem(list(poly), _monic(code, p, d), p)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def _field_modulus(p, f):
    """Lexicographically first monic irreducible of degree f over F_p."""
    for code in range(p**f):
        poly = _monic(code, p, f)
        if _poly_is_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable


@dataclass(frozen=True)
class FiniteFieldParams:
    """Handle for the coefficient field k = F_{p^f}."""

    p: int
    f: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.f < 1:
            raise ValueError(f"f = {self.f} must be >= 1")

    @property
    def order(self):
        return self.p**self.f

    @property
    def modulus(self):
        return _field_modulus(self.p, self.f)

    # -- element codec -------------------------------------------------

    def digits(self, a):
        p, f = self.p, self.f
        out = [0] * f
        for j in range(f):
            out[j] = a % p
            a //= p
        return out

    def encode(self, digits):
        val = 0
        for c in reversed(digits):
            val = val * self.p + (c % self.p)
        return val

    def elements(self):
        return range(self.order)

    # -- arithmetic ----------------------------------------------------

    def add(self, a, b):
        p = self.p
        if self.f == 1:
            return (a + b) % p
        out, place = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * place
            place *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        p = self.p
        if self.f == 1:
            return -a % p
        out, place = 0, 1
        while a:
            a, x = divmod(a, p)
            out += -x % p * place
            place *= p
        return out

    def mul(self, a, b):
        if self.f == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        p, x, y = self.p, self.digits(a), self.digits(b)
        prod = [0] * (2 * self.f - 1)  # the schoolbook product of the digit polynomials
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        return self.encode(_poly_rem(prod, self.modulus, p))

    def pow(self, a, n):
        if self.f == 1:
            return pow(a, n, self.p)
        if n == 0:
            return 1
        if a == 0:
            return 0
        n %= self.order - 1  # multiplicative group order
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.f == 1:
            return pow(a, -1, self.p)
        return self.pow(a, self.order - 2)

    def frobenius(self, a):
        """x -> x^p, the absolute Frobenius of k."""
        return self.pow(a, self.p)

    def frobenius_pow(self, a, s):
        """x -> x^(p^s); negative s applies the inverse automorphism."""
        s %= self.f
        for _ in range(s):
            a = self.frobenius(a)
        return a

    def in_prime_field(self, a):
        return a < self.p
