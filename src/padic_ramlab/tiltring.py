"""Truncated characteristic-p valued rings.

One engine covers two rings:

  * tilt mode, depth N: the subring k[pi] of the tilted integer ring,
    pi = eps^(1/p^N) - 1 a compatible p-power root of unity minus one,
    with val(pi) = 1/(p^(N-1)(p-1)), truncated below a valuation cut;

  * untilted mode, level s: O_E / (val > cut) for E containing a
    primitive p^(s+1)-th root of unity zeta, with uniformizer
    theta = zeta - 1, val(theta) = 1/(p^s(p-1)).  Requires cut < 1, so
    that p = 0 and the quotient is a k-algebra; under that hypothesis
    the monomial model below is exact, not an approximation.

Elements are sparse maps {monomial index m -> nonzero k-element}; the
monomial m has valuation m/D where D is the fixed denominator of the
ring (D = p^(N-1)(p-1) resp. p^s(p-1)).  Monomials with m/D > cut do
not exist; multiplication drops them, which is reduction in the
quotient ring.

ValuedTrunc is a view on the series engine of qring with the exclusive
bound top = m_max + 1: the engine does the arithmetic, Frobenius and
Galois substitution, the view adds the RingSpec and its checks.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityExceeded, NotDivisible, ParamMismatch
from .gf import FiniteFieldParams
from .qring import (series_add, series_frobenius, series_mul, series_neg, series_pow,
                    series_scale, series_substitute, series_terms)

__all__ = [
    "RingSpec",
    "ValuedTrunc",
    "val",
    "frobenius",
    "galois_act",
    "embed_q",
    "reduce_to",
    "formality_threshold",
]

TILT = "tilt"
UNTILTED = "untilted"


@dataclass(frozen=True)
class RingSpec:
    params: FiniteFieldParams
    mode: str
    level: int  # depth N >= 1 in tilt mode, level s >= 0 in untilted mode
    cut: Fraction

    def __post_init__(self):
        object.__setattr__(self, "cut", Fraction(self.cut))
        if self.mode not in (TILT, UNTILTED):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == TILT and self.level < 1:
            raise ValueError("tilt depth must be >= 1")
        if self.mode == UNTILTED and self.level < 0:
            raise ValueError("level must be >= 0")
        if self.cut <= 0:
            raise ValueError("cut must be positive")
        if self.mode == UNTILTED and self.cut >= 1:
            raise ValueError(
                "untilted cut must be < 1 so that p = 0 and the ring is a k-algebra"
            )

    # Cached in the instance dict: the fields alone still define == and hash.
    @functools.cached_property
    def denominator(self):
        """D: monomial m has valuation m/D."""
        p = self.params.p
        if self.mode == TILT:
            return p ** (self.level - 1) * (p - 1)
        return p**self.level * (p - 1)

    @functools.cached_property
    def m_max(self):
        return math.floor(self.cut * self.denominator)

    @property
    def embed_exponent(self):
        """Monomial index of the image of q - 1 under embed_q."""
        if self.mode == TILT:
            return self.params.p ** (self.level - 1)
        return 1

    def with_cut(self, cut):
        """The same ring at another cut.  Every spec reached from one
        another by with_cut is one object per cut, so that the checks of
        ring equality stop at `is`.  An int or Fraction cut is looked up
        as it is (equal numbers hash alike); only a new cut is converted."""
        # shared by every spec of the family; kept in the instance dict,
        # outside the fields that define == and hash
        family = self.__dict__.get("_family")
        if family is None:
            family = self.__dict__["_family"] = {self.cut: self}
        if not isinstance(cut, (int, Fraction)):
            cut = Fraction(cut)
        spec = family.get(cut)
        if spec is None:
            cut = Fraction(cut)
            spec = family[cut] = RingSpec(self.params, self.mode, self.level, cut)
            spec.__dict__["_family"] = family
        return spec

    def monomial_val(self, m):
        return Fraction(m, self.denominator)

    def describe(self):
        if self.mode == TILT:
            head = f"mode=tilt N={self.level}"
        else:
            head = f"mode=untilted s={self.level}"
        return f"{head}; cut={self.cut.numerator}/{self.cut.denominator}"


class ValuedTrunc:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec, coeffs):
        clean = {}
        m_max = spec.m_max
        for m, c in coeffs.items():
            if not (0 <= m <= m_max):
                raise ValueError(f"monomial {m} outside [0, {m_max}]")
            if c % spec.params.order:
                clean[m] = c % spec.params.order
        self.spec = spec
        self.coeffs = clean

    @classmethod
    def _new(cls, spec, coeffs):
        """Wrap a dict the series engine made: reduced, in [0, m_max]."""
        a = object.__new__(cls)
        a.spec, a.coeffs = spec, coeffs
        return a

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, spec):
        return cls(spec, {})

    @classmethod
    def constant(cls, spec, c):
        return cls(spec, {0: c})

    @classmethod
    def one(cls, spec):
        return cls.constant(spec, 1)

    @classmethod
    def uniformizer(cls, spec, power=1, c=1):
        return cls(spec, {power: c})

    # -- queries -----------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        try:
            if self.spec is other.spec or self.spec == other.spec:
                return
            theirs = other.spec
        except AttributeError:  # not a ValuedTrunc; free when nothing is raised
            theirs = type(other).__name__
        raise ParamMismatch(f"ring mismatch: {self.spec} vs {theirs}")

    # -- ring operations (the series engine at top = m_max + 1) ------------

    def __add__(self, other):
        self._check(other)
        return ValuedTrunc._new(self.spec,
                                series_add(self.spec.params, self.coeffs, other.coeffs))

    def __neg__(self):
        return ValuedTrunc._new(self.spec, series_neg(self.spec.params, self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        spec = self.spec
        return ValuedTrunc._new(spec, series_mul(spec.params, self.coeffs, other.coeffs,
                                                 spec.m_max + 1))

    def scale(self, c):
        return ValuedTrunc._new(self.spec, series_scale(self.spec.params, self.coeffs, c))

    def __pow__(self, n):
        spec = self.spec
        return ValuedTrunc._new(spec, series_pow(spec.params, self.coeffs, n, spec.m_max + 1))

    def shift_down(self, j):
        """Exact division by uniformizer^j at unchanged cut.

        Content the cut ring cannot see (monomials that a true division
        would bring down from above the cut) is silently absent; callers
        that need certified precision must work at an inflated cut.
        """
        if j < 0:  # a multiplication: indices may rise past m_max, check them
            return ValuedTrunc(self.spec, {m - j: c for m, c in self.coeffs.items()})
        return ValuedTrunc._new(self.spec, _divide(self.coeffs, j))

    def with_cut(self, cut):
        """Reinterpret at a different cut, keeping stored monomials.

        Raising the cut treats the element as exact (zero tail); use only
        for formal candidates, not for truncations of unknown elements.
        Lowering the cut is honest reduction.
        """
        new = self.spec.with_cut(cut)
        m_max = new.m_max
        return ValuedTrunc._new(new, {m: c for m, c in self.coeffs.items() if m <= m_max})

    # -- comparison / hashing / display ----------------------------------

    def _key(self):
        return (self.spec, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other):
        if not isinstance(other, ValuedTrunc):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def terms_str(self):
        return series_terms(self.spec.params, self.coeffs, "u")

    def to_text(self):
        return f"{self.spec.describe()}; {self.terms_str()}"

    def __repr__(self):
        return f"ValuedTrunc({self.to_text()})"


# -- operations -------------------------------------------------------------


def val(a):
    """Minimal monomial valuation; +infinity for the zero element."""
    if not a.coeffs:
        return math.inf
    return a.spec.monomial_val(min(a.coeffs))


def _divide(a, j):
    """Exact division of a coefficient dict by u^j, j >= 0, at unchanged cut."""
    if a and (v := min(a)) < j:
        raise NotDivisible(f"monomial u^{v} not divisible by u^{j}")
    return {m - j: c for m, c in a.items()} if j else a


def frobenius(a):
    """The p-th power map: c*u^m -> c^p * u^(p*m)."""
    spec = a.spec
    return ValuedTrunc._new(spec, series_frobenius(spec.params, a.coeffs, spec.m_max + 1))


def galois_act(a, u):
    """The Galois substitution (1 + uniformizer) -> (1 + uniformizer)^u.

    A valuation-preserving ring automorphism; u must be prime to p and is
    reduced mod the exponent modulus of the cut.
    """
    spec = a.spec
    return ValuedTrunc._new(spec, series_substitute(spec.params, a.coeffs, u, spec.m_max + 1))


def embed_q(a, spec):
    """Map from the q-coefficient ring: q - 1 goes to the element of
    valuation 1/(p-1) (tilt: pi^(p^(N-1)); untilted: theta).

    The source truncation must dominate the target cut: monomials the
    source dropped at x^N land at valuation N/(p-1) (tilt) or N/D
    (untilted), which must lie strictly beyond the cut.
    """
    if a.params != spec.params:
        raise ParamMismatch(f"field mismatch: {a.params} vs {spec.params}")
    img, m_max = spec.embed_exponent, spec.m_max
    if a.trunc * img <= m_max:  # the tail's valuation N img / D is <= cut
        raise CapacityExceeded(
            f"source truncation N={a.trunc} only determines the image below "
            f"valuation {Fraction(a.trunc * img, spec.denominator)}, but the target cut "
            f"is {spec.cut}",
            precondition="N * val(image of q-1) > cut",
        )
    return ValuedTrunc._new(spec, {e * img: c for e, c in a.coeffs.items() if e * img <= m_max})


def reduce_to(a, c):
    """Project to the coarser quotient with cut c <= current cut."""
    c = Fraction(c)
    if c > a.spec.cut:
        raise ValueError(f"cannot raise cut {a.spec.cut} to {c}")
    return a.with_cut(c)


def formality_threshold(p, c):
    """Least s >= 0 with p^s > c(p-1).

    Beyond this level the Galois action on truncated Frobenius-solution
    sets factors through the coefficients: (eps^(1/p)-1)^(p^s) has
    valuation p^s/(p-1) > c and so dies at the cut.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("cut must be positive")
    s = 0
    power = 1
    while power <= c * (p - 1):
        s += 1
        power *= p
    return s
