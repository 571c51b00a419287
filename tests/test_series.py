"""Property tests of the series engine through both of its views.

QPoly (k[[x]]/x^N) and ValuedTrunc (a tilt or untilted ring below its
cut) share one implementation of the ring arithmetic, Frobenius and
Galois substitution; these properties are checked through each view on
random rings over F_{p^f}, p in {2, 3, 5, 7}, f in {1, 2, 3}.  For f = 1
the valued ring's product and Galois action are also compared with
dense schoolbook arithmetic from tests/oracles.py.
"""

from fractions import Fraction

import pytest

from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import QPoly, frobenius_q, gamma_q
from padic_ramlab.tiltring import RingSpec, ValuedTrunc, frobenius, galois_act
from .oracles import dense_mul, dense_pow

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

SETTINGS = dict(deadline=None, derandomize=True, database=None, max_examples=60,
                suppress_health_check=list(hypothesis.HealthCheck))


class View:
    """One ring seen through one view: an element maker and its maps."""

    def __init__(self, k, top, make, frob, gal):
        self.k, self.top, self.make, self.frob, self.gal = k, top, make, frob, gal

    def __repr__(self):
        return repr(self.make({}))


def q_view(k, trunc):
    return View(k, trunc, lambda c: QPoly(k, trunc, c), frobenius_q, gamma_q)


def valued_view(spec):
    return View(spec.params, spec.m_max + 1, lambda c: ValuedTrunc(spec, c),
                frobenius, galois_act)


@st.composite
def valued_specs(draw, k):
    """A RingSpec with m_max <= 9: cut (2m+1)/(2D) has m_max = m."""
    p = k.p
    if draw(st.booleans()):
        level = draw(st.integers(1, 3))
        D = p ** (level - 1) * (p - 1)
        m = draw(st.integers(0, 9))
        return RingSpec(k, "tilt", level, Fraction(2 * m + 1, 2 * D))
    level = draw(st.integers(0, 2))
    D = p**level * (p - 1)
    m = draw(st.integers(0, min(9, D - 1)))  # untilted cuts stay below 1
    return RingSpec(k, "untilted", level, Fraction(2 * m + 1, 2 * D))


@st.composite
def views(draw):
    k = FiniteFieldParams(draw(st.sampled_from([2, 3, 5, 7])), draw(st.sampled_from([1, 2, 3])))
    if draw(st.booleans()):
        return q_view(k, draw(st.integers(1, 10)))
    return valued_view(draw(valued_specs(k)))


def elements(draw, view):
    coeffs = draw(st.dictionaries(st.integers(0, view.top - 1),
                                  st.integers(0, view.k.order - 1), max_size=6))
    return view.make(coeffs)


def units(draw, p):
    return draw(st.integers(1, 60).filter(lambda u: u % p))


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_ring_axioms(data):
    view = data.draw(views())
    a, b, c = (elements(data.draw, view) for _ in range(3))
    zero, one = view.make({}), view.make({0: 1})
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == a + (-b)
    assert a ** 0 == one and a ** 3 == a * a * a
    n = data.draw(st.integers(0, view.k.order - 1))
    assert a.scale(n) == view.make({0: n}) * a


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_frobenius_and_substitution_are_ring_homomorphisms(data):
    view = data.draw(views())
    a, b = elements(data.draw, view), elements(data.draw, view)
    one = view.make({0: 1})
    u = units(data.draw, view.k.p)
    for hom in (view.frob, lambda x: view.gal(x, u)):
        assert hom(a + b) == hom(a) + hom(b)
        assert hom(a * b) == hom(a) * hom(b)
        assert hom(one) == one
    assert view.frob(a) == a ** view.k.p  # the p-th power map, semilinear on k


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_substitutions_compose(data):
    view = data.draw(views())
    a = elements(data.draw, view)
    u1, u2 = units(data.draw, view.k.p), units(data.draw, view.k.p)
    assert view.gal(view.gal(a, u1), u2) == view.gal(a, u1 * u2)


def dense(a, n):
    return [a.coeffs.get(m, 0) for m in range(n)]


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_valued_ring_against_dense_oracle(data):
    k = FiniteFieldParams(data.draw(st.sampled_from([2, 3, 5, 7])))
    spec = data.draw(valued_specs(k))
    view = valued_view(spec)
    a, b = elements(data.draw, view), elements(data.draw, view)
    p, n = k.p, view.top
    assert dense(a * b, n) == dense_mul(dense(a, n), dense(b, n), p, n)
    u = units(data.draw, p)
    # (1+t)^u - 1 by repeated dense multiplication, then sum_m a_m base^m
    base = dense_pow([1, 1], u, p, n)
    base[0] = (base[0] - 1) % p
    want = [0] * n
    for m, c in a.coeffs.items():
        want = [(w + c * t) % p for w, t in zip(want, dense_pow(base, m, p, n))]
    assert dense(galois_act(a, u), n) == want


def test_public_constructors_check_and_reduce():
    k = FiniteFieldParams(3)
    spec = RingSpec(k, "tilt", 1, 2)  # monomials 0..4
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="outside"):
            QPoly(k, 4, {bad: 1})
    for bad in (-1, spec.m_max + 1):
        with pytest.raises(ValueError, match="outside"):
            ValuedTrunc(spec, {bad: 1})
    assert QPoly(k, 4, {0: 4, 1: 3, 2: -1}).coeffs == {0: 1, 2: 2}
    assert ValuedTrunc(spec, {0: 5, 2: -3, 4: -1}).coeffs == {0: 2, 4: 2}
    assert QPoly.x(k, 4).scale(7).coeffs == {1: 1}
    assert ValuedTrunc.one(spec).scale(-4).coeffs == {0: 2}
    assert QPoly.x(k, 4).scale(3).is_zero() and ValuedTrunc.one(spec).scale(6).is_zero()
