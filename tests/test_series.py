"""Property tests of the series engine through both of its views.

QPoly (k[[x]]/x^N) and ValuedTrunc (a tilt or untilted ring below its
cut) share one implementation of the ring arithmetic, Frobenius and
Galois substitution; these properties are checked through each view on
random rings over F_{p^f}, p in {2, 3, 5, 7}, f in {1, 2, 3}.  For f = 1
the valued ring's product and Galois action are also compared with
dense schoolbook arithmetic from tests/oracles.py.

The engine packs coefficients into big integers (Kronecker products,
fused matrix sums, a cached substitution table); those routes are
compared with the pair-by-pair oracles of tests/oracles.py for
p in {2, 3, 5, 7, 11, 13} and f in {1, 2, 3}, including operands that
push the slot width past one and two bytes.
"""

from fractions import Fraction

import pytest

from padic_ramlab.errors import NonUnitExponent, ParamMismatch
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import (QPoly, _slot_bytes, _substitution_rows, exponent_modulus,
                                frobenius_q, gamma_q, series_mul, series_substitute)
from padic_ramlab.tiltring import RingSpec, ValuedTrunc, frobenius, galois_act
from padic_ramlab.wach import mat_mul
from .oracles import (dense_mul, dense_pow, horner_substitute, schoolbook_matmul,
                      schoolbook_mul)

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


# -- the packed engine against the pair-by-pair oracles -----------------------

PRIMES = [2, 3, 5, 7, 11, 13]


@st.composite
def fields(draw):
    return FiniteFieldParams(draw(st.sampled_from(PRIMES)), draw(st.sampled_from([1, 2, 3])))


@st.composite
def operands(draw, k, top):
    """A coefficient dict below top: sparse, dense, or dense at the largest
    coefficient digits (every slot of a product at its bound)."""
    kind = draw(st.sampled_from(["sparse", "dense", "extreme"]))
    if kind == "sparse":
        return draw(st.dictionaries(st.integers(0, top - 1), st.integers(1, k.order - 1),
                                    max_size=min(top, 6)))
    lo = draw(st.integers(0, top - 1))
    if kind == "extreme":
        return {e: k.order - 1 for e in range(lo, top)}
    return {e: draw(st.integers(1, k.order - 1)) for e in range(lo, top)}


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_packed_product_matches_schoolbook(data):
    k = data.draw(fields())
    top = data.draw(st.integers(1, 40))
    a, b = data.draw(operands(k, top)), data.draw(operands(k, top))
    assert series_mul(k, a, b, top) == schoolbook_mul(k, a, b, top)


def test_slot_width_crosses_byte_boundaries():
    assert [_slot_bytes(n) for n in (0, 255, 256, 65535, 65536, 2**32 - 1, 2**32)] == \
        [1, 1, 2, 2, 4, 4, 8]
    assert _slot_bytes(2**64) == 9  # past 8 bytes: exact width, shift-and-mask route
    # (p, f, top, slot bound min(|a|,|b|) f (p-1)^2 of dense operands)
    cases = [(13, 1, 2, 288), (3, 3, 32, 384), (13, 3, 160, 69120), (2, 1, 300, 300)]
    for p, f, top, bound in cases:
        k = FiniteFieldParams(p, f)
        assert top * f * (p - 1) ** 2 == bound
        for c in (k.order - 1, 1):
            a = {e: c for e in range(top)}
            b = {e: k.order - 1 - e % (k.order - 1) for e in range(top)}
            assert series_mul(k, a, b, top) == schoolbook_mul(k, a, b, top), (p, f, top, c)
            assert series_mul(k, a, a, 2 * top) == schoolbook_mul(k, a, a, 2 * top)


def test_packed_product_beyond_one_byte_primes():
    # p > 256 packs by shifts; (2^31 - 1)^2 slots need more than 8 bytes
    for p in (257, 2**31 - 1):
        k = FiniteFieldParams(p)
        a = {0: p - 1, 3: 5, 4: p - 2}
        b = {1: p - 1, 2: p - 1, 6: 7}
        assert series_mul(k, a, b, 9) == schoolbook_mul(k, a, b, 9)
        assert series_substitute(k, a, 1 + p, 7) == horner_substitute(k, a, 1 + p, 7)


def test_small_operands():
    k = FiniteFieldParams(5, 2)
    for top in (1, 2, 5, 9):
        small = [{}, {0: 1}, {top - 1: 2}, {0: 5, top - 1: 3},
                 {e: 7 + e for e in range(0, top, 2)}]
        for a in small:
            for b in small:
                assert series_mul(k, a, b, top) == schoolbook_mul(k, a, b, top), (top, a, b)


@st.composite
def matrix_rings(draw):
    """An element maker of one ring (a QPoly or a valued view) with its k
    and top."""
    k = draw(fields())
    if draw(st.booleans()):
        return q_view(k, draw(st.integers(1, 24)))
    return valued_view(draw(valued_specs(k)))


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_fused_mat_mul_matches_schoolbook(data):
    view = data.draw(matrix_rings())
    k, top = view.k, view.top
    d, n, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    # one side of one-term entries takes the product-by-product route
    monomials = st.dictionaries(st.integers(0, top - 1), st.integers(1, k.order - 1),
                                max_size=1)
    entries_a, entries_b = data.draw(st.sampled_from(
        [(operands(k, top), operands(k, top)), (monomials, operands(k, top)),
         (operands(k, top), monomials)]))
    A = [[data.draw(entries_a) for _ in range(n)] for _ in range(d)]
    B = [[data.draw(entries_b) for _ in range(m)] for _ in range(n)]
    got = mat_mul(tuple(tuple(map(view.make, row)) for row in A),
                  tuple(tuple(map(view.make, row)) for row in B))
    assert [[x.coeffs for x in row] for row in got] == schoolbook_matmul(k, A, B, top)


def test_fused_mat_mul_slot_width_grows_with_the_inner_dimension():
    # 4 * 40 * 3 * 12^2 = 69120 > 2^16: four-byte slots
    k = FiniteFieldParams(13, 3)
    top = 40
    row = [{e: k.order - 1 for e in range(top)} for _ in range(4)]
    A = [row, row]
    B = [[entry] for entry in row]
    got = mat_mul(*(tuple(tuple(QPoly(k, top, c) for c in r) for r in M) for M in (A, B)))
    assert [[x.coeffs for x in r] for r in got] == schoolbook_matmul(k, A, B, top)


def test_mat_mul_rejects_mismatched_operands():
    k3, k5 = FiniteFieldParams(3), FiniteFieldParams(5)
    x = QPoly.x(k3, 6)
    spec = RingSpec(k3, "tilt", 1, 2)
    u = ValuedTrunc.uniformizer(spec)
    for other in (QPoly.x(k3, 7), QPoly.x(k5, 6)):
        for A, B in ((((x, x),), ((x,), (other,))), (((x, other),), ((x,), (x,))),
                     (((x,),), ((other,),)), (((x, x), (x, other)), ((x, x), (x, x)))):
            with pytest.raises(ParamMismatch):
                mat_mul(A, B)
    with pytest.raises(ParamMismatch):
        mat_mul(((u, u),), ((u,), (ValuedTrunc.uniformizer(spec.with_cut(3)),)))


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_table_substitution_matches_horner(data):
    k = data.draw(fields())
    top = data.draw(st.integers(1, 30))
    a = data.draw(operands(k, top))
    u = data.draw(st.integers(1, 400).filter(lambda u: u % k.p))
    got = series_substitute(k, a, u, top)
    assert got == horner_substitute(k, a, u, top)
    # u acts through u mod p^T; at top = 1, p^T = 1 and u + 1 may be no unit
    modulus = exponent_modulus(k.p, top)
    if modulus > 1:
        assert series_substitute(k, a, u + modulus, top) == got
    assert series_substitute(k, a, u + k.p * modulus, top) == got


def test_substitution_rejects_non_units_before_the_table():
    k = FiniteFieldParams(3, 2)
    before = _substitution_rows.cache_info()
    for u in (0, 3, 6, -9):
        with pytest.raises(NonUnitExponent):
            series_substitute(k, {0: 1, 2: 5}, u, 17)
        with pytest.raises(NonUnitExponent):
            gamma_q(QPoly.zero(k, 17), u)
    assert _substitution_rows.cache_info() == before


def test_substitution_table_grows_on_demand():
    # a table entry holds the rows up to the largest index substituted so far
    k = FiniteFieldParams(3, 2)
    top, u = 53, 5
    a, b = {0: 1, 2: 5}, {1: 2, 40: 7}
    assert series_substitute(k, a, u, top) == horner_substitute(k, a, u, top)
    upto, _ = _substitution_rows(k.p, top, u % exponent_modulus(k.p, top))
    assert len(upto(0)) == 3
    assert series_substitute(k, b, u, top) == horner_substitute(k, b, u, top)
    assert len(upto(0)) == 41
    assert series_substitute(k, a, u, top) == horner_substitute(k, a, u, top)
    assert len(upto(0)) == 41
