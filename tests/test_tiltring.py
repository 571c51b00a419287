import math
import random
from fractions import Fraction

import pytest

from padic_ramlab.errors import CapacityExceeded, NonUnitExponent, NotDivisible
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import QPoly, frobenius_q
from padic_ramlab.tiltring import (
    RingSpec,
    ValuedTrunc,
    embed_q,
    formality_threshold,
    frobenius,
    galois_act,
    reduce_to,
    val,
)

K2 = FiniteFieldParams(2)
K3 = FiniteFieldParams(3)


def rand_elem(rng, spec, density=0.4):
    coeffs = {}
    for m in range(spec.m_max + 1):
        if rng.random() < density:
            coeffs[m] = rng.randrange(spec.params.order)
    return ValuedTrunc(spec, coeffs)


def test_spec_denominators():
    assert RingSpec(K3, "tilt", 1, 2).denominator == 2
    assert RingSpec(K3, "tilt", 3, 2).denominator == 18
    assert RingSpec(K3, "untilted", 1, Fraction(2, 3)).denominator == 6
    with pytest.raises(ValueError):
        RingSpec(K3, "untilted", 1, 1)  # untilted cut must stay below 1


def test_val_examples():
    spec = RingSpec(K3, "tilt", 1, 2)
    pi = ValuedTrunc.uniformizer(spec)
    assert val(pi) == Fraction(1, 2)
    assert val(ValuedTrunc.zero(spec)) == math.inf
    assert val(pi ** 2) == 1  # additivity at the (p-1)-th power


def test_val_ultrametric_properties():
    rng = random.Random(3)
    spec = RingSpec(K3, "tilt", 2, 3)
    for _ in range(60):
        a = rand_elem(rng, spec)
        b = rand_elem(rng, spec)
        if not a.is_zero() and not b.is_zero() and val(a) + val(b) <= spec.cut:
            assert val(a * b) == val(a) + val(b)
        assert val(a + b) >= min(val(a), val(b))


def test_frobenius_val_and_hom():
    rng = random.Random(5)
    spec = RingSpec(K2, "tilt", 2, 4)
    for _ in range(50):
        a = rand_elem(rng, spec)
        b = rand_elem(rng, spec)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        if not a.is_zero() and 2 * val(a) <= spec.cut:
            assert val(frobenius(a)) == 2 * val(a)


def test_frobenius_on_uniformizer_drops_depth():
    # pi_N^p = eps^(1/p^(N-1)) - 1, the depth-(N-1) uniformizer image
    spec = RingSpec(K3, "tilt", 2, 3)
    pi = ValuedTrunc.uniformizer(spec)
    assert frobenius(pi) == pi ** 3


def test_pow_rejects_negative_exponents():
    spec = RingSpec(K3, "tilt", 1, 2)
    pi = ValuedTrunc.uniformizer(spec)
    assert pi ** 0 == ValuedTrunc.one(spec)
    for n in (-1, -2):
        with pytest.raises(ValueError, match="negative"):
            pi ** n


def test_galois_examples():
    spec2 = RingSpec(K2, "tilt", 1, 4)
    pi = ValuedTrunc.uniformizer(spec2)
    assert galois_act(pi, 1) == pi
    assert galois_act(pi, 3) == ValuedTrunc(spec2, {1: 1, 2: 1, 3: 1})
    with pytest.raises(NonUnitExponent):
        galois_act(pi, 4)


def test_galois_preserves_valuation_and_composes():
    rng = random.Random(7)
    spec = RingSpec(K3, "untilted", 1, Fraction(5, 6))
    for _ in range(50):
        a = rand_elem(rng, spec)
        u1 = rng.choice([2, 4, 5, 7, 8])
        u2 = rng.choice([2, 4, 5, 7, 8])
        assert val(galois_act(a, u1)) == val(a)
        assert galois_act(galois_act(a, u1), u2) == galois_act(a, u1 * u2)
        b = rand_elem(rng, spec)
        assert galois_act(a * b, u1) == galois_act(a, u1) * galois_act(b, u1)


def test_embed_q_tilt_and_untilted():
    x = QPoly.x(K3, 8)
    tilt2 = RingSpec(K3, "tilt", 2, 2)
    assert embed_q(x, tilt2) == ValuedTrunc.uniformizer(tilt2, 3)  # pi^(p^(N-1))
    unt = RingSpec(K3, "untilted", 1, Fraction(2, 3))
    assert embed_q(x, unt) == ValuedTrunc.uniformizer(unt, 1)  # theta
    one = QPoly.one(K3, 8)
    assert embed_q(one, tilt2) == ValuedTrunc.one(tilt2)


def test_frobenius_commutes_with_galois():
    rng = random.Random(13)
    spec = RingSpec(K3, "tilt", 2, 3)
    for _ in range(40):
        a = rand_elem(rng, spec)
        u = rng.choice([2, 4, 5, 7])
        assert frobenius(galois_act(a, u)) == galois_act(frobenius(a), u)


def test_embed_q_commutes_with_frobenius():
    rng = random.Random(11)
    tilt = RingSpec(K3, "tilt", 2, 2)
    for _ in range(40):
        n = rng.randint(5, 9)
        coeffs = {e: rng.randrange(3) for e in range(n) if rng.random() < 0.5}
        a = QPoly(K3, n, coeffs)
        assert embed_q(frobenius_q(a), tilt) == frobenius(embed_q(a, tilt))


def test_embed_q_capacity():
    # truncation 3 only determines the image below valuation 3/(p-1)
    a = QPoly.x(K3, 3)
    with pytest.raises(CapacityExceeded):
        embed_q(a, RingSpec(K3, "tilt", 1, 2))
    embed_q(a, RingSpec(K3, "tilt", 1, Fraction(5, 4)))  # fine below 3/2


def test_reduce_to():
    spec = RingSpec(K3, "tilt", 1, 3)
    a = ValuedTrunc(spec, {1: 1, 5: 1})  # pi + pi^5, valuations 1/2 and 5/2
    out = reduce_to(a, Fraction(1, 2))
    assert out == ValuedTrunc(spec.with_cut(Fraction(1, 2)), {1: 1})
    assert reduce_to(a, spec.cut) == a
    assert reduce_to(ValuedTrunc.zero(spec), 1).is_zero()


def test_shift_down_divides_exactly_and_multiplies_for_negative_j():
    spec = RingSpec(K3, "tilt", 1, 6)  # D = 2, m_max = 12
    a = ValuedTrunc(spec, {3: 1, 5: 2})
    assert a.shift_down(2) == ValuedTrunc(spec, {1: 1, 3: 2})
    assert a.shift_down(0) == a
    with pytest.raises(NotDivisible, match=r"monomial u\^1 not divisible by u\^2"):
        ValuedTrunc.uniformizer(spec).shift_down(2)
    assert a.shift_down(-7) == ValuedTrunc(spec, {10: 1, 12: 2})
    with pytest.raises(ValueError, match=r"monomial 13 outside \[0, 12\]"):
        a.shift_down(-8)


def test_formality_threshold():
    assert formality_threshold(3, Fraction(1, 2)) == 1
    assert formality_threshold(2, 2) == 2
    assert formality_threshold(7, Fraction(1, 7)) == 0  # c(p-1) < 1


def test_formality_threshold_matches_vanishing():
    # (eps^(1/p) - 1)^(p^s) dies at cut c exactly when p^s > c(p-1)
    for p, K in ((2, K2), (3, K3)):
        for c in (Fraction(1, 2), 1, 2, Fraction(7, 3)):
            s_min = formality_threshold(p, c)
            for s in range(s_min + 2):
                big = RingSpec(K, "tilt", 1, c + Fraction(p**s, p - 1))
                elem = reduce_to(ValuedTrunc.uniformizer(big) ** (p**s), c)
                assert elem.is_zero() == (s >= s_min)


def test_text_format():
    spec = RingSpec(K3, "untilted", 2, Fraction(1, 2))
    a = ValuedTrunc(spec, {0: 2, 3: 1})
    assert a.to_text() == "mode=untilted s=2; cut=1/2; 2*u^0 + 1*u^3"
