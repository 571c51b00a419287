import random

import pytest

from padic_ramlab.errors import NonUnitExponent, NotDivisible, ParamMismatch
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import (
    QPoly,
    frobenius_q,
    gamma_q,
    invert_unit,
    parse_qpoly,
    parse_terms,
    try_divide,
)
from .oracles import dense_mul

K2 = FiniteFieldParams(2)
K3 = FiniteFieldParams(3)


def rand_poly(rng, params, trunc, density=0.5):
    coeffs = {}
    for e in range(trunc):
        if rng.random() < density:
            coeffs[e] = rng.randrange(params.order)
    return QPoly(params, trunc, coeffs)


def test_add_char2():
    x = QPoly.x(K2, 4)
    assert (x + x).is_zero()


def test_mul_truncates():
    x = QPoly.x(K2, 4)
    assert (x * x) == QPoly.monomial(K2, 4, 2)
    cube = x * x * x * x  # x^4 dies at truncation 4
    assert cube.is_zero()


def test_mul_against_dense_oracle():
    a = parse_terms("1 + 1*x^1", K3, 3)
    b = parse_terms("1 + 1*x^1 + 1*x^2", K3, 3)
    prod = a * b
    expect = dense_mul([1, 1], [1, 1, 1], 3, 3)
    assert [prod.coeffs.get(e, 0) for e in range(3)] == expect


def test_mul_random_against_dense_oracle():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 12)
        a = rand_poly(rng, K3, n)
        b = rand_poly(rng, K3, n)
        dense_a = [a.coeffs.get(e, 0) for e in range(n)]
        dense_b = [b.coeffs.get(e, 0) for e in range(n)]
        prod = a * b
        assert [prod.coeffs.get(e, 0) for e in range(n)] == dense_mul(dense_a, dense_b, 3, n)


def test_param_mismatch():
    with pytest.raises(ParamMismatch):
        QPoly.x(K2, 4) + QPoly.x(K3, 4)
    with pytest.raises(ParamMismatch):
        QPoly.x(K2, 4) + QPoly.x(K2, 5)


def test_scalar_mul():
    a = parse_terms("1 + 2*x^2", K3, 4)
    assert a.scale(2) == parse_terms("2 + 1*x^2", K3, 4)


def test_frobenius_examples():
    # x -> x^p
    assert frobenius_q(QPoly.x(K3, 9)) == QPoly.monomial(K3, 9, 3)
    # q -> q^p, i.e. 1+x -> 1+x^p
    assert frobenius_q(QPoly.q(K3, 9)) == parse_terms("1 + 1*x^3", K3, 9)
    # constants -> p-th power
    k4 = FiniteFieldParams(2, 2)
    w = 2  # the generator of F_4 in the polynomial basis
    c = QPoly.constant(k4, 4, w)
    assert frobenius_q(c) == QPoly.constant(k4, 4, k4.frobenius(w))


def test_frobenius_is_semilinear_ring_hom():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng, K3, 10)
        b = rand_poly(rng, K3, 10)
        assert frobenius_q(a * b) == frobenius_q(a) * frobenius_q(b)
        assert frobenius_q(a + b) == frobenius_q(a) + frobenius_q(b)


def test_gamma_identity_and_examples():
    a = parse_terms("1 + 1*x^1 + 2*x^3", K3, 5)
    assert gamma_q(a, 1) == a
    # p=2, u=3: x -> x + x^2 + x^3
    assert gamma_q(QPoly.x(K2, 8), 3) == parse_terms("1*x^1 + 1*x^2 + 1*x^3", K2, 8)
    # q -> q^(p+1)
    img = gamma_q(QPoly.q(K3, 10), 4)
    expect = QPoly.q(K3, 10) ** 4
    assert img == expect


def test_gamma_rejects_non_units():
    with pytest.raises(NonUnitExponent):
        gamma_q(QPoly.x(K3, 5), 6)


def test_gamma_is_ring_hom():
    rng = random.Random(13)
    for _ in range(40):
        a = rand_poly(rng, K2, 12)
        b = rand_poly(rng, K2, 12)
        u = rng.choice([1, 3, 5, 7, 9])
        assert gamma_q(a * b, u) == gamma_q(a, u) * gamma_q(b, u)
        assert gamma_q(a + b, u) == gamma_q(a, u) + gamma_q(b, u)


def test_gamma_composition_law():
    rng = random.Random(17)
    for _ in range(30):
        a = rand_poly(rng, K3, 9)
        u1 = rng.choice([2, 4, 5, 7, 8])
        u2 = rng.choice([2, 4, 5, 7, 8])
        lhs = gamma_q(gamma_q(a, u1), u2)
        assert lhs == gamma_q(a, u1 * u2)
        # exponent reduction mod p^T is sound: p^T >= N here is 27 >= 9
        assert gamma_q(a, u1 + 27) == gamma_q(a, u1)


def test_gamma_commutes_with_frobenius():
    rng = random.Random(19)
    for _ in range(30):
        a = rand_poly(rng, K3, 10)
        u = rng.choice([2, 4, 5, 7])
        assert frobenius_q(gamma_q(a, u)) == gamma_q(frobenius_q(a), u)


def test_try_divide_examples():
    x3 = QPoly.monomial(K3, 6, 3)
    out = try_divide(x3, 1)
    assert out == QPoly.monomial(K3, 5, 2) and out.trunc == 5
    with pytest.raises(NotDivisible):
        try_divide(QPoly.one(K3, 6), 1)
    a = parse_terms("1*x^1 + 1*x^2", K2, 4)
    assert try_divide(a, 1) == parse_terms("1 + 1*x^1", K2, 3)


def test_try_divide_inverts_shift():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(2, 10)
        j = rng.randint(0, n - 1)
        a = rand_poly(rng, K3, n - j)
        shifted = QPoly(K3, n, {e + j: c for e, c in a.coeffs.items()})
        assert try_divide(shifted, j) == a


def test_invert_unit():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 12)
        a = rand_poly(rng, K3, n)
        a = a + QPoly.constant(K3, n, 1 if a.constant_term() == 0 else 0)
        if a.constant_term() == 0:
            continue
        assert a * invert_unit(a) == QPoly.one(K3, n)
    with pytest.raises(ZeroDivisionError):
        invert_unit(QPoly.x(K3, 4))


def test_text_round_trip():
    rng = random.Random(31)
    for params in (K3, FiniteFieldParams(2, 2)):
        for _ in range(20):
            a = rand_poly(rng, params, rng.randint(1, 9))
            assert parse_qpoly(a.to_text()) == a


def test_parse_human_forms():
    assert parse_terms("x", K3, 4) == QPoly.x(K3, 4)
    assert parse_terms("2", K3, 4) == QPoly.constant(K3, 4, 2)
    assert parse_terms("1 + 2*x^3", K3, 4).coeffs == {0: 1, 3: 2}
    assert parse_terms("x^2 + x^2", K2, 4).is_zero()


def test_parse_minus_signs():
    assert parse_terms("1 - x", K3, 4) == parse_terms("1 + 2*x^1", K3, 4)
    assert parse_terms("-2*x^3", K3, 4) == QPoly.monomial(K3, 4, 3, 1)
    assert parse_terms(" - x + x^2 - 1", K3, 4).coeffs == {0: 2, 1: 2, 2: 1}
    assert parse_terms("x - x", K3, 4).is_zero()
    assert parse_terms("1 - x", K2, 4) == parse_terms("1 + x", K2, 4)
    k4 = FiniteFieldParams(2, 2)
    assert parse_terms("-(0,1)*x^1", k4, 4) == parse_terms("(0,1)*x^1", k4, 4)
    K5 = FiniteFieldParams(5)
    assert parse_terms("-(3)*x^1", K5, 4).coeffs == {1: 2}
    # output keeps the '+'-only form
    assert parse_terms("1 - x", K3, 4).terms_str() == "1*x^0 + 2*x^1"
    for bad in ("1 -", "--x", "1 + - x", "-", "2*x^-3", "x^", "2*x^a"):
        with pytest.raises(ValueError, match="bad term") as excinfo:
            parse_terms(bad, K3, 4)
        assert repr(bad) in str(excinfo.value)


def test_parse_signed_terms_round_trip():
    rng = random.Random(71)
    for _ in range(40):
        params = rng.choice([K2, K3, FiniteFieldParams(5), FiniteFieldParams(3, 2)])
        a = rand_poly(rng, params, 6)
        negated = " - ".join([""] + a.terms_str().split(" + ")) if a.coeffs else "0"
        assert parse_terms(negated, params, 6) == -a
        assert parse_terms(a.terms_str(), params, 6) == a
