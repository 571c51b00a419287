"""Property tests against outside arithmetic: gf against sympy's GF(p)[x]
modulo the lexicographically first irreducible, the associativity of
Herbrand function composition on random filtrations, and the integer
bounds against their Fraction closed forms."""

import functools
import random
from fractions import Fraction

import pytest

from padic_ramlab.bounds import alpha, beta, crystalline_bound, semistable_bound
from padic_ramlab.gf import FiniteFieldParams, is_prime
from padic_ramlab.ramify import phi_fn, psi_fn

from .conftest import random_break_data

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies
given = hypothesis.given

SETTINGS = dict(deadline=None, derandomize=True, database=None, max_examples=80,
                suppress_health_check=list(hypothesis.HealthCheck))
X = sympy.symbols("x")


def digits(a, p, f):
    return [(a // p**j) % p for j in range(f)]


def to_poly(a, p, f):
    return sympy.Poly(list(reversed(digits(a, p, f))), X, modulus=p)


def from_poly(poly, p):
    return sum((int(c) % p) * p**j for j, c in enumerate(reversed(poly.all_coeffs())))


@functools.lru_cache(maxsize=None)
def lex_modulus(p, f):
    """The first monic irreducible x^f + c_(f-1) x^(f-1) + ... + c_0 of degree
    f over F_p, counting up the code sum c_j p^j; by sympy's irreducibility
    test."""
    for code in range(p**f):
        poly = sympy.Poly([1] + list(reversed(digits(code, p, f))), X, modulus=p)
        if poly.is_irreducible:
            return poly
    raise AssertionError("no irreducible polynomial")


fields = st.tuples(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3))


@hypothesis.settings(**SETTINGS)
@given(fields, st.data())
def test_gf_matches_sympy_modulo_the_lex_modulus(pf, data):
    p, f = pf
    k = FiniteFieldParams(p, f)
    m = lex_modulus(p, f)
    assert list(k.modulus) == [int(c) % p for c in reversed(m.all_coeffs())]
    a, b = (data.draw(st.integers(0, k.order - 1)) for _ in range(2))
    A, B = to_poly(a, p, f), to_poly(b, p, f)
    assert k.add(a, b) == from_poly((A + B).rem(m), p)
    assert k.mul(a, b) == from_poly((A * B).rem(m), p)
    if a:
        assert k.inv(a) == from_poly(A.invert(m), p)


@hypothesis.settings(**SETTINGS)
@given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=3, max_size=3))
def test_herbrand_compose_is_associative(seed, use_phi):
    rng = random.Random(seed)
    phis = [phi_fn(random_break_data(rng)) for _ in use_phi]
    f, g, h = (fn if flag else psi_fn(fn) for fn, flag in zip(phis, use_phi))
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@hypothesis.settings(**dict(SETTINGS, max_examples=300))
@given(st.sampled_from([p for p in range(2, 51) if is_prime(p)]), st.integers(1, 500))
def test_alpha_is_least_exponent_above_threshold_and_formulas_hold(p, i):
    threshold = Fraction(i * p, p - 1)
    a = alpha(p, i)
    assert a >= 0 and p**a > threshold
    assert a == 0 or p ** (a - 1) <= threshold
    # the closed forms of the docstrings, in Fraction arithmetic
    b = max(Fraction(0), Fraction(i * p, p**a * (p - 1)) - Fraction(1, p - 1))
    assert beta(p, i) == b
    assert crystalline_bound(p, i) == 1 + a + b
    assert semistable_bound(p, i) == 1 + a + max(
        Fraction(i * p, p**a * (p - 1)) - Fraction(1, p**a), Fraction(1, p - 1))
