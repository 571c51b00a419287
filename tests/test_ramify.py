from fractions import Fraction

import pytest

from padic_ramlab.errors import UnsupportedPrime
from padic_ramlab.ramify import (
    BreakData,
    HerbrandFn,
    cyclotomic_breaks,
    cyclotomic_relative_breaks,
    kummer_tate_breaks,
    mu,
    phi_fn,
    psi_fn,
    tower_mu,
)
from .conftest import random_break_data
from .oracles import (
    breaks_from_valuations,
    cyclotomic_conjugate_valuations,
    herbrand_integral,
    kummer_tate_conjugate_valuations,
)


def test_break_data_validation():
    with pytest.raises(ValueError):
        BreakData(total_order=6, breaks=((1, 6),))  # no drop
    with pytest.raises(ValueError):
        BreakData(total_order=6, breaks=((2, 3), (1, 1)))  # not increasing
    with pytest.raises(ValueError):
        BreakData(total_order=6, breaks=((1, 4),))  # 4 does not divide 6


def test_break_data_text_round_trip(rng):
    for _ in range(25):
        b = random_break_data(rng)
        assert BreakData.parse(b.to_text()) == b


def test_phi_examples():
    # trivial filtration: identity
    assert phi_fn(BreakData(total_order=4, breaks=())).is_identity()
    b = cyclotomic_breaks(3, 2)
    phi = phi_fn(b)
    assert phi.evaluate(3) == 2
    assert phi.final_slope == Fraction(1, 6)


def test_phi_concavity_and_slopes(rng):
    for _ in range(40):
        b = random_break_data(rng)
        phi = phi_fn(b)
        assert phi.evaluate(0) == 0
        slopes = []
        pts = list(phi.breakpoints) + [(phi.breakpoints[-1][0] + 1, None)]
        for (t0, v0), (t1, _) in zip(pts, pts[1:]):
            slopes.append((phi.evaluate(t1) - v0) / (t1 - t0))
        assert all(s > 0 for s in slopes)
        assert all(s0 >= s1 for s0, s1 in zip(slopes, slopes[1:]))  # concave
        assert slopes[0] == 1  # unit slope through [0, 1]


def test_phi_matches_the_integral_oracle(rng):
    families = [random_break_data(rng) for _ in range(300)]
    families += [cyclotomic_breaks(p, n) for p in (2, 3, 5, 7) for n in range(1, 5)]
    families += [kummer_tate_breaks(p) for p in (2, 3, 5, 7)]
    for data in families:
        phi = phi_fn(data)
        end = max([Fraction(1)] + [lam for lam, _ in data.breaks])
        ts = [t for t, _ in phi.breakpoints] + [lam for lam, _ in data.breaks]
        ts += [Fraction(rng.randint(0, 400), rng.randint(1, 40)) for _ in range(5)]
        for t in ts:
            assert phi.evaluate(t) == herbrand_integral(data, t)
        assert phi.final_slope == herbrand_integral(data, end + 1) - herbrand_integral(data, end)


def test_psi_examples():
    assert psi_fn(HerbrandFn.identity()).is_identity()
    psi = psi_fn(phi_fn(cyclotomic_breaks(3, 2)))
    assert psi.evaluate(2) == 3


def test_psi_inverse_pointwise(rng):
    for _ in range(30):
        b = random_break_data(rng)
        phi = phi_fn(b)
        psi = psi_fn(phi)
        for _ in range(10):
            t = Fraction(rng.randint(0, 400), rng.randint(1, 40))
            assert psi.evaluate(phi.evaluate(t)) == t


def test_psi_phi_compose_to_identity(rng):
    families = [cyclotomic_breaks(p, n) for p in (2, 3, 5, 7) for n in (1, 2, 3)]
    families += [kummer_tate_breaks(p) for p in (2, 3, 5, 7)]
    families += [random_break_data(rng) for _ in range(40)]
    for b in families:
        phi = phi_fn(b)
        psi = psi_fn(phi)
        assert phi.compose(psi) == HerbrandFn.identity()
        assert psi.compose(phi) == HerbrandFn.identity()


def test_mu_examples():
    assert mu(cyclotomic_breaks(3, 2)) == 2
    assert mu(BreakData(total_order=4, breaks=())) == 0
    assert mu(kummer_tate_breaks(3)) == Fraction(5, 2)


def test_cyclotomic_against_valuation_oracle():
    for p, n in ((2, 2), (2, 3), (3, 2), (5, 2)):
        vals = cyclotomic_conjugate_valuations(p, n)
        data = cyclotomic_breaks(p, n)
        assert breaks_from_valuations(data.total_order, vals) == list(data.breaks)


def test_cyclotomic_structure():
    b = cyclotomic_breaks(3, 2)
    assert b.total_order == 6 and list(b.breaks) == [(1, 3), (3, 1)]
    assert mu(cyclotomic_breaks(2, 1)) == 0  # the trivial extension
    b5 = cyclotomic_breaks(5, 1)
    assert b5.total_order == 4 and list(b5.breaks) == [(1, 1)] and mu(b5) == 1


def test_kummer_tate_against_valuation_oracle():
    for p in (2, 3, 5):
        vals = kummer_tate_conjugate_valuations(p)
        data = kummer_tate_breaks(p)
        assert breaks_from_valuations(data.total_order, vals) == list(data.breaks)


def test_kummer_tate_mu_values():
    for p in (2, 3, 5, 7):
        assert mu(kummer_tate_breaks(p)) == 2 + Fraction(1, p - 1)
    with pytest.raises(UnsupportedPrime):
        kummer_tate_breaks(11)


def test_tower_examples():
    assert tower_mu(1, HerbrandFn.identity(), 0) == 1
    phi32 = phi_fn(cyclotomic_breaks(3, 2))
    assert tower_mu(2, phi32, 3) == 2
    assert tower_mu(2, phi32, 9) == 3  # 2 + (9-3)/6


def test_tower_consistency_cyclotomic():
    for p in (2, 3, 5):
        for n in range(2, 5):
            for m in range(1, n):
                rel = cyclotomic_relative_breaks(p, n, m)
                low = cyclotomic_breaks(p, m)
                assert tower_mu(mu(low), phi_fn(low), mu(rel)) == mu(cyclotomic_breaks(p, n))
