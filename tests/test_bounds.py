from fractions import Fraction

import pytest

from padic_ramlab.bounds import (
    alpha,
    beta,
    bound_grid,
    crystalline_bound,
    grid_csv,
    semistable_bound,
    tate_exclusion,
)
from padic_ramlab.errors import DegenerateWeightRange
from padic_ramlab.gf import is_prime


def test_alpha_examples():
    assert alpha(3, 1) == 1
    assert alpha(2, 1) == 2  # 2^1 = 2 is not strictly above 2
    assert alpha(2, 10) == 5
    # exhaustive-search cross-check
    for p in (2, 3, 5):
        for i in range(1, 30):
            threshold = Fraction(i * p, p - 1)
            a = alpha(p, i)
            assert p**a > threshold
            assert a == 0 or p ** (a - 1) <= threshold


def test_alpha_monotone_in_weight():
    for p in (2, 3, 5, 7):
        values = [alpha(p, i) for i in range(1, 60)]
        assert values == sorted(values)


def test_crystalline_values():
    assert crystalline_bound(3, 1) == 2
    assert crystalline_bound(2, 1) == 3
    assert crystalline_bound(3, 5) == Fraction(10, 3)


def test_odd_prime_weight_one_is_exactly_two():
    for p in (3, 5, 7, 11, 13):
        assert beta(p, 1) == 0
        assert crystalline_bound(p, 1) == 2


def test_semistable_values():
    assert semistable_bound(3, 1) == Fraction(5, 2)
    assert semistable_bound(2, 1) == 4
    assert semistable_bound(3, 5) == Fraction(67, 18)


def test_degenerate_weight():
    with pytest.raises(DegenerateWeightRange):
        crystalline_bound(3, 0)
    with pytest.raises(DegenerateWeightRange):
        semistable_bound(3, 0)


def test_tate_exclusion_reports():
    for p, expect_mu in ((3, Fraction(5, 2)), (5, Fraction(9, 4)), (7, Fraction(13, 6))):
        rep = tate_exclusion(p)
        assert rep.tate_mu == expect_mu
        assert rep.crystalline == 2
        assert rep.excluded is True
    with pytest.raises(ValueError):
        tate_exclusion(2)


def test_dominance_grid():
    p_list = [p for p in range(2, 14) if is_prime(p)]
    rows = bound_grid(p_list, 50)
    assert len(rows) == len(p_list) * 50
    for r in rows:
        assert r["crystalline"] <= r["semistable"]
        assert r["difference"] == r["semistable"] - r["crystalline"]


def test_grid_recomputes_identically():
    p_list = [p for p in range(2, 24) if is_prime(p)]
    rows = bound_grid(p_list, 120)
    assert len(rows) == len(p_list) * 120
    for r in rows:
        p, i = r["p"], r["i"]
        c, s = crystalline_bound(p, i), semistable_bound(p, i)
        assert r == {"p": p, "i": i, "alpha": alpha(p, i), "crystalline": c,
                     "semistable": s, "difference": s - c}
        assert type(r["crystalline"]) is type(r["semistable"]) is Fraction


def test_csv_schema():
    out = grid_csv(bound_grid([3], 1))
    lines = out.strip().split("\n")
    assert lines[0] == "p,i,alpha,crystalline_num,crystalline_den,semistable_num,semistable_den"
    assert lines[1] == "3,1,1,2,1,5,2"
