"""Closed-form ramification bounds for mod-p crystalline representations
of weight range [0, i] over an absolutely unramified base.

Everything is exact rational arithmetic; no floats anywhere (the cutoff
alpha is defined by a strict inequality that float rounding could flip).
The semistable comparison value and the torsion-point example of the
split multiplicative curve make the crystalline bound's sharpness
checkable: the example's mu exceeds the crystalline bound but not the
semistable one.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import ramify
from .errors import DegenerateWeightRange, UnsupportedPrime
from .gf import is_prime

__all__ = [
    "BoundReport",
    "alpha",
    "beta",
    "crystalline_bound",
    "semistable_bound",
    "tate_exclusion",
    "bound_grid",
    "grid_csv",
]


def _check_args(p, i):
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if i < 1:
        raise DegenerateWeightRange(
            f"weight i = {i}: bounds are stated for i >= 1",
            precondition="i >= 1",
        )


def alpha(p, i):
    """Least integer a >= 0 with p^a > i*p/(p-1), by exact comparison."""
    _check_args(p, i)
    a = 0
    power = 1
    while power * (p - 1) <= i * p:
        a += 1
        power *= p
    return a


def _formula(p, i, a):
    """(beta, crystalline, semistable) of (p, i) at its alpha a.

    Both maxima are taken over the common denominator p^a (p-1): the
    numerator of beta is max(i*p - p^a, 0), and that of the semistable
    excess over 1 + a is max(i*p - (p-1), p^a).
    """
    power = p**a
    den = power * (p - 1)
    b = Fraction(max(i * p - power, 0), den)
    return b, 1 + a + b, 1 + a + Fraction(max(i * p - p + 1, power), den)


def beta(p, i):
    """max(0, i*p / (p^alpha (p-1)) - 1/(p-1))."""
    return _formula(p, i, alpha(p, i))[0]


def crystalline_bound(p, i):
    """1 + alpha + beta: the ramification cutoff in the crystalline case."""
    return _formula(p, i, alpha(p, i))[1]


def semistable_bound(p, i):
    """1 + alpha + max(i*p/(p^alpha (p-1)) - 1/p^alpha, 1/(p-1)).

    The common value of the earlier semistable-case bounds over an
    absolutely unramified base, with the same alpha.
    """
    return _formula(p, i, alpha(p, i))[2]


@dataclass(frozen=True)
class BoundReport:
    p: int
    i: int
    alpha: int
    beta: Fraction
    crystalline: Fraction
    semistable: Fraction
    tate_mu: Optional[Fraction] = None
    excluded: Optional[bool] = None


def tate_exclusion(p):
    """Exclusion verdict for the p-torsion of the split multiplicative curve.

    Its splitting field Q_p(zeta_p, p^(1/p)) has mu = 2 + 1/(p-1), which
    exceeds the weight-1 crystalline bound for every odd p: the curve is
    semistable but not crystalline, and the bound detects that.  The mu
    value is cross-checked against the tabled ramification data when
    available.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    tate_mu = 2 + Fraction(1, p - 1)
    try:
        filtration = ramify.kummer_tate_breaks(p)
    except UnsupportedPrime:
        filtration = None
    if filtration is not None and ramify.mu(filtration) != tate_mu:
        raise AssertionError("tabled break data disagrees with 2 + 1/(p-1)")
    a = alpha(p, 1)
    b, crys, semi = _formula(p, 1, a)
    return BoundReport(
        p=p,
        i=1,
        alpha=a,
        beta=b,
        crystalline=crys,
        semistable=semi,
        tate_mu=tate_mu,
        excluded=tate_mu > crys,
    )


def bound_grid(p_list, i_max):
    """Rows (p, i, alpha, crystalline, semistable, difference), exact."""
    rows = []
    for p in p_list:
        for i in range(1, i_max + 1):
            a = alpha(p, i)
            _, c, s = _formula(p, i, a)
            rows.append({
                "p": p,
                "i": i,
                "alpha": a,
                "crystalline": c,
                "semistable": s,
                "difference": s - c,
            })
    return rows


def grid_csv(rows):
    lines = ["p,i,alpha,crystalline_num,crystalline_den,semistable_num,semistable_den"]
    for r in rows:
        c, s = r["crystalline"], r["semistable"]
        lines.append(
            f"{r['p']},{r['i']},{r['alpha']},"
            f"{c.numerator},{c.denominator},{s.numerator},{s.denominator}"
        )
    return "\n".join(lines) + "\n"
