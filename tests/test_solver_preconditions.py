"""The solver's preconditions: error type and precondition text per entry point.

Each failure is reached through the entry point of its own mode, so the
table pins what a caller of either mode sees whichever way the entry
points share their code.
"""

from fractions import Fraction

import pytest

from padic_ramlab.errors import ParamMismatch, PrecisionTooLow, RegimeViolation
from padic_ramlab.frobsolve import (
    PhiVector,
    SolverParams,
    compute_tstar,
    compute_tstar_untilted,
    contraction_lift,
    contraction_lift_untilted,
)
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.tiltring import RingSpec, ValuedTrunc
from padic_ramlab.wach import make_rank1_module

K3 = FiniteFieldParams(3)
BUDGET = 10**6


def tilt_case():
    module = make_rank1_module(3, 1, trunc=16)
    params = SolverParams.for_tilt(3, 1, RingSpec(K3, "tilt", 1, 1))
    return module, RingSpec(K3, "tilt", 1, params.c_work), params


def untilted_case(s=1):
    module = make_rank1_module(3, 1, trunc=16)
    params = SolverParams.for_untilted(3, 1, s)
    return module, RingSpec(K3, "untilted", s, params.c_work * params.ring_scale), params


def vec(spec, coeffs):
    return PhiVector(spec, (ValuedTrunc(spec, coeffs),))


def lift_uniformizer(lift, module, spec, params, x0_spec=None):
    x0 = vec(x0_spec or spec, {1: 1})
    return lift(module, spec, x0, params=params)


def small_level():
    # a = 3 at (p, i) = (3, 2): level 1 has p^s = 3 <= a
    module = make_rank1_module(3, 2, trunc=16)
    return module, RingSpec(K3, "untilted", 1, Fraction(2, 3))


def tilt_low_cut():
    module, spec, params = tilt_case()
    return module, spec.with_cut(params.c_work - Fraction(1, 2)), params


def untilted_low_cut():
    module, spec, params = untilted_case()
    return module, spec.with_cut(spec.cut - Fraction(1, 6)), params


def untilted_params_level_2():
    # the ring has level 1; its cut clears the level-2 working cut
    module, spec, _ = untilted_case()
    return module, spec, SolverParams.for_untilted(3, 1, 2)


def tilt_params_untilted():
    module, spec, _ = tilt_case()
    return module, spec, SolverParams.for_untilted(3, 1, 1)


def shallow(spec):
    # 1 + u: the defect has a constant term, valuation 0
    return vec(spec, {0: 1, 1: 1})


def check_tilt_lift_low_cut():
    module, spec, params = tilt_low_cut()
    lift_uniformizer(contraction_lift, module, spec, params)


def check_tilt_lift_shallow():
    module, spec, params = tilt_case()
    contraction_lift(module, spec, shallow(spec), params=params)


def check_tilt_lift_wrong_level():
    module, spec, params = tilt_params_untilted()
    lift_uniformizer(contraction_lift, module, spec, params)


def check_tilt_lift_foreign_x0():
    module, spec, params = tilt_case()
    lift_uniformizer(contraction_lift, module, spec, params,
                     x0_spec=spec.with_cut(spec.cut + 1))


def check_untilted_lift_small_level():
    module, spec = small_level()
    lift_uniformizer(contraction_lift_untilted, module, spec, None)


def check_untilted_lift_low_cut():
    module, spec, params = untilted_low_cut()
    lift_uniformizer(contraction_lift_untilted, module, spec, params)


def check_untilted_lift_shallow():
    module, spec, params = untilted_case()
    contraction_lift_untilted(module, spec, shallow(spec), params=params)


def check_untilted_lift_wrong_level():
    module, spec, params = untilted_params_level_2()
    lift_uniformizer(contraction_lift_untilted, module, spec, params)


def check_untilted_lift_foreign_x0():
    module, spec, params = untilted_case()
    lift_uniformizer(contraction_lift_untilted, module, spec, params,
                     x0_spec=spec.with_cut(Fraction(5, 6)))


def check_tilt_tstar_low_cut():
    module, spec, params = tilt_low_cut()
    compute_tstar(module, spec, BUDGET, params=params)


def check_tilt_tstar_wrong_level():
    module, spec, params = tilt_params_untilted()
    compute_tstar(module, spec, BUDGET, params=params)


def check_untilted_tstar_small_level():
    module, spec = small_level()
    compute_tstar_untilted(module, spec, BUDGET)


def check_untilted_tstar_low_cut():
    module, spec, params = untilted_low_cut()
    compute_tstar_untilted(module, spec, BUDGET, params=params)


def check_untilted_tstar_wrong_level():
    module, spec, params = untilted_params_level_2()
    compute_tstar_untilted(module, spec, BUDGET, params=params)


CASES = [
    (check_tilt_lift_low_cut, PrecisionTooLow, "cut >= c_work > a"),
    (check_tilt_lift_shallow, PrecisionTooLow, "val(phi(x0) - x0 F) > a"),
    (check_tilt_lift_wrong_level, ValueError, None),
    (check_tilt_lift_foreign_x0, ParamMismatch, None),
    (check_untilted_lift_small_level, RegimeViolation, "p^s > a"),
    (check_untilted_lift_low_cut, PrecisionTooLow, "cut >= c_work/p^s > a/p^s"),
    (check_untilted_lift_shallow, PrecisionTooLow, "val(x0^p - x0 F) > a/p^s"),
    (check_untilted_lift_wrong_level, ValueError, None),
    (check_untilted_lift_foreign_x0, ParamMismatch, None),
    (check_tilt_tstar_low_cut, PrecisionTooLow, "cut >= c_work > a"),
    (check_tilt_tstar_wrong_level, ValueError, None),
    (check_untilted_tstar_small_level, RegimeViolation, "p^s > a"),
    (check_untilted_tstar_low_cut, PrecisionTooLow, "cut >= c_work/p^s > a/p^s"),
    (check_untilted_tstar_wrong_level, ValueError, None),
]


@pytest.mark.parametrize("run,error,precondition", CASES,
                         ids=[run.__name__[len("check_"):] for run, _, _ in CASES])
def test_solver_precondition(run, error, precondition):
    with pytest.raises(error) as err:
        run()
    assert type(err.value) is error
    assert getattr(err.value, "precondition", None) == precondition


def test_the_cases_are_reachable_when_valid():
    # the valid neighbours of the failing calls succeed
    module, spec, params = tilt_case()
    assert lift_uniformizer(contraction_lift, module, spec, params).solution.val() == \
        Fraction(1, 2)
    assert len(compute_tstar(module, spec, BUDGET, params=params)) == 3
    module, spec, params = untilted_case()
    lift_uniformizer(contraction_lift_untilted, module, spec, params)
    assert len(compute_tstar_untilted(module, spec, BUDGET, params=params)) == 3


@pytest.mark.parametrize("i,c_work,message", [
    (-1, Fraction(5, 2), "height i must be >= 0"),
    (1, Fraction(3, 2), "c_work = 3/2 must exceed a = 3/2"),
])
def test_solver_params_reject_an_inconsistent_regime(i, c_work, message):
    with pytest.raises(ValueError) as exc:
        SolverParams(p=3, i=i, s=None, c_work=c_work)
    assert str(exc.value) == message
