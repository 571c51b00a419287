import collections
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from padic_ramlab import frobsolve, qring
from padic_ramlab.errors import (
    BudgetExceeded,
    CapacityExceeded,
    PrecisionTooLow,
    RamlabError,
    RankError,
    RegimeViolation,
    StructureViolation,
)
from padic_ramlab.frobsolve import (
    PhiVector,
    SolverParams,
    character_of,
    compute_tstar,
    compute_tstar_untilted,
    contraction_lift,
    contraction_lift_untilted,
    enumerate_jc,
    galois_act_jc,
)
from padic_ramlab.frobsolve import (_candidate_cut, _candidate_space, _defect_rows, _dicts,
                                     _wrap)
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import QPoly
from padic_ramlab.tiltring import RingSpec, ValuedTrunc
from padic_ramlab.wach import (
    WachModuleModP,
    load_module_file,
    make_rank1_module,
    random_module,
    specialize,
)

from .oracles import fp_closed, lift_each_candidate

K2 = FiniteFieldParams(2)
K3 = FiniteFieldParams(3)


def tilt_setup(p, i, margin=0):
    probe = RingSpec(FiniteFieldParams(p), "tilt", 1, Fraction(1))
    params = SolverParams.for_tilt(p, i, probe)
    cut = params.c_work + margin
    # truncation must determine embeds at the inflated working cut
    trunc = int((cut + i) * (p - 1)) + (p - 1) * i + 4
    module = make_rank1_module(p, i, trunc=trunc)
    spec = RingSpec(module.params, "tilt", 1, cut)
    return module, spec, params


# -- enumerate_jc -------------------------------------------------------------

def test_enumerate_etale_gives_prime_field():
    module = make_rank1_module(2, 0)
    spec = RingSpec(K2, "tilt", 1, 1)
    out = enumerate_jc(module, spec, budget=10**6)
    consts = {ValuedTrunc.constant(spec, c) for c in range(2)}
    assert {v.entries[0] for v in out.elements} == consts


def test_enumerate_rank0():
    module = WachModuleModP(params=K2, trunc=4, rank=0, height=0, F=())
    spec = RingSpec(K2, "tilt", 1, 1)
    out = enumerate_jc(module, spec, budget=100)
    assert len(out) == 1 and out.elements[0].entries == ()


def test_enumerate_contains_closed_form():
    # p=2, i=1, depth 2, cut b = 1: contains 0 and eps^(1/p) - 1 = pi^2
    module = make_rank1_module(2, 1)
    spec = RingSpec(K2, "tilt", 2, 1)
    out = enumerate_jc(module, spec, budget=10**6)
    sols = {v.entries[0] for v in out.elements}
    assert ValuedTrunc.zero(spec) in sols
    assert ValuedTrunc.uniformizer(spec, 2) in sols


def test_enumerate_budget():
    module = make_rank1_module(3, 2)
    spec = RingSpec(K3, "tilt", 1, 3)
    with pytest.raises(BudgetExceeded) as err:
        enumerate_jc(module, spec, budget=10)
    assert err.value.search_space == 3**7


# -- contraction lifting ------------------------------------------------------

def test_lift_example_p3():
    module, spec, params = tilt_setup(3, 1, margin=Fraction(3, 2))
    x0 = PhiVector(spec, (ValuedTrunc(spec, {1: 1, 3: 1}),))
    out = contraction_lift(module, spec, x0, params=params)
    assert out.solution.entries[0] == ValuedTrunc.uniformizer(spec)
    assert out.input_defect == Fraction(5, 2)
    gains = [b - a for a, b in zip(out.transcript, out.transcript[1:])
             if b != math.inf]
    assert all(g >= params.h for g in gains)


def test_lift_example_p2():
    module, spec, params = tilt_setup(2, 1)
    x0 = PhiVector(spec, (ValuedTrunc(spec, {1: 1, 4: 1}),))
    out = contraction_lift(module, spec, x0, params=params)
    assert out.solution.entries[0] == ValuedTrunc.uniformizer(spec)
    assert out.input_defect == 5


def test_lift_etale_fixed_point():
    module, spec, params = tilt_setup(2, 0)
    one_plus_noise = ValuedTrunc(spec, {0: 1, spec.m_max: 1})
    x0 = PhiVector(spec, (one_plus_noise,))
    out = contraction_lift(module, spec, x0, params=params)
    assert out.solution.entries[0] == ValuedTrunc.one(spec)


def test_lift_rejects_shallow_defect():
    module, spec, params = tilt_setup(3, 1)
    # 1 + pi has defect with a constant term: valuation 0 <= a
    x0 = PhiVector(spec, (ValuedTrunc(spec, {0: 1, 1: 1}),))
    with pytest.raises(PrecisionTooLow):
        contraction_lift(module, spec, x0, params=params)


def test_lift_deterministic():
    module, spec, params = tilt_setup(3, 1, margin=2)
    x0 = PhiVector(spec, (ValuedTrunc(spec, {1: 2, 4: 1, 6: 2}),))
    a = contraction_lift(module, spec, x0, params=params)
    b = contraction_lift(module, spec, x0, params=params)
    assert a.solution == b.solution and a.transcript == b.transcript


def test_lift_untilted_example():
    module = make_rank1_module(3, 1)
    params = SolverParams.for_untilted(3, 1, 1)
    spec = RingSpec(K3, "untilted", 1, params.c_work * params.ring_scale)
    x0 = PhiVector(spec, (ValuedTrunc(spec, {1: 1, 4: 1}),))
    out = contraction_lift_untilted(module, spec, x0, params=params)
    assert out.solution.entries[0] == ValuedTrunc.uniformizer(spec)


def test_lift_untilted_etale():
    module = make_rank1_module(3, 0)
    params = SolverParams.for_untilted(3, 0, 1)
    spec = RingSpec(K3, "untilted", 1, params.c_work * params.ring_scale)
    x0 = PhiVector(spec, (ValuedTrunc(spec, {0: 1, spec.m_max: 2}),))
    out = contraction_lift_untilted(module, spec, x0, params=params)
    assert out.solution.entries[0] == ValuedTrunc.one(spec)


def test_untilted_regime_violation():
    module = make_rank1_module(3, 2)
    with pytest.raises(RegimeViolation):
        SolverParams.for_untilted(3, 2, 1)  # p^s = 3 <= a = 3
    SolverParams.for_untilted(3, 2, 2)


def test_untilted_gain_matches_formula():
    # h = min(1, (p-1)c/p^s) - i/p^s with c one step above b
    params = SolverParams.for_untilted(3, 1, 1)
    c = params.c_work - params.i
    expected = min(Fraction(1), Fraction(2) * c / 3) - Fraction(1, 3)
    assert params.h == expected > 0


# -- T* computation -----------------------------------------------------------

@pytest.mark.parametrize("p,i", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_tstar_closed_form(p, i):
    module, spec, params = tilt_setup(p, i)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    expected = {PhiVector(spec, (ValuedTrunc(spec, {i: z}),)) for z in range(p)}
    assert set(out.solutions) == expected
    assert out.rank == 1


def test_tstar_etale():
    module, spec, params = tilt_setup(3, 0)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    consts = {PhiVector(spec, (ValuedTrunc.constant(spec, c),)) for c in range(3)}
    assert set(out.solutions) == consts


def test_tstar_diagonal_rank2():
    # F = diag(x^(p-1), 1): solutions are pairs (zeta pi, c), p^2 of them
    N = 16
    F = ((QPoly.monomial(K2, N, 1), QPoly.zero(K2, N)),
         (QPoly.zero(K2, N), QPoly.one(K2, N)))
    module = WachModuleModP(params=K2, trunc=N, rank=2, height=1, F=F)
    probe = RingSpec(K2, "tilt", 1, 1)
    params = SolverParams.for_tilt(2, 1, probe)
    spec = RingSpec(K2, "tilt", 1, params.c_work)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    assert len(out) == 4 and out.rank == 2
    expected = {
        PhiVector(spec, (ValuedTrunc(spec, {1: z}), ValuedTrunc.constant(spec, c)))
        for z in range(2) for c in range(2)
    }
    assert set(out.solutions) == expected


def test_tstar_rank2_oracle_agreement():
    # Non-diagonal F over F_4: x2^2 = (x1 + x2) pi has two extra roots
    k4 = FiniteFieldParams(2, 2)
    N = 20
    x1 = QPoly.monomial(k4, N, 1)
    F = ((x1, x1), (QPoly.zero(k4, N), x1))
    module = WachModuleModP(params=k4, trunc=N, rank=2, height=1, F=F)
    probe = RingSpec(k4, "tilt", 1, 1)
    params = SolverParams.for_tilt(2, 1, probe)
    spec = RingSpec(k4, "tilt", 1, params.c_work)
    out = compute_tstar(module, spec, budget=10**8, params=params)
    assert len(out) == 4 and out.rank == 2  # rank d*f = 2*2 would allow up to 16
    oracle = enumerate_jc(module, spec.with_cut(params.a), budget=10**8)
    red_o = {v.reduce_to(params.b) for v in oracle.elements}
    red_t = {v.reduce_to(params.b) for v in out.solutions}
    assert red_o == red_t


def test_tstar_swap_module_rank_depends_on_field():
    # F swaps coordinates up to x^(p-1): solutions (c pi, c^p pi) need
    # c^(p^2) = c, so only the prime field contributes over F_2 while
    # F_4 realizes the full rank d*f; the oracle agrees in both cases.
    for f, expect in ((1, 2), (2, 4)):
        k = FiniteFieldParams(2, f)
        N = 16
        x1 = QPoly.monomial(k, N, 1)
        zero = QPoly.zero(k, N)
        module = WachModuleModP(params=k, trunc=N, rank=2, height=1,
                                F=((zero, x1), (x1, zero)))
        probe = RingSpec(k, "tilt", 1, 1)
        params = SolverParams.for_tilt(2, 1, probe)
        spec = RingSpec(k, "tilt", 1, params.c_work)
        out = compute_tstar(module, spec, budget=10**8, params=params)
        assert len(out) == expect
        oracle = enumerate_jc(module, spec.with_cut(params.a), budget=10**8)
        assert ({v.reduce_to(params.b) for v in oracle.elements}
                == {v.reduce_to(params.b) for v in out.solutions})
        for v in out.solutions:
            c1 = v.entries[0].coeffs.get(1, 0)
            c2 = v.entries[1].coeffs.get(1, 0)
            assert c2 == k.frobenius(c1)


def test_tstar_untilted_matches_tilt_structure():
    # d=1, F=(q-1)^((p-1)i): solutions correspond under the uniformizer images
    for p, i, s in ((3, 1, 1), (2, 1, 2), (3, 2, 2)):
        module = make_rank1_module(p, i)
        K = module.params
        probe = RingSpec(K, "tilt", 1, 1)
        pt = SolverParams.for_tilt(p, i, probe)
        spec_t = RingSpec(K, "tilt", 1, pt.c_work)
        tilt_out = compute_tstar(module, spec_t, budget=10**6, params=pt)
        pu = SolverParams.for_untilted(p, i, s)
        spec_u = RingSpec(K, "untilted", s, pu.c_work * pu.ring_scale)
        unt_out = compute_tstar_untilted(module, spec_u, budget=10**6, params=pu)
        assert len(tilt_out) == len(unt_out) == p
        # both closed forms: zeta * (image of q-1)^i, at embed exponents 1 resp 1
        assert {v.entries[0].coeffs.get(i, 0) for v in tilt_out.solutions} == set(range(p))
        assert {v.entries[0].coeffs.get(i, 0) for v in unt_out.solutions} == set(range(p))


def test_tstar_galois_stable():
    module = make_rank1_module(3, 1, with_gamma=True)
    probe = RingSpec(K3, "tilt", 1, 1)
    params = SolverParams.for_tilt(3, 1, probe)
    spec = RingSpec(K3, "tilt", 1, params.c_work)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    sols = set(out.solutions)
    for power in (1, 2, 3):
        assert {galois_act_jc(module, v, power) for v in sols} == sols


def test_galois_power_builds_the_twist_once(monkeypatch):
    module = random_module(random.Random(5), 3, 2, 1, 12, f=2)
    spec = RingSpec(module.params, "tilt", 1, 3)
    vec = PhiVector(spec, (ValuedTrunc(spec, {0: 1, 1: 5, 4: 2}), ValuedTrunc(spec, {2: 7})))
    once = vec
    for _ in range(3):
        once = galois_act_jc(module, once, 1)
    calls = collections.Counter()
    inverse = frobsolve.mat_inverse_unit

    def counted(A):
        calls["mat_inverse_unit"] += 1
        return inverse(A)
    monkeypatch.setattr(frobsolve, "mat_inverse_unit", counted)
    assert galois_act_jc(module, vec, 3) == once != vec
    assert calls["mat_inverse_unit"] == 1
    bare = make_rank1_module(3, 1)
    assert bare.G is None and galois_act_jc(bare, vec, 0) is vec
    with pytest.raises(ValueError, match="no Galois generator"):
        galois_act_jc(bare, vec)


def test_galois_action_is_by_character_value():
    # generator with exponent u acts on the height-i line by u^i mod p
    for p, i, u in ((3, 1, 2), (3, 2, 2), (5, 1, 2), (5, 2, 3)):
        module = make_rank1_module(p, i, with_gamma=True, u=u)
        probe = RingSpec(module.params, "tilt", 1, 1)
        params = SolverParams.for_tilt(p, i, probe)
        spec = RingSpec(module.params, "tilt", 1, params.c_work)
        out = compute_tstar(module, spec, budget=10**6, params=params)
        value = pow(u, i, p)
        for v in out.solutions:
            assert galois_act_jc(module, v) == v.scale(value)


# -- character reading --------------------------------------------------------

@pytest.mark.parametrize("p,i,u,expect", [
    (3, 1, 2, 1),
    (3, 2, 2, 0),   # i = p - 1: trivial character
    (5, 1, 2, 1),
    (5, 2, 2, 2),
    (5, 4, 2, 0),
    (2, 1, 1, 0),   # F_2^x is trivial
])
def test_character_closed_form(p, i, u, expect):
    module, spec, params = tilt_setup(p, i)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    assert character_of(out, u) == expect


def test_character_needs_rank_one():
    module, spec, params = tilt_setup(3, 0)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    # rank 1 here (p solutions); exponent of the trivial action is 0
    assert character_of(out, 2) == 0
    with pytest.raises(RankError):
        character_of(out.solutions[:1], 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_character_is_u_to_the_leading_index(p):
    # gamma_u sends c t^m to c u^m t^m plus higher terms, so the leading
    # ratio is u^m, m the least index of the least nonzero solution
    for i in range(4):
        module = make_rank1_module(p, i)
        for depth in (1, 2):
            probe = RingSpec(module.params, "tilt", depth, 1)
            params = SolverParams.for_spec(p, i, probe)
            out = compute_tstar(module, probe.with_cut(params.working_floor), budget=10**6,
                                params=params)
            assert out.rank == 1
            x = min((x for x in out.solutions if any(e.coeffs for e in x.entries)),
                    key=lambda x: [sorted(e.coeffs.items()) for e in x.entries])
            m = min(min(e.coeffs) for e in x.entries if e.coeffs)
            for u in range(2, p):
                want = next(j for j in range(p - 1) if pow(u, j, p) == pow(u, m, p))
                assert character_of(out, u) == want, (i, depth, u, m)


# -- structural invariants ----------------------------------------------------

def test_jc_reduction_images_shrink_to_tstar():
    # image of J_a at cut b equals image of the exact solutions at cut b
    for p, i in ((2, 1), (3, 1)):
        module, spec, params = tilt_setup(p, i)
        oracle = enumerate_jc(module, spec.with_cut(params.a), budget=10**6)
        out = compute_tstar(module, spec, budget=10**6, params=params)
        red_o = {v.reduce_to(params.b) for v in oracle.elements}
        red_t = {v.reduce_to(params.b) for v in out.solutions}
        assert red_o == red_t
        assert len(red_t) == len(out.solutions)  # injectivity at b


def test_transcript_rate_on_random_starts():
    rng = random.Random(59)
    module, spec, params = tilt_setup(3, 1, margin=3)
    D = spec.denominator
    base = ValuedTrunc.uniformizer(spec)
    floor_idx = int(params.a * D) + 1
    for _ in range(20):
        tail = {m: rng.randrange(3) for m in
                rng.sample(range(floor_idx + 1, spec.m_max + 1), 3)}
        x0 = PhiVector(spec, (ValuedTrunc(spec, {1: 1, **tail}),))
        out = contraction_lift(module, spec, x0, params=params)
        assert out.solution.entries[0] == base
        finite = [v for v in out.transcript if v != math.inf]
        for a, b in zip(finite, finite[1:]):
            assert b - a >= params.h


# -- kernel candidates against the grid oracle -------------------------------

ORACLE_GRID_CAP = 1000


def kernel_and_oracle(module, spec, params):
    """The kernel candidates next to the filtered enumerate_jc grid."""
    F = _dicts(spec, specialize(module, spec)[0])
    _, candidates = _candidate_space(spec, params, F, budget=10**6)
    kernel = [x for _, x in candidates]
    cut_b = spec.with_cut(_candidate_cut(spec, params))
    oracle = enumerate_jc(module, cut_b, budget=ORACLE_GRID_CAP)
    filtered = [x for x in _dicts(cut_b, [x.entries for x in oracle.elements])
                if _wrap(spec, _defect_rows(spec.params, [x], F, spec.m_max + 1)[0]).val()
                > params.defect_floor]
    return kernel, filtered


def untilted_level(p, i, s=0):
    """The least level from s on with p^s > a and working cut c_work/p^s < 1."""
    while p**s <= Fraction(p * i + 1, p - 1):
        s += 1
    return s


def random_solver_case(rng, lift=False):
    """A random module and ring in either mode whose oracle grid is small;
    with lift, the module's truncation also covers a lift's working ring."""
    while True:
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2])
        f = rng.choice([1, 2])
        i = rng.choice([0, 1, 2])
        K = FiniteFieldParams(p, f)
        if rng.random() < 0.5:
            depth = rng.choice([1, 2])
            params = SolverParams.for_tilt(p, i, RingSpec(K, "tilt", depth, 1))
            spec = RingSpec(K, "tilt", depth, params.c_work)
        else:
            s = untilted_level(p, i, rng.choice([0, 1]))
            params = SolverParams.for_untilted(p, i, s)
            spec = RingSpec(K, "untilted", s, params.c_work * params.ring_scale)
        slots = spec.with_cut(_candidate_cut(spec, params)).m_max + 1
        if K.order ** (d * slots) <= ORACLE_GRID_CAP:
            break
    # V is certified below N - (p-1)i, which must exceed the image of the cut
    trunc = (2 * p - 1) * i + 4 + rng.randint(0, 4)
    if lift:
        top = params.working_spec(spec).m_max // spec.embed_exponent
        trunc = max(trunc, top + (p - 1) * i + 2)
    module = random_module(rng, p, d, i, trunc, f=f)
    return module, spec, params


def test_kernel_matches_grid_oracle_on_random_modules():
    rng = random.Random(286)
    modes = set()
    for _ in range(60):
        module, spec, params = random_solver_case(rng)
        kernel, filtered = kernel_and_oracle(module, spec, params)
        assert kernel == filtered, (module, spec)
        modes.add(spec.mode)
    assert modes == {"tilt", "untilted"}


def demo_solver_cases():
    for path in sorted((Path(__file__).resolve().parents[1] / "demos" / "modules")
                       .glob("*.json")):
        module = load_module_file(path)
        p, i = module.params.p, module.height
        for probe in (RingSpec(module.params, "tilt", 2, 1),
                      RingSpec(module.params, "untilted", untilted_level(p, i),
                               Fraction(1, 2))):
            params = SolverParams.for_spec(p, i, probe)
            yield module, probe.with_cut(params.working_floor), params


def test_tstar_is_a_closed_span_of_kernel_dimension():
    rng = random.Random(608)
    cases = [random_solver_case(rng, lift=True) for _ in range(40)]
    cases += demo_solver_cases()
    modes = set()
    for module, spec, params in cases:
        out = compute_tstar(module, spec, budget=10**6, params=params)
        F = _dicts(spec, specialize(module, spec)[0])
        basis, _ = _candidate_space(spec, params, F, budget=10**6)
        p = module.params.p
        assert fp_closed(out.solutions, p), (module, spec)
        assert len(out) == p**out.rank
        assert out.rank == len(basis)
        modes.add(spec.mode)
    assert modes == {"tilt", "untilted"}


@pytest.mark.parametrize("seed", [4, 7, 10])
def test_kernel_matches_grid_oracle_on_known_defect_draws(seed):
    # compute_tstar raises StructureViolation on these draws in the lift,
    # so the candidates are compared, not the solutions
    module = random_module(random.Random(seed), 2, 2, 1, 10)
    params = SolverParams.for_tilt(2, 1, RingSpec(K2, "tilt", 1, 1))
    spec = RingSpec(K2, "tilt", 1, params.c_work)
    kernel, filtered = kernel_and_oracle(module, spec, params)
    assert kernel == filtered


def known_defect_case(seed):
    """A rank-2 height-1 draw on which every lift of some candidate
    breaks the contraction rate."""
    module = random_module(random.Random(seed), 2, 2, 1, 10)
    params = SolverParams.for_tilt(2, 1, RingSpec(K2, "tilt", 1, 1))
    return module, RingSpec(K2, "tilt", 1, params.c_work), params


@pytest.mark.parametrize("seed", [4, 7, 10])
def test_tstar_raises_the_rate_violation_on_known_defect_draws(seed):
    module, spec, params = known_defect_case(seed)
    with pytest.raises(StructureViolation, match="contraction rate violated"):
        compute_tstar(module, spec, budget=10**6, params=params)


@pytest.mark.xfail(strict=True, reason="the candidates are tested on their zero extension "
                   "at b, which drops a solution whose digits in (b, a] are not zero")
def test_tstar_reaches_every_solution_the_grid_oracle_finds():
    # rank 2, height 1: T* reduces to 2 points at b, the 4 solutions of
    # the grid scan at c_work to 4
    module = random_module(random.Random(7), 2, 2, 1, 10)
    params = SolverParams.for_tilt(2, 1, RingSpec(K2, "tilt", 1, 1))
    out = compute_tstar(module, RingSpec(K2, "tilt", 1, 5), budget=10**6, params=params)
    oracle = enumerate_jc(module, RingSpec(K2, "tilt", 1, params.c_work), budget=10**6)
    assert ({v.reduce_to(params.b) for v in out.solutions}
            == {v.reduce_to(params.b) for v in oracle.elements})


# -- the batched lift against one lift per candidate --------------------------

def random_differential_case(rng):
    """A random module and ring in either mode, tilt cuts above c_work by
    a margin; the truncation covers the lift's working ring."""
    p = rng.choice([2, 3, 5])
    d, f, i = rng.randint(1, 3), rng.choice([1, 2]), rng.choice([0, 1, 2])
    K = FiniteFieldParams(p, f)
    if rng.random() < 0.5:
        depth = rng.choice([1, 2])
        params = SolverParams.for_tilt(p, i, RingSpec(K, "tilt", depth, 1))
        margin = rng.choice([0, 0, Fraction(1, 2), 1, 2])
        spec = RingSpec(K, "tilt", depth, params.c_work + margin)
    else:
        s = untilted_level(p, i, rng.choice([0, 1]))
        params = SolverParams.for_untilted(p, i, s)
        spec = RingSpec(K, "untilted", s, params.working_floor)
    top = params.working_spec(spec).m_max // spec.embed_exponent
    trunc = max((2 * p - 1) * i + 4, top + (p - 1) * i + 2) + rng.randint(0, 3)
    return random_module(rng, p, d, i, trunc, f=f), spec, params


def outcome(run):
    """What a T* route gives: its error (type, text and precondition), or
    the rank and, per solution in order, the solution, transcript,
    iterations and input defect."""
    try:
        rank, lifts = run()
    except RamlabError as exc:
        return type(exc).__name__, str(exc), exc.precondition
    return rank, [(x.solution, x.transcript, x.iterations, x.input_defect) for x in lifts]


def test_batched_lift_matches_one_lift_per_candidate():
    rng = random.Random(7919)
    cases = [random_differential_case(rng) for _ in range(200)]
    cases += [known_defect_case(seed) for seed in (4, 7, 10)]
    budget = 125
    seen = collections.Counter()
    for module, spec, params in cases:
        def batched():
            out = compute_tstar(module, spec, budget, params=params)
            return out.rank, out.lifts
        got = outcome(batched)
        assert got == outcome(lambda: lift_each_candidate(module, spec, budget, params)), \
            (module, spec)
        seen[spec.mode, got[0] if isinstance(got[0], str) else "solved"] += 1
    assert seen["tilt", "solved"] >= 50 and seen["untilted", "solved"] >= 50, seen
    assert seen["tilt", "StructureViolation"] >= 3, seen


def test_tstar_specializes_once_and_iterates_once_per_basis_step(monkeypatch):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(frobsolve, name, wrapper)

    counted("specialize", frobsolve.specialize)
    counted("_contraction_step", frobsolve._contraction_step)
    module13, spec13, params13 = tilt_setup(13, 1)
    # a rank-2 height-0 draw whose solutions take up to 3 iterates
    module2 = random_module(random.Random(0), 3, 2, 0, 12)
    params2 = SolverParams.for_tilt(3, 0, RingSpec(K3, "tilt", 1, 1))
    spec2 = RingSpec(K3, "tilt", 1, params2.c_work + 4)
    for module, spec, params, rank in ((module13, spec13, params13, 1),
                                       (module2, spec2, params2, 2)):
        calls.clear()
        out = compute_tstar(module, spec, budget=10**6, params=params)
        assert out.rank == rank and len(out) == module.params.p ** rank
        assert calls["specialize"] == 1
        # one batched iterate per step of the slowest solution, not per solution
        iterations = [lifted.iterations for lifted in out.lifts]
        assert calls["_contraction_step"] == max(iterations)
    assert max(iterations) < sum(iterations)


def test_tstar_capacity_error_names_the_working_cut():
    # N = 7 determines the image below 7/2 in tilt depth 1 at p = 3: the
    # caller's cut 5/2 is in reach, the working cut 5/2 + i = 7/2 is not
    module = make_rank1_module(3, 1, trunc=7)
    spec = RingSpec(K3, "tilt", 1, Fraction(5, 2))
    with pytest.raises(CapacityExceeded, match="below valuation 7/2, but the target cut is 7/2"):
        compute_tstar(module, spec, budget=10**6)


def test_tstar_rank0_lifts_the_zero_vector():
    # the one path at d = 0: an empty kernel, r = 0, one zero candidate
    module = WachModuleModP(params=K3, trunc=8, rank=0, height=1, F=())
    spec = RingSpec(K3, "tilt", 1, Fraction(5, 2))
    result = compute_tstar(module, spec, budget=10**6)
    assert result.rank == 0
    assert result.solutions == (PhiVector(spec, ()),)
    (lift,) = result.lifts
    assert lift.solution == result.solutions[0] and lift.transcript == (math.inf,)


def test_batched_lift_iterates_without_the_view_layer(monkeypatch):
    # the rank-2 draw above at three cuts: 1, 2 and 3 batched iterates
    calls, inside = collections.Counter(), []

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    def contract(*args, **kwargs):
        inside.append(True)
        try:
            return real_contract(*args, **kwargs)
        finally:
            inside.pop()

    real_contract = frobsolve._contract
    monkeypatch.setattr(frobsolve, "_contract", contract)
    counted(frobsolve, "mat_mul")
    counted(ValuedTrunc, "__add__")
    counted(frobsolve, "_contraction_step")
    module = random_module(random.Random(0), 3, 2, 0, 12)
    params = SolverParams.for_tilt(3, 0, RingSpec(K3, "tilt", 1, 1))
    seen = []
    for extra in (0, 1, 4):
        calls.clear()
        spec = RingSpec(K3, "tilt", 1, params.c_work + extra)
        out = compute_tstar(module, spec, budget=10**6, params=params)
        # only the formation of the p^r solutions may use the views
        assert calls["mat_mul"] <= len(out) and calls["__add__"] <= len(out) * module.rank
        seen.append((calls["_contraction_step"], (calls["mat_mul"], calls["__add__"])))
    assert [steps for steps, _ in seen] == [1, 2, 3]
    assert len({views for _, views in seen}) == 1, seen


# -- integer thresholds ---------------------------------------------------------

def solver_regimes():
    """(params, D) over p in {2,3,5,7}, i <= 3, tilt depth 1-2 and the
    two least untilted levels with p^s > a."""
    for p in (2, 3, 5, 7):
        K = FiniteFieldParams(p)
        for i in range(4):
            for depth in (1, 2):
                spec = RingSpec(K, "tilt", depth, 1)
                yield SolverParams.for_spec(p, i, spec), spec.denominator
            for extra in (0, 1):
                s = untilted_level(p, i, extra)
                params = SolverParams.for_untilted(p, i, s)
                yield params, p**s * (p - 1)


def test_index_bounds_match_the_fraction_predicates():
    count = 0
    for params, D in solver_regimes():
        defect, correction, gain = params.index_bounds(D)
        last = math.floor(params.working_floor * D) + D
        for m in range(last + 1):
            assert (m <= defect) == (Fraction(m, D) <= params.defect_floor)
            assert (m <= correction) == (Fraction(m, D) <= params.correction_floor)
        for g in range(-last, last + 1):
            assert (g < gain) == (Fraction(g, D) < params.h)
        count += 1
    assert count == 4 * 4 * 4


@pytest.mark.parametrize("p,mode,level,message,precondition", [
    (3, "tilt", 1, "defect valuation 3/2 does not exceed a = 3/2",
     "val(phi(x0) - x0 F) > a"),
    (2, "tilt", 2, "defect valuation 2 does not exceed a = 2", "val(phi(x0) - x0 F) > a"),
    (3, "untilted", 2, "defect valuation 1/6 does not exceed a/p^s = 1/6",
     "val(x0^p - x0 F) > a/p^s"),
])
def test_lift_with_defect_exactly_at_a_is_too_shallow(p, mode, level, message, precondition):
    # x0 = w (q-1)^i, w a root of the field modulus (w^p != w): on
    # F = (q-1)^((p-1)i) its defect (w^p - w) (q-1)^(pi) sits exactly at a
    K = FiniteFieldParams(p, 2)
    module = make_rank1_module(p, 1, f=2)
    if mode == "tilt":
        params = SolverParams.for_tilt(p, 1, RingSpec(K, "tilt", level, 1))
        spec = RingSpec(K, "tilt", level, params.c_work)
    else:
        params = SolverParams.for_untilted(p, 1, level)
        spec = RingSpec(K, "untilted", level, params.working_floor)
    x0 = PhiVector(spec, (ValuedTrunc(spec, {spec.embed_exponent: p}),))
    with pytest.raises(PrecisionTooLow) as err:
        contraction_lift(module, spec, x0, params=params)
    assert (str(err.value), err.value.precondition) == (message, precondition)
    # the batched lift's own integer check gives the same error
    spec_int = params.working_spec(spec)
    F, V = (_dicts(spec_int, M) for M in specialize(module, spec_int))
    (start,) = _dicts(spec, [x0.entries])
    with pytest.raises(PrecisionTooLow) as err:
        frobsolve._contract(spec, params, F, V, [start], [((1,), start)])
    assert (str(err.value), err.value.precondition) == (message, precondition)


@pytest.mark.parametrize("depth", [4, 5])
def test_tstar_deep_tilt_closed_form(depth):
    path = Path(__file__).resolve().parents[1] / "demos" / "modules" / "rank1_p3_i1.json"
    module = load_module_file(path)
    params = SolverParams.for_tilt(3, 1, RingSpec(K3, "tilt", depth, 1))
    spec = RingSpec(K3, "tilt", depth, params.c_work)
    out = compute_tstar(module, spec, budget=10**6, params=params)
    img = 3 ** (depth - 1)  # image of q - 1
    assert set(out.solutions) == {PhiVector(spec, (ValuedTrunc(spec, {img: z}),))
                                  for z in range(3)}


def test_tstar_p7_i7_under_a_second():
    module, spec, params = tilt_setup(7, 7)
    start = time.perf_counter()
    out = compute_tstar(module, spec, budget=10**6, params=params)
    assert time.perf_counter() - start < 1.0
    assert set(out.solutions) == {PhiVector(spec, (ValuedTrunc(spec, {7: z}),))
                                  for z in range(7)}


@pytest.mark.parametrize("p,i", [(3, 1), (5, 2)])
def test_budget_bounds_the_solution_space(p, i):
    module, spec, params = tilt_setup(p, i)
    with pytest.raises(BudgetExceeded) as err:
        compute_tstar(module, spec, budget=p - 1, params=params)
    assert err.value.search_space == p and err.value.budget == p - 1
    assert len(compute_tstar(module, spec, budget=p, params=params)) == p


# -- work done once per lift or solve -------------------------------------------

def test_contraction_lift_computes_the_start_defect_once(monkeypatch):
    # an exact rank-1 solution (p = 3, i = 1, depth 1): its defect is zero,
    # so the lift takes no iterate and the start's defect is all it needs
    module, spec, params = tilt_setup(3, 1)
    x = next(x for x in compute_tstar(module, spec, budget=10**6, params=params).solutions
             if not x.is_zero())
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)
    real = frobsolve._defect_rows
    monkeypatch.setattr(frobsolve, "_defect_rows", counted)
    out = contraction_lift(module, spec, x, params=params)
    assert out.solution == x and out.transcript == (math.inf,)
    assert len(calls) == 1


def test_one_solve_packs_f_and_v_once_per_slot_width(monkeypatch):
    # the rank-2 height-0 draw of the tests above, lifted in 3 iterates, f = 1 and 2
    for f in (1, 2):
        K = FiniteFieldParams(3, f)
        module = random_module(random.Random(0), 3, 2, 0, 12, f=f)
        params = SolverParams.for_tilt(3, 0, RingSpec(K, "tilt", 1, 1))
        spec = RingSpec(K, "tilt", 1, params.c_work + 4)
        fixed, packs = [], collections.Counter()

        def setup(*args):
            out = real_setup(*args)
            fixed.extend(getattr(M, "rows", M) for M in out[2:])
            return out

        def pack(k, a, off, w):
            if fixed:
                packs[id(a), w] += 1
            return real_pack(k, a, off, w)
        real_setup, real_pack = frobsolve._lift_setup, qring._pack
        monkeypatch.setattr(frobsolve, "_lift_setup", setup)
        monkeypatch.setattr(qring, "_pack", pack)
        out = compute_tstar(module, spec, budget=10**6, params=params)
        monkeypatch.undo()
        assert max(lift.iterations for lift in out.lifts) == 3
        entries = collections.Counter(id(e) for M in fixed for row in M for e in row)
        fixed_packs = {key: n for key, n in packs.items() if key[0] in entries}
        assert fixed_packs  # the lift multiplies by F and V
        for (entry, w), n in fixed_packs.items():
            assert n <= entries[entry], (f, w)
