import dataclasses
import json
import random
import time
from fractions import Fraction

import pytest

from padic_ramlab import qring
from padic_ramlab.errors import HeightExceeded, ParamMismatch, RegimeViolation, TruncationTooLow
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import QPoly, parse_terms
from padic_ramlab.tiltring import RingSpec, ValuedTrunc
from padic_ramlab.wach import (
    WachModuleModP,
    _gamma_power,
    embed_twisted,
    gamma_power_containment,
    make_rank1_module,
    mat_identity,
    mat_inverse_unit,
    mat_mul,
    module_from_dict,
    module_to_dict,
    random_module,
    specialize,
    verify_gamma,
    verify_height,
)
from .oracles import (cofactor_height_witness, cofactor_inverse_unit, containment_by_iteration,
                      gamma_commutation, gamma_images_by_iteration, gamma_minus_one)

K2 = FiniteFieldParams(2)
K3 = FiniteFieldParams(3)


def mk(params, trunc, rank, height, F, G=None, u_g=None):
    return WachModuleModP(params=params, trunc=trunc, rank=rank, height=height,
                          F=F, G=G, u_g=u_g)


def test_height_rank1_cases():
    # F = x^(p-1), i = 1: V = 1
    M = mk(K3, 8, 1, 1, ((QPoly.monomial(K3, 8, 2),),))
    w = verify_height(M)
    assert w.V[0][0] == QPoly.one(K3, w.slack)
    # unit Frobenius, height 0
    M0 = mk(K3, 8, 1, 0, ((QPoly.one(K3, 8),),))
    assert verify_height(M0).V[0][0] == QPoly.one(K3, 8)


def test_height_exceeded():
    # F = x^p does not divide x^(p-1)
    M = mk(K3, 8, 1, 1, ((QPoly.monomial(K3, 8, 3),),))
    with pytest.raises(HeightExceeded):
        verify_height(M)
    Mz = mk(K3, 8, 1, 1, ((QPoly.zero(K3, 8),),))
    with pytest.raises(HeightExceeded):
        verify_height(Mz)


def test_height_needs_truncation_above_the_height_exponent():
    # (p-1)i = 4 at p = 3, i = 2: N = 4 is too low
    M = mk(K3, 4, 1, 2, ((QPoly.one(K3, 4),),))
    with pytest.raises(TruncationTooLow) as exc:
        verify_height(M)
    assert exc.value.precondition == "N > (p-1)i"


def test_height_d2_adjugate_example():
    x2 = QPoly.monomial(K3, 12, 2)
    zero = QPoly.zero(K3, 12)
    M = mk(K3, 12, 2, 1, ((x2, x2), (zero, x2)))
    w = verify_height(M)
    one = QPoly.one(K3, w.slack)
    assert w.V == ((one, -one), (QPoly.zero(K3, w.slack), one))


def test_height_witness_identity_random():
    rng = random.Random(41)
    for _ in range(25):
        p = rng.choice([2, 3])
        M = random_module(rng, p, rng.choice([1, 2]), rng.choice([0, 1, 2]), 14)
        w = verify_height(M)
        h = M.height_exponent
        target = QPoly.monomial(M.params, w.slack, h) if h else QPoly.one(M.params, w.slack)
        F_cut = tuple(tuple(a.retrunc(w.slack) for a in row) for row in M.F)
        prod = mat_mul(F_cut, w.V)
        for r in range(M.rank):
            for c in range(M.rank):
                want = target if r == c else QPoly.zero(M.params, w.slack)
                assert prod[r][c] == want


def height_draw(rng, p, f, d):
    """A random module at its built height, or one whose claimed height is
    too low, whose Frobenius has a repeated row or whose entries are
    random (the last three often raise HeightExceeded)."""
    built = rng.randint(0, 2)
    M = random_module(rng, p, d, built, rng.randint((p - 1) * built + 1,
                                                  (p - 1) * built + 8), f=f)
    kind = rng.random()
    if kind < 0.25:
        return dataclasses.replace(M, height=rng.randint(0, built))
    if kind < 0.35 and d >= 2:
        return dataclasses.replace(M, F=(M.F[0],) + M.F[:-1])
    if kind < 0.5:
        return dataclasses.replace(M, F=tuple(
            tuple(QPoly(M.params, M.trunc,
                        {e: rng.randrange(M.params.order) for e in range(M.trunc)
                         if rng.random() < 0.3}) for _ in range(d))
            for _ in range(d)))
    return M


def height_outcome(fn, M):
    try:
        return fn(M)
    except (HeightExceeded, TruncationTooLow) as exc:
        return type(exc)


def test_height_witness_matches_cofactor_oracle():
    rng = random.Random(53)
    outcomes = set()
    for _ in range(120):
        p, f = rng.choice([2, 3, 5, 7]), rng.choice([1, 2])
        M = height_draw(rng, p, f, rng.choice([1, 2, 2, 3, 3, 4, 5] if f == 1 else [1, 2, 3]))
        got = height_outcome(verify_height, M)
        want = height_outcome(cofactor_height_witness, M)
        if isinstance(want, tuple):
            assert (got.V, got.slack) == want
            outcomes.add("witness")
        else:
            assert got is want
            outcomes.add(want)
    assert outcomes == {"witness", HeightExceeded}


def test_height_slack_matches_sympy_determinant():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    x = sympy.symbols("x")
    rng = random.Random(59)
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7])
        M = height_draw(rng, p, 1, rng.randint(1, 4))
        ring = sympy.GF(p)[x]
        cells = [[ring.from_sympy(sum(c * x**e for e, c in a.coeffs.items()))
                  for a in row] for row in M.F]
        det = DomainMatrix(cells, (M.rank, M.rank), ring).det()
        # the determinant is a polynomial identity, so truncation commutes with it
        delta = min((m[0] for m, c in det.terms() if c and m[0] < M.trunc), default=None)
        got = height_outcome(verify_height, M)
        if delta is None:
            assert got is HeightExceeded
        elif got is not HeightExceeded:
            assert got.slack == M.trunc - max(delta, M.height_exponent)


def test_mat_inverse_unit():
    rng = random.Random(61)
    for _ in range(30):
        p, f = rng.choice([2, 3, 5, 7]), rng.choice([1, 2])
        M = random_module(rng, p, rng.randint(1, 4), 0, rng.randint(1, 12), f=f)
        G_inv = mat_inverse_unit(M.G)
        assert mat_mul(G_inv, M.G) == mat_identity(M.params, M.trunc, M.rank)
        assert G_inv == cofactor_inverse_unit(M.G)
    x = QPoly.x(K3, 6)
    one = QPoly.one(K3, 6)
    with pytest.raises(ZeroDivisionError):
        mat_inverse_unit(((one, x), (x, x)))  # det = x - x^2
    assert mat_inverse_unit(()) == ()


def test_height_rank8_under_a_second():
    M = random_module(random.Random(67), 3, 8, 1, 16)
    started = time.perf_counter()
    w = verify_height(M)
    assert time.perf_counter() - started < 1.0
    F_cut = tuple(tuple(a.retrunc(w.slack) for a in row) for row in M.F)
    x2 = QPoly.monomial(M.params, w.slack, 2)
    assert mat_mul(F_cut, w.V) == tuple(tuple(x2 if r == c else QPoly.zero(M.params, w.slack)
                                              for c in range(8)) for r in range(8))


def test_gamma_report():
    one = QPoly.one(K3, 8)
    M = mk(K3, 8, 1, 0, ((one,),), G=((one,),), u_g=4)
    rep = verify_gamma(M)
    assert rep.trivial_mod_q1 and rep.commutes_with_phi
    # q^j = 1 mod (q-1) for any j
    qq = QPoly.q(K3, 8) ** 2
    Mq = mk(K3, 8, 1, 0, ((one,),), G=((qq,),), u_g=4)
    assert verify_gamma(Mq).trivial_mod_q1
    # constant c != 1 fails triviality
    Mc = mk(K3, 8, 1, 0, ((one,),), G=((QPoly.constant(K3, 8, 2),),), u_g=4)
    assert not verify_gamma(Mc).trivial_mod_q1


def test_standard_rank1_gamma_satisfies_both_conditions():
    for p, i, u in ((2, 1, 3), (3, 1, 4), (3, 2, 4), (5, 1, 6), (3, 1, 7)):
        M = make_rank1_module(p, i, with_gamma=True, u=u)
        rep = verify_gamma(M)
        assert rep.trivial_mod_q1, (p, i, u)
        assert rep.commutes_with_phi, (p, i, u)


def _gamma_draw(rng):
    """A module with a Galois generator over F_(p^f), f <= 3, rank <= 3:
    a fifth of the time a random module with an arbitrary G, else a
    direct sum of standard rank-1 modules with one u (G commutes with
    Frobenius), 40% of these with one entry of G or F moved by c x^e."""
    p, f, d = rng.choice([2, 3, 5, 7]), rng.randint(1, 3), rng.randint(1, 3)
    N = rng.choice([8, 12])
    k = FiniteFieldParams(p, f)
    if rng.random() < 0.2:
        M = random_module(rng, p, d, rng.choice([h for h in range(3) if (p - 1) * h < N]), N, f=f)
        G = tuple(tuple(QPoly(k, N, {e: rng.randrange(k.order) for e in range(N)
                                     if rng.random() < 0.3}) for _ in range(d)) for _ in range(d))
        return dataclasses.replace(M, G=G, u_g=rng.choice([u for u in range(1, 3 * p) if u % p]))
    u = rng.choice([u for u in range(2, 3 * p) if u % p])
    blocks = [make_rank1_module(p, rng.choice([i for i in range(3) if (p - 1) * i < N]), f=f,
                                trunc=N, with_gamma=True, u=u) for _ in range(d)]
    zero = QPoly.zero(k, N)
    F, G = ([[getattr(blocks[r], name)[0][0] if r == c else zero for c in range(d)]
             for r in range(d)] for name in ("F", "G"))
    if rng.random() < 0.4:
        moved = rng.choice([F, G])
        r, c = rng.randrange(d), rng.randrange(d)
        term = QPoly.monomial(k, N, rng.randrange(N), rng.randrange(1, k.order))
        moved[r][c] = moved[r][c] + term
    return mk(k, N, d, max(b.height for b in blocks), tuple(map(tuple, F)),
              G=tuple(map(tuple, G)), u_g=u)


def test_verify_gamma_matches_schoolbook_oracle():
    # both verdicts against G gamma(F) and F phi(G) by schoolbook products,
    # Horner substitution by u_G itself and a c^p Frobenius term by term
    rng = random.Random(19)
    reports = []
    for _ in range(240):
        M = _gamma_draw(rng)
        rep = verify_gamma(M)
        assert (rep.trivial_mod_q1, rep.commutes_with_phi) == gamma_commutation(M), M
        reports.append(rep)
    commutes = [rep.commutes_with_phi for rep in reports]
    trivial = [rep.trivial_mod_q1 for rep in reports]
    assert commutes.count(True) >= 50 and commutes.count(False) >= 50
    assert trivial.count(True) >= 50 and trivial.count(False) >= 20


def test_gamma_power_containment_examples():
    # d=1, G=q, p=2, s=1
    M = mk(K2, 8, 1, 0, ((QPoly.one(K2, 8),),), G=((QPoly.q(K2, 8),),), u_g=3)
    assert gamma_power_containment(M, 0)
    assert gamma_power_containment(M, 1)
    # constant c != 1 fails already at s=0
    Mc = mk(K3, 8, 1, 0, ((QPoly.one(K3, 8),),),
            G=((QPoly.constant(K3, 8, 2),),), u_g=4)
    assert not gamma_power_containment(Mc, 0)


def test_gamma_power_containment_truncation_floor():
    M = make_rank1_module(3, 1, trunc=8, with_gamma=True)
    with pytest.raises(TruncationTooLow):
        gamma_power_containment(M, 2)  # needs N > 9 + 2


def test_containment_holds_whenever_gamma_verifies():
    # fully verified modules pass at every level above the truncation floor
    for p, i, u in ((2, 1, 3), (3, 1, 4), (3, 2, 7), (5, 1, 6)):
        M = make_rank1_module(p, i, trunc=30, with_gamma=True, u=u)
        assert verify_gamma(M).ok
        s = 0
        while p**s + M.height_exponent < M.trunc:
            assert gamma_power_containment(M, s), (p, i, u, s)
            s += 1


def test_wild_generator_required_for_iterated_containment():
    M = make_rank1_module(3, 1, with_gamma=True, u=2)  # primitive root
    assert gamma_power_containment(M, 0)
    with pytest.raises(RegimeViolation):
        gamma_power_containment(M, 1)


def test_iterate_step_sends_xj_to_xjplus1():
    # (gamma - 1) maps x^j * (basis span) into x^(j+1) M, per column
    rng = random.Random(43)
    for _ in range(30):
        p = rng.choice([2, 3])
        N = 12
        M = random_module(rng, p, rng.choice([1, 2]), 1, N)
        for j in range(1, 5):
            for col in range(M.rank):
                vec = [[{j: 1} if r == col else {}] for r in range(M.rank)]
                for (a,) in gamma_minus_one(M, vec):
                    assert min(a, default=N) >= j + 1


def _containment_draw(rng, fields=(1, 2)):
    """A random module over F_(p^f), f in fields, or (half the time) one
    with an arbitrary G that is not Id mod x and an arbitrary unit
    exponent; and its levels s."""
    p, f, d = rng.choice([2, 3, 5]), rng.choice(fields), rng.randint(1, 3)
    N = rng.choice([4, 8, 16])
    height = rng.choice([h for h in range(3) if (p - 1) * h + 1 < N])
    M = random_module(rng, p, d, height, N, f=f)
    if rng.random() < 0.5:
        k = M.params
        while True:
            G = tuple(tuple(QPoly(k, N, {e: rng.randrange(k.order) for e in range(N)
                                         if rng.random() < 0.4})
                            for _ in range(d)) for _ in range(d))
            if any(G[r][c].constant_term() != (r == c) for r in range(d) for c in range(d)):
                break
        u = rng.choice([u for u in range(1, 3 * p * p) if u % p])
        M = dataclasses.replace(M, G=G, u_g=u)
    levels = [s for s in range(5) if p**s + M.height_exponent < N
              and (s == 0 or M.u_g % p == 1)]
    return M, levels


def _minus_identity(k, X):
    """X - Id on a dict matrix."""
    return [[qring.series_add(k, a, {0: k.neg(1)}) if r == c else a for c, a in enumerate(row)]
            for r, row in enumerate(X)]


def test_containment_matches_iteration_oracle():
    # gamma^(p^s) - Id by square-and-multiply equals (gamma - 1)^(p^s) Id
    # applied p^s times, entry by entry at full N, and so does the verdict
    rng = random.Random(16)
    verdicts = []
    for _ in range(300):
        M, levels = _containment_draw(rng)
        for s in levels:
            expected, X = containment_by_iteration(M, s)
            got = _gamma_power(M, M.params.p**s, M.trunc)
            assert _minus_identity(M.params, got) == X, (M, s)
            verdicts.append(gamma_power_containment(M, s))
            assert verdicts[-1] == expected, (M, s)
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_gamma_power_matches_repeated_gamma_off_powers_of_p():
    rng = random.Random(17)
    for _ in range(40):
        M, _ = _containment_draw(rng)
        p = M.params.p
        n = rng.choice([n for n in range(2, 14) if n not in {p**e for e in range(4)}])
        assert _gamma_power(M, n, M.trunc) == gamma_images_by_iteration(M, n), (M, n)


def test_gamma_power_below_top_is_the_full_result_cut_below_top():
    # the containment runs G_(p^s) below top = p^s: at every top <= N the
    # product of the cut factors is the full-N product cut below top
    rng = random.Random(18)
    for _ in range(60):
        M, _ = _containment_draw(rng, fields=(1, 2, 3))
        n = rng.randint(1, 2 * M.params.p**2)
        full = _gamma_power(M, n, M.trunc)
        for top in range(1, M.trunc + 1):
            cut = [[{e: c for e, c in a.items() if e < top} for a in row] for row in full]
            assert _gamma_power(M, n, top) == cut, (M, n, top)


def test_containment_verdict_reads_index_p_to_the_s_minus_one():
    # G = [[1, b], [0, 1]] + x (terms below x^4), not Id mod x: G_(p^s) - Id
    # of valuation exactly p^s - 1 must fail and exactly p^s must pass, the
    # edge of the cut at p^s
    rng = random.Random(20)
    edges = []
    for _ in range(300):
        p, N = rng.choice([2, 3]), 12
        k = FiniteFieldParams(p)
        G = tuple(tuple(QPoly(k, N, {0: (r == c) + (r < c) * rng.randrange(1, p),
                                     **{e: rng.randrange(p) for e in range(1, 4)
                                        if rng.random() < 0.5}})
                        for c in range(2)) for r in range(2))
        M = mk(k, N, 2, 0, mat_identity(k, N, 2), G=G, u_g=1 + p)
        for s in (1, 2):
            if p**s < N:
                expected, X = containment_by_iteration(M, s)
                assert gamma_power_containment(M, s) == expected, (M, s)
                edges.append(min((min(a) for row in X for a in row if a), default=N) - p**s)
    assert edges.count(-1) >= 50 and edges.count(0) >= 50


@pytest.mark.parametrize("p, s", [(2, 4), (3, 2)])
def test_containment_takes_logarithmically_many_products(monkeypatch, p, s):
    # the direct iteration takes p^s products: 16 and 9 here
    M = random_module(random.Random(p), p, 2, 1, p**s + p + 4)
    calls = []
    series_matmul = qring.series_matmul

    def counted(*args, **kwargs):
        calls.append(1)
        return series_matmul(*args, **kwargs)
    monkeypatch.setattr(qring, "series_matmul", counted)
    assert gamma_power_containment(M, s)
    assert 0 < len(calls) <= 2 * (p**s).bit_length()


def test_specialize_rank1():
    M3 = make_rank1_module(3, 1)
    tilt = RingSpec(K3, "tilt", 1, 3)
    F_t, V_t = specialize(M3, tilt)
    assert F_t[0][0] == ValuedTrunc.uniformizer(tilt, 2)  # pi^(p-1)
    unt = RingSpec(K3, "untilted", 1, Fraction(5, 6))
    F_u, _ = specialize(M3, unt)
    assert F_u[0][0] == ValuedTrunc.uniformizer(unt, 2)  # theta^(p-1)
    # identity Frobenius stays the identity
    M0 = make_rank1_module(3, 0)
    F_e, V_e = specialize(M0, tilt)
    assert F_e[0][0] == ValuedTrunc.one(tilt)
    assert V_e[0][0] == ValuedTrunc.one(tilt)


def test_specialize_untilted_twists_coefficients():
    # f = 2, s = 1: coefficients are twisted by the inverse Frobenius of k
    k4 = FiniteFieldParams(2, 2)
    w = 2  # generator of F_4
    F = ((QPoly.constant(k4, 8, w),),)
    M = mk(k4, 8, 1, 0, F)
    unt = RingSpec(k4, "untilted", 1, Fraction(1, 2))
    F_u, _ = specialize(M, unt)
    assert F_u[0][0] == ValuedTrunc.constant(unt, k4.frobenius_pow(w, -1))


def embed_by_definition(a, spec):
    """q - 1 to the monomial of index embed_exponent, each coefficient
    first twisted by the inverse s-th Frobenius of k in untilted mode."""
    k, img, untilted = a.params, spec.embed_exponent, spec.mode == "untilted"
    return ValuedTrunc(spec, {e * img: k.frobenius_pow(c, -spec.level) if untilted else c
                              for e, c in a.coeffs.items() if e * img <= spec.m_max})


@pytest.mark.parametrize("mode", ["tilt", "untilted"])
def test_specialize_embeds_F_and_the_height_witness_entry_by_entry(mode):
    rng = random.Random(71 if mode == "tilt" else 73)
    twisted = 0
    for _ in range(100):
        # f = 3 tells the inverse s-th Frobenius from the s-th; f = 2 cannot
        p, f = rng.choice([2, 3, 5]), rng.choice([1, 2, 3])
        d, i = rng.randint(1, 3), rng.randint(0, 2)
        level = rng.randint(1, 2) if mode == "tilt" else rng.randint(0, 2)
        D = p ** (level - 1) * (p - 1) if mode == "tilt" else p**level * (p - 1)
        margin = rng.randint(2, 10)  # the witness is certified to >= margin
        M = random_module(rng, p, d, i, d * (p - 1) * i + margin, f=f)
        top = margin * (p ** (level - 1) if mode == "tilt" else 1)
        m = rng.randint(0, min(top, D if mode == "untilted" else 12) - 1)
        spec = RingSpec(M.params, mode, level, Fraction(2 * m + 1, 2 * D))  # m_max = m
        F_t, V_t = specialize(M, spec)
        for got, source in ((F_t, M.F), (V_t, verify_height(M).V)):
            assert got == tuple(tuple(embed_twisted(a, spec) for a in row) for row in source)
            assert got == tuple(tuple(embed_by_definition(a, spec) for a in row)
                                for row in source)
        twisted += any(a.coeffs != {e * spec.embed_exponent: c for e, c in b.coeffs.items()
                                    if e * spec.embed_exponent <= m}
                       for row_t, row in zip(F_t, M.F) for a, b in zip(row_t, row))
    # untilted, f > 1 twists coefficients outside F_p unless f divides the level; tilt never
    assert (twisted > 0) == (mode == "untilted")


def test_specialize_rejects_a_spec_over_another_field():
    M = make_rank1_module(3, 1)
    for other in (FiniteFieldParams(5), FiniteFieldParams(3, 2)):
        for spec in (RingSpec(other, "tilt", 1, 3),
                     RingSpec(other, "untilted", 1, Fraction(1, 2))):
            with pytest.raises(ParamMismatch) as raised:
                specialize(M, spec)
            assert str(raised.value) == f"field mismatch: {M.params} vs {other}"


def test_module_file_coefficients_are_read_mod_p():
    F = module_from_dict({"p": 3, "N": 8, "d": 1, "i": 1, "F": [["5*x^2"]]}).F
    assert F == ((QPoly.monomial(FiniteFieldParams(3), 8, 2, 2),),)
    k9 = FiniteFieldParams(3, 2)
    F = module_from_dict({"p": 3, "f": 2, "N": 8, "d": 1, "i": 1, "F": [["(4,5)*x^2"]]}).F
    assert {e: k9.digits(c) for e, c in F[0][0].coeffs.items()} == {2: [1, 2]}


def test_module_file_round_trip():
    rng = random.Random(47)
    for _ in range(10):
        p = rng.choice([2, 3])
        M = random_module(rng, p, rng.choice([1, 2]), rng.choice([0, 1]), 10)
        doc = json.loads(json.dumps(module_to_dict(M, name="t", description="d")))
        assert module_from_dict(doc) == M
    Mg = make_rank1_module(3, 1, with_gamma=True)
    assert module_from_dict(module_to_dict(Mg)) == Mg
    # f > 1 coefficients round-trip through tuple syntax
    k4 = FiniteFieldParams(2, 2)
    F = ((parse_terms("(1,1)*x^1 + (0,1)*x^3", k4, 6),),)
    M4 = mk(k4, 6, 1, 2, F)
    assert module_from_dict(module_to_dict(M4)) == M4
