"""Differential tests of the series engine's table-driven and fused kernels.

The f > 1 kernels read one record per field, qring._field_tables; they
are compared here with one gf call per term on both sides of its order
bound 256: F_4, F_8, F_9, F_25 and F_256, whose lookups are kept, and
F_289, F_343 and F_512, whose lookups each call gf.  Above the bound
every kernel and the packing keep nothing per coefficient (F_65536).
The one unit inverse is checked on prime fields and on both sides of
the bound.  The fused C - A B and the pre-packed PackedMatrix are
compared with the schoolbook oracle of tests/oracles.py.  The solver's
incremental defect rests on the identity defect(starts + y) =
(Q + phi(y)) - y F at the working top; it is checked on random rows in
both modes.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest

from padic_ramlab.frobsolve import SolverParams, _defect_rows, _lift_setup
from padic_ramlab.gf import FiniteFieldParams
from padic_ramlab.qring import (_TABLE_ORDER, PackedMatrix, QPoly, _field_tables, _pack,
                                _shift_scale, _unpack, invert_unit, series_add,
                                series_frobenius, series_invert, series_matmul, series_mul,
                                series_neg, series_scale, series_substitute)
from padic_ramlab.tiltring import RingSpec
from padic_ramlab.wach import random_module
from .oracles import schoolbook_matmul, schoolbook_mul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

SETTINGS = dict(deadline=None, derandomize=True, database=None, max_examples=60,
                suppress_health_check=list(hypothesis.HealthCheck))

TABLE_FIELDS = [FiniteFieldParams(2, 2), FiniteFieldParams(2, 3), FiniteFieldParams(3, 2),
                FiniteFieldParams(5, 2)]
# the largest field with kept lookups
F_256 = FiniteFieldParams(2, 8)
# above the table bound: 2^9, 17^2 and 7^3 elements
LARGE_FIELDS = [FiniteFieldParams(2, 9), FiniteFieldParams(17, 2), FiniteFieldParams(7, 3)]


def dicts(k, top, max_size=8):
    return st.dictionaries(st.integers(0, top - 1), st.integers(1, k.order - 1),
                           max_size=max_size)


def per_term_add(k, a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = k.add(out.get(e, 0), c)
    return {e: c for e, c in out.items() if c}


# -- f > 1 kernels against one gf call per term ---------------------------------

@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_f_kernels_match_per_term_gf(data):
    k = data.draw(st.sampled_from(TABLE_FIELDS + [F_256] + LARGE_FIELDS))
    top = data.draw(st.integers(1, 30))
    a, b = data.draw(dicts(k, top)), data.draw(dicts(k, top))
    c = data.draw(st.integers(0, 3 * k.order))
    assert series_add(k, a, b) == per_term_add(k, a, b)
    assert series_neg(k, a) == {e: k.neg(x) for e, x in a.items()}
    assert series_add(k, a, series_neg(k, a)) == {}
    scaled = {e: k.mul(x, c % k.order) for e, x in a.items()} if c % k.order else {}
    assert series_scale(k, a, c) == scaled
    one = data.draw(dicts(k, top, max_size=1))
    assert _shift_scale(k, one, b, top) == schoolbook_mul(k, one, b, top)


# F_2, F_5, F_13 (inline mod p), F_4, F_9, F_8, F_256 (kept lookups) and F_512,
# F_289 (gf per lookup)
INVERT_FIELDS = [FiniteFieldParams(2), FiniteFieldParams(5), FiniteFieldParams(13),
                 FiniteFieldParams(2, 2), FiniteFieldParams(3, 2), FiniteFieldParams(2, 3),
                 F_256, FiniteFieldParams(2, 9), FiniteFieldParams(17, 2)]


@pytest.mark.parametrize("k", INVERT_FIELDS, ids=lambda k: f"F_{k.order}")
@hypothesis.settings(**{**SETTINGS, "max_examples": 30})
@given(st.data())
def test_unit_inverse_on_each_field(k, data):
    top = data.draw(st.integers(1, 64))
    a = data.draw(dicts(k, top, max_size=12))
    a[0] = data.draw(st.integers(1, k.order - 1))
    inv = series_invert(k, a, top)
    assert schoolbook_mul(k, a, inv, top) == {0: 1}
    assert all(0 <= e < top and 0 < c < k.order for e, c in inv.items())
    assert invert_unit(QPoly(k, top, a)).coeffs == inv
    del a[0]
    with pytest.raises(ZeroDivisionError, match="not a unit: zero constant term"):
        series_invert(k, a, top)
    with pytest.raises(ZeroDivisionError, match="not a unit: zero constant term"):
        invert_unit(QPoly(k, top, a))


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_pack_unpack_round_trip(data):
    k = data.draw(st.sampled_from(TABLE_FIELDS + LARGE_FIELDS + [FiniteFieldParams(3)]))
    top = data.draw(st.integers(1, 30))
    a = data.draw(dicts(k, top, max_size=30))
    off = min(a, default=0) - data.draw(st.integers(0, 2))
    off = max(off, 0)
    w = data.draw(st.sampled_from([1, 2, 3, 4]))  # 3 bytes: the shift-and-mask route
    stride = 2 * k.f - 1
    total = (top - off) * stride
    count = data.draw(st.integers(0, top - off))
    got = _unpack(k, _pack(k, a, off, w), w, total, count, off)
    assert got == {e: c for e, c in a.items() if e - off < count}


def test_tables_have_the_stated_size_bound():
    assert _TABLE_ORDER == 256
    for k in TABLE_FIELDS + [F_256]:  # kept: every entry stays once computed
        tables = _field_tables(k)
        a = {e: e for e in range(1, k.order)}
        for c in range(1, k.order):  # the rows of every nonzero element
            series_scale(k, a, c)
            series_add(k, a, {e: c for e in a})
        series_frobenius(k, a, k.p * k.order)
        _pack(k, a, 0, 2)
        assert len(tables.neg) == k.order
        for rows in (tables.add, tables.mul):
            assert k.order - 1 <= len(rows) <= k.order
            assert all(len(row) == k.order for row in rows.values())
            assert sum(map(len, rows.values())) <= _TABLE_ORDER ** 2
        assert tables.add[3 % k.order][k.order - 1] == k.add(3 % k.order, k.order - 1)
        assert k.order - 1 <= len(tables.frob) <= k.order
        assert tables.frob[k.order - 1] == k.frobenius(k.order - 1)
        assert 2 in tables.digits and len(tables.digits[2]) == k.order
    # above the order every lookup calls gf and keeps nothing, F_257 (the
    # digit path of _pack) included
    for k in [FiniteFieldParams(257)] + LARGE_FIELDS:
        tables = _field_tables(k)
        x, y = k.order - 1, k.order // 2
        assert tables.add[x][y] == k.add(x, y) and tables.mul[x][y] == k.mul(x, y)
        assert tables.neg[x] == k.neg(x) and tables.frob[x] == k.frobenius(x)
        assert tables.digits[2][x] == b"".join(d.to_bytes(2, "little") for d in k.digits(x))
        assert [len(t) for t in (tables.add, tables.mul, tables.neg, tables.frob,
                                 tables.digits)] == [0] * 5
    # F_p with p <= 256 takes the inline mod-p path and builds no record
    _field_tables.cache_clear()
    k, a = FiniteFieldParams(2), {0: 1, 3: 1, 4: 1}
    series_neg(k, series_add(k, a, series_scale(k, a, 1)))
    series_frobenius(k, series_invert(k, series_mul(k, a, a, 40), 40), 40)
    series_substitute(k, a, 3, 40)
    assert _field_tables.cache_info().currsize == 0


# F_289, F_512 and F_65536 compute c^p per term; F_4, F_8, F_9 and F_25 read a table
@pytest.mark.parametrize("k", TABLE_FIELDS + [FiniteFieldParams(17, 2), FiniteFieldParams(2, 9),
                                              FiniteFieldParams(2, 16)],
                         ids=lambda k: f"F_{k.order}")
def test_series_frobenius_matches_per_term_gf(k):
    rng = random.Random(k.order)
    a = {e: rng.randrange(1, k.order) for e in range(0, 3000, rng.choice([1, 2, 3]))}
    top = rng.randint(k.p * 1000, k.p * 3000)
    assert series_frobenius(k, a, top) == {k.p * e: k.frobenius(c) for e, c in a.items()
                                           if k.p * e < top}


# Each call over F_65536 looks up about 3,000 distinct coefficients: a
# lookup kept per coefficient would hold far more than 16 KB afterwards.
KEEPS_NOTHING = {
    "series_add": lambda k, a, b: series_add(k, a, b),
    "series_neg": lambda k, a, b: series_neg(k, a),
    "series_scale": lambda k, a, b: series_scale(k, a, b[0]),
    "_shift_scale": lambda k, a, b: _shift_scale(k, {1: b[0]}, a, len(a) + 1),
    "series_invert": lambda k, a, b: series_invert(k, {0: a[0], 1: b[0]}, len(a)),
    "series_frobenius": lambda k, a, b: series_frobenius(k, a, k.p * len(a)),
    "_pack": lambda k, a, b: _pack(k, a, 0, 2),
}


@pytest.mark.parametrize("kernel", KEEPS_NOTHING)
def test_kernels_keep_nothing_per_coefficient_above_the_table_order(kernel):
    k, call = FiniteFieldParams(2, 16), KEEPS_NOTHING[kernel]
    rng = random.Random(16)
    a = {e: rng.randrange(1, k.order) for e in range(3000)}
    b = {e: rng.randrange(1, k.order) for e in range(3000)}
    _field_tables.cache_clear()  # no entry left by an earlier case
    call(k, {0: 1, 1: 2}, {0: 3, 1: 4})  # builds what is kept once per field
    tracemalloc.start()
    try:
        call(k, a, b)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16384, kept


def test_pack_writes_each_digit_in_its_slot():
    # digit j of the coefficient at index e goes to slot e (2f - 1) + j,
    # whether read from the tuple over k (up to the bound) or encoded on
    # the call (above it, F_257 included)
    for k in TABLE_FIELDS + LARGE_FIELDS + [FiniteFieldParams(257)]:
        for w in (2, 8):
            a = {0: 5 % k.order, 3: k.order - 1, 7: k.order // 2}
            assert _pack(k, a, 0, w) == sum(d << 8 * w * (e * (2 * k.f - 1) + j)
                                            for e, c in a.items()
                                            for j, d in enumerate(k.digits(c))), (k, w)


# -- fused C - A B and packed-once matrices -------------------------------------

def minus_product(k, C, A, B, top):
    """C - A B by the schoolbook oracle and one gf call per term."""
    AB = schoolbook_matmul(k, A, B, top)
    return [[per_term_add(k, c, {e: k.neg(x) for e, x in ab.items()})
             for c, ab in zip(crow, abrow)] for crow, abrow in zip(C, AB)]


@hypothesis.settings(**SETTINGS)
@given(st.data())
def test_fused_minus_product_and_packed_matrix_match_the_oracle(data):
    k = data.draw(st.sampled_from([FiniteFieldParams(2), FiniteFieldParams(3),
                                   FiniteFieldParams(13)] + TABLE_FIELDS + LARGE_FIELDS[:1]))
    top = data.draw(st.integers(1, 24))
    d, n, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    one_term = data.draw(st.booleans())  # the product-by-product (_dot) route
    entries = dicts(k, top, max_size=1 if one_term else 10)
    A = [[data.draw(entries) for _ in range(n)] for _ in range(d)]
    if data.draw(st.booleans()):
        A[0] = [{} for _ in range(n)]  # an empty row
    B = [[data.draw(dicts(k, top, max_size=10)) for _ in range(m)] for _ in range(n)]
    C = [[data.draw(dicts(k, top, max_size=10)) for _ in range(m)] for _ in range(d)]
    packed = PackedMatrix(k, B)
    want = schoolbook_matmul(k, A, B, top)
    assert series_matmul(k, A, B, top) == want
    assert series_matmul(k, A, packed, top) == want
    want = minus_product(k, C, A, B, top)
    assert series_matmul(k, A, B, top, C=C) == want
    assert series_matmul(k, A, packed, top, C=C) == want


def test_fused_product_at_rank_zero():
    k = FiniteFieldParams(3, 2)
    rows = [(), ()]
    for B in ([], PackedMatrix(k, [])):
        assert series_matmul(k, rows, B, 5) == [[], []]
        assert series_matmul(k, rows, B, 5, C=rows) == [[], []]
        assert series_matmul(k, [], B, 5, C=[]) == []


def test_one_packed_matrix_serves_two_slot_widths():
    k = FiniteFieldParams(3)
    top = 40
    B = [[{e: 2 for e in range(top)}, {0: 1, 5: 2}], [{1: 2, 2: 2}, {e: 1 for e in range(9)}]]
    packed = PackedMatrix(k, B)
    short = [[{0: 1, 1: 2}, {3: 1, 4: 2}]]  # slots up to 2 * 2 * 2^2 = 16: one byte
    dense = [[{e: 2 for e in range(top)}, {e: 1 for e in range(top)}]]  # 320: two bytes
    for A in (short, dense, short):
        assert series_matmul(k, A, packed, top) == schoolbook_matmul(k, A, B, top)
        assert series_matmul(k, A, packed, top, C=A) == minus_product(k, A, A, B, top)
    assert sorted(packed._by_width) == [1, 2]
    assert all(len(cols) == 2 and len(cols[0]) == 2 for cols in packed._by_width.values())


# -- the solver's incremental defect --------------------------------------------

def random_row(rng, k, d, top):
    return tuple({e: rng.randrange(1, k.order) for e in range(top) if rng.random() < 0.4}
                 for _ in range(d))


def oracle_defect(k, x, F, top):
    """phi(x) - x F below top, one gf call per term."""
    phi = [{k.p * e: k.frobenius(c) for e, c in a.items() if k.p * e < top} for a in x]
    return minus_product(k, [phi], [x], F, top)


@pytest.mark.parametrize("tilt", [True, False])
@pytest.mark.parametrize("i", [0, 1, 2])
@pytest.mark.parametrize("f", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
@hypothesis.settings(**dict(SETTINGS, max_examples=4))
@given(seed=st.integers(0, 10**6))
def test_defect_of_a_sum_is_read_off_the_step_rows(p, f, i, tilt, seed):
    rng = random.Random(seed)
    K = FiniteFieldParams(p, f)
    d = rng.randint(1, 3)
    if tilt:
        params = SolverParams.for_tilt(p, i, RingSpec(K, "tilt", 1, 1))
        spec = RingSpec(K, "tilt", 1, params.c_work + rng.choice([0, 1]))
    else:
        s = 1  # the least level with p^s > a whose working cut stays below 1
        while p**s <= Fraction(p * i + 1, p - 1):
            s += 1
        params = SolverParams.for_untilted(p, i, s)
        spec = RingSpec(K, "untilted", s, params.working_floor)
    top_img = params.working_spec(spec).m_max // spec.embed_exponent
    # V is certified below N - max(sum h_j, (p-1)i) >= N - d(p-1)i
    module = random_module(rng, p, d, i, top_img + d * (p - 1) * i + 2, f=f)
    _, spec_int, F, _ = _lift_setup(module, spec, params)
    top = spec_int.m_max + 1
    for _ in range(3):
        starts = random_row(rng, K, d, spec.m_max + 1)
        y = random_row(rng, K, d, top)
        (Q,) = _defect_rows(K, [starts], F, top)
        S = [[series_add(K, q, series_frobenius(K, e, top)) for q, e in zip(Q, y)]]
        whole = [per_term_add(K, a, b) for a, b in zip(starts, y)]
        want = oracle_defect(K, whole, F.rows, top)
        assert series_matmul(K, [y], F, top, C=S) == want
        assert series_matmul(K, [y], F.rows, top, C=S) == want
        assert _defect_rows(K, [whole], F, top) == want

