import math
import random

import pytest
from hypothesis import given, strategies as st

from qmod import (
    NotInvertibleError,
    PrecisionError,
    QSeries,
    add,
    coefficient,
    div,
    first_difference,
    invert,
    mul,
    neg,
    one,
    padic_valuation,
    padic_valuation_range,
    power,
    scale,
    shift,
    sub,
    truncate,
    zero,
)
from _oracles import ref_mul

coeffs = st.integers(min_value=-50, max_value=50)


@st.composite
def series(draw, min_prec=1, max_prec=35, min_e=-12, unit_lead=False):
    prec = draw(st.integers(min_value=min_prec, max_value=max_prec))
    lo = draw(st.integers(min_value=min_e, max_value=prec - 1))
    d = draw(st.dictionaries(
        st.integers(min_value=lo, max_value=prec - 1), coeffs, max_size=10))
    if unit_lead:
        d[lo] = draw(st.sampled_from([1, -1]))
    return QSeries(d, prec)


def test_make_series_merges_duplicate_exponents():
    f = QSeries([(2, 3), (2, -1), (5, 4)], 7)
    assert f.items() == [(2, 2), (5, 4)]


def test_make_series_drops_zero_sums():
    f = QSeries([(1, 2), (1, -2)], 4)
    assert f.is_zero
    assert f.order == 4  # sentinel


def test_make_series_rejects_exponent_at_precision():
    with pytest.raises(ValueError, match="not below the precision"):
        QSeries({5: 1}, 5)


def test_make_series_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        QSeries({1: 1.5}, 5)
    with pytest.raises(ValueError):
        QSeries({0: 1}, 2.0)


def test_coefficient_beyond_precision_raises():
    f = QSeries({1: 2}, 3)
    assert coefficient(f, 2) == 0
    with pytest.raises(PrecisionError):
        coefficient(f, 3)


def test_str_formatting():
    assert str(QSeries({-1: 1, 2: -1}, 3)) == "q^-1 - q^2 + O(q^3)"
    assert str(QSeries({0: -3, 6: 5}, 7)) == "-3 + 5*q^6 + O(q^7)"
    assert str(zero(4)) == "O(q^4)"


@given(series(), series())
def test_add_precision_and_commutativity(f, g):
    s = add(f, g)
    assert s.prec == min(f.prec, g.prec)
    assert s == add(g, f)
    for e in s.support():
        assert coefficient(s, e) == coefficient(f, e) + coefficient(g, e)


@given(series())
def test_additive_inverse(f):
    assert sub(f, f).is_zero
    assert add(f, neg(f)).is_zero


@given(series(), series())
def test_mul_matches_brute_convolution(f, g):
    assert mul(f, g) == ref_mul(f, g)


@given(series(), series())
def test_mul_commutes(f, g):
    assert mul(f, g) == mul(g, f)


@given(series(), series(), series())
def test_mul_associates_on_shared_range(f, g, h):
    assert first_difference(mul(mul(f, g), h), mul(f, mul(g, h))) is None


@given(series(), series(), series())
def test_mul_distributes_on_shared_range(f, g, h):
    lhs = mul(f, add(g, h))
    rhs = add(mul(f, g), mul(f, h))
    assert first_difference(lhs, rhs) is None


@given(series())
def test_one_is_neutral(f):
    assert first_difference(mul(f, one(f.prec)), f) is None


def test_mul_dense_path_matches_oracle():
    # enough terms to push past the pairwise scatter cap, on a stride-3
    # lattice with a negative leading exponent
    rng = random.Random(7)
    a = QSeries({-9 + 3 * k: rng.randint(-9, 9) or 1
                     for k in range(300)}, 1000)
    b = QSeries({-6 + 3 * k: rng.randint(-9, 9) or 1
                     for k in range(300)}, 1000)
    assert len(a.support()) * len(b.support()) > (1 << 16)
    assert mul(a, b) == ref_mul(a, b)


def test_mul_precision_rule_with_poles():
    f = QSeries({-2: 1, 0: 5}, 10)
    g = QSeries({3: 1, 4: -1}, 8)
    assert mul(f, g).prec == min(10 + 3, 8 - 2)


def test_mul_by_zero_series_keeps_sentinel_precision():
    f = QSeries({-2: 1}, 10)
    z = zero(6)
    # order sentinel of the zero series is its precision
    assert mul(f, z).prec == min(10 + 6, 6 - 2)
    assert mul(f, z).is_zero


@given(series(unit_lead=True))
def test_invert_round_trip(f):
    g = invert(f)
    assert g.prec == f.prec - 2 * f.order
    p = mul(f, g)
    assert first_difference(p, one(p.prec)) is None


@given(series(), series(unit_lead=True))
def test_div_round_trip(f, g):
    h = div(f, g)
    assert h.prec == min(f.prec - g.order, g.prec - 2 * g.order + f.order)
    assert first_difference(mul(h, g), f) is None


@given(series(unit_lead=True))
def test_div_matches_mul_by_inverse(f):
    num = QSeries({0: 1, 1: -2, 3: 1},
                      max(f.prec + abs(f.order) + 2, 5))
    assert first_difference(div(num, f), mul(num, invert(f))) is None


def test_div_rejects_non_unit_lead():
    with pytest.raises(NotInvertibleError):
        div(one(5), QSeries({0: 2, 1: 1}, 5))
    with pytest.raises(NotInvertibleError):
        invert(zero(5))


@given(series(unit_lead=True), st.integers(min_value=0, max_value=4))
def test_power_matches_repeated_mul(f, k):
    expected = None
    for _ in range(k):
        expected = f if expected is None else mul(expected, f)
    got = power(f, k)
    if k == 0:
        assert got == one(f.prec - 2 * f.order)
    else:
        assert got == expected


@given(series(unit_lead=True))
def test_negative_power(f):
    assert power(f, -2) == invert(mul(f, f))


def test_power_rejects_non_integer():
    with pytest.raises(ValueError):
        power(one(3), 1.5)


@given(series(), st.integers(min_value=-6, max_value=6))
def test_shift_round_trip(f, k):
    g = shift(f, k)
    assert g.prec == f.prec + k
    assert shift(g, -k) == f


@given(series())
def test_truncate_tower(f):
    for p in range(f.order if not f.is_zero else 0, f.prec + 1):
        t = truncate(f, p)
        assert t.prec == p
        assert all(e < p for e in t.support())
    with pytest.raises(PrecisionError):
        truncate(f, f.prec + 1)


def test_scale_rejects_non_integer():
    with pytest.raises(ValueError):
        scale(one(3), 1.5)


def test_first_difference():
    f = QSeries({-1: 1, 2: 3}, 9)
    g = QSeries({-1: 1, 2: 3, 5: 1}, 7)
    assert first_difference(f, truncate(f, 5)) is None
    assert first_difference(f, g) == 5
    assert first_difference(f, add(f, QSeries({0: 1}, 9))) == 0


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9).filter(bool),
       st.sampled_from([2, 3, 5, 7, 11]),
       st.integers(min_value=0, max_value=6))
def test_padic_valuation(n, p, k):
    if n % p == 0:
        n += 1 if n > 0 else -1
    if n % p == 0:
        n = 1
    assert padic_valuation(n * p ** k, p) == k


def test_padic_valuation_edge_cases():
    assert padic_valuation(0, 5) == math.inf
    with pytest.raises(ValueError):
        padic_valuation(12, 6)


def test_padic_valuation_range():
    f = QSeries({-2: 4, 0: 6, 3: 8}, 5)
    assert padic_valuation_range(f, 2, -2, 5) == 1
    assert padic_valuation_range(f, 2, 3, 5) == 3
    assert padic_valuation_range(f, 2, 1, 3) == math.inf
    with pytest.raises(PrecisionError):
        padic_valuation_range(f, 2, 0, 6)
    with pytest.raises(ValueError):
        padic_valuation_range(f, 2, 4, 3)
    with pytest.raises(ValueError):
        padic_valuation_range(f, 4, 0, 2)


@given(series(), st.sampled_from([2, 3, 5]))
def test_padic_valuation_range_matches_brute_minimum(f, p):
    if f.is_zero:
        lo = 0
    else:
        lo = f.order
    got = padic_valuation_range(f, p, lo, f.prec)
    vals = [padic_valuation(coefficient(f, e), p)
            for e in range(lo, f.prec)]
    assert got == (min(vals) if vals else math.inf)
