import math
import random

import pytest
from hypothesis import assume, given, strategies as st

from qmod import (
    PrecisionError,
    QSeries,
    add,
    first_difference,
    mul,
    one,
    padic_valuation,
    padic_valuation_range,
    scale,
    sub,
    truncate,
)
import qmod.qseries
from qmod.qseries import (
    _PAIRS_PER_SLOT,
    _SCATTER_CAP,
    _lattice,
    _product_quotient,
)
from _oracles import ref_invert, ref_mul

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
    assert f.coefficient(2) == 0
    with pytest.raises(PrecisionError):
        f.coefficient(3)


def test_str_formatting():
    assert str(QSeries({-1: 1, 2: -1}, 3)) == "q^-1 - q^2 + O(q^3)"
    assert str(QSeries({0: -3, 6: 5}, 7)) == "-3 + 5*q^6 + O(q^7)"
    assert str(QSeries({}, 4)) == "O(q^4)"


@given(series(), series())
def test_add_precision_and_commutativity(f, g):
    s = add(f, g)
    assert s.prec == min(f.prec, g.prec)
    assert s == add(g, f)
    for e in s.support():
        assert s.coefficient(e) == f.coefficient(e) + g.coefficient(e)


@given(series())
def test_additive_inverse(f):
    assert sub(f, f).is_zero
    assert add(f, scale(f, -1)).is_zero


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
    z = QSeries({}, 6)
    # order sentinel of the zero series is its precision
    assert mul(f, z).prec == min(10 + 6, 6 - 2)
    assert mul(f, z).is_zero


def _quotient(f, g, bits=None):
    """f / g from the kernel alone, f nonzero and g with lead +-1, on the
    offsets where both are certified: P = min(f.prec - order(f),
    g.prec - order(g)) past order(f) - order(g)."""
    return _product_quotient([f], g, bits, f.order - g.order,
                             min(f.prec - f.order, g.prec - g.order),
                             _lattice(f, g))


@given(series(unit_lead=True))
def test_invert_round_trip(f):
    g = _quotient(one(f.prec - f.order), f)
    assert g == ref_invert(f)
    p = mul(f, g)
    assert first_difference(p, one(p.prec)) is None


@given(series(), series(unit_lead=True))
def test_div_round_trip(f, g):
    assume(not f.is_zero)
    h = _quotient(f, g)
    assert first_difference(mul(h, g), f) is None


@given(series(unit_lead=True))
def test_div_matches_mul_by_inverse(f):
    num = QSeries({0: 1, 1: -2, 3: 1},
                      max(f.prec + abs(f.order) + 2, 5))
    assert first_difference(_quotient(num, f),
                            mul(num, ref_invert(f))) is None


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
    vals = [padic_valuation(f.coefficient(e), p)
            for e in range(lo, f.prec)]
    assert got == (min(vals) if vals else math.inf)


# ---------------------------------------------------------------------------
# packed kernels

wide_coeffs = st.one_of(
    st.integers(min_value=-2 ** 260, max_value=2 ** 260),
    st.integers(min_value=-3, max_value=3),
)


@st.composite
def lattice_series(draw, max_terms=80):
    """A series on order + stride*Z with coefficients up to 260 bits of
    either sign, a possibly negative order and a precision past its last
    stored exponent."""
    stride = draw(st.integers(min_value=1, max_value=6))
    lo = draw(st.integers(min_value=-20, max_value=5))
    cs = draw(st.lists(wide_coeffs, min_size=1, max_size=max_terms))
    prec = lo + stride * len(cs) + draw(st.integers(min_value=0,
                                                    max_value=stride))
    return QSeries({lo + stride * k: c for k, c in enumerate(cs)}, prec)


def _packed_mul(f, g):
    """mul's packed branch for any sizes of f and g."""
    w, P = f.order + g.order, min(f.prec + g.order, g.prec + f.order)
    if P <= w:
        return QSeries({}, P)
    return _product_quotient([f, g], None, None, w, P - w, _lattice(f, g))


@given(lattice_series(), lattice_series())
def test_mul_dense_path_matches_oracle_on_wide_coefficients(f, g):
    assert _packed_mul(f, g) == ref_mul(f, g)


def test_mul_dense_path_with_one_wide_outlier():
    # one 400-bit coefficient among small ones sets the slot width
    rng = random.Random(11)
    a = QSeries({-4 + 2 * k: rng.randint(-5, 5) for k in range(400)}, 800)
    a = add(a, QSeries({300: -(2 ** 400) + 1}, 800))
    b = QSeries({k * k: (-1) ** k * (2 * k + 1) for k in range(25)}, 700)
    assert _packed_mul(a, b) == ref_mul(a, b)
    assert _packed_mul(b, a) == ref_mul(a, b)


def _scalar_and_packed_div(f, g):
    # the tightest valid quotient bound, so that the rows run at their
    # narrowest: the bit length of the widest coefficient of the quotient
    scalar = _quotient(f, g)
    ref = truncate(ref_mul(f, ref_invert(g)), scalar.prec)
    bits = max((abs(c) for _, c in ref.items()), default=0).bit_length()
    return scalar, _quotient(f, g, bits)


@pytest.mark.parametrize("D", range(2, 10))
@pytest.mark.parametrize("u", [1, -1])
def test_div_packed_rows_match_scalar_recurrence(D, u):
    # divisor offsets are multiples of L*D and the numerator has a term at
    # offset L, so the compressed stride is exactly D
    rng = random.Random(100 * D + u)
    L = 1 + D % 3
    n = 60 * D + 7
    g = QSeries({0: u, **{L * D * k: rng.randint(-9, 9)
                          for k in range(1, n // D, rng.randint(1, 3))}},
                L * n)
    f = QSeries({-2 * L + L * k: rng.randint(-2 ** 240, 2 ** 240)
                 for k in range(n)}, L * n - 2 * L)
    scalar, packed = _scalar_and_packed_div(f, g)
    assert packed == scalar
    assert first_difference(mul(packed, g), f) is None


@given(st.integers(min_value=2, max_value=9), st.sampled_from([1, -1]),
       st.integers(min_value=1, max_value=3),
       st.lists(st.integers(min_value=-7, max_value=7), min_size=1,
                max_size=12),
       st.lists(wide_coeffs, min_size=1, max_size=120),
       st.integers(min_value=-9, max_value=9))
def test_div_packed_rows_match_scalar_property(D, u, L, g_cs, f_cs, lo):
    g = QSeries({0: u, **{L * D * (k + 1): c for k, c in enumerate(g_cs)}},
                L * D * (len(g_cs) + 1) + 1)
    f = QSeries({lo + L * k: c for k, c in enumerate(f_cs)},
                lo + L * len(f_cs))
    assume(not f.is_zero)
    scalar, packed = _scalar_and_packed_div(f, g)
    assert packed == scalar


def test_div_without_bound_or_stride_is_scalar():
    # D = 1 (offsets 1 and 2) and a missing bound both run 1-slot rows;
    # with D = 1 the kernel never reads the bound, here far too small
    g = QSeries({0: 1, 1: -1, 2: 3}, 50)
    f = QSeries({0: 2 ** 300, 5: -7}, 50)
    assert _quotient(f, g, 1) == _quotient(f, g)
    assert first_difference(mul(_quotient(f, g), g), f) is None


def _old_truncate(f, prec):
    return QSeries({e: c for e, c in f.items() if e < prec}, prec)


@given(lattice_series(max_terms=40), st.data())
def test_truncate_window_lookup_matches_scan(f, data):
    # windows shorter and longer than the stored terms, poles and lattice
    # gaps, down to below the leading exponent
    prec = data.draw(st.integers(min_value=f.order - 5, max_value=f.prec))
    assert truncate(f, prec) == _old_truncate(f, prec)


def test_truncate_short_window_of_long_series():
    f = QSeries({-3 + 3 * k: k + 1 for k in range(5000)}, 15000)
    for prec in (-3, -2, 0, 1, 4, 7, 100):
        assert truncate(f, prec) == _old_truncate(f, prec)


@pytest.mark.parametrize("sign", [1, -1])
def test_mul_dense_slot_width_at_its_bound(sign):
    # with M = 2^a - 1 and c = 2^b - 1, the largest output coefficient is
    # max|dense| * ||lac||_1, the proven bound itself, and its bit length
    # takes every residue mod 8.  The 2-term factor (80 pairs on 40 slots)
    # is scattered; the 5-term one (200 pairs) is shift-added into the
    # packed dense factor.
    assert 40 * 2 < _PAIRS_PER_SLOT * 40 <= 40 * 5
    for a in range(1, 12):
        for b in range(1, 10):
            M, c = sign * (2 ** a - 1), 2 ** b - 1
            dense = QSeries({k: M if k % 3 else -M for k in range(40)}, 40)
            for lac in (QSeries({0: c, 7: -c}, 40),
                        QSeries({3 * j: c for j in range(5)}, 40)):
                got = _packed_mul(lac, dense)
                assert got == ref_mul(lac, dense), (a, b)
                assert max(abs(v) for _, v in got.items()) == (
                    len(lac.items()) * c * (2 ** a - 1))


@pytest.mark.parametrize("D", [2, 5, 9])
@pytest.mark.parametrize("u", [1, -1])
def test_div_packed_slot_width_at_its_bound(D, u):
    # 1/((1 - x)(1 - 2x)) = sum (2^(k+1) - 1) x^k with x = q^D, so with
    # ||f||_1 = 2^a - 1 the quotient coefficient (2^a - 2) * (2^12 - 1) sits
    # just below 2^(a + 12); the term at q^1 makes the stride exactly D
    g = QSeries({0: u, D: -3 * u, 2 * D: 2 * u}, 12 * D)
    for a in range(2, 18):
        f = QSeries({0: 2 ** a - 2, 1: 1}, 12 * D)
        scalar, packed = _scalar_and_packed_div(f, g)
        assert packed == scalar, a
        assert abs(scalar.coefficient(11 * D)) == (2 ** a - 2) * (2 ** 12 - 1)


# ---------------------------------------------------------------------------
# the scatter / packed dispatch of mul

@st.composite
def near_crossover_pair(draw):
    """Two series whose pairwise-product count lies within a few terms of
    _SCATTER_CAP on either side.  Each is dense on a stride-1..3 lattice or
    lacunary, with gaps of up to 200 lattice steps between its terms."""
    nf = draw(st.integers(min_value=1, max_value=64))
    ng = max(1, _SCATTER_CAP // nf + draw(st.integers(min_value=-1,
                                                      max_value=2)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32)))
    out = []
    for n in (nf, ng):
        stride = draw(st.integers(min_value=1, max_value=3))
        gap = draw(st.sampled_from([1, 1, 4, 200]))
        lo = draw(st.integers(min_value=-20, max_value=5))
        ks = sorted(rng.sample(range(n * gap), n))
        cs = [rng.choice([-1, 1]) * rng.randrange(1, 2 ** 70) for _ in ks]
        prec = lo + stride * ks[-1] + 1 + draw(st.integers(min_value=0,
                                                           max_value=50))
        out.append(QSeries({lo + stride * k: c for k, c in zip(ks, cs)},
                           prec))
    return out


@given(near_crossover_pair())
def test_mul_matches_oracle_near_the_crossover(pair):
    f, g = pair
    assert mul(f, g) == ref_mul(f, g)
    assert mul(g, f) == ref_mul(f, g)


def test_mul_dispatch_reads_only_input_sizes(monkeypatch):
    packed = []
    real = qmod.qseries._product_quotient

    def counting(factors, divisor, quotient_bits, w, P, L):
        if len(factors) == 2 and divisor is None:
            packed.append(len(factors[0].items()) * len(factors[1].items()))
        return real(factors, divisor, quotient_bits, w, P, L)

    monkeypatch.setattr(qmod.qseries, "_product_quotient", counting)
    n = _SCATTER_CAP // 32
    dense = QSeries({-2 + 3 * k: k + 1 for k in range(32)}, 96)
    at_cap = QSeries({1 + 3 * k: k - 99 for k in range(n)}, 3 * n + 1)
    above = QSeries({1 + 3 * k: k - 99 for k in range(n + 1)}, 3 * n + 4)
    # a lacunary factor, 40 terms spread over 40,000 exponents, times a
    # polynomial known to the same precision: 1,280 pairs but about 40,000
    # output slots, so the product stays on the scatter path
    wide = QSeries({k * k * 25: (-1) ** k for k in range(40)}, 40_000)
    poly = QSeries({k: k + 1 for k in range(32)}, 40_000)
    assert 32 * 40 > _SCATTER_CAP
    for f, g, expect in ((dense, at_cap, []),
                         (dense, above, [32 * (n + 1)]),
                         (poly, wide, [])):
        packed.clear()
        assert mul(f, g) == ref_mul(f, g)
        assert packed == expect


def test_mul_at_exactly_the_pairs_per_slot_rule():
    # 32 x 32 = 1,024 pairs on 256 slots: the dispatch sends the product
    # to the kernel, and one slot fewer keeps it on the scatter path
    calls = []
    real = qmod.qseries._product_quotient

    def counting(*args):
        calls.append(args[4])
        return real(*args)

    f = QSeries({k: 3 * k - 50 for k in range(32)}, 256)
    for P, expect in ((256, [256]), (257, [])):
        g = QSeries({k: (-1) ** k * (k + 1) for k in range(32)}, P)
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qmod.qseries, "_product_quotient", counting)
            got = mul(QSeries(dict(f.items()), P), g)
        assert 32 * 32 > _SCATTER_CAP
        assert calls == expect
        assert got == ref_mul(QSeries(dict(f.items()), P), g)


def test_packed_mul_of_factor_with_terms_beyond_the_precision():
    # a 600-term polynomial known below q^600 times 3 + (terms at q^600 and
    # beyond): every other term of the second factor is truncated away,
    # whether it is the factor laid out (700 terms) or the term list
    f = QSeries({k: k % 7 - 3 for k in range(600)}, 600)
    g = QSeries({0: 3, **{600 + k: k + 1 for k in range(700)}}, 5000)
    assert mul(f, g) == ref_mul(f, g) == scale(f, 3)
    assert mul(g, f) == scale(f, 3)
    g = QSeries({0: 3, **{600 + k: k + 1 for k in range(10)}}, 5000)
    assert mul(f, g) == mul(g, f) == scale(f, 3)


@pytest.mark.parametrize("bits", [None, 1, 9])
def test_div_by_minus_one_negates(bits):
    # a lone -1, and a -1 whose other terms lie beyond the result's
    # precision, leave the recurrence no steps; it must still negate.  With
    # no steps no rows run, so the bounds 1 and 9, too small for -f, are
    # never read
    f = QSeries({-3: 5, 0: -2 ** 200, 7: 1, 40: 11}, 50)
    for g in (QSeries({0: -1}, 60), QSeries({0: -1, 53: 4, 106: 1}, 200)):
        assert _quotient(f, g, bits) == scale(f, -1)
    g = QSeries({0: -1, 600: 5, 1200: 1}, 5000)
    f = QSeries({k: k % 5 - 2 for k in range(600)}, 600)
    assert _quotient(f, g, bits) == scale(f, -1)


def test_zero_operand_returns_zero_at_the_precision():
    # a zero operand gives a precision at or below the leading exponent
    # w of the result, and mul returns O(q^P) without the kernel
    f = QSeries({-2: 1, 3: 7}, 10)
    for z in (QSeries({}, 6), QSeries({}, -4)):
        P = min(10 + z.prec, z.prec - 2)
        assert mul(f, z) == mul(z, f) == QSeries({}, P)
