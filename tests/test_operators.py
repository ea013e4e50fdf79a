import pytest
from hypothesis import given, strategies as st

from functools import reduce

from qmod import (
    PrecisionError,
    QSeries,
    add,
    apply_U,
    apply_V,
    first_difference,
    hecke,
    is_inert,
    kronecker,
    mul,
    one,
    scale,
    theta,
    twist,
    truncate,
)
from _oracles import ref_kronecker

coeffs = st.integers(min_value=-30, max_value=30)


@st.composite
def series(draw, max_prec=30):
    prec = draw(st.integers(min_value=1, max_value=max_prec))
    lo = draw(st.integers(min_value=-10, max_value=prec - 1))
    d = draw(st.dictionaries(
        st.integers(min_value=lo, max_value=prec - 1), coeffs, max_size=10))
    return QSeries(d, prec)


@given(series(), st.sampled_from([1, 2, 3, 5, 7]))
def test_U_after_V_is_identity(f, m):
    assert apply_U(apply_V(f, m), m) == f


@given(series(), st.sampled_from([2, 3, 5]))
def test_U_picks_divisible_exponents(f, m):
    g = apply_U(f, m)
    assert g.prec == -(-f.prec // m)
    for e, c in g.items():
        assert c == f.coefficient(m * e)


@given(series(), st.sampled_from([2, 3, 5]))
def test_V_scales_exponents(f, m):
    g = apply_V(f, m)
    assert g.prec == m * (f.prec - 1) + 1
    assert g.items() == [(m * e, c) for e, c in f.items()]


def test_U_drops_off_lattice_terms():
    f = QSeries({1: 4, 2: 5, 3: 6, 4: 7}, 6)
    assert apply_U(f, 2).items() == [(1, 5), (2, 7)]
    assert apply_U(QSeries({1: 1, 5: 2}, 6), 3).is_zero


def _scan_U(f, m):
    return QSeries({e // m: c for e, c in f.items() if e % m == 0},
                   -(-f.prec // m))


class _ScanSpy(dict):
    """A term dict that records whether its items were scanned."""

    scanned = False

    def items(self):
        self.scanned = True
        return super().items()


def _U_looks_up(f, m):
    # apply_U's branch rule: fewer result exponents than stored terms
    return -(-f.prec // m) - -(-f.order // m) < len(f.items())


@given(st.one_of(series(max_prec=60),
                 st.builds(lambda lo, cs: QSeries(
                     {lo + k: c for k, c in enumerate(cs)}, lo + len(cs)),
                     st.integers(min_value=-20, max_value=20),
                     st.lists(coeffs, max_size=60))),
       st.integers(min_value=2, max_value=70))
def test_U_lookup_and_scan_agree(f, m):
    assert apply_U(f, m) == _scan_U(f, m)


@pytest.mark.parametrize("f,m,lookup", [
    # dense with negative exponents: lookup, also for m above the precision
    (QSeries({e: e or 5 for e in range(-7, 40)}, 40), 5, True),
    (QSeries({e: e or 5 for e in range(-7, 40)}, 40), 45, True),
    # lacunary: a scan, unless m leaves a single exponent
    (QSeries({-9: 1, 0: 2, 30: -3, 1000: 4}, 1001), 3, False),
    (QSeries({-9: 1, 0: 2, 30: -3, 1000: 4}, 1001), 2000, True),
    # only negative exponents, so a negative precision
    (QSeries({-10: 1, -8: 2, -6: 3, -4: 4}, -3), 2, False),
    (QSeries({-10: 1, -8: 2, -6: 3, -4: 4}, -3), 4, True),
    # the zero series
    (QSeries({}, 10), 3, False),
    (QSeries({}, 10), 20, False),
])
def test_U_branches_on_fixed_series(f, m, lookup):
    assert _U_looks_up(f, m) is lookup
    spy = QSeries._trusted(_ScanSpy(f._c), f.prec)
    assert apply_U(spy, m) == _scan_U(f, m)
    assert spy._c.scanned is not lookup


def test_U_lookup_of_a_long_series():
    f = QSeries({-3 + 3 * k: k + 1 for k in range(5000)}, 15000)
    for m in (9, 27, 243, 20000):
        assert _U_looks_up(f, m)
        assert apply_U(f, m) == _scan_U(f, m)
    assert apply_U(f, 243).items()[:2] == [(0, 2), (1, 83)]


# sparse series, and dense runs whose precision may be zero or negative
_windowed = st.one_of(
    series(max_prec=60),
    st.builds(lambda lo, cs: QSeries({lo + k: c for k, c in enumerate(cs)},
                                     lo + len(cs)),
              st.integers(min_value=-20, max_value=20),
              st.lists(coeffs, max_size=60)))


@given(_windowed, st.integers(min_value=1, max_value=70), st.data())
def test_U_window_is_the_truncated_image(f, m, data):
    full = apply_U(f, m)
    window = data.draw(st.integers(min_value=full.prec - 80,
                                   max_value=full.prec))
    assert apply_U(f, m, window) == truncate(full, window)
    with pytest.raises(PrecisionError):
        apply_U(f, m, full.prec + 1)


@given(_windowed, st.sampled_from([2, 3, 5]),
       st.integers(min_value=1, max_value=3))
def test_hecke_windows_match_the_unwindowed_sum(f, p, n):
    # sum_j p^j V(p^j)(U(p^(n-j)) f), every term taken whole
    whole = reduce(add, [scale(apply_V(apply_U(f, p ** (n - j)), p ** j),
                               p ** j) for j in range(n + 1)])
    assert hecke(f, p, n) == whole


def test_UV_validate_index():
    with pytest.raises(ValueError):
        apply_U(one(3), 0)
    with pytest.raises(ValueError):
        apply_V(one(3), -2)


@given(series())
def test_theta_multiplies_by_exponent(f):
    g = theta(f)
    assert g.prec == f.prec
    assert g.items() == [(e, e * c) for e, c in f.items() if e != 0]


@given(series(), series())
def test_theta_leibniz_rule(f, g):
    lhs = theta(mul(f, g))
    rhs = add(mul(theta(f), g), mul(f, theta(g)))
    assert first_difference(lhs, rhs) is None


def test_theta_kills_constants():
    assert theta(one(9)).is_zero
    assert theta(QSeries({}, 4)).is_zero


@given(series(), st.sampled_from([2, 3, 5]))
def test_hecke_n1_closed_form(f, p):
    got = hecke(f, p, 1)
    want = add(apply_U(f, p), scale(apply_V(f, p), p))
    assert got == want


def test_hecke_weight_two_prime_square():
    # the j-th term is scaled by p^j
    f = QSeries({e: e * e + 1 for e in range(-4, 20)}, 20)
    want = add(apply_U(f, 4),
               add(scale(apply_V(apply_U(f, 2), 2), 2),
                   scale(apply_V(f, 4), 4)))
    assert hecke(f, 2, 2) == want


def test_hecke_validates_arguments():
    with pytest.raises(ValueError):
        hecke(one(3), 4, 1)
    with pytest.raises(ValueError):
        hecke(one(3), 2, 0)


@given(st.integers(min_value=-60, max_value=60),
       st.integers(min_value=-200, max_value=200))
def test_kronecker_matches_factorization_oracle(d, n):
    assert kronecker(d, n) == ref_kronecker(d, n)


def test_kronecker_closed_forms():
    # (8|.) has period 8; (12|.) has period 12
    chi8 = [kronecker(8, n) for n in range(8)]
    assert chi8 == [0, 1, 0, -1, 0, -1, 0, 1]
    chi12 = [kronecker(12, n) for n in range(12)]
    assert chi12 == [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]
    assert kronecker(8, -1) == 1
    assert kronecker(12, -1) == 1


@given(st.sampled_from([8, 12]), st.integers(min_value=-300, max_value=300),
       st.integers(min_value=-300, max_value=300))
def test_kronecker_is_completely_multiplicative(d, a, b):
    assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)


def test_twist_semantics_with_poles():
    f = QSeries({-1: 3, 2: 5, 3: 7}, 5)
    t = twist(f, 8)
    assert t.prec == f.prec
    # (8|-1) = 1, (8|2) = 0, (8|3) = -1
    assert t.items() == [(-1, 3), (3, -7)]


@given(series(), st.sampled_from([8, 12]))
def test_twist_coefficientwise(f, d):
    t = twist(f, d)
    assert t.prec == f.prec
    for e in range(f.order if not f.is_zero else 0, f.prec):
        assert t.coefficient(e) == kronecker(d, e) * f.coefficient(e)


@given(series(), st.sampled_from([8, 12]))
def test_double_twist_projects_onto_coprime_support(f, d):
    tt = twist(twist(f, d), d)
    for e, c in tt.items():
        assert c == f.coefficient(e)
        assert kronecker(d, e) != 0


def test_is_inert_tables():
    # disc -3: inert means p = 2 mod 3; disc -4: p = 3 mod 4
    assert is_inert(2, -3) and is_inert(5, -3) and is_inert(11, -3)
    assert not is_inert(3, -3) and not is_inert(7, -3) and not is_inert(13, -3)
    assert is_inert(3, -4) and is_inert(7, -4) and is_inert(11, -4)
    assert not is_inert(2, -4) and not is_inert(5, -4) and not is_inert(13, -4)
    with pytest.raises(ValueError):
        is_inert(9, -3)
    with pytest.raises(ValueError):
        is_inert(5, -7)


@pytest.mark.parametrize("disc", [8, 12, -4, 3])
def test_twist_table_matches_kronecker_per_term(disc):
    f = QSeries({n: 2 * n + 1 for n in range(-500, 501)}, 501)
    t = twist(f, disc)
    assert t.prec == f.prec
    for n in range(-500, 501):
        assert t.coefficient(n) == kronecker(disc, n) * (2 * n + 1), n


def test_kronecker_period_of_discriminants():
    # the twist table rests on (d|n) having period |d| on n > 0 for nonzero
    # d = 0, 1 mod 4; d = 3 mod 4 has no such period
    for d in range(-60, 61):
        periodic = all(kronecker(d, n) == kronecker(d, n + abs(d))
                       for n in range(1, 600))
        if d and d % 4 in (0, 1):
            assert periodic, d
        elif d % 4 == 3:
            assert not periodic, d
