import functools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from qmod import (
    EliminationError,
    QSeries,
    UnconstructibleError,
    add,
    build_H,
    build_psi,
    catalog_form,
    echelonize,
    first_difference,
    mul,
    one,
    scale,
    spanning_family,
    sub,
    truncate,
)
from qmod import spans, verify
from qmod.spans import (
    _chain,
    _class_family,
    _normal_form,
    _reduce,
    _triangular,
    psi36_generators,
)


def test_echelonize_two_by_two():
    fam = [QSeries({-1: 1, 1: 1}, 3), QSeries({1: 1}, 3)]
    basis = echelonize(fam)
    assert basis.pivots() == (-1, 1)
    # the q term of the first row is cleared by the second
    assert basis.rows[0].items() == [(-1, 1)]
    assert basis.rows[1].items() == [(1, 1)]


def test_echelonize_is_idempotent():
    fam = [QSeries({-2: 1, 0: 4, 1: -1}, 5),
           QSeries({0: 1, 3: 2}, 5),
           QSeries({-2: 1, 3: 7}, 5)]
    basis = echelonize(fam)
    again = echelonize(list(basis.rows))
    assert again.rows == basis.rows


def test_echelonize_is_order_independent():
    rng = random.Random(3)
    fam = [QSeries({-3: 1, 0: 2, 2: 5}, 6),
           QSeries({-1: -1, 1: 4}, 6),
           QSeries({0: 1, 2: -2}, 6),
           QSeries({2: 1, 5: 9}, 6)]
    base = echelonize(fam).rows
    for _ in range(6):
        shuffled = fam[:]
        rng.shuffle(shuffled)
        assert echelonize(shuffled).rows == base


def test_echelonize_duplicate_pivot_both_orders():
    a = QSeries({1: 1, 2: 1, 3: 4}, 5)
    b = QSeries({1: 1, 2: 2, 3: 1}, 5)
    assert echelonize([a, b]).rows == echelonize([b, a]).rows
    assert echelonize([a, b]).pivots() == (1, 2)


def test_echelonize_normalizes_negative_pivots():
    basis = echelonize([QSeries({2: -1, 3: 5}, 6)])
    assert basis.rows[0].items() == [(2, 1), (3, -5)]


def test_echelonize_truncates_to_common_precision():
    fam = [QSeries({0: 1, 4: 1}, 9), QSeries({1: 1}, 5)]
    rows = echelonize(fam).rows
    assert all(r.prec == 5 for r in rows)


def test_echelonize_rejects_non_unit_pivot():
    with pytest.raises(EliminationError) as exc:
        echelonize([QSeries({1: 2}, 4)])
    assert exc.value.exponent == 1
    assert exc.value.coeff == 2


def test_echelonize_rejects_non_unit_residual():
    fam = [QSeries({1: 1, 2: 1}, 4), QSeries({1: 1, 2: 3}, 4)]
    with pytest.raises(EliminationError) as exc:
        echelonize(fam)
    assert exc.value.exponent == 2
    assert exc.value.coeff == 2


def test_echelonize_drops_dependent_rows():
    f = QSeries({1: 1, 2: 1}, 4)
    basis = echelonize([f, f, QSeries({1: 1, 2: 1}, 4)])
    assert len(basis.rows) == 1


def test_row_with_missing_pivot_raises():
    basis = echelonize([QSeries({0: 1}, 3)])
    with pytest.raises(UnconstructibleError):
        basis.row_with_pivot(-5)


def test_spanning_family_27_leading_exponents():
    fam = spanning_family(27, 3, 10)
    assert sorted(f.order for f in fam) == [-3, -2, -1, 1]
    assert all(f.prec >= 10 for f in fam)
    # leading coefficients are all units
    assert all(f.coefficient(f.order) == 1 for f in fam)


def test_spanning_family_36_leading_exponents():
    fam = spanning_family(36, 1, 10)
    assert sorted(f.order for f in fam) == [-1, 1]
    fam = spanning_family(36, 9, 10)
    assert sorted(f.order for f in fam) == [-9, -7, -5, -3, -1, 1]


def test_spanning_family_validation():
    with pytest.raises(ValueError):
        spanning_family(27, 0, 10)
    with pytest.raises(ValueError):
        spanning_family(27, 2, 1)
    with pytest.raises(ValueError):
        spanning_family(36, 2, 2)
    with pytest.raises(ValueError):
        spanning_family(32, 2, 10)


@pytest.mark.parametrize("level,modulus", [(27, 3), (36, 6)])
def test_class_family_is_one_chain(level, modulus):
    # one member per pole of the class of -pole, from the smallest up to
    # pole, so the leading exponents step by the class modulus
    for pole in range(-1, 40, 1 if level == 27 else 2):
        if pole == 0:
            continue
        fam = _class_family(level, pole, 10)
        assert [-f.order for f in fam] == [
            k for k in range(-1, pole + 1) if k and (k - pole) % modulus == 0]
        assert all(a.order - b.order == modulus for a, b in zip(fam, fam[1:]))
        assert all(f.coefficient(f.order) == 1 and f.prec >= 10 for f in fam)


def test_L1_cubed_is_a_polynomial_in_L2():
    # the relation that puts the level-27 class members in the span of the
    # chain g27*L1^d0*L2^j and back (see spans._class_family)
    l1, l2 = catalog_form("L1", 80), catalog_form("L2", 80)
    rhs = add(mul(l2, l2), add(scale(l2, 9), scale(one(80), 27)))
    diff = sub(mul(mul(l1, l1), l1), rhs)
    assert diff.is_zero and diff.prec >= 70


def test_build_H_27_examples():
    assert build_H(27, -1, 5).items() == [(1, 1), (4, -2)]
    assert build_H(27, 1, 3).items() == [(-1, 1), (2, -1)]
    assert build_H(27, 2, 5).items() == [(-2, 1), (4, -5)]


def test_build_H_reproduces_catalog_forms():
    assert first_difference(build_H(27, -1, 40), catalog_form("g27", 40)) is None
    assert first_difference(build_H(27, 1, 40), catalog_form("G27", 40)) is None
    assert first_difference(build_H(36, -1, 40), catalog_form("g36", 40)) is None
    assert first_difference(build_H(36, 1, 40), catalog_form("G36", 40)) is None


@pytest.mark.parametrize("m", [-1, 1, 2, 3, 4, 5, 7, 10])
def test_build_H_27_normal_form(m):
    h = build_H(27, m, 12)
    assert h.order == -m
    assert h.coefficient(h.order) == 1
    # zeros strictly between the pole and q^2
    for e in range(-m + 1, 2):
        assert h.coefficient(e) == 0
    # support stays in the residue class of -m mod 3
    assert all(e % 3 == (-m) % 3 for e in h.support())


@pytest.mark.parametrize("m", [-1, 1, 3, 5, 7, 9])
def test_build_H_36_normal_form(m):
    h = build_H(36, m, 12)
    assert h.order == -m
    assert h.coefficient(h.order) == 1
    for e in range(-m + 1, 3):
        assert h.coefficient(e) == 0
    assert all(e % 6 == (-m) % 6 for e in h.support())


def test_build_H_constant_term_vanishes_for_m3():
    # the m = 3 row lives in the class 0 mod 3, so a constant term is
    # possible a priori; elimination must remove it
    h = build_H(27, 3, 10)
    assert h.coefficient(0) == 0
    assert all(e % 3 == 0 for e in h.support())


def test_build_H_unique_under_family_changes():
    # deeper families and different precisions give the same series
    a = build_H(27, 2, 9)
    b = truncate(build_H(27, 2, 20), 9)
    assert a == b
    c = build_H(27, 2, 9)
    assert a == c
    deep = echelonize(spanning_family(27, 8, 9)).row_with_pivot(-2)
    assert first_difference(a, deep) is None


def test_build_H_rejects_bad_pole():
    with pytest.raises(UnconstructibleError):
        build_H(27, 0, 5)
    with pytest.raises(UnconstructibleError):
        build_H(27, -2, 5)
    with pytest.raises(UnconstructibleError):
        build_H(36, 2, 6)
    with pytest.raises(ValueError):
        build_H(32, 1, 5)


def test_build_psi_27_p2_is_L1():
    psi = build_psi(27, 2, 4)
    assert psi.items() == [(-2, 1), (1, 1)]
    assert first_difference(build_psi(27, 2, 30), catalog_form("L1", 30)) is None


def test_build_psi_27_p5():
    psi = build_psi(27, 5, 4)
    assert psi.order == -5
    assert psi.coefficient(0) == 0
    assert all(e % 3 == 1 for e in psi.support())
    # q-coefficient is -C27(5) = 1
    assert psi.coefficient(1) == 1


def test_build_psi_27_p11_normal_form():
    psi = build_psi(27, 11, 4)
    assert psi.order == -11
    # every intermediate pole the monomial family can reach is cleared
    for e in (-8, -5, -2, 0):
        assert psi.coefficient(e) == 0
    assert all(e % 3 == 1 for e in psi.support())


def test_build_psi_36_p5():
    psi = build_psi(36, 5, 7)
    psi2, psi3 = psi36_generators(12)
    direct = mul(psi2, psi3)
    assert first_difference(psi, direct) is None
    # q-coefficient is -C36(5) = 3
    assert psi.coefficient(1) == 3
    assert all(e % 6 == 1 for e in psi.support())


def test_psi36_generators_shapes():
    psi2, psi3 = psi36_generators(8)
    assert psi2.prec >= 8 and psi3.prec >= 8
    assert psi2.items()[:2] == [(-2, 1), (4, 1)]
    assert psi3.items()[:2] == [(-3, 1), (3, 2)]
    assert all(e % 6 == 4 for e in psi2.support())
    assert all(e % 6 == 3 for e in psi3.support())


def test_build_psi_rejects_bad_parameters():
    with pytest.raises(UnconstructibleError):
        build_psi(27, 7, 5)   # split prime
    with pytest.raises(UnconstructibleError):
        build_psi(27, 9, 5)   # not prime
    with pytest.raises(UnconstructibleError):
        build_psi(36, 7, 5)   # 7 = 1 mod 6
    with pytest.raises(ValueError):
        build_psi(64, 3, 5)


# ---------------------------------------------------------------------------
# the one-row reductions against full echelonization

_PRIMES_101 = [p for p in range(2, 102)
               if all(p % d for d in range(2, int(p ** 0.5) + 1))]


def _H_poles(level):
    poles = [-1] + list(range(1, 31)) + [121, 289]
    if level == 27:
        return poles
    return [m for m in poles if m % 2]


@pytest.mark.parametrize("level,m", [(level, m) for level in (27, 36)
                                     for m in _H_poles(level)])
def test_build_H_matches_full_echelonization(level, m):
    for prec in ((2 if level == 27 else 3), 30, 60):
        basis = echelonize(spanning_family(level, max(m, 1), prec))
        oracle = truncate(basis.row_with_pivot(-m), prec)
        assert build_H(level, m, prec) == oracle, (level, m, prec)


def _full_monomial_family(level, p, prec):
    """Every in-class monomial gen2^a gen3^b with 0 < 2a+3b <= p, with the
    generators at the precision build_psi uses."""
    if level == 27:
        gen2 = catalog_form("L1", prec + p)
        gen3 = catalog_form("L2", prec + p)
    else:
        gen2, gen3 = psi36_generators(prec + p + 2)

    def in_class(a, b):
        if level == 27:
            return a % 3 == (-p) % 3
        return a % 3 == 1 and b % 2 == 1

    pow2, pow3 = [None, gen2], [None, gen3]
    while len(pow2) <= p // 2:
        pow2.append(mul(pow2[-1], gen2))
    while len(pow3) <= p // 3:
        pow3.append(mul(pow3[-1], gen3))
    family = []
    for b in range(p // 3 + 1):
        for a in range((p - 3 * b) // 2 + 1):
            if a + b and in_class(a, b):
                fa, fb = pow2[a], pow3[b]
                f = fb if a == 0 else fa if b == 0 else mul(fa, fb)
                assert f.order == -(2 * a + 3 * b)
                family.append(f)
    return family


@pytest.mark.parametrize("level,p", [(27, p) for p in _PRIMES_101
                                     if p % 3 == 2]
                         + [(36, p) for p in _PRIMES_101 if p % 6 == 5])
def test_build_psi_matches_full_monomial_family(level, p):
    for prec in (1, 30, 60):
        basis = echelonize(_full_monomial_family(level, p, prec))
        oracle = truncate(basis.row_with_pivot(-p), prec)
        assert build_psi(level, p, prec) == oracle, (level, p, prec)


def test_dropped_same_pole_monomial_reduces_to_zero():
    # L1^4 and L1*L2^2 share the pole 8 at level 27; psi2^4*psi3 and
    # psi2*psi3^3 share the pole 11 at level 36.  Each difference reduces
    # to zero against the kept monomials, one per pole order.
    prec = 20
    l1 = catalog_form("L1", prec + 40)
    l2 = catalog_form("L2", prec + 40)
    psi2, psi3 = psi36_generators(prec + 40)
    cases = [
        (_chain(l1, l2, 14), mul(mul(l1, l1), mul(l1, l1)), -8),
        (_chain(mul(psi2, psi3), mul(psi3, psi3), 17),
         mul(mul(mul(psi2, psi2), mul(psi2, psi2)), psi3), -11),
    ]
    for kept, dropped, pivot in cases:
        rows = _triangular(kept, prec)
        diff = sub(truncate(dropped, prec), rows[pivot])
        assert diff.order > pivot
        assert not diff.is_zero
        assert _reduce(diff, rows).is_zero
        assert _reduce(diff, rows).prec == prec


def test_build_psi_rejects_precision_below_one():
    for prec in (0, -3):
        with pytest.raises(ValueError, match="prec must be at least 1"):
            build_psi(27, 5, prec)


def test_normal_form_of_a_small_triangular_family():
    fam = [QSeries({-3: 1, -1: 2, 0: 5, 2: 1}, 6),
           QSeries({-1: -1, 0: 3, 4: 2}, 6),
           QSeries({0: 1, 1: -4, 5: 1}, 7),
           QSeries({2: 1, 3: 3}, 6)]
    basis = echelonize(fam)
    for pivot in (-3, -1, 0, 2):
        assert _normal_form(fam, pivot, 6) == basis.row_with_pivot(pivot)
        assert (_normal_form(fam, pivot, 3)
                == truncate(basis.row_with_pivot(pivot), 3))
    with pytest.raises(UnconstructibleError):
        _normal_form(fam, 1, 6)
    with pytest.raises(EliminationError) as exc:
        _normal_form(fam + [QSeries({1: 2}, 6)], 0, 6)
    assert (exc.value.exponent, exc.value.coeff) == (1, 2)
    with pytest.raises(RuntimeError, match="share the leading exponent"):
        _normal_form(fam + [QSeries({2: 1}, 6)], 0, 6)


# ---------------------------------------------------------------------------
# the normal-form memo, and the generator expansions in the shared store

def _build(kind):
    return build_H if kind == "H" else build_psi


def _clear_memos():
    spans._NORMAL_FORMS.clear()
    verify.DEFAULT_CACHE._data.clear()


def _memo_state():
    return dict(spans._NORMAL_FORMS), dict(verify.DEFAULT_CACHE._data)


@functools.lru_cache(maxsize=None)
def _fresh(kind, level, m, prec):
    _clear_memos()
    return _build(kind)(level, m, prec)


@functools.lru_cache(maxsize=None)
def _echelon_row(kind, level, m, prec):
    if kind == "H":
        family = spanning_family(level, max(m, 1), prec)
    else:
        family = _full_monomial_family(level, m, prec)
    return truncate(echelonize(family).row_with_pivot(-m), prec)


# (kind, level, pole, least precision) of every request the memo tests draw
_MEMO_TARGETS = (
    [("H", 27, m, 2) for m in [-1] + list(range(1, 31))]
    + [("H", 36, m, 3) for m in range(-1, 31, 2)]
    + [("psi", 27, p, 1) for p in _PRIMES_101 if p % 3 == 2 and p < 50]
    + [("psi", 36, p, 1) for p in _PRIMES_101 if p % 6 == 5 and p < 50])

_memo_requests = st.lists(
    st.tuples(st.sampled_from(_MEMO_TARGETS),
              st.sampled_from([0, 1, 7, 20, 38])).map(
        lambda t: (*t[0][:3], t[0][3] + t[1])),
    min_size=1, max_size=12)


@settings(max_examples=40)
@given(_memo_requests)
def test_memo_matches_fresh_builds_and_the_echelon_oracle(requests):
    # every answer, precision included, is what a build from empty memos
    # gives, whatever requests came before it
    expected = [_fresh(*r) for r in requests]
    _clear_memos()
    for (kind, level, m, prec), want in zip(requests, expected):
        got = _build(kind)(level, m, prec)
        assert got == want and got.prec == prec, (kind, level, m, prec)
        assert got == _echelon_row(kind, level, m, prec)


def _counting(bindings):
    """Wrap the named (module, name) bindings; returns the list of calls,
    by name, and a function that restores them."""
    calls, saved = [], {(m, n): getattr(m, n) for m, n in bindings}

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)
        return wrapper

    for (module, name), f in saved.items():
        setattr(module, name, counted(name, f))
    return calls, lambda: [setattr(m, n, f) for (m, n), f in saved.items()]


@settings(max_examples=25, deadline=None)
@given(_memo_requests, st.sampled_from(_MEMO_TARGETS))
def test_products_of_a_request_do_not_depend_on_earlier_requests(
        before, target):
    # a normal form the memo does not hold forms the same products whatever
    # was requested before it: no chain is shared between two requests
    kind, level, m, prec = target
    before = [r for r in before if r[:3] != target[:3]]
    counts = []
    for history in (before, []):
        _clear_memos()
        for r in history:
            _build(r[0])(*r[1:])
        calls, restore = _counting([(spans, "mul")])
        try:
            _build(kind)(level, m, prec)
        finally:
            restore()
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_memo_keeps_each_form_at_the_highest_precision():
    want = _fresh("H", 27, 10, 12)   # clears the memos
    build_H(27, 10, 40)
    entry = spans._NORMAL_FORMS[("H", 27, 10)]
    assert entry.prec == 40
    # a request at a lower precision is the entry truncated: no rebuild
    assert build_H(27, 10, 12) == want
    assert spans._NORMAL_FORMS[("H", 27, 10)] is entry
    # _memo itself hands out the held entry and builds nothing on a hit
    assert spans._memo(spans._NORMAL_FORMS, ("H", 27, 10), 12, None) is entry
    # a higher precision replaces the entry
    build_H(27, 10, 41)
    assert spans._NORMAL_FORMS[("H", 27, 10)].prec == 41
    # the generators stay at the longest expansion so far: 41 + 10 + 4
    build_H(27, 4, 12)
    assert {n: f.prec for n, f in verify.DEFAULT_CACHE._data.items()} == {
        "g27": 55, "L1": 55, "L2": 55}
    # and are handed out truncated to the precision asked for
    assert [f.prec for f in spans._generators(("g27", "L1"), 20)] == [20, 20]
    _clear_memos()
    build_psi(36, 23, 5)
    build_psi(36, 5, 50)
    assert {k: f.prec for k, f in spans._NORMAL_FORMS.items()} == {
        ("psi", 36, 23): 5, ("psi", 36, 5): 50}
    assert {n: f.prec
            for n, f in verify.DEFAULT_CACHE._data.items()} == {"L36": 59}


def test_held_form_and_generators_form_no_product_or_expansion():
    _clear_memos()
    for m in (38, 39, 40):   # one chain per class
        build_H(27, m, 30)
    build_psi(27, 47, 30)
    calls, restore = _counting([(spans, "mul"), (verify, "catalog_form")])
    try:
        for m in (38, 39, 40):
            build_H(27, m, 12)
        build_psi(27, 47, 30)
        assert calls == []
        build_psi(27, 5, 30)   # a new form from held generators
        assert "mul" in calls and "catalog_form" not in calls
        build_H(27, 41, 40)    # past the held generators: an expansion
        assert "catalog_form" in calls
    finally:
        restore()


def test_rejected_request_leaves_the_memo_unchanged():
    _clear_memos()
    for level, m, p in ((27, 4, 5), (36, 5, 11)):
        build_H(level, m, 10)
        build_psi(level, p, 10)
    before = _memo_state()
    rejected = [
        (build_H, 27, 0, 100),      # no pole 0 at level 27
        (build_H, 36, 50, 100),     # even pole at level 36
        (build_H, 27, 200, 1),      # prec below 2
        (build_H, 27, 4, 1),        # prec below 2, form held
        (build_H, 36, 201, 2),      # prec below 3
        (build_H, 36, 5, 2),        # prec below 3, form held
        (build_H, 32, 1, 10),       # no span at level 32
        (build_psi, 27, 125, 100),  # 125 = 2 mod 3 is not prime
        (build_psi, 27, 7, 100),    # 7 = 1 mod 3
        (build_psi, 27, 5, 0),      # prec below 1, form held
        (build_psi, 36, 11, 0),     # prec below 1
        (build_psi, 36, 7, 100),    # 7 = 1 mod 6
        (build_psi, 64, 3, 5),      # no psi at level 64
    ]
    for build, level, m, prec in rejected:
        with pytest.raises(ValueError):
            build(level, m, prec)
        for memo, held in zip(_memo_state(), before):
            assert memo.keys() == held.keys()
            assert all(memo[k] is held[k] for k in held)


def test_failed_build_never_enters_the_memo():
    _clear_memos()
    uncertified = [QSeries({-1: 1}, 5)]
    with pytest.raises(RuntimeError, match="certified only to precision 5"):
        spans._memo(spans._NORMAL_FORMS, ("H", 27, 1), 10,
                    spans._certified, uncertified, 10)
    assert spans._NORMAL_FORMS == {}


def test_memo_is_thread_safe():
    requests = [("H", 27, m, prec) for m in (2, 5, 29) for prec in (5, 30)]
    requests += [("psi", 36, p, prec) for p in (5, 29) for prec in (3, 40)]
    want = [_fresh(*r) for r in requests * 3]
    _clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda r: _build(r[0])(*r[1:]), requests * 3,
                              timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    # no update was lost: the entries cover every request, so asking again
    # replaces nothing
    forms, expansions = _memo_state()
    for kind, level, m, prec in requests:
        _build(kind)(level, m, prec)
    assert all(spans._NORMAL_FORMS[k] is v for k, v in forms.items())
    assert all(verify.DEFAULT_CACHE._data[k] is v
               for k, v in expansions.items())
