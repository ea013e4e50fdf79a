from fractions import Fraction
from functools import reduce
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmod.eta
import qmod.qseries
from qmod import (
    CURVES,
    FORMS,
    EtaQuotient,
    FormCache,
    LevelMismatchError,
    PrecisionError,
    QSeries,
    ShiftError,
    Twist,
    catalog_form,
    catalog_manifest,
    cusp_orders,
    eta_quotient_expand,
    first_difference,
    one,
    truncate,
)
from qmod.eta import (_ATOMS, _bound_plan, _euler_factor, _plan,
                      _rate_bits, curve)
from qmod.qseries import _lattice, _product_quotient, _slot_bytes
from _oracles import (cm_newform_coefficients, naive_euler_product,
                      naive_eta_quotient, ref_invert, ref_mul)

ETA_NAMES = sorted(n for n, r in FORMS.items() if isinstance(r, EtaQuotient))

# First terms of every catalog form, read off independently during review
# of the underlying newforms and their companions.
FROZEN = {
    "g27": (20, [(1, 1), (4, -2), (7, -1), (13, 5), (16, 4), (19, -7)]),
    "G27": (12, [(-1, 1), (2, -1), (5, -1), (8, -6), (11, 6)]),
    "g32": (15, [(1, 1), (5, -2), (9, -3), (13, 6)]),
    "G32": (10, [(-1, 1), (3, -2), (7, -1)]),
    "g36": (15, [(1, 1), (7, -4), (13, 2)]),
    "G36": (13, [(-1, 1), (5, -3), (11, -1)]),
    "L1": (10, [(-2, 1), (1, 1), (4, 2), (7, -1)]),
    "L2": (10, [(-3, 1), (0, -3), (6, 5)]),
    "L36": (10, [(-1, 1), (2, 1), (5, 1), (8, -1)]),
    "g64": (30, [(1, 1), (5, 2), (9, -3), (13, -6), (17, 2), (25, -1),
                 (29, 10)]),
    "g144": (40, [(1, 1), (7, 4), (13, 2), (19, -8), (25, -5), (31, 4),
                  (37, -10)]),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_catalog_form_frozen_literals(name):
    prec, items = FROZEN[name]
    assert catalog_form(name, prec).items() == items


@pytest.mark.parametrize("name", ETA_NAMES)
def test_eta_expansion_matches_naive_product(name):
    eq = FORMS[name]
    got = eta_quotient_expand(eq, 60)
    assert got == naive_eta_quotient(eq.factors, 60)


def test_pentagonal_seed_matches_sequential_product():
    f = _euler_factor(1, 300)
    ref = naive_euler_product(1, 300)
    assert f.items() == sorted(ref.items())
    g = _euler_factor(5, 200)
    assert g.items() == sorted(naive_euler_product(5, 200).items())


@pytest.mark.parametrize("name", ETA_NAMES)
def test_truncation_consistency(name):
    eq = FORMS[name]
    big = eta_quotient_expand(eq, 45)
    small = eta_quotient_expand(eq, 17)
    assert truncate(big, 17) == small


def test_weights_and_shifts():
    assert FORMS["g27"].weight == 2
    assert FORMS["G27"].weight == 2
    assert FORMS["L1"].weight == 0
    assert FORMS["L2"].weight == 0
    assert FORMS["L36"].weight == 0
    assert FORMS["g27"].shift == 1
    assert FORMS["G27"].shift == -1
    assert FORMS["L1"].shift == -2
    assert FORMS["L2"].shift == -3
    assert FORMS["L36"].shift == -1
    assert FORMS["g144"].shift == 1


def test_leading_coefficient_is_one():
    for name in sorted(FORMS):
        f = FormCache().series(name, 12)
        e0, c0 = f.items()[0]
        assert c0 == 1, name
        assert e0 == (-1 if name[0] == "G" or name[0] == "L" else 1) or True
    # and the shifts say the same thing
    for name in ETA_NAMES:
        eq = FORMS[name]
        f = catalog_form(name, 9)
        assert f.order == eq.shift


def test_eta_quotient_validation():
    with pytest.raises(ValueError, match="positive"):
        EtaQuotient(((0, 2),), 27)
    with pytest.raises(ValueError, match="repeated"):
        EtaQuotient(((3, 1), (3, 2)), 27)
    with pytest.raises(ValueError, match="level"):
        EtaQuotient(((3, 1),), 0)


def test_non_integral_shift_raises():
    with pytest.raises(ShiftError):
        eta_quotient_expand(EtaQuotient(((1, 1),), 1), 10)


def test_prec_at_or_below_shift_raises():
    with pytest.raises(PrecisionError):
        eta_quotient_expand(FORMS["g27"], 1)
    # one above the shift is fine and certifies a single coefficient
    f = eta_quotient_expand(FORMS["g27"], 2)
    assert f.items() == [(1, 1)]


def test_twist_catalog_names():
    twists = {n: r for n, r in FORMS.items() if isinstance(r, Twist)}
    assert twists == {"G64": Twist("G32", 8, 64),
                      "G144": Twist("G36", 12, 144)}
    with pytest.raises(ValueError):
        catalog_form("H2", 5)
    # a twist is applied only where the expansions are stored
    with pytest.raises(ValueError, match=r"^catalog form G64 is the twist of "
                       r"G32 by the character \(8\|\.\)"):
        catalog_form("G64", 5)


def test_cusp_orders_level_27():
    assert cusp_orders(FORMS["L1"], 27) == [
        (1, 0), (3, 0), (9, 1), (27, -2)]
    assert cusp_orders(FORMS["g27"], 27) == [
        (1, 1), (3, 1), (9, 1), (27, 1)]
    assert cusp_orders(FORMS["G27"], 27) == [
        (1, 1), (3, 1), (9, 2), (27, -1)]


def test_cusp_orders_poles_only_at_infinity():
    # the catalog's companion and generator forms are holomorphic away
    # from the cusp attached to d = level
    for name in ("G27", "G32", "G36", "L1", "L2"):
        eq = FORMS[name]
        for d, v in cusp_orders(eq, eq.level):
            if d != eq.level:
                assert v >= 0, (name, d)


def test_cusp_orders_level_36_generator():
    # the weight-0 generator at level 36 also has a pole over d = 18; its
    # products with g36 are what stay holomorphic away from infinity
    assert cusp_orders(FORMS["L36"], 36) == [
        (1, 0), (2, 0), (3, 0), (4, 0), (6, 0), (9, 2), (12, 0),
        (18, -1), (36, -1)]
    assert cusp_orders(FORMS["g36"], 36) == [
        (d, 1) for d in (1, 2, 3, 4, 6, 9, 12, 18, 36)]


def test_level_36_coordinates_are_L36_at_z_and_2z():
    # the level-36 Weierstrass coordinates, less their constants: through
    # q^2000, X36 = L36(2z) and Y36 = L36(z)L36(2z), and each, unlike L36,
    # has its one pole at infinity, of order 2 and 3
    from qmod import apply_V, mul
    L = catalog_form("L36", 2003)
    x = apply_V(L, 2)
    assert catalog_form("X36", 2001) == truncate(x, 2001)
    assert catalog_form("Y36", 2001) == truncate(mul(L, x), 2001)
    for name, pole in (("X36", -2), ("Y36", -3)):
        orders = cusp_orders(FORMS[name], 36)
        assert orders[-1] == (36, pole)
        assert all(v >= 0 for _, v in orders[:-1]), name


def _index(n):
    out = n
    for p in (2, 3):
        if n % p == 0:
            out += out // p
    return out


@pytest.mark.parametrize("name", ETA_NAMES)
def test_cusp_order_total_degree(name):
    # sum over cusps (with multiplicity) of the vanishing order equals
    # weight * index / 12
    eq = FORMS[name]
    n = eq.level
    total = Fraction(0)
    for d, v in cusp_orders(eq, n):
        g = 1
        from math import gcd
        m = gcd(d, n // d)
        phi = sum(1 for x in range(1, m + 1) if gcd(x, m) == 1)
        total += Fraction(v) * phi
    assert total == eq.weight * Fraction(_index(n), 12)


def test_cusp_orders_rejects_foreign_level():
    with pytest.raises(LevelMismatchError):
        cusp_orders(FORMS["g27"], 32)


def test_manifest_lists_every_form():
    text = catalog_manifest()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    names = [ln.split()[0] for ln in lines]
    assert names == ETA_NAMES + ["G144", "G64"]
    by_name = {ln.split()[0]: ln for ln in lines}
    assert by_name["g27"].split() == [
        "g27", "27", "[(3,2),(9,2)]", "-3", "(0,0,1,0,-7)"]
    assert by_name["G64"].split() == [
        "G64", "64", "twist(G32,8)", "-4", "(0,0,0,-4,0)"]
    assert by_name["L2"].split() == ["L2", "27", "[(3,3),(27,-3)]", "-", "-"]


def test_twisted_catalog_forms_match_direct_twist():
    from qmod import twist
    cache = FormCache()
    assert first_difference(
        cache.series("G64", 60), twist(catalog_form("G32", 60), 8)) is None
    assert first_difference(
        cache.series("G144", 60), twist(catalog_form("G36", 60), 12)) is None


def test_curve_table_shape():
    assert sorted(CURVES) == [27, 32, 36, 64, 144]
    for level, spec in CURVES.items():
        assert curve(level) is spec
        assert spec.cm_disc in (-3, -4)
        assert len(spec.weierstrass) == 5
        # every curve level carries its newform and companion
        assert FORMS[f"g{level}"].level == FORMS[f"G{level}"].level == level
    assert CURVES[27].weierstrass == (0, 0, 1, 0, -7)
    assert CURVES[36].weierstrass == (0, 0, 0, 0, 1)
    assert CURVES[64].weierstrass == (0, 0, 0, -4, 0)
    with pytest.raises(ValueError, match=r"catalog levels are \[27, 32"):
        curve(99)


@pytest.mark.parametrize("name", ETA_NAMES)
def test_eta_expansion_matches_naive_product_at_3000(name):
    # long enough for the packed division rows (stride 9 for G27, 8 for
    # G32, 6 for G36) to span hundreds of steps
    eq = FORMS[name]
    assert eta_quotient_expand(eq, 3001) == naive_eta_quotient(eq.factors,
                                                               3001)


@pytest.mark.parametrize("level", [27, 32, 64])
def test_cm_newform_matches_its_hecke_character(level):
    # every coefficient below 10^5 from the Hecke character alone
    n = 10**5
    f = catalog_form(f"g{level}", n)
    a = cm_newform_coefficients(level, n)
    assert f == QSeries({e: c for e, c in enumerate(a) if c}, n)


def _inverse_euler_coefficients(r, n):
    """Coefficients of prod (1 - x^k)^(-r) below x^n, r = 1 or 3, from the
    recurrences of the pentagonal and the triangular expansions."""
    if r == 1:
        steps = []
        for k in range(1, n):
            s = 1 if k % 2 else -1
            if k * (3 * k - 1) // 2 >= n:
                break
            steps += [(k * (3 * k - 1) // 2, s), (k * (3 * k + 1) // 2, s)]
    else:
        steps = [(k * (k + 1) // 2, (2 * k + 1) * (1 if k % 2 else -1))
                 for k in range(1, n) if k * (k + 1) // 2 < n]
    a = [1] + [0] * (n - 1)
    for m in range(1, n):
        a[m] = sum(c * a[m - t] for t, c in steps if t <= m)
    return a


def test_euler_inverse_width_lemma():
    p = _inverse_euler_coefficients(1, 3000)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    p3 = _inverse_euler_coefficients(3, 3000)
    assert p3[:6] == [1, 3, 9, 22, 51, 108]
    for kind, coeffs in (("E", p), ("E^3", p3)):
        for m, c in enumerate(coeffs):
            assert 0 <= c < 2 ** _rate_bits((), ((kind, 1),), m), (kind, m)


# ---------------------------------------------------------------------------
# the expansion plan

@st.composite
def eta_quotients(draw, terms=(1, 120)):
    """Eta quotients over the divisors of 48 with exponents in [-6, 8] and
    an integral q-shift, with a precision from terms[0] to terms[1] terms
    past the shift.  delta = 1 and 2 settle the shift: r_1 + 2 r_2 takes
    every residue mod 24 on [-6, 8]^2."""
    free = draw(st.lists(st.sampled_from((3, 4, 6, 8, 12, 16, 24, 48)),
                         unique=True, max_size=4))
    r = {d: draw(st.integers(-6, 8)) for d in free}
    rho = sum(d * e for d, e in r.items()) % 24
    r[1], r[2] = draw(st.sampled_from(
        [(a, b) for a in range(-6, 9) for b in range(-6, 9)
         if (a + 2 * b + rho) % 24 == 0]))
    eq = EtaQuotient(tuple((d, e) for d, e in sorted(r.items()) if e), 48)
    return eq, int(eq.shift) + draw(st.integers(*terms))


@given(eta_quotients())
def test_random_eta_quotient_matches_naive_product(case):
    eq, prec = case
    assert eta_quotient_expand(eq, prec) == naive_eta_quotient(eq.factors,
                                                               prec)


def test_theta_atoms_match_their_eta_forms():
    # E(-q) E(q) E(q^4) = E(q^2)^3 and phi(-q) E(q^2) = E(q)^2, checked
    # against sequential Euler products
    def euler(delta, prec, k=1):
        f = QSeries(naive_euler_product(delta, prec), prec)
        out = f
        for _ in range(k - 1):
            out = ref_mul(out, f)
        return out

    for delta, prec in ((1, 300), (4, 200)):
        assert ref_mul(ref_mul(_ATOMS["E(-q)"][0](delta, prec),
                               euler(delta, prec)),
                       euler(4 * delta, prec)) == euler(2 * delta, prec, 3)
        assert ref_mul(_ATOMS["phi(-q)"][0](delta, prec),
                       euler(2 * delta, prec)) == euler(delta, prec, 2)
    assert _ATOMS["E^3"][0](1, 300) == euler(1, 300, 3)


@pytest.mark.parametrize("delta", [1, 3])
def test_cubic_theta_c_atom(delta):
    # E(q^(3 delta))^3 / E(q^delta) through q^3000, from the Jacobi cube
    # and the schoolbook inverse of the pentagonal series
    N = 3001
    E = QSeries(naive_euler_product(delta, N), N)
    assert _ATOMS["c"][0](delta, N) == ref_mul(
        _ATOMS["E^3"][0](3 * delta, N), ref_invert(E))


def _euler_split(factors):
    """Divisors before any rewriting: a cube per three of -r, then single
    Euler factors."""
    return sorted(a for d, r in factors if r < 0
                  for a in [("E^3", d)] * (-r // 3) + [("E", d)] * (-r % 3))


def test_catalog_division_plans():
    plans = {name: _plan(FORMS[name].factors) for name in ETA_NAMES}
    assert {n: den for n, (_, den) in plans.items()} == {
        "g27": (), "g32": (), "g36": (), "g64": (), "g144": (),
        "G27": (("E^3", 27),), "L2": (("E^3", 27),),
        "L1": (("E^3", 27),), "L36": (("E^3", 18),),
        "X36": (("E^3", 36),), "Y36": (("E^3", 36),),
        "G36": (("E^3", 36),), "G32": (("E", 32),),
    }
    # every catalog eta quotient divides at most once
    assert all(len(den) <= 1 for _, den in plans.values())
    assert sorted(plans["G32"][0]) == (
        [("E", 4)] * 2 + [("phi(-q)", 16)] * 3)
    assert sorted(plans["g64"][0]) == [("E", 8)] * 2 + [("E(-q)", 4)] * 2
    assert plans["g144"][0] == (("E(-q)", 6),) * 4
    # c(q^d) = E(q^(3d))^3 / E(q^d) takes the E(q^3) divisor of L1, L36
    # and Y36, and X36's E(q^6)
    assert plans["L1"][0] == (("E", 9), ("c", 3))
    assert plans["L36"][0] == (("E", 6), ("c", 3))
    assert plans["X36"][0] == (("E", 12), ("c", 6))
    assert plans["Y36"][0] == (("E", 12), ("c", 3))
    # every form without a theta atom keeps its plain Euler split
    for name in set(ETA_NAMES) - {"G32", "g64", "g144", "L1", "L36", "X36",
                                  "Y36"}:
        factors = FORMS[name].factors
        assert sorted(plans[name][1]) == _euler_split(factors), name
        assert not any(k in ("E(-q)", "phi(-q)", "c")
                       for k, _ in plans[name][0])


def test_two_divisor_atoms_divide_in_turn(monkeypatch):
    # eta(3z) / (eta(z) eta(2z)) keeps E(q) and E(q^2) as divisors: the
    # kernel divides by E(q), with the bound of that quotient, and div
    # by E(q^2), each atom on its own, so every division stays lacunary
    eq = EtaQuotient(((3, 1), (1, -1), (2, -1)), 6)
    num, den = _plan(eq.factors)
    assert (num, den) == ((("E", 3),), (("E", 1), ("E", 2)))
    calls = []
    real = qmod.eta._product_quotient

    def recording(factors, divisor, quotient_bits, w, P, L):
        calls.append((divisor, quotient_bits))
        return real(factors, divisor, quotient_bits, w, P, L)

    monkeypatch.setattr(qmod.eta, "_product_quotient", recording)
    assert eta_quotient_expand(eq, 1000) == naive_eta_quotient(eq.factors,
                                                               1000)
    assert calls == [(_euler_factor(1, 1000), _rate_bits(num, den[:1], 999)),
                     (_euler_factor(2, 1000), None)]


@pytest.mark.parametrize("name", ETA_NAMES)
def test_numerator_width_lemma(name):
    # the packed product's slot bound: every coefficient of the product of
    # the numerator atoms is below 2^bits(prod ||atom||_1)
    pw = 3001
    num, _ = _plan(FORMS[name].factors)
    prod = QSeries({0: 1}, pw)
    norm = 1
    for kind, delta in num:
        atom = _ATOMS[kind][0](delta, pw)
        norm *= sum(abs(c) for _, c in atom.items())
        prod = ref_mul(prod, atom)
    assert prod.prec == pw
    bound = 1 << norm.bit_length()
    assert all(abs(c) < bound for _, c in prod.items())


# ---------------------------------------------------------------------------
# the quotient bound of the first division

@pytest.fixture
def respaced(monkeypatch):
    """(D, Bw) of every _respace call from here on: the row length and the
    row slot bytes of each division that solves packed rows."""
    calls = []
    real = qmod.qseries._respace

    def recording(packed, n, B, D, Bw):
        calls.append((D, Bw))
        return real(packed, n, B, D, Bw)

    monkeypatch.setattr(qmod.qseries, "_respace", recording)
    return calls


def _scalar_expansion(eq, prec):
    """eta_quotient_expand's plan with one division, by the product of its
    divisor atoms, run by the scalar recurrence: the kernel gets no
    quotient bound, so it solves no rows."""
    s = int(eq.shift)
    pw = prec - s
    num, den = _plan(eq.factors)
    factors = [_ATOMS[k][0](d, pw) for k, d in num] or [one(pw)]
    divisor = reduce(ref_mul, [_ATOMS[k][0](d, pw) for k, d in den])
    return _product_quotient(factors, divisor, None, s, pw,
                             _lattice(*factors, divisor))


def _cubic_theta_sum(N):
    """sum_(m,n in Z) w^(m-n) q^(m^2+mn+n^2) below q^N, w = e^(2 pi i / 3).
    The sum is real, so w and w^2 = conj(w) come equally often, and
    1 + w + w^2 = 0 leaves (count at 1) - (count at w)."""
    counts = [[0, 0, 0] for _ in range(N)]
    r = isqrt(2 * N) + 1  # m^2+mn+n^2 >= max(m^2, n^2) / 2
    for m in range(-r, r + 1):
        for n in range(-r, r + 1):
            e = m * m + m * n + n * n
            if e < N:
                counts[e][(m - n) % 3] += 1
    assert all(c1 == c2 for _, c1, c2 in counts)
    return QSeries({e: c0 - c1 for e, (c0, c1, _) in enumerate(counts)}, N)


def test_cubic_theta_function_and_its_coefficient_bound():
    # b(q) = E(q)^3 / E(q^3) = sum_(m,n) w^(m-n) q^(m^2+mn+n^2) through
    # q^3000, and |b_n| <= 6 d(n) for n >= 1
    N = 3001
    b = ref_mul(_ATOMS["E^3"][0](1, N), ref_invert(_ATOMS["E"][0](3, N)))
    assert b == _cubic_theta_sum(N)
    divisors = [0] * N
    for k in range(1, N):
        for j in range(k, N, k):
            divisors[j] += 1
    assert b.coefficient(0) == 1
    assert all(abs(b.coefficient(n)) <= 6 * divisors[n] for n in range(1, N))


def test_cubic_theta_quotient_expands_with_rows(respaced):
    # eta(z)^3 / eta(3z) = b(q): _bound_plan takes it whole and leaves
    # rho = 0, and _rate_bits bounds the rows of its division by E(q^3),
    # three residue classes wide, with rho = 1/3 in its place
    eq = EtaQuotient(((1, 3), (3, -1)), 3)
    assert _bound_plan(eq.factors) == (0, (("b", 1),))
    assert _plan(eq.factors) == ((("E^3", 1),), (("E", 3),))
    assert eta_quotient_expand(eq, 3001) == _cubic_theta_sum(3001)
    assert [D for D, _ in respaced] == [3]


@settings(max_examples=80)
@given(eta_quotients(terms=(500, 3000)))
def test_quotient_bound_rows_match_the_scalar_recurrence(case):
    eq, prec = case
    assume(_plan(eq.factors)[1])
    assert eta_quotient_expand(eq, prec) == _scalar_expansion(eq, prec)


def test_bound_plans_of_the_cubes():
    # G27 = q^-1 E(q^3) b(q^9)^2 / E(q^27), G36 = q^-1 b(q^6) E(q^12)
    # phi(-q^18)^2 / E(q^36), L1 = q^-2 E(q^9) c(q^3) / E(q^27)^3 and
    # L36 = q^-1 E(q^6) c(q^3) / E(q^18)^3
    rho, atoms = _bound_plan(FORMS["G27"].factors)
    assert rho == Fraction(1, 27)
    assert sorted(atoms) == [("E", 3), ("b", 9), ("b", 9)]
    rho, atoms = _bound_plan(FORMS["G36"].factors)
    assert rho == Fraction(1, 36)
    assert sorted(atoms) == [("E", 12), ("b", 6), ("phi(-q)", 18),
                             ("phi(-q)", 18)]
    assert _bound_plan(FORMS["L1"].factors) == (
        Fraction(1, 9), (("E", 9), ("c", 3)))
    assert _bound_plan(FORMS["L36"].factors) == (
        Fraction(1, 6), (("E", 6), ("c", 3)))


# Precisions of the bound sweep, and the bytes per row slot of each first
# division that runs packed rows at them with the bound used before
# _rate_bits, bits(||numerator||_1) plus the growth bound of the divisor's
# inverse (None: no rows, as the divisor has no step below the precision,
# or a stride of 1)
_SWEEP = (2, 5, 10, 30, 100, 300, 1_000, 3_000, 10_000, 30_000, 62_501,
          100_001, 200_001)
_ONE_NORM_ROW_BYTES = {
    "G27": (None, None, None, 3, 4, 5, 8, 12, 20, 32, 44, 54, 75),
    "L2": (None, None, None, 2, 3, 4, 7, 10, 18, 30, 42, 52, 72),
    "G32": (None, None, None, None, 3, 4, 6, 8, 13, 19, 26, 31, 42),
    "G36": (None, None, None, None, 3, 5, 8, 11, 18, 28, 38, 47, 65),
}


def _first_division_bits(name, prec):
    eq = FORMS[name]
    num, den = _plan(eq.factors)
    return _rate_bits(num, den, prec - int(eq.shift) - 1)


@pytest.mark.parametrize("name", ["G27", "G32", "G36", "L1", "L2", "L36"])
def test_quotient_bits_bound_the_first_quotient(name, monkeypatch,
                                                respaced):
    # the kernel's quotient at the top of the sweep holds it at every
    # smaller precision as a prefix; it is the expansion's one division,
    # and its rows are the only ones respaced
    calls = []
    real = qmod.eta._product_quotient

    def recording(factors, divisor, quotient_bits, w, P, L):
        out = real(factors, divisor, quotient_bits, w, P, L)
        calls.append((quotient_bits, out))
        return out

    monkeypatch.setattr(qmod.eta, "_product_quotient", recording)
    eta_quotient_expand(FORMS[name], _SWEEP[-1])
    (passed, quotient), = calls
    assert passed == _first_division_bits(name, _SWEEP[-1])
    assert len(respaced) == 1
    widest, k = 0, 0
    old = _ONE_NORM_ROW_BYTES.get(name, (None,) * len(_SWEEP))
    for e, c in quotient.items() + [(_SWEEP[-1], 0)]:
        while k < len(_SWEEP) and e >= _SWEEP[k]:
            bits = _first_division_bits(name, _SWEEP[k])
            assert bits >= widest + 1, (name, _SWEEP[k])
            assert old[k] is None or _slot_bytes(bits) <= old[k] + 1, (
                name, _SWEEP[k])
            k += 1
        widest = max(widest, abs(c).bit_length())
    assert k == len(_SWEEP)


@pytest.mark.parametrize("name,prec,most", [
    ("G27", 62_501, 232), ("G27", 655_361, 640),
    ("G36", 62_501, 200), ("G36", 655_361, 560),
    ("L1", 62_501, 327), ("L1", 655_361, 1_021),
    ("L36", 62_501, 396), ("L36", 655_361, 1_246),
])
def test_cube_quotient_rows_are_narrow(name, prec, most):
    # the 1-norm bound alone gave 348 and 1,045 bits for G27 and 301 and
    # 908 for G36; the coefficients reach 173 and 549, and 131 and 413 bits.
    # L1 and L36 stay within the pinned widths of their old second
    # division, by the cube with the 1-norm of the quotient by E(q^3);
    # their coefficients reach 227 and 755, and 240 and 801 bits
    assert _first_division_bits(name, prec) <= most


@pytest.mark.parametrize("name", ["G27", "G36"])
def test_narrow_rows_give_the_scalar_expansion(name, respaced):
    # at the 300,001 terms that CI pins by digest, the rows sized by
    # _rate_bits give the scalar recurrence's expansion
    narrow = eta_quotient_expand(FORMS[name], 300_001)
    assert len(respaced) == 1
    assert narrow == _scalar_expansion(FORMS[name], 300_001)
    assert len(respaced) == 1  # the scalar recurrence solved no rows
