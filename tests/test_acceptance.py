"""Acceptance gate: one test per acceptance criterion, each printing a
single PASS/FAIL line with its elapsed time.  Grids and tolerances are
stated inline; every comparison is exact integer arithmetic."""

import random
import time

from qmod.eta import catalog_form
from qmod.operators import apply_U, apply_V, kronecker, theta
from qmod.qseries import (
    QSeries,
    add,
    div,
    mul,
    one,
    truncate,
)
from qmod.spans import build_H, echelonize, psi36_generators, spanning_family
from qmod.verify import (
    DEFAULT_CACHE,
    check_congruence,
    check_hecke_decomposition,
    check_limit,
    check_nondivisibility,
    check_residue,
    check_support,
    check_theta_psi,
    check_twist_consistency,
    check_valuation,
    eligible_inert_primes,
)
from qmod import eta as eta_mod
from _oracles import naive_euler_product, ref_kronecker

# valuation / limit grid shared by criteria 2, 3 and (restricted) 4
GRID = {
    27: [(2, 0), (2, 1), (2, 2), (2, 3),
         (5, 0), (5, 1), (11, 0), (11, 1)],
    32: [(3, 0), (3, 1), (7, 0), (7, 1), (11, 0), (11, 1)],
    36: [(5, 0), (5, 1), (11, 0), (11, 1), (17, 0), (17, 1)],
    64: [(3, 0), (3, 1), (7, 0), (7, 1), (11, 0), (11, 1)],
    144: [(5, 0), (5, 1), (11, 0), (11, 1)],
}


def _finish(capsys, n, failures, t0):
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE criterion {n}: {verdict} "
              f"({time.perf_counter() - t0:.1f}s)")
    assert not failures, failures


def test_criterion_1_printed_expansions(capsys):
    t0 = time.perf_counter()
    failures = []
    expected = {
        ("g27", 5): [(1, 1), (4, -2)],
        ("G27", 3): [(-1, 1), (2, -1)],
        ("L1", 4): [(-2, 1), (1, 1)],
        ("L2", 3): [(-3, 1), (0, -3)],
    }
    for (name, prec), coeffs in expected.items():
        got = catalog_form(name, prec).items()
        if got != coeffs:
            failures.append((name, prec, got))
    if build_H(27, 2, 5).items() != [(-2, 1), (4, -5)]:
        failures.append(("H2@27", build_H(27, 2, 5).items()))
    psi2, psi3 = psi36_generators(4)
    if truncate(psi2, 4).items() != [(-2, 1)]:
        failures.append(("psi2@36", psi2.items()))
    if truncate(psi3, 3).items() != [(-3, 1)]:
        failures.append(("psi3@36", psi3.items()))
    _finish(capsys, 1, failures, t0)


def test_criterion_2_valuations(capsys):
    t0 = time.perf_counter()
    failures = []
    for level, pairs in GRID.items():
        for p, m in pairs:
            r = check_valuation(level, p, m)
            if not r.passed:
                failures.append((level, p, m, r.actual))
    _finish(capsys, 2, failures, t0)


def test_criterion_3_limit_inequality(capsys):
    t0 = time.perf_counter()
    failures = []
    for level, pairs in GRID.items():
        for p, m in pairs:
            r = check_limit(level, p, m, K=20)
            if not r.passed:
                failures.append((level, p, m, r.actual))
    _finish(capsys, 3, failures, t0)


def test_criterion_4_coefficient_congruence(capsys):
    t0 = time.perf_counter()
    failures = []
    for level in (27, 36):
        for p, m in GRID[level]:
            r = check_congruence(level, p, m)
            if not r.passed:
                failures.append((level, p, m, r.actual))
    _finish(capsys, 4, failures, t0)


def test_criterion_5_hecke_decomposition(capsys):
    t0 = time.perf_counter()
    failures = []
    cases = [(27, 2, 1), (27, 2, 2), (27, 5, 1), (27, 5, 2), (36, 5, 1)]
    for level, p, n in cases:
        r = check_hecke_decomposition(level, p, n, prec=30)
        if not r.passed:
            failures.append((level, p, n, r.actual))
    _finish(capsys, 5, failures, t0)


def test_criterion_6_theta_psi_and_residue(capsys):
    t0 = time.perf_counter()
    failures = []
    cases = [(27, 2), (27, 5), (27, 11), (36, 5), (36, 11)]
    for level, p in cases:
        r = check_theta_psi(level, p, prec=30)
        if not r.passed:
            failures.append(("theta-psi", level, p, r.actual))
        r = check_residue(level, p, prec=30)
        if not r.passed:
            failures.append(("residue", level, p, r.actual))
    _finish(capsys, 6, failures, t0)


def test_criterion_7_nondivisibility(capsys):
    t0 = time.perf_counter()
    failures = []
    for level in (27, 32, 36, 64, 144):
        for p in eligible_inert_primes(level, 50):
            r = check_nondivisibility(level, p)
            if not r.passed:
                failures.append((level, p, r.actual))
    _finish(capsys, 7, failures, t0)


def test_criterion_8_twist_consistency(capsys):
    t0 = time.perf_counter()
    r = check_twist_consistency(prec=200)
    assert r.params == {"prec": 200, "samples": [[3, 0], [7, 0]], "K": 50}
    _finish(capsys, 8, [] if r.passed else [r.actual], t0)


def _random_series(rng, n_terms, e_lo, e_hi, prec):
    support = rng.sample(range(e_lo, e_hi), n_terms)
    coeffs = {e: rng.randint(-9, 9) or 1 for e in support}
    return QSeries(coeffs, prec)


def test_criterion_9_property_suites(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(20260822)

    # ring laws on random triples, compared on the shared precision
    for _ in range(40):
        f = _random_series(rng, 4, -5, 10, 12)
        g = _random_series(rng, 4, -5, 10, 12)
        h = _random_series(rng, 4, -5, 10, 12)
        if mul(f, g) != mul(g, f):
            failures.append(("commutativity", f.items()))
        lhs, rhs = mul(mul(f, g), h), mul(f, mul(g, h))
        t = min(lhs.prec, rhs.prec)
        if truncate(lhs, t) != truncate(rhs, t):
            failures.append(("associativity", f.items()))
        lhs = mul(f, add(g, h))
        rhs = add(mul(f, g), mul(f, h))
        t = min(lhs.prec, rhs.prec)
        if truncate(lhs, t) != truncate(rhs, t):
            failures.append(("distributivity", f.items()))

    # inverse round trip on unit-lead series
    for _ in range(20):
        f = _random_series(rng, 5, -3, 9, 15)
        f = add(QSeries({f.order: 1 - f.coefficient(f.order)},
                            f.prec), f)
        prod = mul(f, div(one(f.prec - f.order), f))
        if prod != one(prod.prec):
            failures.append(("invert", f.items()))

    # U and V section identities
    g27 = DEFAULT_CACHE.series("g27", 50)
    for m in (2, 3, 5):
        if apply_U(apply_V(g27, m), m) != g27:
            failures.append(("U-after-V", m))

    # Leibniz rule for the theta operator
    for _ in range(20):
        f = _random_series(rng, 4, -4, 8, 10)
        g = _random_series(rng, 4, -4, 8, 10)
        lhs = theta(mul(f, g))
        rhs = add(mul(theta(f), g), mul(f, theta(g)))
        t = min(lhs.prec, rhs.prec)
        if truncate(lhs, t) != truncate(rhs, t):
            failures.append(("leibniz", f.items()))

    # pentagonal recurrence against the naive sequential product
    pent = eta_mod._euler_factor(1, 2000)
    if pent.items() != sorted(naive_euler_product(1, 2000).items()):
        failures.append(("pentagonal",))

    # kronecker symbol against the brute-force multiplicative definition
    for d in (8, 12, -3, -4, 5):
        for n in range(1, 10 ** 4 + 1):
            if kronecker(d, n) != ref_kronecker(d, n):
                failures.append(("kronecker", d, n))
                break

    # support lattices of every catalog pair
    for level in (27, 32, 36, 64, 144):
        r = check_support(level, prec=500)
        if not r.passed:
            failures.append(("support", level, r.actual))

    # echelon normal form does not depend on family order
    for level, max_pole in ((27, 8), (36, 9)):
        fam = spanning_family(level, max_pole, 25)
        base = echelonize(fam).rows
        shuffled = fam[:]
        rng.shuffle(shuffled)
        if (echelonize(list(reversed(fam))).rows != base
                or echelonize(shuffled).rows != base):
            failures.append(("echelon-order", level))

    _finish(capsys, 9, failures, t0)
