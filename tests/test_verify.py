"""Tests for the check layer: report serialization, prime eligibility,
the shared expansion cache, and small instances of every check."""

import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import qmod.spans
import qmod.verify
from qmod.cli import main, run_grid
from qmod.verify import (
    CheckReport,
    DEFAULT_CACHE,
    FormCache,
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
    prime_eligibility,
    report_sort_key,
)
from qmod.eta import FORMS, catalog_form
from qmod.operators import twist
from qmod.qseries import QSeries, add, mul, truncate


# ---------------------------------------------------------------------------
# report serialization

def test_report_json_integers_become_decimal_strings():
    r = CheckReport(
        check_id="demo",
        params={"level": 27, "p": 2, "m": 0},
        passed=True,
        expected=10 ** 30,
        actual=-(10 ** 30) - 1,
    )
    d = r.to_json_dict()
    assert d["expected"] == "1" + "0" * 30
    assert d["actual"] == "-" + "1" + "0" * 29 + "1"
    # passed stays a real boolean, params stay plain ints
    assert d["passed"] is True
    assert d["params"] == {"level": 27, "p": 2, "m": 0}


def test_report_json_nested_structures():
    r = CheckReport(
        check_id="demo",
        params={},
        passed=False,
        expected=[None, [1, 2]],
        actual=[7, ["ok", math.inf]],
        notes="n",
    )
    d = r.to_json_dict()
    assert d["expected"] == [None, ["1", "2"]]
    assert d["actual"] == ["7", ["ok", "inf"]]
    assert d["notes"] == "n"


def test_report_json_rejects_unknown_types():
    r = CheckReport(check_id="demo", params={}, passed=True, expected=object())
    with pytest.raises(TypeError):
        r.to_json_dict()


def test_report_sort_key_orders_by_level_prime_depth():
    def rep(check_id, **params):
        return CheckReport(check_id=check_id, params=params, passed=True)

    rows = [
        rep("valuation", level=36, p=5, m=0),
        rep("limit", level=27, p=2, m=0),
        rep("valuation", level=27, p=2, m=0),
        rep("valuation", level=27, p=5, m=1),
        rep("valuation", level=27, p=2, m=1),
    ]
    rows.sort(key=report_sort_key)
    assert [(r.params.get("level"), r.params.get("p"), r.params.get("m"),
             r.check_id) for r in rows] == [
        (27, 2, 0, "limit"),
        (27, 2, 0, "valuation"),
        (27, 2, 1, "valuation"),
        (27, 5, 1, "valuation"),
        (36, 5, 0, "valuation"),
    ]


# ---------------------------------------------------------------------------
# eligibility

def test_prime_eligibility_examples():
    assert prime_eligibility(27, 2) == (True, "")
    assert prime_eligibility(27, 5) == (True, "")
    ok, reason = prime_eligibility(27, 7)          # 7 = 1 mod 3, split
    assert not ok and "not inert" in reason
    ok, reason = prime_eligibility(27, 3)          # divides the level
    assert not ok
    ok, reason = prime_eligibility(36, 2)
    assert not ok and "divides the level 36" in reason
    ok, reason = prime_eligibility(36, 3)          # 3 is ramified
    assert not ok and "not inert" in reason
    ok, reason = prime_eligibility(144, 2)
    assert not ok and "divides the level 144" in reason
    ok, reason = prime_eligibility(144, 3)
    assert not ok and "not inert" in reason
    assert prime_eligibility(144, 5) == (True, "")
    assert prime_eligibility(32, 3) == (True, "")
    ok, reason = prime_eligibility(64, 2)
    assert not ok and "not inert" in reason
    ok, reason = prime_eligibility(32, 2)
    assert not ok


def test_eligible_inert_primes_frozen_lists():
    assert eligible_inert_primes(27, 12) == [2, 5, 11]
    assert eligible_inert_primes(32, 12) == [3, 7, 11]
    assert eligible_inert_primes(36, 12) == [5, 11]
    assert eligible_inert_primes(64, 12) == [3, 7, 11]
    assert eligible_inert_primes(144, 20) == [5, 11, 17]


def test_checks_reject_ineligible_primes():
    with pytest.raises(ValueError, match="ineligible"):
        check_valuation(27, 7, 0)
    with pytest.raises(ValueError, match="ineligible"):
        check_limit(36, 2, 0)
    with pytest.raises(ValueError, match="ineligible"):
        check_nondivisibility(32, 5)


def test_level_restricted_checks_reject_other_levels():
    with pytest.raises(ValueError, match="levels 27 and 36"):
        check_congruence(32, 3, 0)
    with pytest.raises(ValueError, match="levels 27 and 36"):
        check_theta_psi(64, 3)
    with pytest.raises(ValueError, match="levels 27 and 36"):
        check_residue(144, 5)
    with pytest.raises(ValueError, match="levels 27 and 36"):
        check_hecke_decomposition(32, 3, 1)


@pytest.mark.parametrize("check,args,what", [
    (check_congruence, (32, 3, 0), "congruence check"),
    (check_hecke_decomposition, (32, 3, 1), "span decomposition"),
    (check_theta_psi, (64, 3), "theta-psi identity"),
    (check_residue, (144, 5), "residue pairing"),
])
def test_level_restricted_check_error_texts(check, args, what):
    with pytest.raises(ValueError) as exc:
        check(*args)
    assert str(exc.value) == f"{what} runs at levels 27 and 36, not {args[0]}"


# ---------------------------------------------------------------------------
# the expansion cache

def test_cache_returns_requested_precision():
    cache = FormCache()
    f = cache.series("g27", 40)
    assert f.prec == 40
    assert f == truncate(catalog_form("g27", 40), 40)
    # a smaller request is served by truncation of the stored expansion
    assert cache.series("g27", 10) == truncate(f, 10)
    # a larger request re-expands and keeps the new high water mark
    h = cache.series("g27", 60)
    assert h.prec == 60
    assert truncate(h, 40) == f


def test_cache_handles_twisted_names():
    cache = FormCache()
    assert cache.series("g64", 30) == catalog_form("g64", 30)
    assert cache.series("G144", 20) == twist(catalog_form("G36", 20), 12)


def test_cache_is_thread_safe():
    cache = FormCache()
    expected = catalog_form("G27", 200)

    def grab(_):
        return cache.series("G27", 200)

    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(grab, range(16)))
    assert all(r == expected for r in results)


def _fresh_stores(monkeypatch, cache):
    monkeypatch.setattr(cache, "_data", {})
    monkeypatch.setattr(qmod.spans, "_NORMAL_FORMS", {})


def test_checks_from_threads_match_a_sequential_run(monkeypatch, cold_cache):
    # FormCache and the span memos start empty and share one lock; the
    # threads race on every miss of G, g, the generators and psi_p
    calls = [(check, level, p)
             for level, primes in ((27, (2, 5, 11)), (36, (5, 11)))
             for p in primes
             for check in (check_theta_psi, check_residue,
                           check_hecke_decomposition)]
    _fresh_stores(monkeypatch, cold_cache)
    want = [check(level, p).to_json_dict() for check, level, p in calls]
    _fresh_stores(monkeypatch, cold_cache)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            got = list(ex.map(lambda c: c[0](*c[1:]).to_json_dict(),
                              calls * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2


_COUNT_NEWFORM_EXPANSIONS = """
import json, sys
import qmod

level = int(sys.argv[1])
real = qmod.eta.eta_quotient_expand
precs = []

def counted(eq, prec):
    if eq == qmod.eta.FORMS[f"g{level}"]:
        precs.append(prec)
    return real(eq, prec)

for name, module in list(sys.modules.items()):
    if (name.split(".")[0] == "qmod"
            and getattr(module, "eta_quotient_expand", None) is real):
        module.eta_quotient_expand = counted
assert qmod.check_hecke_decomposition(level, 5).passed
print(json.dumps(precs))
"""


@pytest.mark.parametrize("level", [27, 36])
def test_hecke_check_expands_the_newform_once(level):
    # a new process starts with every store cold; each binding of the
    # engine is counted, so a second store with its own path would show.
    # H_5 is read off its own chain, which reads g at prec + pole + 1 = 36;
    # the check reads it at 30.
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_NEWFORM_EXPANSIONS, str(level)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [36]


def test_cache_coefficient_equals_the_truncated_series():
    # every catalog name, the twisted G64 and G144 included: a miss on an
    # empty cache, a hit, a miss that grows the held expansion, a hit at
    # exactly its precision, a hit below it, and the leading coefficient
    for name in FORMS:
        cache = FormCache()
        lead = FormCache().series(name, 5).order
        for e in (6, 2, 15, 15, 9, lead):
            want = FormCache().series(name, e + 1).coefficient(e)
            got = cache.expansion(name, e + 1).coefficient(e)
            assert got == want, (name, e)
        assert cache.expansion(name, 16).prec == 16


def test_cache_hit_copies_and_expands_nothing(monkeypatch, cold_cache):
    cache = cold_cache
    held = {name: cache.expansion(name, 200) for name in ("G27", "G64")}
    want = {name: [f.coefficient(e) for e in range(-1, 200)]
            for name, f in held.items()}

    def forbidden(*args):
        raise RuntimeError("a cache hit copied or expanded a form")

    for name in ("truncate", "catalog_form", "twist"):
        monkeypatch.setattr(qmod.verify, name, forbidden)
    for name, f in held.items():
        assert cache.expansion(name, 200) is f
        assert cache.expansion(name, 7) is f
        assert [cache.expansion(name, e + 1).coefficient(e)
                for e in range(-1, 200)] == want[name]
    assert check_valuation(27, 5, 1).passed
    assert check_congruence(27, 5, 1).passed
    assert check_nondivisibility(64, 3).passed


def test_cold_cache_expands_only_inside_series(monkeypatch, cold_cache):
    """series is the one method that expands, so a wrapper on it sees every
    expansion: on an empty cache the first request of an expansion read or
    a check enters through series, and each expansion runs inside it."""
    events = []
    depth = [0]
    real_series = FormCache.series
    real_catalog = qmod.verify.catalog_form

    def series(self, name, prec):
        events.append(("series", depth[0]))
        depth[0] += 1
        try:
            return real_series(self, name, prec)
        finally:
            depth[0] -= 1

    def catalog(name, prec):
        events.append(("catalog_form", depth[0]))
        return real_catalog(name, prec)

    monkeypatch.setattr(FormCache, "series", series)
    monkeypatch.setattr(qmod.verify, "catalog_form", catalog)
    requests = [
        lambda c: c.expansion("G27", 126).coefficient(125),
        lambda c: c.expansion("G144", 31).coefficient(30),
        lambda c: c.expansion("G64", 40),
        lambda c: check_valuation(27, 5, 1),
        lambda c: check_congruence(36, 5, 1),
        lambda c: check_nondivisibility(32, 3),
        lambda c: check_theta_psi(27, 5),
        lambda c: check_support(27, prec=100),
        lambda c: check_twist_consistency(prec=40),
    ]
    for request in requests:
        events.clear()
        monkeypatch.setattr(cold_cache, "_data", {})
        request(cold_cache)
        assert events[0] == ("series", 0), events
        expansions = [d for kind, d in events if kind == "catalog_form"]
        assert expansions and min(expansions) > 0, events


# ---------------------------------------------------------------------------
# small instances of each check

def test_valuation_small_cases():
    r = check_valuation(27, 2, 0)
    assert r.passed and r.actual == 0 and r.expected == 0
    assert r.params == {"level": 27, "p": 2, "m": 0}
    r = check_valuation(27, 2, 1)
    assert r.passed and r.actual == 1
    r = check_valuation(32, 3, 0)
    assert r.passed
    r = check_valuation(36, 5, 0)
    assert r.passed


def test_limit_small_cases():
    r = check_limit(27, 2, 0, K=20)
    assert r.passed and r.actual >= 1
    assert r.params["K"] == 20
    r = check_limit(27, 2, 1, K=10)
    assert r.passed and r.actual >= 3
    r = check_limit(36, 5, 0, K=10)
    assert r.passed


def test_congruence_small_cases():
    assert check_congruence(27, 2, 0).passed
    assert check_congruence(27, 2, 1).passed
    assert check_congruence(27, 5, 1).passed
    assert check_congruence(36, 5, 1).passed


def test_congruence_agrees_with_valuation():
    # v_p(C(p^3)) = 1 forces C(p^3) = -p C(p) mod p^2 to be consistent:
    # both views of the same coefficient must hold together.
    for level, p in ((27, 2), (27, 5), (36, 5)):
        assert check_valuation(level, p, 1).passed
        assert check_congruence(level, p, 1).passed


def test_hecke_decomposition_small_cases():
    assert check_hecke_decomposition(27, 2, 1, prec=20).passed
    assert check_hecke_decomposition(27, 2, 2, prec=15).passed
    assert check_hecke_decomposition(36, 5, 1, prec=12).passed


def test_theta_psi_small_cases():
    r = check_theta_psi(27, 2, prec=20, m_max=1, K=10)
    assert r.passed
    bad, cong = r.actual
    assert bad is None and cong[0] >= 1 and cong[1] >= 2
    assert check_theta_psi(36, 5, prec=12, m_max=0, K=10).passed


def test_residue_small_cases():
    r = check_residue(27, 2, prec=20)
    assert r.passed and r.actual[0] == 0
    r = check_residue(27, 5, prec=20)
    assert r.passed
    r = check_residue(36, 5, prec=12)
    assert r.passed
    # the q-coefficient witness equals -C(p)
    G = DEFAULT_CACHE.series("G36", 20)
    assert r.actual[1] == -G.coefficient(5)


@pytest.mark.parametrize("level,primes", [
    (27, (2, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101)),
    (36, (5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101))])
def test_residue_sum_is_the_constant_term_of_the_product(level, primes):
    # every residue call of the identities benchmark: the one sum the check
    # reads is the constant term of the whole product G*psi_p
    for p in primes:
        r = check_residue(level, p)
        psi = qmod.spans.build_psi(level, p, 30)
        G = DEFAULT_CACHE.series(f"G{level}", 30 + p)
        assert r.actual[0] == mul(G, psi).coefficient(0) == 0, (level, p)
        assert r.passed


def test_nondivisibility_small_cases():
    for level, p in ((27, 2), (27, 5), (32, 3), (36, 5), (64, 3), (144, 5)):
        r = check_nondivisibility(level, p)
        assert r.passed and r.actual != 0


def test_twist_consistency_small():
    r = check_twist_consistency(prec=60)
    assert r.passed
    assert r.actual == [None] * 4


def test_support_small():
    r = check_support(27, prec=120)
    assert r.passed
    assert r.actual[0] == [] and r.actual[1] == []
    # level 27 even-power degeneration witnesses: C(4) = C(25) = 0
    assert [c for c, _ in r.actual[2]] == [0, 0]
    assert check_support(32, prec=120).passed
    assert check_support(36, prec=120).passed


# ---------------------------------------------------------------------------
# one expansion per form inside a check

@pytest.fixture
def expansions(monkeypatch):
    """Names handed to catalog_form by the cache, in call order."""
    names = []
    real = qmod.verify.catalog_form

    def counting(name, prec):
        names.append(name)
        return real(name, prec)

    monkeypatch.setattr(qmod.verify, "catalog_form", counting)
    return names


@pytest.fixture
def held(monkeypatch):
    """(name, prec) of each FormCache.expansion request, in call order: a
    check asks for the held expansion of each form once, at the largest
    precision it reads."""
    requests = []
    real = FormCache.expansion

    def recording(self, name, prec):
        requests.append((name, prec))
        return real(self, name, prec)

    monkeypatch.setattr(FormCache, "expansion", recording)
    return requests


def test_congruence_expands_G_once(cold_cache, expansions, held):
    # C(5) and C(5^3) come from one expansion of G27 to 126 terms
    assert check_congruence(27, 5, 1).passed
    assert expansions == ["G27"]
    assert held == [("G27", 126)]


def test_valuation_and_nondivisibility_ask_for_G_once(cold_cache, held):
    # C(5^3) and C(5), each from one request of the held expansion
    assert check_valuation(27, 5, 1).passed
    assert check_nondivisibility(27, 5).passed
    assert held == [("G27", 126), ("G27", 6)]


def test_theta_psi_expands_G_once(cold_cache, expansions, held):
    # G27 is needed at 5 * 30 = 150 and at 20 * 5^3 + 1 = 2501; psi_5 is
    # built first, from L1 and L2 at 30 + 5.  T2(5) reads the first 150
    # terms of the one held expansion, and each congruence its U-window
    assert check_theta_psi(27, 5).passed
    assert expansions == ["L1", "L2", "G27"]
    assert held == [("G27", 2501)]


def test_support_expands_G_once(cold_cache, expansions, held):
    # G27 is needed at 500 and at 31 * 25 = 775.  H_25 and then H_4 read
    # L1 and L2 at 31 + 25 + 1 and at 31 + 4 + 1, so both are expanded
    # once (g27 is held at 500 by then).  The support of G below 500,
    # C(25) and C(4) are read from the one held expansion
    assert check_support(27, prec=500).passed
    assert expansions == ["g27", "G27", "L1", "L2"]
    assert held == [("G27", 775)]


def test_twist_consistency_expands_G32_once(cold_cache, expansions, held):
    # G32 is needed at 50 * 3 + 1 = 151 and at 50 * 7 + 1 = 351; g64 and
    # g144 are read through the cache like every other catalog form
    assert check_twist_consistency(prec=40).passed
    assert expansions == ["g64", "g32", "g144", "g36", "G32"]
    assert held == [("G32", 351)]


def test_hecke_decomposition_checks_the_span_floor_before_G(
        cold_cache, expansions, capsys):
    # level 36's spans start at precision 3, so prec = 2 is refused before
    # G36 is read, from the library and from the command line
    message = "prec must be at least 3 at level 36, got 2"
    with pytest.raises(ValueError, match=message):
        check_hecke_decomposition(36, 5, 1, 2)
    rc = main(["check", "hecke-decomposition", "--level", "36", "--p", "5",
               "--prec", "2"])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    assert expansions == []


# ---------------------------------------------------------------------------
# every check can fail

@pytest.fixture
def perturb(monkeypatch, cold_cache):
    """perturb(form, e) empties the store; from then on every expansion
    of the catalog form past q^e carries one more there."""
    real = qmod.verify.catalog_form

    def install(form, e):
        def perturbed(name, prec):
            f = real(name, prec)
            if name != form or e >= prec:
                return f
            return add(f, QSeries({e: 1}, prec))

        monkeypatch.setattr(cold_cache, "_data", {})
        monkeypatch.setattr(qmod.verify, "catalog_form", perturbed)

    return install


# check, arguments, a (form, exponent) the check certifies there, and for
# a check whose witness is a first differing exponent, a test that the
# report names it
_CERTIFIED = [
    (check_valuation, (27, 5, 1), "G27", 125, None),
    (check_limit, (27, 2, 1), "G27", 8, None),
    (check_congruence, (27, 5, 1), "G27", 125, None),
    (check_nondivisibility, (27, 5), "G27", 5, None),
    (check_residue, (27, 5), "G27", 5, None),
    # G|T2(2) reads G at q^8 for its coefficient at q^4
    (check_hecke_decomposition, (27, 2), "G27", 8, lambda a: a == 4),
    (check_theta_psi, (27, 2), "G27", 8, lambda a: a[0] == 4),
    (check_support, (27,), "g27", 3, lambda a: a[0] == [3]),
    # g64 against g32 twisted by (8|.); the U-twist commutation on G32
    # holds for every series, so a G32 coefficient would not do
    (check_twist_consistency, (), "g32", 5, lambda a: a[0] == 5),
]


@pytest.mark.parametrize("check,args,form,e,names", _CERTIFIED,
                         ids=[c.__name__ for c, *_ in _CERTIFIED])
def test_every_check_can_fail(perturb, check, args, form, e, names):
    assert check(*args).passed
    perturb(form, e)
    r = check(*args)
    assert r.passed is False
    assert names is None or names(r.actual), r.actual


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_fail_in_the_forked_child_reaches_the_grid(monkeypatch, perturb,
                                                     cold_cache):
    # below 5,000 terms G27's group has the most kernel slots, so with two
    # CPUs level 36 is checked in the child
    runs = []
    for cpus in (1, 2):
        perturb("G36", 125)
        monkeypatch.setattr(qmod.verify, "_cpu_count", lambda: cpus)
        reports, _ = run_grid(levels=(27, 36), ceiling=5000)
        runs.append([r.to_json_dict() for r in reports])
        failed = [(r.check_id, r.params["level"], r.params["p"],
                   r.params["m"]) for r in reports if not r.passed]
        assert failed == [("limit", 36, 5, 1), ("valuation", 36, 5, 1)]
    assert runs[0] == runs[1]
    assert set(cold_cache._data) == {"G27", "g27"}
