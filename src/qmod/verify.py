"""Verification checks for the catalog: p-adic valuations of the companion
form coefficients, the p-adic limit property, coefficient congruences, Hecke
decompositions against the span normal forms, and structural consistency
checks.  Every check returns a CheckReport with exact integer witnesses."""

from __future__ import annotations

import marshal
import math
import os
import threading
from dataclasses import astuple, dataclass

from .qseries import (
    QSeries,
    _is_prime,
    add,
    first_difference,
    mul,
    padic_valuation,
    padic_valuation_range,
    scale,
    sub,
    truncate,
)
from .eta import FORMS, Twist, catalog_form, curve
from .operators import apply_U, hecke, is_inert, kronecker, theta, twist
from .spans import _level, _memo, _require_span_prec, build_H, build_psi

__all__ = [
    "CheckReport",
    "FormCache",
    "DEFAULT_CACHE",
    "prime_eligibility",
    "eligible_inert_primes",
    "limit_prec",
    "check_valuation",
    "check_limit",
    "check_congruence",
    "check_hecke_decomposition",
    "check_theta_psi",
    "check_residue",
    "check_nondivisibility",
    "check_twist_consistency",
    "check_support",
    "report_sort_key",
]


def _jsonify(v):
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if isinstance(v, (list, tuple)):
        return [_jsonify(x) for x in v]
    raise TypeError(f"cannot serialize {v!r}")


@dataclass
class CheckReport:
    """Outcome of one verification check.

    expected and actual are exact witnesses (integers, valuations, or small
    structures of them); integers are serialized as decimal strings so that
    arbitrary-precision values survive JSON round trips."""

    check_id: str
    params: dict
    passed: bool
    expected: object = None
    actual: object = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "params": dict(self.params),
            "passed": self.passed,
            "expected": _jsonify(self.expected),
            "actual": _jsonify(self.actual),
            "notes": self.notes,
        }


def report_sort_key(r: CheckReport):
    p = r.params
    return (
        p.get("level", 0),
        p.get("p", 0),
        p.get("m", -1),
        p.get("n", 0),
        r.check_id,
    )


class FormCache:
    """Store of catalog expansions, keyed by form name, kept by
    spans._memo's rule and under its lock.  DEFAULT_CACHE is the one store
    of the process: the checks, `qmod expand` and the span generators all
    read it.

    series answers with a copy truncated to the request; expansion hands
    out the held expansion itself, so a check asks once per form, at the
    largest precision it reads, and takes every coefficient and shorter
    copy from that one series.  A miss in expansion still enters through
    series, the one method that expands in this process: a wrapper on
    series then sees every expansion made here.  After a forked grid run
    the store holds only the forms of this process's levels (see
    _grid_reports).  perfbench's cold-start probe patches FormCache.series
    and catalog_form in this module, so they, _expand and DEFAULT_CACHE
    stay here."""

    def __init__(self):
        self._data: dict[str, QSeries] = {}

    def series(self, name: str, prec: int) -> QSeries:
        return truncate(_memo(self._data, name, prec, _expand, self, name,
                              prec), prec)

    def expansion(self, name: str, prec: int) -> QSeries:
        """The held expansion of name, certified to at least prec: the
        stored series, not a truncated copy."""
        return _memo(self._data, name, prec, self.series, name, prec)


def _expand(cache: FormCache, name: str, prec: int) -> QSeries:
    recipe = FORMS.get(name)
    if isinstance(recipe, Twist):
        # the one place a Twist recipe is applied: to the held base
        return twist(cache.series(recipe.base, prec), recipe.disc)
    return catalog_form(name, prec)


DEFAULT_CACHE = FormCache()


def prime_eligibility(level: int, p: int) -> tuple[bool, str]:
    """Whether the checks run at (level, p), with a reason when they do not.

    A prime is eligible when it is inert in the CM field and does not
    divide the level."""
    spec = curve(level)
    if not is_inert(p, spec.cm_disc):
        return False, f"{p} is not inert in the CM field (disc {spec.cm_disc})"
    if level % p == 0:
        return False, f"{p} divides the level {level}"
    return True, ""


def eligible_inert_primes(level: int, bound: int) -> list[int]:
    return [
        p for p in range(2, bound + 1)
        if _is_prime(p) and prime_eligibility(level, p)[0]
    ]


def limit_prec(K: int, p: int, m: int) -> int:
    """Precision of G that fixes the first K coefficients of
    G|U(p^(2m+1)): K * p^(2m+1) + 1."""
    return K * p ** (2 * m + 1) + 1


def _at_least(name: str, value: int, low: int):
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _require_eligible(level: int, p: int):
    ok, reason = prime_eligibility(level, p)
    if not ok:
        raise ValueError(f"ineligible prime for level {level}: {reason}")


def _require_span_level(what: str, level: int, p: int):
    _level(level, what)
    _require_eligible(level, p)


# ---------------------------------------------------------------------------
# the individual checks

def check_valuation(level: int, p: int, m: int) -> CheckReport:
    """v_p of the companion-form coefficient at p^(2m+1) equals m."""
    _at_least("m", m, 0)
    _require_eligible(level, p)
    e = p ** (2 * m + 1)
    C = DEFAULT_CACHE.expansion(f"G{level}", e + 1).coefficient(e)
    v = padic_valuation(C, p)
    return CheckReport(
        check_id="valuation",
        params={"level": level, "p": p, "m": m},
        passed=(v == m),
        expected=m,
        actual=v,
        notes=f"C({e}) = {C}",
    )


def check_limit(level: int, p: int, m: int, K: int = 20) -> CheckReport:
    """Division-free form of the p-adic limit property: every one of the
    first K coefficients of G|U(p^(2m+1)) - C(p^(2m+1))*g is divisible by
    p^(2m+1)."""
    _at_least("m", m, 0)
    _at_least("K", K, 1)
    _require_eligible(level, p)
    pe = p ** (2 * m + 1)
    # the held expansion, read only in the window G|U(pe) needs
    G = DEFAULT_CACHE.expansion(f"G{level}", limit_prec(K, p, m))
    GU = apply_U(G, pe, K + 1)
    C = G.coefficient(pe)
    g = DEFAULT_CACHE.series(f"g{level}", K + 1)
    D = sub(GU, scale(g, C))
    e_lo = min(D.order, 1)
    v = padic_valuation_range(D, p, e_lo, K + 1)
    return CheckReport(
        check_id="limit",
        params={"level": level, "p": p, "m": m, "K": K},
        passed=(v >= 2 * m + 1),
        expected=2 * m + 1,
        actual=v,
        notes=(
            f"min v_{p} of G|U({pe}) - C({pe})*g over exponents "
            f"[{e_lo}, {K + 1}); expected value is a lower bound"
        ),
    )


def check_congruence(level: int, p: int, m: int = 0) -> CheckReport:
    """C(p^(2m+1)) = (-1)^m p^m C(p) mod p^(m+1), at levels 27 and 36."""
    _at_least("m", m, 0)
    _require_span_level("congruence check", level, p)
    e = p ** (2 * m + 1)
    G = DEFAULT_CACHE.expansion(f"G{level}", e + 1)
    C2, C1 = G.coefficient(e), G.coefficient(p)
    mod = p ** (m + 1)
    lhs = C2 % mod
    rhs = ((-1) ** m * p ** m * C1) % mod
    return CheckReport(
        check_id="congruence",
        params={"level": level, "p": p, "m": m},
        passed=(lhs == rhs),
        expected=rhs,
        actual=lhs,
        notes=f"C({e}) = {C2}, C({p}) = {C1}, modulus {mod}",
    )


def check_hecke_decomposition(level: int, p: int, n: int = 1,
                              prec: int = 30) -> CheckReport:
    """G|T_2(p^n) = p^n H_(p^n) + C(p^n) g, compared coefficientwise from
    the pole through q^(prec-1)."""
    _at_least("n", n, 1)
    _at_least("prec", prec, 2)
    _require_span_level("span decomposition", level, p)
    _require_span_prec(level, prec)
    pn = p ** n
    G = DEFAULT_CACHE.series(f"G{level}", prec * pn)
    lhs = hecke(G, p, n)
    C = G.coefficient(pn)
    H = build_H(level, pn, prec)
    g = DEFAULT_CACHE.series(f"g{level}", prec)
    rhs = add(scale(H, pn), scale(g, C))
    bad = first_difference(lhs, rhs)
    shared = min(lhs.prec, rhs.prec)
    return CheckReport(
        check_id="hecke-decomposition",
        params={"level": level, "p": p, "n": n, "prec": prec},
        passed=(bad is None and shared >= prec),
        expected=None,
        actual=bad,
        notes=(
            f"first differing exponent of G|T2({pn}) vs {pn}*H_{pn} + "
            f"C({pn})*g on [{-pn}, {shared}), C({pn}) = {C}"
        ),
    )


def check_theta_psi(level: int, p: int, prec: int = 30, m_max: int = 1,
                    K: int = 20) -> CheckReport:
    """G|T_2(p) = -theta(psi_p) on the full shared precision, and the
    derived congruence G|U(p^(2m+1)) = (-1)^(m+1) p^m theta(psi_p)
    mod p^(m+1) on the first K coefficients for m <= m_max."""
    _at_least("prec", prec, 1)
    _at_least("m_max", m_max, 0)
    _at_least("K", K, 1)
    _require_span_level("theta-psi identity", level, p)
    psi = build_psi(level, p, prec)
    th = theta(psi)
    G = DEFAULT_CACHE.expansion(f"G{level}",
                                max(p * prec, limit_prec(K, p, m_max)))
    lhs = hecke(truncate(G, p * prec), p, 1)
    bad = first_difference(lhs, scale(th, -1))
    cong_vals = []
    passed = bad is None
    for m in range(m_max + 1):
        pe = p ** (2 * m + 1)
        GU = apply_U(G, pe, K + 1)
        target = scale(th, (-1) ** (m + 1) * p ** m)
        D = sub(GU, target)
        e_hi = min(D.prec, K + 1)
        v = padic_valuation_range(D, p, min(D.order, e_hi), e_hi)
        cong_vals.append(v)
        if not v >= m + 1:
            passed = False
    return CheckReport(
        check_id="theta-psi",
        params={"level": level, "p": p, "prec": prec, "m_max": m_max},
        passed=passed,
        expected=[None, [m + 1 for m in range(m_max + 1)]],
        actual=[bad, cong_vals],
        notes=(
            "parts: first differing exponent of G|T2(p) vs -theta(psi_p), "
            "then min v_p of G|U(p^(2m+1)) - (-1)^(m+1) p^m theta(psi_p) "
            f"for m = 0..{m_max} (lower bounds)"
        ),
    )


def check_residue(level: int, p: int, prec: int = 30) -> CheckReport:
    """The constant term of G*psi_p vanishes, and the q-coefficient of
    psi_p is -C(p)."""
    _at_least("prec", prec, 2)
    _require_span_level("residue pairing", level, p)
    psi = build_psi(level, p, prec)
    G = DEFAULT_CACHE.series(f"G{level}", prec + p)
    prod = mul(G, psi)
    const = prod.coefficient(0)
    Cp = G.coefficient(p)
    cpsi = psi.coefficient(1)
    return CheckReport(
        check_id="residue",
        params={"level": level, "p": p, "prec": prec},
        passed=(const == 0 and cpsi == -Cp),
        expected=[0, -Cp],
        actual=[const, cpsi],
        notes=f"constant term of G*psi_{p}, then q-coefficient of psi_{p} "
              f"against -C({p})",
    )


def check_nondivisibility(level: int, p: int) -> CheckReport:
    """p does not divide C(p)."""
    _require_eligible(level, p)
    C = DEFAULT_CACHE.expansion(f"G{level}", p + 1).coefficient(p)
    return CheckReport(
        check_id="nondivisibility",
        params={"level": level, "p": p},
        passed=(C % p != 0),
        expected="nonzero residue",
        actual=C % p,
        notes=f"C({p}) = {C} mod {p}",
    )


# The (p, m) pairs at which check_twist_consistency tests the U-twist
# commutation, and how many coefficients it compares there.
_TWIST_SAMPLES = ((3, 0), (7, 0))
_TWIST_K = 50


def check_twist_consistency(prec: int = 200) -> CheckReport:
    """The newform twist identities, one per Twist recipe in FORMS (the
    level 64 and 144 eta products equal the character twists of the level
    32 and 36 newforms), plus the U-twist commutation for the level 32
    companion form at the _TWIST_SAMPLES (p, m) pairs on _TWIST_K
    coefficients."""
    _at_least("prec", prec, 2)
    mismatches = []
    compared = []
    for recipe in FORMS.values():
        if not isinstance(recipe, Twist):
            continue
        dst, src = f"g{recipe.level}", f"g{FORMS[recipe.base].level}"
        direct = DEFAULT_CACHE.series(dst, prec)
        twisted = twist(DEFAULT_CACHE.series(src, prec), recipe.disc)
        mismatches.append(first_difference(direct, twisted))
        compared.append(f"{dst} vs {src} twisted by ({recipe.disc}|.)")
    commute = []
    G32 = DEFAULT_CACHE.expansion("G32", max(limit_prec(_TWIST_K, p, m)
                                             for p, m in _TWIST_SAMPLES))
    for p, m in _TWIST_SAMPLES:
        pe = p ** (2 * m + 1)
        G = truncate(G32, limit_prec(_TWIST_K, p, m))
        lhs = apply_U(twist(G, 8), pe)
        rhs = scale(twist(apply_U(G, pe), 8), kronecker(8, pe))
        commute.append(first_difference(lhs, rhs))
    ok = all(x is None for x in mismatches + commute)
    return CheckReport(
        check_id="twist",
        params={"prec": prec, "samples": [list(s) for s in _TWIST_SAMPLES],
                "K": _TWIST_K},
        passed=ok,
        expected=[None] * (len(mismatches) + len(commute)),
        actual=mismatches + commute,
        notes=("first differing exponents: " + ", ".join(compared)
               + ", then U-twist commutation on G32 at each sample"),
    )


# Per level: the classes (residue, modulus) of g and G, then the (p, m) of
# check_support's even-power degeneration.
_SUPPORT_CLASSES = {
    27: ((1, 3), (2, 3), ((2, 1), (5, 1))),
    32: ((1, 4), (3, 4), ()),
    36: ((1, 6), (5, 6), ()),
    64: ((1, 4), (3, 4), ()),
    144: ((1, 6), (5, 6), ()),
}


def check_support(level: int, prec: int = 500) -> CheckReport:
    """Support lattices of g and G, and for level 27 the even-power
    degeneration: C(p^(2m)) = 0 and G|T_2(p^(2m)) = p^(2m) H_(p^(2m)) at
    small p^(2m)."""
    _at_least("prec", prec, 2)
    curve(level)  # an unknown level raises ValueError here
    (g_res, g_mod), (G_res, G_mod), even = _SUPPORT_CLASSES[level]
    g = DEFAULT_CACHE.series(f"g{level}", prec)
    G = DEFAULT_CACHE.expansion(
        f"G{level}", max([prec] + [31 * p ** (2 * m) for p, m in even]))
    bad_g = sorted(e for e in g.support() if e % g_mod != g_res)
    bad_G = sorted(e for e in truncate(G, prec).support()
                   if e % G_mod != G_res)
    # C(p^2m) = 0, so the decomposition is G|T2(p^2m) = p^2m H_(p^2m);
    # the largest p^2m first, so that its span expands L1 and L2 once for
    # every smaller one
    extras = [[G.coefficient(p ** (2 * m)),
               check_hecke_decomposition(level, p, 2 * m, 31).actual]
              for p, m in reversed(even)][::-1]
    ok = (not bad_g and not bad_G
          and all(c == 0 and d is None for c, d in extras))
    return CheckReport(
        check_id="support",
        params={"level": level, "prec": prec},
        passed=ok,
        expected=[[], [], [[0, None]] * len(extras)],
        actual=[bad_g[:5], bad_G[:5], extras],
        notes=(
            f"exponents of g outside {g_res} mod {g_mod}, of G outside "
            f"{G_res} mod {G_mod}"
            + ("; then [C(p^2m), T2 vs span mismatch] at p^2m = 4, 25"
               if even else "")
        ),
    )


# ---------------------------------------------------------------------------
# the grid: valuation and limit checks over many (level, p, m)

def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slots(name: str, prec: int) -> int:
    """Kernel slots of the eta quotient name expanded to prec."""
    return prec // math.gcd(*(d for d, _ in FORMS[name].factors))


def _check_jobs(jobs: list[tuple[int, int, int]], K: int) -> list[CheckReport]:
    """The valuation and limit reports of jobs (level, p, m), each form
    expanded first, once, at the largest precision a job reads of it."""
    need: dict[str, int] = {}
    for level, p, m in jobs:
        need[f"G{level}"] = max(need.get(f"G{level}", 0), limit_prec(K, p, m))
        need[f"g{level}"] = K + 1
    for name, prec in need.items():
        DEFAULT_CACHE.expansion(name, prec)
    return [r for level, p, m in jobs
            for r in (check_valuation(level, p, m),
                      check_limit(level, p, m, K))]


def _fork_checks(jobs: list[tuple[int, int, int]], K: int):
    """(pid, pipe) of a forked child that writes marshal.dumps of the
    plain report tuples of _check_jobs(jobs, K) to the pipe, or None when
    the fork fails, which leaves the jobs to this process."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        # the child never returns into its caller, nor flushes its stdout
        code = 1
        try:
            os.close(r)
            out = [astuple(report) for report in _check_jobs(jobs, K)]
            with open(w, "wb") as pipe:
                pipe.write(marshal.dumps(out))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _grid_reports(jobs: list[tuple[int, int, int]],
                  K: int) -> list[CheckReport]:
    """The valuation and limit reports of the grid jobs (level, p, m),
    unsorted.  The jobs are grouped by the eta quotient their G reads, a
    level with its twist levels (32 with 64, 36 with 144).  This process
    checks the group of most _slots, at its largest precision, first, so
    a cold store's first request expands here (perfbench's cold-start
    probe), and one forked child checks every other group in its own copy
    of the store and sends back only its reports.  A failed child leaves
    its jobs to this process, so an error surfaces as it does serially,
    and it is reaped before this returns or raises.  The child is forked
    only for two groups or more, when os.fork exists, more than one CPU is
    available and no other thread runs (it could inherit a lock one of
    them holds); otherwise this process checks every group in turn."""
    groups: dict[str, list] = {}
    for job in jobs:
        recipe = FORMS[f"G{job[0]}"]
        base = recipe.base if isinstance(recipe, Twist) else f"G{job[0]}"
        groups.setdefault(base, []).append(job)
    ranked = sorted(groups, reverse=True, key=lambda base: _slots(
        base, max(limit_prec(K, p, m) for _, p, m in groups[base])))
    here = groups[ranked[0]] if ranked else []
    rest = [job for base in ranked[1:] for job in groups[base]]
    child = None
    if (rest and hasattr(os, "fork") and _cpu_count() > 1
            and threading.active_count() == 1):
        child = _fork_checks(rest, K)
    try:
        reports = _check_jobs(here, K)
        if child:
            pid, pipe = child
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            child = None
            # the child exits 0 only after writing all of its reports
            if status == 0:
                return reports + [CheckReport(*r) for r in marshal.loads(data)]
        return reports + _check_jobs(rest, K)
    finally:
        if child:
            # this process raised before it reaped the child
            from signal import SIGKILL
            pid, pipe = child
            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
