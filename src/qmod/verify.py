"""Verification checks for the catalog: p-adic valuations of the companion
form coefficients, the p-adic limit property, coefficient congruences, Hecke
decompositions against the span normal forms, and structural consistency
checks.  Every check returns a CheckReport with exact integer witnesses."""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

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
from .spans import build_H, build_psi

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
    if isinstance(v, dict):
        return {k: _jsonify(x) for k, x in v.items()}
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
    """Shared store of catalog expansions, keyed by form name.

    Each name keeps its highest-precision expansion so far.  series answers
    a request at or below that precision with a truncated copy; expansion
    hands out the held expansion itself, and coefficient reads one
    coefficient from it, so a check that reads C(p^k), or a warm-up that
    only sets the precision, copies nothing.  A miss in expansion or
    coefficient still enters through series, the one method that expands:
    a wrapper on series (a profiler, or perfbench's cold-start probe) then
    sees every expansion the cache makes.  Access is serialized by a
    reentrant lock, so concurrent checks never tear a read or duplicate a
    full expansion."""

    def __init__(self):
        self._data: dict[str, QSeries] = {}
        self._lock = threading.RLock()

    def series(self, name: str, prec: int) -> QSeries:
        with self._lock:
            f = self._data.get(name)
            if f is not None and f.prec >= prec:
                return truncate(f, prec)
            recipe = FORMS.get(name)
            if isinstance(recipe, Twist):
                # reuse the cached base expansion instead of expanding it
                g = twist(self.series(recipe.base, prec), recipe.disc)
            else:
                g = catalog_form(name, prec)
            self._data[name] = g
            return truncate(g, prec)

    def expansion(self, name: str, prec: int) -> QSeries:
        """The held expansion of name, certified to at least prec: the
        stored series, not a truncated copy."""
        with self._lock:
            f = self._data.get(name)
            if f is None or f.prec < prec:
                # a miss stores the new expansion at exactly prec, so the
                # truncation series returns is the stored series itself
                f = self.series(name, prec)
            return f

    def coefficient(self, name: str, e: int) -> int:
        """The coefficient of q^e in name, read from the held expansion."""
        return self.expansion(name, e + 1).coefficient(e)


DEFAULT_CACHE = FormCache()


def _cache(cache) -> FormCache:
    return DEFAULT_CACHE if cache is None else cache


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


def _require_27_or_36(what: str, level: int, p: int):
    if level not in (27, 36):
        raise ValueError(f"{what} runs at levels 27 and 36, not {level}")
    _require_eligible(level, p)


# ---------------------------------------------------------------------------
# the individual checks

def check_valuation(level: int, p: int, m: int,
                    cache: FormCache | None = None) -> CheckReport:
    """v_p of the companion-form coefficient at p^(2m+1) equals m."""
    _at_least("m", m, 0)
    _require_eligible(level, p)
    e = p ** (2 * m + 1)
    C = _cache(cache).coefficient(f"G{level}", e)
    v = padic_valuation(C, p)
    return CheckReport(
        check_id="valuation",
        params={"level": level, "p": p, "m": m},
        passed=(v == m),
        expected=m,
        actual=v,
        notes=f"C({e}) = {C}",
    )


def check_limit(level: int, p: int, m: int, K: int = 20,
                cache: FormCache | None = None) -> CheckReport:
    """Division-free form of the p-adic limit property: every one of the
    first K coefficients of G|U(p^(2m+1)) - C(p^(2m+1))*g is divisible by
    p^(2m+1)."""
    _at_least("m", m, 0)
    _at_least("K", K, 1)
    _require_eligible(level, p)
    pe = p ** (2 * m + 1)
    store = _cache(cache)
    G = store.series(f"G{level}", limit_prec(K, p, m))
    GU = apply_U(G, pe)
    C = G.coefficient(pe)
    g = store.series(f"g{level}", K + 1)
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


def check_congruence(level: int, p: int, m: int = 0,
                     cache: FormCache | None = None) -> CheckReport:
    """C(p^(2m+1)) = (-1)^m p^m C(p) mod p^(m+1), at levels 27 and 36."""
    _at_least("m", m, 0)
    _require_27_or_36("congruence check", level, p)
    e = p ** (2 * m + 1)
    store = _cache(cache)
    # C(e) first: e >= p, so one expansion serves both reads
    C2 = store.coefficient(f"G{level}", e)
    C1 = store.coefficient(f"G{level}", p)
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
                              prec: int = 30,
                              cache: FormCache | None = None) -> CheckReport:
    """G|T_2(p^n) = p^n H_(p^n) + C(p^n) g, compared coefficientwise from
    the pole through q^(prec-1)."""
    _at_least("n", n, 1)
    _at_least("prec", prec, 2)
    _require_27_or_36("span decomposition", level, p)
    pn = p ** n
    store = _cache(cache)
    G = store.series(f"G{level}", prec * pn)
    lhs = hecke(G, 2, p, n)
    C = G.coefficient(pn)
    H = build_H(level, pn, prec)
    rhs = add(scale(H, pn), scale(store.series(f"g{level}", prec), C))
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
                    K: int = 20,
                    cache: FormCache | None = None) -> CheckReport:
    """G|T_2(p) = -theta(psi_p) on the full shared precision, and the
    derived congruence G|U(p^(2m+1)) = (-1)^(m+1) p^m theta(psi_p)
    mod p^(m+1) on the first K coefficients for m <= m_max."""
    _at_least("prec", prec, 1)
    _at_least("m_max", m_max, 0)
    _at_least("K", K, 1)
    _require_27_or_36("theta-psi identity", level, p)
    store = _cache(cache)
    psi = build_psi(level, p, prec)
    th = theta(psi)
    # one expansion of G at the largest precision requested below
    store.expansion(f"G{level}", max(p * prec, limit_prec(K, p, m_max)))
    G = store.series(f"G{level}", p * prec)
    lhs = hecke(G, 2, p, 1)
    bad = first_difference(lhs, scale(th, -1))
    cong_vals = []
    passed = bad is None
    for m in range(m_max + 1):
        pe = p ** (2 * m + 1)
        GU = apply_U(store.series(f"G{level}", limit_prec(K, p, m)), pe)
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


def check_residue(level: int, p: int, prec: int = 30,
                  cache: FormCache | None = None) -> CheckReport:
    """The constant term of G*psi_p vanishes, and the q-coefficient of
    psi_p is -C(p)."""
    _at_least("prec", prec, 2)
    _require_27_or_36("residue pairing", level, p)
    store = _cache(cache)
    psi = build_psi(level, p, prec)
    G = store.series(f"G{level}", prec + p)
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


def check_nondivisibility(level: int, p: int,
                          cache: FormCache | None = None) -> CheckReport:
    """p does not divide C(p)."""
    _require_eligible(level, p)
    C = _cache(cache).coefficient(f"G{level}", p)
    return CheckReport(
        check_id="nondivisibility",
        params={"level": level, "p": p},
        passed=(C % p != 0),
        expected="nonzero residue",
        actual=C % p,
        notes=f"C({p}) = {C} mod {p}",
    )


def check_twist_consistency(prec: int = 200,
                            samples: tuple = ((3, 0), (7, 0)),
                            sample_K: int = 50,
                            cache: FormCache | None = None) -> CheckReport:
    """The newform twist identities, one per Twist recipe in FORMS (the
    level 64 and 144 eta products equal the character twists of the level
    32 and 36 newforms), plus the U-twist commutation for the level 32
    companion form at the sample (p, m) pairs on sample_K coefficients."""
    _at_least("prec", prec, 2)
    store = _cache(cache)
    mismatches = []
    compared = []
    for recipe in FORMS.values():
        if not isinstance(recipe, Twist):
            continue
        dst, src = f"g{recipe.level}", f"g{FORMS[recipe.base].level}"
        direct = store.series(dst, prec)
        twisted = twist(store.series(src, prec), recipe.disc)
        mismatches.append(first_difference(direct, twisted))
        compared.append(f"{dst} vs {src} twisted by ({recipe.disc}|.)")
    commute = []
    if samples:
        # one expansion of G32 at the largest precision requested below
        store.expansion("G32", max(limit_prec(sample_K, p, m)
                                   for p, m in samples))
    for p, m in samples:
        pe = p ** (2 * m + 1)
        G = store.series("G32", limit_prec(sample_K, p, m))
        lhs = apply_U(twist(G, 8), pe)
        rhs = scale(twist(apply_U(G, pe), 8), kronecker(8, pe))
        commute.append(first_difference(lhs, rhs))
    ok = all(x is None for x in mismatches + commute)
    return CheckReport(
        check_id="twist",
        params={"prec": prec, "samples": [list(s) for s in samples],
                "K": sample_K},
        passed=ok,
        expected=[None] * (len(mismatches) + len(commute)),
        actual=mismatches + commute,
        notes=("first differing exponents: " + ", ".join(compared)
               + ", then U-twist commutation on G32 at each sample"),
    )


_SUPPORT_CLASSES = {
    27: ((1, 3), (2, 3)),
    32: ((1, 4), (3, 4)),
    36: ((1, 6), (5, 6)),
    64: ((1, 4), (3, 4)),
    144: ((1, 6), (5, 6)),
}


def check_support(level: int, prec: int = 500,
                  cache: FormCache | None = None) -> CheckReport:
    """Support lattices of g and G, and for level 27 the even-power
    degeneration: C(p^(2m)) = 0 and G|T_2(p^(2m)) = p^(2m) H_(p^(2m)) at
    small p^(2m)."""
    _at_least("prec", prec, 2)
    curve(level)  # an unknown level raises ValueError here
    store = _cache(cache)
    (g_res, g_mod), (G_res, G_mod) = _SUPPORT_CLASSES[level]
    even = ((2, 1), (5, 1)) if level == 27 else ()
    g = store.series(f"g{level}", prec)
    # one expansion of G at the largest precision requested below
    store.expansion(f"G{level}",
                    max([prec] + [31 * p ** (2 * m) for p, m in even]))
    G = store.series(f"G{level}", prec)
    bad_g = sorted(e for e in g.support() if e % g_mod != g_res)
    bad_G = sorted(e for e in G.support() if e % G_mod != G_res)
    extras = []
    for p, m in even:
        pe = p ** (2 * m)
        Gbig = store.series("G27", 31 * pe)
        Ce = Gbig.coefficient(pe)
        lhs = hecke(Gbig, 2, p, 2 * m)
        rhs = scale(build_H(27, pe, 31), pe)
        extras.append([Ce, first_difference(lhs, rhs)])
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
               if level == 27 else "")
        ),
    )
