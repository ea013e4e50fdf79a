"""Inputs of the benchmark workloads.

Every input is a `qmod` command line, driven through `qmod.cli.main`, with
optional leading NAME=value environment settings as in a shell.  A workload
is a list of jobs; each job is a list of operations that run in one fresh
interpreter, so every job starts with a cold `FormCache`.

- grid: the default `verify --all` grid, one job with one operation.  The
  seed is unused because this is the fixed command users run.
- grid_1e5: the same grid under the precision ceiling 10^5 (the documented
  QMOD_PREC_CEILING override): 74 reports in about a second instead of 86
  in about 30 s, so a minute holds enough runs to be steady.
- identities: the whole pool of `check` invocations below, in an order set
  by the seed, in one job that shares one cache.
- expand: every catalog form at precision 10^5, one job per form so that
  each expansion is cold, in an order set by the seed.

Smoke mode swaps in toy inputs of the same shape, for the self-test.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid", "grid_1e5", "identities", "expand")

CATALOG = ("G144", "G27", "G32", "G36", "G64", "L1", "L2", "L36",
           "g144", "g27", "g32", "g36", "g64")
EXPAND_PREC = 100_000
SMOKE_EXPAND_PREC = 2_000

GRID_ARGV = ("verify", "--all", "--format", "json")
GRID_1E5_ARGV = ("QMOD_PREC_CEILING=100000",) + GRID_ARGV
SMOKE_GRID_ARGV = ("verify", "--all", "--primes", "auto:5", "--m-max", "0",
                   "--K", "5", "--format", "json")

# Eligible inert primes per level (see qmod.verify.prime_eligibility).
_PRIMES_27 = (2, 5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101)
_PRIMES_36 = (5, 11, 17, 23, 29, 41, 47, 53, 59, 71, 83, 89, 101)
_PRIMES_32 = (3, 7, 11, 19, 23, 31, 43, 47)


def _check(check_id: str, **params) -> tuple[str, ...]:
    argv = ["check", check_id]
    for name, value in params.items():
        argv += [f"--{name.replace('_', '-')}", str(value)]
    return tuple(argv + ["--format", "json"])


def identities_pool() -> list[tuple[str, ...]]:
    """Every `check` invocation the identities workload runs.

    Parameters keep each catalog expansion at or below about 2*10^4 terms
    (the largest is G27 to 23^3 + 1 = 12,168 for congruence), so the span
    and operator layers do most of the work.  hecke-decomposition stops
    n = 2 at p = 17: H_(23^2) alone would take 60% of a run.  The
    default `theta-psi` depth m_max = 1 is used only where 20 * p^3 stays
    small; larger p pass --m-max 0.
    """
    pool = []
    for level, primes in ((27, (2, 5, 11, 17, 23)), (36, (5, 11, 17, 23))):
        for p in primes:
            for n in (1, 2) if p <= 17 else (1,):
                pool.append(_check("hecke-decomposition", level=level, p=p,
                                   n=n))
    for level, deep in ((27, (2, 5)), (36, (5,))):
        primes = _PRIMES_27 if level == 27 else _PRIMES_36
        for p in primes:
            if p in deep:
                pool.append(_check("theta-psi", level=level, p=p))
            elif p <= 47:
                pool.append(_check("theta-psi", level=level, p=p, m_max=0))
    for level, primes in ((27, _PRIMES_27), (36, _PRIMES_36)):
        for p in primes:
            pool.append(_check("residue", level=level, p=p))
    # the largest m with p^(2m+1) + 1 <= 2 * 10^4
    for level, primes in ((27, _PRIMES_27), (36, _PRIMES_36)):
        for p in primes:
            m = 0
            while p ** (2 * m + 3) + 1 <= 20_000:
                m += 1
            for k in range(m + 1):
                pool.append(_check("congruence", level=level, p=p, m=k))
    for level, primes in ((27, _PRIMES_27), (32, _PRIMES_32),
                          (36, _PRIMES_36), (64, _PRIMES_32),
                          (144, _PRIMES_36)):
        for p in primes:
            if p <= 47:
                pool.append(_check("nondivisibility", level=level, p=p))
    for level in (27, 32, 36, 64, 144):
        for prec in (500, 2000):
            pool.append(_check("support", level=level, prec=prec))
    for prec in (200, 1000, 5000):
        pool.append(_check("twist", prec=prec))
    return pool


def _smoke_identities() -> list[tuple[str, ...]]:
    """The first pool entry of each check id: one cheap call per check."""
    seen, out = set(), []
    for argv in identities_pool():
        if argv[1] not in seen:
            seen.add(argv[1])
            out.append(argv)
    return out


def expand_argv(name: str, prec: int) -> tuple[str, ...]:
    return ("expand", "--form", name, "--prec", str(prec), "--format", "json")


def jobs(workload: str, seed: int, smoke: bool = False
         ) -> list[list[tuple[str, ...]]]:
    """The jobs of one cold run, as op tuples without `--out`."""
    rng = random.Random(seed)
    if workload in ("grid", "grid_1e5"):
        if smoke:
            return [[SMOKE_GRID_ARGV]]
        return [[GRID_ARGV if workload == "grid" else GRID_1E5_ARGV]]
    if workload == "identities":
        pool = _smoke_identities() if smoke else identities_pool()
        rng.shuffle(pool)
        return [pool]
    if workload == "expand":
        names = list(CATALOG)
        rng.shuffle(names)
        prec = SMOKE_EXPAND_PREC if smoke else EXPAND_PREC
        return [[expand_argv(name, prec)] for name in names]
    raise ValueError(f"unknown workload {workload!r}; known: "
                     + ", ".join(WORKLOADS))


def all_inputs() -> list[tuple[str, ...]]:
    """Every argv any seed can generate, smoke mode included."""
    out = [GRID_ARGV, GRID_1E5_ARGV, SMOKE_GRID_ARGV]
    out += identities_pool()
    out += [expand_argv(n, p) for p in (EXPAND_PREC, SMOKE_EXPAND_PREC)
            for n in CATALOG]
    return out
