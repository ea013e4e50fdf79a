"""Command line front end: expand catalog forms and span elements, run
single identity checks, or run the valuation/limit verification grid.

Exit codes: 0 all requested checks passed, 1 at least one check failed
or stdout was closed before the output was written (as by `| head`), 2
bad usage, invalid parameters or an --out file that cannot be written.
Output is deterministic for fixed arguments: no timestamps, fixed key
order, canonical report ordering.

Every command line is parsed one of two ways.  A check command line in its
canonical spelling (`check`, a check id, then whole `--flag value` pairs
with every flag written out) is read by `_read_check`, without building the
argparse parser, into the namespace that parser would build for it.  Every
other command line goes to `parse_args` of a parser built for that call, so
argparse alone decides help, abbreviations and usage errors."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .eta import CURVES, FORMS, curve
from .qseries import QSeries, _is_prime
from .spans import build_H, build_psi
from .verify import (
    DEFAULT_CACHE,
    CheckReport,
    _at_least,
    _grid_reports,
    check_congruence,
    check_hecke_decomposition,
    check_nondivisibility,
    check_residue,
    check_support,
    check_theta_psi,
    check_twist_consistency,
    eligible_inert_primes,
    limit_prec,
    prime_eligibility,
    report_sort_key,
)

__all__ = ["run_grid", "main", "main_entry", "DEFAULT_PREC_CEILING"]

_SPAN_FORM = re.compile(r"(H|psi)(-?\d+)@(\d+)")

DEFAULT_PREC_CEILING = 10 ** 6

# Every flag of the check subcommand, in --help order.
_CHECK_FLAGS = ("level", "p", "m", "n", "K", "prec", "m_max")
# Their option strings, each to its namespace attribute.
_CHECK_OPTIONS = {"--" + f.replace("_", "-"): f for f in _CHECK_FLAGS}

# check id -> (check function in this module, required flags, optional
# flags).  Flags are passed on by name only when given, so every default
# lives in the function's signature.  The function is looked up when the
# check runs, so rebinding a check_* name here (as a profiler does) counts.
_CHECKS = {
    "congruence": ("check_congruence", ("level", "p"), ("m",)),
    "hecke-decomposition": ("check_hecke_decomposition", ("level", "p"),
                            ("n", "prec")),
    "nondivisibility": ("check_nondivisibility", ("level", "p"), ()),
    "residue": ("check_residue", ("level", "p"), ("prec",)),
    "support": ("check_support", ("level",), ("prec",)),
    "theta-psi": ("check_theta_psi", ("level", "p"), ("prec", "m_max", "K")),
    "twist": ("check_twist_consistency", (), ("prec",)),
}


def _prec_ceiling() -> int:
    raw = os.environ.get("QMOD_PREC_CEILING")
    if raw is None:
        return DEFAULT_PREC_CEILING
    try:
        v = int(raw)
    except ValueError:
        raise ValueError(f"QMOD_PREC_CEILING must be an integer, got {raw!r}")
    if v < 2:
        raise ValueError("QMOD_PREC_CEILING must be at least 2")
    return v


def _default_depth(K: int, p: int, ceiling: int) -> int:
    m = -1
    while limit_prec(K, p, m + 1) <= ceiling:
        m += 1
    return m


def run_grid(levels: tuple[int, ...] = tuple(CURVES),
             primes: tuple[int, ...] | None = None, prime_bound: int = 12,
             m_max: int | None = None, K: int = 20,
             ceiling: int = DEFAULT_PREC_CEILING
             ) -> tuple[list[CheckReport], list[dict]]:
    """Run the valuation and limit checks over a grid of levels, primes
    and depths.  Returns (reports, skipped): reports in canonical order,
    skipped as dicts with a reason each.

    primes=None means every eligible inert prime up to prime_bound, per
    level; repeated levels and primes count once.  m_max=None means the
    per-prime default depth: the largest m with K * p^(2m+1) + 1 <=
    ceiling.  An explicit m_max is bounded by the ceiling too: a job above
    it raises ValueError before any expansion.

    The levels are split between this process and, with more than one
    CPU, one forked child (verify._grid_reports); each expands each form
    it reads once, at the largest precision its jobs need."""
    levels = tuple(dict.fromkeys(levels))
    for level in levels:
        curve(level)
    for q in primes or ():
        if not _is_prime(q):
            raise ValueError(f"--primes entries must be prime, got {q}")
    if primes is None:
        _at_least("prime bound", prime_bound, 2)
    else:
        primes = tuple(dict.fromkeys(primes))
    if m_max is not None:
        _at_least("m_max", m_max, 0)
    _at_least("K", K, 1)
    _at_least("precision ceiling", ceiling, 2)
    jobs: list[tuple[int, int, int]] = []
    skipped: list[dict] = []
    for level in levels:
        if primes is None:
            level_primes = eligible_inert_primes(level, prime_bound)
        else:
            level_primes = []
            for p in primes:
                ok, reason = prime_eligibility(level, p)
                if ok:
                    level_primes.append(p)
                else:
                    skipped.append({"level": level, "p": p, "m": None,
                                    "reason": reason})
        for p in level_primes:
            if m_max is not None:
                top = m_max
            else:
                top = _default_depth(K, p, ceiling)
                if top < 0:
                    skipped.append({
                        "level": level, "p": p, "m": 0,
                        "reason": (f"K*p exceeds the precision ceiling "
                                   f"{ceiling} already at m = 0"),
                    })
                    continue
            jobs.extend((level, p, m) for m in range(top + 1))
    for level, p, m in jobs:
        if limit_prec(K, p, m) > ceiling:
            raise ValueError(f"level {level}, p = {p}, m = {m} needs "
                             f"precision {limit_prec(K, p, m)}, above the "
                             f"precision ceiling {ceiling}")
    reports = _grid_reports(jobs, K)
    reports.sort(key=report_sort_key)
    skipped.sort(key=lambda s: (s["level"], s["p"],
                                -1 if s["m"] is None else s["m"]))
    return reports, skipped


# ---------------------------------------------------------------------------
# rendering

def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            Path(out_path).write_text(text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write --out {out_path}: {e.strerror}")
    else:
        print(text)


def _series_text(name: str, f: QSeries, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "form": name,
            "prec": f.prec,
            "coeffs": [[e, str(c)] for e, c in f.items()],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    return "\n".join(f"{e} {c}" for e, c in f.items())


_PARAM_ORDER = (*_CHECK_FLAGS, "samples")


def _report_line(r: CheckReport) -> str:
    parts = ["PASS" if r.passed else "FAIL", r.check_id]
    for k in _PARAM_ORDER:
        if k in r.params:
            parts.append(f"{k}={r.params[k]}")
    line = " ".join(parts)
    if not r.passed:
        line += f"  expected={r.expected!r} actual={r.actual!r}  {r.notes}"
    return line


def _skip_line(s: dict) -> str:
    line = f"SKIP level={s['level']} p={s['p']}"
    if s["m"] is not None:
        line += f" m={s['m']}"
    return line + f": {s['reason']}"


# ---------------------------------------------------------------------------
# subcommands

def _resolve_form(name: str, prec: int) -> QSeries:
    """name to prec.  Before any work, the precision it needs, prec plus
    the pole of a span element, must be at most the precision ceiling."""
    mo = _SPAN_FORM.fullmatch(name)
    if not mo and name not in FORMS:
        raise ValueError(
            f"unknown form {name!r}; catalog forms are "
            + ", ".join(sorted(FORMS))
            + ", plus span elements H<m>@<level> and psi<p>@<level>")
    pole = abs(int(mo.group(2))) if mo else 0
    need, ceiling = prec + pole, _prec_ceiling()
    if need > ceiling:
        raise ValueError(f"{name} at --prec {prec} needs precision {need}, "
                         f"above the precision ceiling {ceiling}")
    if mo:
        build = build_H if mo.group(1) == "H" else build_psi
        return build(int(mo.group(3)), int(mo.group(2)), prec)
    return DEFAULT_CACHE.series(name, prec)


def _given(args, names) -> dict:
    """The named flags the user gave; the others keep library defaults."""
    return {n: getattr(args, n) for n in names
            if getattr(args, n) is not None}


def cmd_expand(args) -> int:
    f = _resolve_form(args.form, args.prec)
    _emit(_series_text(args.form, f, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    grid = _given(args, ("m_max", "K"))
    grid["ceiling"] = _prec_ceiling()
    if args.curve is not None:
        grid["levels"] = (args.curve,)
    if args.primes is not None:
        grid.update(_parse_primes(args.primes))
    reports, skipped = run_grid(**grid)
    npass = sum(1 for r in reports if r.passed)
    total = len(reports)
    summary = f"PASSED {npass}/{total} (skipped {len(skipped)})"
    if args.format == "json":
        payload = {
            "reports": [r.to_json_dict() for r in reports],
            "skipped": skipped,
            "summary": {"passed": npass, "total": total,
                        "skipped": len(skipped)},
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
        print(summary, file=sys.stderr)
    else:
        lines = [_report_line(r) for r in reports]
        lines += [_skip_line(s) for s in skipped]
        body = "\n".join(lines)
        if args.out:
            _emit(body, args.out)
        elif body:
            print(body)
        print(summary)
    return 0 if npass == total else 1


def cmd_check(args) -> int:
    name, required, optional = _CHECKS[args.check_id]
    for flag in required:
        if getattr(args, flag) is None:
            raise ValueError(f"check {args.check_id!r} requires --{flag}")
    taken = required + optional
    for flag in _given(args, _CHECK_FLAGS):
        if flag not in taken:
            raise ValueError(f"check {args.check_id!r} does not take "
                             f"--{flag.replace('_', '-')}")
    r = globals()[name](**_given(args, taken))
    if args.format == "json":
        _emit(json.dumps(r.to_json_dict(), indent=2, sort_keys=True),
              args.out)
    else:
        _emit(_report_line(r), args.out)
    return 0 if r.passed else 1


_DISPATCH = {
    "expand": cmd_expand,
    "verify": cmd_verify,
    "check": cmd_check,
}


# ---------------------------------------------------------------------------
# argument parsing

def _parse_primes(raw: str) -> dict:
    """--primes as run_grid arguments: "auto:B" sets prime_bound, a comma
    separated list sets primes."""
    try:
        if raw.startswith("auto:"):
            return {"prime_bound": int(raw[5:])}
        return {"primes": tuple(int(x) for x in raw.split(","))}
    except ValueError:
        raise ValueError(f"bad --primes value {raw!r}")


# The --format choices; the first is the default.
_FORMATS = ("table", "json")


def _io_flags(sp):
    sp.add_argument("--format", choices=_FORMATS, default=_FORMATS[0])
    sp.add_argument("--out", default=None, metavar="FILE")


def _build_parser() -> argparse.ArgumentParser:
    """The qmod argument parser."""
    p = argparse.ArgumentParser(
        prog="qmod",
        description="Exact q-series catalog and p-adic verification harness",
    )
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser(
        "expand",
        help="print a catalog form's q-expansion (names like g27, G36, L1, "
             "or span elements like H2@27 and psi5@27)")
    e.add_argument("--form", required=True)
    e.add_argument("--prec", type=int, default=50)
    _io_flags(e)

    v = sub.add_parser("verify",
                       help="run the valuation and limit checks over a grid")
    grp = v.add_mutually_exclusive_group()
    grp.add_argument("--curve", type=int, default=None,
                     help="single catalog level")
    grp.add_argument("--all", action="store_true",
                     help="all five catalog levels")
    v.add_argument("--primes",
                   help='comma separated primes, or "auto:BOUND" for every '
                        "eligible inert prime up to BOUND")
    v.add_argument("--m-max", type=int, dest="m_max")
    v.add_argument("--K", type=int)
    _io_flags(v)

    c = sub.add_parser("check", help="run a single identity check")
    c.add_argument("check_id", choices=_CHECKS)
    for option, flag in _CHECK_OPTIONS.items():
        c.add_argument(option, type=int, dest=flag)
    _io_flags(c)

    return p


# The option strings argparse resolves to verify's --primes: the flag and
# its unique prefixes.
_PRIMES_FLAGS = {"--primes"[:k] for k in range(3, 9)}


def _attach_primes(argv: list) -> list:
    """argv with each verify `--primes V` whose V starts with -<digit>
    written as `--primes=V`, and the same for each abbreviation from --p to
    --prime: argparse takes a value like -1,5, which is not a plain negative
    number, for an option string and fails before --primes is checked.
    Other subcommands are left alone; check has a --p of its own."""
    if next((t for t in argv if not t.startswith("-")), None) != "verify":
        return argv
    out = []
    for tok in argv:
        if out and out[-1] in _PRIMES_FLAGS and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


_ASCII_INT = re.compile(r"-?[0-9]+")


def _read_check(argv: list) -> argparse.Namespace | None:
    """The namespace the top-level parser's parse_args builds for argv, when
    argv is `check`, a check id and then whole `--flag value` pairs, each
    flag spelled out exactly: an integer flag with an ASCII integer, --format
    with one of its choices, --out with a value not starting with -.  None
    for any other argv, which main leaves to argparse.

    The namespaces are equal, because for these argvs argparse, too,
    matches each flag exactly, converts each integer with int(), reads -5 as
    a value (no check option looks like a negative number), checks the
    --format choice, takes a token not starting with - as --out's value,
    keeps the last of a repeated flag and leaves absent flags None.
    _attach_primes rewrites only verify command lines, so it need not run
    before this reader."""
    if len(argv) < 2 or len(argv) % 2 or argv[0] != "check" \
            or argv[1] not in _CHECKS:
        return None
    args = dict.fromkeys(_CHECK_FLAGS)
    args.update(format=_FORMATS[0], out=None)
    for flag, value in zip(argv[2::2], argv[3::2]):
        if flag in _CHECK_OPTIONS and _ASCII_INT.fullmatch(value):
            try:
                args[_CHECK_OPTIONS[flag]] = int(value)
            except ValueError:  # more digits than int() converts
                return None
        elif flag == "--format" and value in _FORMATS:
            args["format"] = value
        elif flag == "--out" and not value.startswith("-"):
            args["out"] = value
        else:
            return None
    return argparse.Namespace(command="check", check_id=argv[1], **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_check(argv) or _build_parser().parse_args(
        _attach_primes(argv))
    try:
        p = getattr(args, "p", None)
        if p is not None and not _is_prime(p):
            raise ValueError(f"--p must be prime, got {p}")
        return _DISPATCH[args.command](args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main_entry():
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; send the rest to devnull so that the
        # flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
