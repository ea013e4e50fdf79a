"""End-to-end tests of the command line front end, driven through main()
with captured output, plus one real subprocess smoke test."""

import ast
import contextlib
import doctest
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, reject, strategies as st

import qmod
import qmod.eta
import qmod.verify
from qmod import cli, eta, operators, qseries, spans, verify
from qmod.cli import DEFAULT_PREC_CEILING, main, run_grid
from qmod.eta import CURVES, FORMS
from qmod.spans import build_H, build_psi
from qmod.verify import (
    check_congruence,
    check_hecke_decomposition,
    check_limit,
    check_nondivisibility,
    check_residue,
    check_support,
    check_theta_psi,
    check_twist_consistency,
    check_valuation,
)


@pytest.fixture(autouse=True)
def _clean_ceiling(monkeypatch):
    monkeypatch.delenv("QMOD_PREC_CEILING", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# expand

def test_expand_table_examples(capsys):
    rc, out, err = run(capsys, "expand", "--form", "G27", "--prec", "3")
    assert rc == 0 and err == ""
    assert out == "-1 1\n2 -1\n"
    rc, out, _ = run(capsys, "expand", "--form", "g27", "--prec", "5")
    assert rc == 0
    assert out == "1 1\n4 -2\n"
    rc, out, _ = run(capsys, "expand", "--form", "H2@27", "--prec", "5")
    assert rc == 0
    assert out == "-2 1\n4 -5\n"
    rc, out, _ = run(capsys, "expand", "--form", "H-1@36", "--prec", "8")
    assert rc == 0 and out == "1 1\n7 -4\n"          # the weight 2 newform


def test_expand_json_schema(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "g27", "--prec", "5",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"form": "g27", "prec": 5,
                       "coeffs": [[1, "1"], [4, "-2"]]}
    # deterministic key order from sort_keys
    assert out.index('"coeffs"') < out.index('"form"') < out.index('"prec"')


def test_build_h_matches_expand(capsys):
    for m, level, prec, table in [
        (2, 27, 5, "-2 1\n4 -5\n"),
        (-1, 36, 8, "1 1\n7 -4\n"),                  # the weight 2 newform
    ]:
        rc, out, _ = run(capsys, "expand", "--form", f"H{m}@{level}",
                         "--prec", str(prec))
        assert rc == 0 and out == table
        H = build_H(level, m, prec)
        assert out == "".join(f"{e} {c}\n" for e, c in H.items())
    rc, out, err = run(capsys, "expand", "--form", "H2@", "--prec", "5")
    assert rc == 2 and "H<m>@<level>" in err


def test_expand_unknown_form_is_usage_error(capsys):
    # a span element's name with a trailing newline is no name either
    for form in ("nope", "psi5@27\n"):
        rc, out, err = run(capsys, "expand", "--form", form, "--prec", "5")
        assert rc == 2 and out == ""
        assert err.startswith("error: unknown form") and err.count("\n") == 1
        assert "g27" in err and "H<m>@<level>" in err
        assert "psi<p>@<level>" in err


def test_expand_obeys_the_precision_ceiling(capsys, monkeypatch,
                                            cold_cache):
    # before any work: the precision a form needs, --prec plus a span
    # element's pole, above QMOD_PREC_CEILING ends in one error line
    expanded = []
    real = qmod.verify.catalog_form
    monkeypatch.setattr(qmod.verify, "catalog_form",
                        lambda *a: expanded.append(a[0]) or real(*a))
    monkeypatch.setenv("QMOD_PREC_CEILING", "100")
    for form, prec, need in (("G27", 101, 101), ("G64", 101, 101),
                             ("psi5@27", 96, 101), ("H-1@36", 100, 101)):
        rc, out, err = run(capsys, "expand", "--form", form, "--prec",
                           str(prec))
        assert (rc, out, err) == (
            2, "", f"error: {form} at --prec {prec} needs precision {need}, "
                   "above the precision ceiling 100\n")
    assert expanded == []
    # at the ceiling it runs
    rc, out, _ = run(capsys, "expand", "--form", "psi5@27", "--prec", "95")
    assert rc == 0 and out.startswith("-5 1\n") and expanded


def test_expand_requires_form_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--prec", "5"])
    assert exc.value.code == 2


def test_build_psi_table_and_json(capsys):
    rc, out, _ = run(capsys, "expand", "--form", "psi2@27", "--prec", "6")
    assert rc == 0 and out == "-2 1\n1 1\n4 2\n"
    rc, out, _ = run(capsys, "expand", "--form", "psi5@36", "--prec", "4",
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["form"] == "psi5@36"
    assert payload["coeffs"][0] == [-5, "1"]
    assert payload["coeffs"][1] == [1, "3"]


def test_build_psi_rejects_composite_p(capsys):
    rc, out, err = run(capsys, "expand", "--form", "psi9@27")
    assert (rc, out, err) == (2, "", "error: 9 is not prime\n")


@pytest.mark.parametrize("level,p", [(27, 2), (27, 5), (27, 11), (36, 5),
                                     (36, 11)])
@pytest.mark.parametrize("prec", [1, 6, 30])
def test_expand_psi_matches_library(capsys, level, p, prec):
    psi = build_psi(level, p, prec)
    rc, out, _ = run(capsys, "expand", "--form", f"psi{p}@{level}",
                     "--prec", str(prec))
    assert rc == 0
    assert out == "".join(f"{e} {c}\n" for e, c in psi.items())
    rc, out, _ = run(capsys, "expand", "--form", f"psi{p}@{level}",
                     "--prec", str(prec), "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "form": f"psi{p}@{level}", "prec": prec,
        "coeffs": [[e, str(c)] for e, c in psi.items()]}


def test_build_psi_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build-psi", "--level", "27", "--p", "5"])
    assert exc.value.code == 2
    assert "invalid choice: 'build-psi'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify

def test_verify_grid_json_example(capsys):
    rc, out, err = run(capsys, "verify", "--curve", "27", "--primes", "2,5",
                       "--m-max", "1", "--K", "20", "--format", "json")
    assert rc == 0
    assert "PASSED 8/8 (skipped 0)" in err
    payload = json.loads(out)
    assert len(payload["reports"]) == 8
    assert all(r["passed"] for r in payload["reports"])
    assert payload["skipped"] == []
    assert payload["summary"] == {"passed": 8, "total": 8, "skipped": 0}
    # canonical order: p then m then check id
    keys = [(r["params"]["p"], r["params"]["m"], r["check_id"])
            for r in payload["reports"]]
    assert keys == sorted(keys)


def test_verify_ineligible_prime_is_skipped(capsys):
    rc, out, _ = run(capsys, "verify", "--curve", "36", "--primes", "2")
    assert rc == 0
    assert "SKIP level=36 p=2: 2 divides the level 36" in out
    assert "PASSED 0/0 (skipped 1)" in out


def test_verify_table_lines(capsys):
    rc, out, _ = run(capsys, "verify", "--curve", "27", "--primes", "2",
                     "--m-max", "0")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "PASS limit level=27 p=2 m=0 K=20"
    assert lines[1] == "PASS valuation level=27 p=2 m=0"
    assert lines[2] == "PASSED 2/2 (skipped 0)"


def test_verify_repeated_primes_count_once(capsys):
    rc, out, _ = run(capsys, "verify", "--curve", "27", "--primes", "2,2",
                     "--m-max", "0")
    assert rc == 0
    assert out == ("PASS limit level=27 p=2 m=0 K=20\n"
                   "PASS valuation level=27 p=2 m=0\n"
                   "PASSED 2/2 (skipped 0)\n")
    rc, out, _ = run(capsys, "verify", "--curve", "36", "--primes", "2,2")
    assert rc == 0
    assert out == ("SKIP level=36 p=2: 2 divides the level 36\n"
                   "PASSED 0/0 (skipped 1)\n")


def test_verify_rejects_composite_primes(capsys):
    rc, _, err = run(capsys, "verify", "--curve", "27", "--primes", "4")
    assert rc == 2 and "must be prime" in err


@pytest.mark.parametrize("primes", [["--primes", "-1,5"], ["--primes=-1,5"],
                                    ["--primes", "-1"], ["--prim", "-1,5"],
                                    ["--p", "-1,5"], ["--prime=-1,5"]])
def test_verify_negative_primes_entry_names_it(primes, capsys):
    # a list that starts with a negative entry is a --primes value, not an
    # option string, also after an abbreviation of --primes
    rc, out, err = run(capsys, "verify", "--curve", "27", *primes)
    assert (rc, out, err) == (
        2, "", "error: --primes entries must be prime, got -1\n")


def test_verify_bad_primes_value(capsys):
    rc, _, err = run(capsys, "verify", "--curve", "27", "--primes", "2;5")
    assert rc == 2 and err.startswith("error:")
    rc, _, err = run(capsys, "verify", "--curve", "27", "--primes", "auto:x")
    assert rc == 2


def test_verify_is_deterministic(capsys):
    args = ("verify", "--curve", "27", "--primes", "2", "--m-max", "0",
            "--format", "json")
    rc1, out1, err1 = run(capsys, *args)
    rc2, out2, err2 = run(capsys, *args)
    assert (rc1, out1, err1) == (rc2, out2, err2)


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, err = run(capsys, "verify", "--curve", "27", "--primes", "2",
                       "--m-max", "0", "--format", "json",
                       "--out", str(target))
    assert rc == 0
    assert out == ""                       # payload went to the file
    assert "PASSED 2/2" in err
    payload = json.loads(target.read_text())
    assert len(payload["reports"]) == 2


def test_verify_ceiling_shapes_default_depth(capsys, monkeypatch):
    monkeypatch.setenv("QMOD_PREC_CEILING", "50")
    rc, out, _ = run(capsys, "verify", "--curve", "27", "--primes", "2")
    assert rc == 0
    # 20 * 2^3 + 1 > 50, so only m = 0 runs
    assert "PASSED 2/2 (skipped 0)" in out
    assert "m=1" not in out


def test_verify_ceiling_below_m0_skips(capsys, monkeypatch):
    monkeypatch.setenv("QMOD_PREC_CEILING", "30")
    rc, out, _ = run(capsys, "verify", "--curve", "27", "--primes", "2")
    assert rc == 0
    assert "PASSED 0/0 (skipped 1)" in out
    assert "precision ceiling 30" in out


def test_verify_ceiling_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("QMOD_PREC_CEILING", "abc")
    rc, _, err = run(capsys, "verify", "--curve", "27", "--primes", "2")
    assert rc == 2 and "QMOD_PREC_CEILING" in err


def test_verify_ceiling_bounds_an_explicit_depth(capsys, monkeypatch):
    expanded = []
    monkeypatch.setattr(qmod.verify, "catalog_form",
                        lambda *a: expanded.append(a))
    for ceiling, argv in [
            (None, ("--curve", "27", "--primes", "2", "--m-max", "40")),
            ("1000", ("--curve", "32", "--primes", "3", "--m-max", "9")),
            ("50", ("--curve", "27", "--primes", "2", "--m-max", "1"))]:
        if ceiling is not None:
            monkeypatch.setenv("QMOD_PREC_CEILING", ceiling)
        rc, out, err = run(capsys, "verify", *argv)
        assert rc == 2 and out == "" and expanded == [], argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: level "), argv
        assert "above the precision ceiling" in lines[0]
    assert err == ("error: level 27, p = 2, m = 1 needs precision 161, "
                   "above the precision ceiling 50\n")


# ---------------------------------------------------------------------------
# check

def test_check_congruence_table(capsys):
    rc, out, _ = run(capsys, "check", "congruence", "--level", "27",
                     "--p", "2", "--m", "1")
    assert rc == 0
    assert out == "PASS congruence level=27 p=2 m=1\n"


def test_check_requires_level_and_p(capsys):
    rc, _, err = run(capsys, "check", "congruence", "--p", "2")
    assert rc == 2 and "requires --level" in err
    rc, _, err = run(capsys, "check", "residue", "--level", "27")
    assert rc == 2 and "requires --p" in err


def test_check_rejects_flags_its_id_does_not_take(capsys):
    rc, out, err = run(capsys, "check", "congruence", "--level", "27",
                       "--p", "2", "--prec", "5", "--K", "3", "--n", "2")
    assert (rc, out, err) == (
        2, "", "error: check 'congruence' does not take --n\n")
    rc, out, err = run(capsys, "check", "twist", "--level", "99", "--p", "5")
    assert (rc, out, err) == (
        2, "", "error: check 'twist' does not take --level\n")
    rc, _, err = run(capsys, "check", "residue", "--level", "27", "--p", "5",
                     "--m-max", "0")
    assert err == "error: check 'residue' does not take --m-max\n"


def test_check_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "frobnicate"])
    assert exc.value.code == 2


def test_check_json_report(capsys):
    rc, out, _ = run(capsys, "check", "nondivisibility", "--level", "32",
                     "--p", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["check_id"] == "nondivisibility"
    assert payload["passed"] is True
    assert payload["params"] == {"level": 32, "p": 3}


# the values cli._json renders: strings with quotes, backslashes, control
# characters, non-ASCII and lone surrogates, ints past 2^64, and lists,
# tuples and dicts of them
_JSON_TEXT = st.text(st.sampled_from(
    '"\\/\n\t\x00\x1f\x7fa\u00e9\u2603\U0001f600\ud800\udfff'))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _JSON_TEXT
    | st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=20)


@given(_JSON_VALUES)
def test_json_renders_what_json_dumps_renders(v):
    assert cli._json(v) == json.dumps(v, indent=2, sort_keys=True)


@pytest.mark.parametrize("v", [1.5, {1, 2}, [0, {"a": float("inf")}],
                               {"a": {3}}, {1: "key not a str"}])
def test_json_rejects_every_other_type(v):
    with pytest.raises(TypeError):
        cli._json(v)


def test_check_twist_and_support(capsys):
    rc, out, _ = run(capsys, "check", "twist", "--prec", "60")
    assert rc == 0 and out.startswith("PASS twist")
    rc, out, _ = run(capsys, "check", "support", "--level", "64",
                     "--prec", "80")
    assert rc == 0 and out.startswith("PASS support")


def test_check_theta_psi_flags(capsys):
    rc, out, _ = run(capsys, "check", "theta-psi", "--level", "27",
                     "--p", "2", "--prec", "20", "--m-max", "0", "--K", "10")
    assert rc == 0
    assert out == "PASS theta-psi level=27 p=2 prec=20 m_max=0\n"


# ---------------------------------------------------------------------------
# the check table: each default lives in the library signature

# check id -> (library function, values of its required flags)
CHECK_CALLS = {
    "congruence": (check_congruence, (27, 2)),
    "hecke-decomposition": (check_hecke_decomposition, (27, 2)),
    "nondivisibility": (check_nondivisibility, (27, 2)),
    "residue": (check_residue, (27, 2)),
    "support": (check_support, (27,)),
    "theta-psi": (check_theta_psi, (27, 2)),
    "twist": (check_twist_consistency, ()),
}


@pytest.mark.parametrize("check_id", sorted(cli._CHECKS))
def test_check_cli_defaults_are_library_defaults(capsys, check_id):
    fn, values = CHECK_CALLS[check_id]
    flags = [x for flag, v in zip(("--level", "--p"), values)
             for x in (flag, str(v))]
    rc, out, _ = run(capsys, "check", check_id, *flags, "--format", "json")
    assert rc == 0
    assert json.loads(out) == fn(*values).to_json_dict()


# ---------------------------------------------------------------------------
# out-of-range parameters

_SMALL_PREC = [
    (["check", "residue", "--level", "27", "--p", "5", "--prec", "1"],
     "prec must be at least 2, got 1"),
    (["check", "hecke-decomposition", "--level", "27", "--p", "2",
      "--prec", "0"], "prec must be at least 2, got 0"),
    (["check", "support", "--level", "27", "--prec", "1"],
     "prec must be at least 2, got 1"),
    (["check", "twist", "--prec", "1"], "prec must be at least 2, got 1"),
    (["expand", "--form", "psi5@27", "--prec", "-3"],
     "prec must be at least 1, got -3"),
    (["check", "hecke-decomposition", "--level", "36", "--p", "5",
      "--prec", "2"], "prec must be at least 3 at level 36, got 2"),
    (["expand", "--form", "H1@36", "--prec", "2"],
     "prec must be at least 3 at level 36, got 2"),
]


@pytest.mark.parametrize("argv", [
    ["verify", "--curve", "27", "--K", "0"],
    ["verify", "--curve", "27", "--primes", "2", "--K", "-3"],
    ["verify", "--m-max", "-1"],
    ["verify", "--all", "--primes", "auto:-5"],
    ["verify", "--curve", "27", "--primes", "auto:1"],
    ["verify", "--curve", "27", "--primes", "-1,5"],
    ["check", "congruence", "--level", "27", "--p", "2", "--m", "-1"],
    ["check", "support", "--level", "99"],
    ["check", "nondivisibility", "--level", "99", "--p", "5"],
    ["check", "theta-psi", "--level", "27", "--p", "2", "--m-max", "-1"],
    ["check", "hecke-decomposition", "--level", "27", "--p", "2",
     "--n", "-1"],
    ["check", "congruence", "--level", "27", "--p", "2", "--prec", "5",
     "--K", "3", "--n", "2"],
    ["check", "twist", "--level", "99", "--p", "5"],
    ["check", "nondivisibility", "--level", "27", "--p", "5", "--out",
     "/nonexistent/dir/x.json"],
] + [argv for argv, _ in _SMALL_PREC], ids="_".join)
def test_out_of_range_input_is_usage_error(argv):
    proc = subprocess.run([sys.executable, "-m", "qmod", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("argv,message", _SMALL_PREC,
                         ids=["_".join(a) for a, _ in _SMALL_PREC])
def test_small_prec_error_names_the_flag(argv, message, capsys):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_smallest_valid_prec_still_runs(capsys):
    for argv in (["check", "residue", "--level", "27", "--p", "5"],
                 ["check", "hecke-decomposition", "--level", "27", "--p",
                  "2"],
                 ["check", "support", "--level", "27"],
                 ["check", "twist"]):
        rc, out, _ = run(capsys, *argv, "--prec", "2")
        assert rc == 0 and out.startswith("PASS"), argv
    rc, out, _ = run(capsys, "check", "theta-psi", "--level", "27", "--p",
                     "5", "--prec", "1")
    assert rc == 0 and out.startswith("PASS")
    rc, out, _ = run(capsys, "expand", "--form", "psi5@27", "--prec", "1")
    assert rc == 0 and out == "-5 1\n"


# ---------------------------------------------------------------------------
# many calls in one process

def _outcome(argv, out_file=None):
    """main(argv) as (exit code, stdout, stderr, --out file text or None);
    an argparse exit counts by its SystemExit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    written = None
    if out_file is not None and out_file.exists():
        written = out_file.read_text()
        out_file.unlink()
    return rc, stdout.getvalue(), stderr.getvalue(), written


def test_calls_in_one_process_share_no_parse_state(tmp_path):
    report = tmp_path / "report.json"
    sequence = [
        ["check", "hecke-decomposition", "--level", "27", "--p", "2",
         "--prec", "12"],
        # --prec left out: back to the library default 30
        ["check", "hecke-decomposition", "--level", "27", "--p", "2"],
        # rejected by main; a namespace kept from this call would carry
        # p = 9 into the expand below
        ["check", "residue", "--level", "27", "--p", "9"],
        ["expand", "--form", "g27", "--prec", "5"],
        ["check", "frobnicate"],                  # argparse usage error
        ["check", "congruence", "--level", "27", "--p", "2", "--m", "1"],
        ["check", "--help"],
        ["verify", "--curve", "27", "--primes", "2", "--m-max", "0",
         "--format", "json", "--out", str(report)],
        ["verify", "--curve", "27", "--primes", "2", "--m-max", "0"],
    ]
    got = [_outcome(argv, report) for argv in sequence]
    # the sequence reaches every kind of ending
    assert [r[0] for r in got] == [0, 0, 2, 0, 2, 0, 0, 0, 0]
    assert "prec=12" in got[0][1] and "prec=30" in got[1][1]
    assert got[6][1].startswith("usage: qmod check")
    assert got[7][1] == "" and json.loads(got[7][3])["summary"]


_FUZZ_LEVELS = sorted(CURVES) + [0, 99]
_FUZZ_TERMS = 3 * 10 ** 4


@st.composite
def _fuzz_argv(draw):
    """A check, expand or small verify command line; each flag is given or
    left out."""
    def flag(name, values):
        value = draw(st.none() | values)
        return [] if value is None else [name, str(value)]

    levels = st.sampled_from(_FUZZ_LEVELS)
    ps = st.integers(-3, 30)
    small = st.integers(-1, 2)
    precs = st.integers(-2, 60)
    command = draw(st.sampled_from(["check", "expand", "verify"]))
    if command == "check":
        argv = ["check", draw(st.sampled_from(sorted(cli._CHECKS)))]
        for name, values in (("--level", levels), ("--p", ps),
                             ("--m", small), ("--n", small),
                             ("--m-max", small), ("--K", precs),
                             ("--prec", precs)):
            argv += flag(name, values)
    elif command == "expand":
        H = f"H{draw(small)}@{draw(levels)}"
        psi = f"psi{draw(ps)}@{draw(levels)}"
        argv = ["expand", "--form",
                draw(st.sampled_from(sorted(FORMS) + [H, psi]))]
        argv += flag("--prec", precs)
    else:
        primes = draw(st.lists(ps, min_size=1, max_size=2))
        argv = ["verify", "--primes", ",".join(map(str, primes)),
                "--m-max", str(draw(small)), *flag("--curve", levels),
                *flag("--K", precs)]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


class _Oversized(Exception):
    """An expansion longer than the fuzz test's term budget."""


@contextlib.contextmanager
def _expansion_budget(terms):
    """Make every eta-quotient expansion longer than terms raise _Oversized
    before it starts.  All catalog forms, spans and checks expand through
    eta's eta_quotient_expand, the engine's only binding (see
    test_only_eta_names_the_expansion_engine), so this bounds the size of
    any call as it runs, without a model of each check's precision."""
    real = qmod.eta.eta_quotient_expand

    def bounded(eq, prec):
        if prec > terms:
            raise _Oversized(prec)
        return real(eq, prec)

    with mock.patch.object(qmod.eta, "eta_quotient_expand", bounded):
        yield


@given(_fuzz_argv())
def test_cli_fuzz_ends_in_an_exit_code(argv):
    """Any exception but SystemExit fails the test; argparse's own usage
    errors print a usage line before their error line.  Calls that would
    expand more than _FUZZ_TERMS terms are discarded when they try to."""
    try:
        with _expansion_budget(_FUZZ_TERMS):
            rc, out, err, _ = _outcome(argv)
    except _Oversized:
        reject()
    assert rc in (0, 1, 2), (argv, rc)
    if rc == 2 and not err.startswith("usage:"):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert out == ""


# ---------------------------------------------------------------------------
# subcommand dispatch

# Command lines that the check reader takes or leaves to argparse, ending
# every way argparse can end: a namespace, help, a usage error from the
# top-level parser or a subcommand's.
_DISPATCH_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["check", "-h"],
    ["check", "residue", "--help"],
    ["expand", "-h"],
    ["verify", "--help"],
    ["check", "residue", "--lev", "27", "--p", "5"],
    ["check", "residue", "--le", "27", "--p", "5", "--for", "json"],
    ["verify", "--curve", "27", "--prim", "2", "--m-max", "0"],
    ["verify", "--curve", "27", "--prim", "-1,5", "--m-max", "0"],
    ["check", "nondivisibility", "--level=27", "--p=2"],
    ["check", "--", "residue", "--level", "27", "--p", "5"],
    ["check", "residue", "--", "--level", "27", "--p", "5"],
    ["check", "residue", "--level", "27", "--p", "5", "--"],
    ["--", "check", "residue", "--level", "27", "--p", "5"],
    ["check", "residue", "stray", "--level", "27", "--p", "5"],
    ["check", "residue", "--level", "27", "--p", "5", "stray"],
    ["check", "residue", "--level", "27", "--p", "5", "--bogus"],
    ["check", "residue", "--bogus", "1", "--level", "27", "--p", "5"],
    ["chec", "residue", "--level", "27", "--p", "5"],
    ["-x", "check", "residue", "--level", "27", "--p", "5"],
    ["check", "residue", "--level", "27", "--p", "4", "--p", "5"],
    ["check", "congruence", "--level", "27", "--p", "2", "--m", "-1"],
    ["check", "frobnicate"],
    ["check"],
    ["check", "twist", "--prec", "x"],
    ["expand", "--form", "g27", "--prec", "5", "extra"],
    ["expand", "--form", "g27", "--prec", "5", "--format=json"],
    ["expand"],
    ["verify", "--curve", "27", "--primes=-1,5"],
    ["verify", "--curve", "27", "--all"],
    ["verify", "--curve", "27", "--primes", "2", "--m-max", "0",
     "--format", "json"],
    ["verify", "--curve", "27", "--primes", "2", "--m-max", "0", "stray"],
    # spellings at the edge of what cli._read_check takes
    ["check", "residue", "--level", "27", "--p", "5", "--out", ""],
    ["check", "residue", "--level", "27", "--p", "5", "--out", "-"],
    ["check", "residue", "--level", "27", "--p", "5", "--out", "--p"],
    ["check", "residue", "--level", "27", "--p", "+5"],
    ["check", "residue", "--level", "27", "--p", "5_0"],
    ["check", "residue", "--level", "27", "--p", "\u0665"],
    ["check", "residue", "--level", "27", "--p", "1" * 5000],
    ["check", "residue", "--level", "27", "--p", "5", "--format", "JSON"],
    ["check", "residue", "--level", "27", "--p"],
    ["check", "--level", "27", "residue", "--p", "5"],
    ["check", "residue", "--level", "27", "--p", "5", "--format", "json",
     "--format", "table"],
]


def _full_parse_outcome(argv, out_file=None):
    """_outcome(argv, out_file) with every argv parsed by argparse: the
    check reader declines."""
    with mock.patch.object(cli, "_read_check", lambda argv: None):
        return _outcome(argv, out_file)


def _argv_id(argv):
    return " ".join(t if len(t) <= 20 else f"{t[:4]}...({len(t)} chars)"
                    for t in argv)


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=_argv_id)
def test_dispatch_matches_the_top_level_parser(argv, tmp_path, monkeypatch):
    # a relative --out lands in tmp_path and is compared too
    monkeypatch.chdir(tmp_path)
    out_file = tmp_path / "-"
    assert _outcome(argv, out_file) == _full_parse_outcome(argv, out_file)
    read = cli._read_check(argv)
    if read is not None:
        assert read == cli._build_parser().parse_args(argv)


def test_check_reader_builds_no_parser(tmp_path, monkeypatch):
    # a reader that declined every argv would pass the equivalence tests
    # above and lose its gain; a canonical check builds no parser at all
    built, real = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda: built.append(1) or real())
    for check_id, (_, values) in sorted(CHECK_CALLS.items()):
        flags = [x for flag, v in zip(("--level", "--p"), values)
                 for x in (flag, str(v))]
        assert main(["check", check_id, *flags]) == 0
    out = tmp_path / "report.json"
    assert main(["check", "twist", "--format", "json", "--out",
                 str(out)]) == 0
    assert json.loads(out.read_text())["check_id"] == "twist"
    assert built == []


def test_dispatch_corpus_reaches_both_parsers_and_every_ending(
        tmp_path, monkeypatch):
    # the corpus keeps the test above meaningful: it has command lines that
    # the check reader takes and ones it declines, and they end in a report,
    # help, and usage errors from the top-level parser and a subcommand's
    monkeypatch.chdir(tmp_path)
    outcomes = [_outcome(argv) for argv in _DISPATCH_CORPUS]
    read = [cli._read_check(argv) is not None for argv in _DISPATCH_CORPUS]
    assert any(read) and not all(read)
    assert {rc for rc, *_ in outcomes} == {0, 2}
    errors = [err.splitlines()[-1] for rc, out, err, _ in outcomes if err]
    assert "qmod: error: unrecognized arguments: --bogus" in errors
    assert "qmod: error: unrecognized arguments: stray" in errors
    assert any(e.startswith("qmod check: error:") for e in errors)
    assert any(out.startswith("usage: qmod check")
               for rc, out, *_ in outcomes)


@given(_fuzz_argv())
def test_dispatch_matches_the_top_level_parser_fuzz(argv):
    try:
        with _expansion_budget(_FUZZ_TERMS):
            got = _outcome(argv)
            full = _full_parse_outcome(argv)
    except _Oversized:
        reject()
    assert got == full, argv


# ---------------------------------------------------------------------------
# library calls

def test_run_config_validation():
    with pytest.raises(ValueError, match="unknown level 28; catalog levels"):
        run_grid(levels=(28,))
    with pytest.raises(ValueError, match="must be prime"):
        run_grid(primes=(6,))
    with pytest.raises(ValueError, match="K must be at least 1"):
        run_grid(K=0)
    with pytest.raises(ValueError, match="m_max must be at least 0"):
        run_grid(m_max=-1)
    with pytest.raises(ValueError, match="prime bound must be at least 2"):
        run_grid(prime_bound=1)
    with pytest.raises(ValueError, match="ceiling must be at least 2"):
        run_grid(ceiling=1)


def test_run_grid_direct_call():
    reports, skipped = run_grid(levels=(32,), primes=(3, 5), m_max=0, K=10)
    assert [r.check_id for r in reports] == ["limit", "valuation"]
    assert all(r.passed for r in reports)
    assert len(skipped) == 1 and skipped[0]["p"] == 5


def test_run_grid_repeated_levels_count_once():
    def grid(levels):
        reports, skipped = run_grid(levels=levels, primes=(2, 3), m_max=0,
                                    K=2)
        return [r.to_json_dict() for r in reports], skipped

    once = grid((27,))
    assert len(once[0]) == 2 and len(once[1]) == 1
    assert grid((27, 27)) == once


def _logging_catalog_form(log: Path, fail: str | None = None):
    """verify.catalog_form that first appends "pid name" to log, in
    append mode, so that a forked child logs too, and raises for fail."""
    real = qmod.verify.catalog_form

    def logging(name, prec):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {name}\n")
        if name == fail:
            raise RuntimeError(f"no expansion of {name} to {prec}")
        return real(name, prec)

    return logging


def _logged(log: Path) -> list[tuple[int, str]]:
    lines = log.read_text().split() if log.exists() else []
    return [(int(pid), name) for pid, name in zip(lines[::2], lines[1::2])]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_grid_expands_each_form_once(monkeypatch, cold_cache, tmp_path):
    log = tmp_path / "expanded.txt"
    with monkeypatch.context() as patch:
        patch.setattr(qmod.verify, "catalog_form",
                      _logging_catalog_form(log))
        reports, skipped = run_grid(levels=(27, 32, 64), prime_bound=12,
                                    ceiling=5000)
    # G64 is the twist of the cached G32, so it expands no eta quotient;
    # a forked child counts too, through the log
    expanded = [name for _, name in _logged(log)]
    assert sorted(expanded) == ["G27", "G32", "g27", "g32", "g64"]
    assert len(reports) == 2 * 17 and skipped == []
    # truncating the planned expansions gives what each check computes
    # on its own
    for r in reports:
        level, p, m = r.params["level"], r.params["p"], r.params["m"]
        monkeypatch.setattr(cold_cache, "_data", {})
        if r.check_id == "valuation":
            alone = check_valuation(level, p, m)
        else:
            alone = check_limit(level, p, m, r.params["K"])
        assert r.to_json_dict() == alone.to_json_dict()


_LANE_GRID = dict(levels=(27, 32, 36, 64), prime_bound=12, ceiling=5000)
_forks = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _grid_on(cpus: int, cache, log: Path, monkeypatch, grid=_LANE_GRID):
    """run_grid over grid on an empty store as if cpus were available,
    logging each expansion, and the store it leaves."""
    monkeypatch.setattr(cache, "_data", {})
    monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
    with monkeypatch.context() as patch:
        patch.setattr(qmod.verify, "catalog_form",
                      _logging_catalog_form(log))
        reports, skipped = run_grid(**grid)
    held = {name: (f.prec, f._c) for name, f in cache._data.items()}
    return [r.to_json_dict() for r in reports], skipped, held


def _split(log: Path) -> tuple[list[str], list[str], set[int]]:
    """The logged expansions of this process, those of other processes,
    and the other processes' pids."""
    entries = _logged(log)
    here = [name for pid, name in entries if pid == os.getpid()]
    there = [(pid, name) for pid, name in entries if pid != os.getpid()]
    return here, [name for _, name in there], {pid for pid, _ in there}


# The level 32 group (G32 and its twist G64, 4,861 terms at stride 4) has
# the most kernel slots of _LANE_GRID, so it is checked here; the child
# checks levels 27 and 36
_HERE = ["G32", "g32", "g64"]
_CHILD = ["G27", "g27", "G36", "g36"]


@_forks
def test_run_grid_lanes_give_the_serial_store(monkeypatch, cold_cache,
                                             tmp_path):
    serial = _grid_on(1, cold_cache, tmp_path / "one.txt", monkeypatch)
    lanes = _grid_on(2, cold_cache, tmp_path / "two.txt", monkeypatch)
    assert lanes[0] == serial[0] and lanes[1] == serial[1]
    _assert_no_child()
    # one CPU checks every group here, the one of most slots first
    assert _split(tmp_path / "one.txt") == (_HERE + _CHILD, [], set())
    here, there, pids = _split(tmp_path / "two.txt")
    assert here == _HERE and there == _CHILD and len(pids) == 1
    # the store then holds this process's group only, as the serial run
    # held it
    assert lanes[2] == {name: serial[2][name]
                        for name in ("G32", "g32", "G64", "g64")}


@_forks
def test_run_grid_forks_one_child_on_many_cpus(monkeypatch, cold_cache,
                                               tmp_path):
    serial = _grid_on(1, cold_cache, tmp_path / "one.txt", monkeypatch)
    many = _grid_on(8, cold_cache, tmp_path / "eight.txt", monkeypatch)
    assert many[:2] == serial[:2]
    _assert_no_child()
    here, there, pids = _split(tmp_path / "eight.txt")
    assert here == _HERE and there == _CHILD and len(pids) == 1
    assert set(many[2]) == {"G32", "g32", "G64", "g64"}


@_forks
@pytest.mark.parametrize("levels,ceiling,here,child,held", [
    # G27's group has the most slots below 3,000 terms, so the child
    # expands G32 itself and twists it into G64
    ((27, 64), 3000, ["G27", "g27"], ["G32", "g64"], {"G27", "g27"}),
    # one group: nothing to fork
    ((32, 64), 5000, _HERE, [], {"G32", "g32", "G64", "g64"}),
], ids=["27-64", "32-64"])
def test_run_grid_splits_levels_by_their_eta_quotient(
        monkeypatch, cold_cache, tmp_path, levels, ceiling, here, child,
        held):
    grid = dict(levels=levels, prime_bound=12, ceiling=ceiling)
    serial = _grid_on(1, cold_cache, tmp_path / "one.txt", monkeypatch,
                      grid)
    forked = _grid_on(2, cold_cache, tmp_path / "two.txt", monkeypatch,
                      grid)
    assert forked[:2] == serial[:2]
    _assert_no_child()
    assert _split(tmp_path / "one.txt") == (here + child, [], set())
    logged_here, there, pids = _split(tmp_path / "two.txt")
    assert logged_here == here and there == child
    assert len(pids) == (1 if child else 0)
    assert forked[2] == {name: serial[2][name] for name in held}


@_forks
def test_run_grid_keeps_a_held_form(monkeypatch, cold_cache, tmp_path):
    # G32 and G27 held above the 4,861 and 2,561 terms _LANE_GRID needs
    # of them: this process reads G32 from its store, and the child G27
    # from its copy
    held = {name: cold_cache.expansion(name, 6000).prec
            for name in ("G32", "G27")}
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    log = tmp_path / "expanded.txt"
    monkeypatch.setattr(qmod.verify, "catalog_form",
                        _logging_catalog_form(log))
    run_grid(**_LANE_GRID)
    _assert_no_child()
    expanded = [name for _, name in _logged(log)]
    assert "G32" not in expanded and "G27" not in expanded
    assert {name: cold_cache._data[name].prec for name in held} == held


@_forks
def test_run_grid_forks_no_lane_while_other_threads_run(
        monkeypatch, cold_cache, tmp_path):
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    log = tmp_path / "expanded.txt"
    monkeypatch.setattr(qmod.verify, "catalog_form",
                        _logging_catalog_form(log))
    done = []
    worker = threading.Thread(target=lambda: done.append(
        run_grid(**_LANE_GRID)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(done) == 1
    assert {pid for pid, _ in _logged(log)} == {os.getpid()}
    _assert_no_child()


@_forks
def test_run_grid_reaps_its_lanes_when_this_process_fails(
        monkeypatch, cold_cache, tmp_path):
    # this process fails on its first expansion while the child checks
    # its jobs; the child is killed and reaped
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    log = tmp_path / "expanded.txt"
    monkeypatch.setattr(qmod.verify, "catalog_form",
                        _logging_catalog_form(log, fail="G32"))
    with pytest.raises(RuntimeError, match="no expansion of G32 to 4861"):
        run_grid(**_LANE_GRID)
    _assert_no_child()
    here = [name for pid, name in _logged(log) if pid == os.getpid()]
    assert here == ["G32"]


@_forks
def test_run_grid_expands_a_failed_lane_here(monkeypatch, cold_cache,
                                            tmp_path):
    errors = []
    for cpus in (1, 2):
        monkeypatch.setattr(cold_cache, "_data", {})
        monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
        log = tmp_path / f"expanded-{cpus}.txt"
        monkeypatch.setattr(qmod.verify, "catalog_form",
                            _logging_catalog_form(log, fail="G27"))
        with pytest.raises(RuntimeError) as caught:
            run_grid(**_LANE_GRID)
        errors.append(str(caught.value))
        _assert_no_child()
        # with two CPUs the child failed on G27 first, then this process
        # ran the child's jobs
        tried = [pid for pid, name in _logged(log) if name == "G27"]
        assert tried[-1] == os.getpid() and len(tried) == cpus
    assert errors[0] == errors[1] == "no expansion of G27 to 2561"


def test_default_ceiling_constant():
    assert DEFAULT_PREC_CEILING == 10 ** 6


def test_package_reexports_each_module_all():
    modules = (qseries, operators, eta, spans, verify, cli)
    assert qmod.__all__ == [name for module in modules
                            for name in module.__all__] + ["__version__"]
    assert len(set(qmod.__all__)) == len(qmod.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(qmod, name) is getattr(module, name), name


# ---------------------------------------------------------------------------
# subprocess smoke test

def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qmod", "expand", "--form", "g36",
         "--prec", "8"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1 1\n7 -4\n"


def test_closed_stdout_ends_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # the rest of the 180 KB expansion cannot be written
    proc = subprocess.Popen(
        [sys.executable, "-m", "qmod", "expand", "--form", "G27",
         "--prec", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"-1 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (1, b"")


def test_dump_catalog_to_a_closed_pipe_ends_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, str(_REPO / "scripts" / "dump_catalog.py"),
             "--prec", "5"],
            stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_dump_catalog_bad_prec_prints_only_a_usage_error():
    # before the manifest's first line, as qmod expand does
    for prec in ("1", "0", "-3"):
        proc = subprocess.run(
            [sys.executable, str(_REPO / "scripts" / "dump_catalog.py"),
             "--prec", prec], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, ""), prec
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("dump_catalog.py: error: precision"), prec


@pytest.mark.parametrize("ceiling,error", [
    ("100", "--prec 200 is above the precision ceiling 100"),
    ("x", "QMOD_PREC_CEILING must be an integer, got 'x'"),
    ("1", "QMOD_PREC_CEILING must be at least 2")])
def test_dump_catalog_obeys_the_precision_ceiling(ceiling, error):
    # as qmod expand does: a usage error before any expansion or output
    proc = subprocess.run(
        [sys.executable, str(_REPO / "scripts" / "dump_catalog.py"),
         "--prec", "200"], capture_output=True, text=True, timeout=120,
        env={**os.environ, "QMOD_PREC_CEILING": ceiling})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == f"dump_catalog.py: error: {error}"


def test_cli_imports_no_numpy():
    # the packed kernels use only the standard library
    code = ("import contextlib, io, sys\n"
            "import qmod.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = qmod.cli.main(['expand', '--form', 'G27', "
            "'--prec', '3000'])\n"
            "print(rc, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout == "0 False\n", proc.stderr


def test_package_has_no_assert_statement():
    # invalid input must end in exit code 2 with a message, and an assert
    # would end in a traceback instead, or vanish under python -O
    paths = sorted(Path(qmod.__file__).parent.glob("*.py"))
    assert "qseries.py" in [path.name for path in paths]
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_package_has_no_unused_private_name_or_import():
    # a private module-level name that nothing references outside its own
    # definition, or an import its module never reads, is left over from a
    # removed path
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in Path(qmod.__file__).parent.glob("*.py")}

    def read(node):
        # loaded names, attribute names and strings (cli looks its check
        # functions up by name)
        out = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
        return out

    refs = {(name, i): read(stmt) for name, tree in trees.items()
            for i, stmt in enumerate(tree.body)}
    unused = []
    for name, tree in trees.items():
        for i, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                defined = [t.id for t in stmt.targets
                           if isinstance(t, ast.Name)]
            else:
                continue
            for d in defined:
                if d.startswith("_") and not d.startswith("__") and not any(
                        d in r for key, r in refs.items() if key != (name, i)):
                    unused.append(f"{name}: {d}")
        if name == "__init__.py":
            continue
        loaded = read(tree)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded:
                        unused.append(f"{name}: import {bound}")
    assert "qseries.py" in trees
    assert unused == []


_REPO = Path(__file__).resolve().parent.parent

# Public names that neither src/qmod nor scripts/ read, each kept for a
# reason outside both.
_UNREAD_PUBLIC = {
    "cusp_orders": "Ligozat cusp orders for the valence-bound certificates "
                   "the ROADMAP plans",
}


def test_every_public_name_is_read_by_the_package_or_scripts():
    # an __all__ name that only tests call is a second path to maintain;
    # its own definition and the __all__ lists do not count as reads, and
    # an attribute counts only on a module name (qseries.mul), so an
    # instance attribute such as EtaQuotient.shift reads no function
    modules = [qseries, operators, eta, spans, verify, cli]
    module_names = {m.__name__.rpartition(".")[2] for m in modules}
    module_names.add("qmod")
    paths = [*Path(qmod.__file__).parent.glob("*.py"),
             *(_REPO / "scripts").glob("*.py")]
    stmts = [stmt for path in paths
             for stmt in ast.parse(path.read_text(), str(path)).body]
    assert _REPO / "scripts" / "dump_catalog.py" in paths

    def defined(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            return {stmt.name}
        if isinstance(stmt, ast.Assign):
            return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
        return set()

    def read(stmt):
        out = set()
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id in module_names):
                out.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
        return out

    reads = set()
    for stmt in stmts:
        names = defined(stmt)
        if "__all__" not in names:
            reads |= {r for r in read(stmt) if r not in names}
    unread = {name for m in modules for name in m.__all__} - reads
    assert unread == set(_UNREAD_PUBLIC)


def test_only_eta_names_the_expansion_engine():
    # every catalog expansion goes FormCache -> catalog_form ->
    # eta_quotient_expand; a second binding of the engine is a second path
    naming = []
    for path in sorted(Path(qmod.__file__).parent.glob("*.py")):
        if path.name == "eta.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias)
                    else None)
            if name == "eta_quotient_expand":
                naming.append(f"{path.name}:{node.lineno}")
    assert naming == []


def test_each_check_asks_the_store_once_per_form():
    # a check reads each form once, at its largest precision, and takes
    # every coefficient and shorter copy from that one series
    path = Path(qmod.verify.__file__)
    repeated = []
    for fn in ast.parse(path.read_text(), str(path)).body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name.startswith("check_")):
            continue
        forms = [ast.unparse(node.args[0]) for node in ast.walk(fn)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and ast.unparse(node.func.value) == "DEFAULT_CACHE"]
        repeated += [(fn.name, form) for form in sorted(set(forms))
                     if forms.count(form) > 1]
    assert repeated == []


def test_readme_library_example_runs():
    # the fenced block alone: doctest.testfile would read the closing
    # fence as expected output
    readme = _REPO / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(
        block, {}, "README ## Library", str(readme), 0)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    out = []
    result = runner.run(test, out=out.append)
    assert (result.failed, result.attempted) == (0, 5), "".join(out)
