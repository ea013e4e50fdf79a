"""Run one benchmark job in a fresh interpreter and report on stdout.

Reads a job from stdin as JSON: {"ops": [op, ...], "trace": bool,
"src": path of the package source, "workdir": directory for --out files}.
An op is an argv list, optionally led by NAME=value environment settings
that hold for that op only.  Each argv runs through `qmod.cli.main`, the
entry point behind `qmod` and `python -m qmod`, with its output captured.
Only the call itself is timed; digests, PASS checks and span reduction come
after the last call, and peak memory is read before them.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer as tr


def _run(argv: list[str], env: dict, cli) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        rc = e.code
    except Exception:
        error = traceback.format_exc(limit=8)
    seconds = time.perf_counter() - t0
    for name, value in saved.items():
        if value is None:
            del os.environ[name]
        else:
            os.environ[name] = value
    return {"rc": rc, "error": error, "seconds": seconds,
            "stdout": stdout.getvalue()}


def _inspect(argv: list[str], op: dict, out: str | None) -> dict:
    """Digest the op's output and read its verdict: whether every report
    in it passed (None for expand, which has no verdict)."""
    if out is None:
        data = op["stdout"].encode()
    else:
        path = Path(out)
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
    result = {"rc": op["rc"], "error": op["error"],
              "seconds": op["seconds"],
              "sha256": hashlib.sha256(data).hexdigest(),
              "passed": None, "reports": 0, "coeffs": 0}
    try:
        doc = json.loads(data)
    except ValueError:
        result["passed"] = False
        return result
    if argv[0] == "verify":
        reports = doc.get("reports", [])
        summary = doc.get("summary", {})
        result["reports"] = len(reports)
        result["passed"] = (all(r.get("passed") is True for r in reports)
                            and summary.get("passed") == len(reports))
    elif argv[0] == "check":
        result["reports"] = 1
        result["passed"] = doc.get("passed") is True
    else:
        result["coeffs"] = len(doc.get("coeffs", []))
    return result


def main() -> int:
    job = json.loads(sys.stdin.read())
    import qmod
    import qmod.cli as cli

    src = Path(job["src"]).resolve()
    if Path(qmod.__file__).resolve().parent.parent != src:
        print(f"qmod imported from {qmod.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    tracer = probe = None
    if job["trace"]:
        tracer = tr.Tracer()
        tracer.install()
    else:
        probe = tr.FirstRequestProbe()
        probe.install()

    raw = []
    for i, op in enumerate(job["ops"]):
        n = next(k for k, x in enumerate(op) if "=" not in x)
        env = dict(x.split("=", 1) for x in op[:n])
        argv = op[n:]
        out = None
        if argv[0] in ("verify", "expand"):
            out = os.path.join(job["workdir"], f"out-{os.getpid()}-{i}.json")
            argv = argv + ["--out", out]
        raw.append((argv, out, _run(argv, env, cli)))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ops": [_inspect(argv, op, out) for argv, out, op in raw],
              "maxrss_kb": maxrss_kb}
    if tracer is not None:
        result["cold"] = tr.first_request_expanded(tracer.spans)
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        tracer.write(job["spans_out"])
    else:
        result["cold"] = probe.expanded
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
