"""Fast self-test of the benchmark, kept out of the repository's test suite.

    python3 perfbench/selftest.py

Runs every workload at toy size (--smoke), untraced and traced, and checks
that the printed metric names are exactly those of BENCHMARK.json, that the
current code passes the exactness gate, that counts repeat exactly across
seeds where the workload does not depend on the seed, and that a corrupted
golden digest is reported as a failure.  Takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import run
import workloads as wl

# Counts of these workloads do not depend on the seed: the grids ignore it,
# and expand runs each form in its own process.  identities' cache counts
# depend on the order the seed sets.
SEED_FREE = ("grid", "grid_1e5", "expand")


def _bench(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, (workload, trace, done.stdout, done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bit", "ratio")}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            result = _bench(workload, 1, trace)
            assert result["correct"] and result["failed"] == 0, result
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected[trace], (workload, trace,
                                            set(got) ^ set(expected[trace]))
            if trace and workload in SEED_FREE:
                again = _bench(workload, 2, trace)
                assert _counts(again) == _counts(result), workload
        print(f"ok {workload}")

    golden = json.loads(run.GOLDEN.read_text())
    key = " ".join(wl.SMOKE_GRID_ARGV)
    golden[key] = "0" * 64
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", "grid", "--seed", "1", "--seconds", "1",
                       "--smoke"], golden=golden)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert rc == 1 and not result["correct"] and result["failed"] > 0, result
    print("ok corrupted digest is reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
