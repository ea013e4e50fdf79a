"""qmod benchmark: cold runs of the workloads in workloads.py through the
`qmod` command line, with an exactness gate.

    python3 perfbench/run.py --workload grid_1e5 --seed 1 --seconds 60 \
        --trace 0

Run from the repository root.  Each cold run starts fresh interpreters, so
every run begins with an empty form cache; runs repeat while the next one,
as long as the last, would end within --seconds.  Every output is compared
with the golden SHA-256 digests in golden.json (see make_golden.py); a
digest mismatch, a non-PASS report, a non-zero exit or an exception is a
failed op, and any failure makes the result incorrect and the exit code 1.

--trace 0 prints the end-to-end metrics, from each op's fastest run (see
end_to_end); setup_s is a median.  --trace 1 alternates untraced and traced
runs, and prints the per-layer metrics of the traced runs plus the tracing
overhead.  The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  A fuller record with run metadata goes
to .perfbench/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import tracer as tr
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

SETUP_SAMPLES = 15
JOB_TIMEOUT_S = 170

# name -> unit of every end-to-end metric
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """name -> unit of every per-layer metric of a traced run."""
    units = dict(tr.layer_names())
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _env(hash_seed: int = 0) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QMOD_PREC_CEILING"}
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(samples: int) -> float:
    """Median time from starting an interpreter to `import qmod` done."""
    code = "import time, qmod; print(time.monotonic_ns())"
    times = []
    for _ in range(samples):
        t0 = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", code], env=_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S, check=True)
        times.append((int(done.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(times)


def run_job(ops: list[tuple[str, ...]], trace: bool, hash_seed: int = 0,
            spans_out: str | None = None) -> dict:
    """One job in a fresh interpreter; a crashed worker fails every op.
    A traced job writes its spans to spans_out."""
    job = {"ops": [list(a) for a in ops], "trace": trace, "src": str(SRC),
           "workdir": str(WORKDIR), "spans_out": spans_out}
    done = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), env=_env(hash_seed),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        return json.loads(lines[-1])
    error = f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}"
    return {"ops": [{"rc": None, "error": error, "seconds": 0.0,
                     "sha256": "", "passed": False, "reports": 0,
                     "coeffs": 0} for _ in ops],
            "maxrss_kb": 0, "cold": None}


def hash_seed(ops: list[tuple[str, ...]]) -> int:
    """PYTHONHASHSEED of a job.

    String-hash randomisation alone moves the time of one qmod process by
    up to 25% (through memory layout), so each job gets a fixed seed.  It
    depends on what the job runs, not on the order the workload seed gave
    it, so every run of a job measures the same layout.
    """
    return zlib.crc32(json.dumps(sorted(ops)).encode())


def run_once(jobs: list[list[tuple[str, ...]]], trace: bool) -> dict:
    """One cold run: every job in its own fresh interpreter.  A traced run
    leaves the spans of job j in .perfbench/spans-job<j>.jsonl."""
    results = [run_job(ops, trace, hash_seed(ops),
                       str(WORKDIR / f"spans-job{j}.jsonl") if trace else None)
               for j, ops in enumerate(jobs)]
    ops = [(argv, op) for ops_, res in zip(jobs, results)
           for argv, op in zip(ops_, res["ops"])]
    run = {"ops": ops,
           "wall_s": sum(op["seconds"] for _, op in ops),
           "maxrss_kb": max(r["maxrss_kb"] for r in results),
           "cold": [r["cold"] for r in results]}
    if trace:
        run["layers"] = tr.finish(tr.merge([r["layers"] for r in results]))
        run["missing"] = sorted({m for r in results for m in r["missing"]})
    return run


def gate(runs: list[dict], golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every op of every run.  A warm
    start is a message, not a failed op: it makes the result incorrect."""
    attempted = failed = 0
    messages = []
    for run in runs:
        for argv, op in run["ops"]:
            attempted += 1
            key = " ".join(argv)
            why = None
            if op["error"] is not None:
                why = op["error"].strip().splitlines()[-1]
            elif op["rc"] != 0:
                why = f"exit code {op['rc']}"
            elif op["passed"] is False:
                why = "a report did not PASS"
            elif op["sha256"] != golden.get(key):
                why = "output digest differs from the golden digest"
            if why is not None:
                failed += 1
                messages.append(f"{key}: {why}")
        if False in run["cold"]:
            messages.append("the first cache request of a job did not "
                            "expand a form: the run was not cold")
    return attempted, failed, messages


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation); one value is itself."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_times(runs: list[dict]) -> list[float]:
    """Each op's fastest time over runs that repeat the same ops."""
    return [min(times) for times in
            zip(*([op["seconds"] for _, op in r["ops"]] for r in runs))]


def best_wall(runs: list[dict]) -> float:
    return sum(best_times(runs))


def end_to_end(runs: list[dict], setup_s: float) -> dict:
    """Timings from each op's fastest run.

    On a shared 2-core VM, other tenants change the speed of every process
    by up to 60% for stretches from seconds to minutes, in CPU time as much
    as in wall time.  Every run repeats the same ops in the same order
    with the same cache states, so an op's fastest time over the runs is
    its time at the host's best moment in the invocation.

    wall_s is the sum of the ops' fastest times, an estimate of one cold
    run on a quiet host; the latency percentiles are over the same times.
    """
    best = best_times(runs)
    wall = sum(best)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": len(best) / wall if wall > 0 else 0.0,
        "op_p50_ms": _quantile(best, 50) * 1e3,
        "op_p90_ms": _quantile(best, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024
                                         for r in runs),
    }


def per_layer(untraced: list[dict], traced: list[dict]
              ) -> tuple[dict, list[str]]:
    """Fastest times over the traced runs, as in end_to_end, and messages
    for counts that did not repeat exactly between them."""
    messages = []
    names = sorted(set().union(*(r["layers"] for r in traced)))
    metrics = {}
    for name in names:
        values = [r["layers"].get(name) for r in traced]
        if name.rsplit(".", 1)[-1] in tr.COUNT_STATS:
            if len(set(values)) != 1:
                messages.append(f"count {name} differs between runs: "
                                f"{values}")
            metrics[name] = values[0]
        else:
            metrics[name] = min(values)
    metrics["trace.wall_s"] = best_wall(traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - best_wall(untraced)
    return metrics, messages


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(args, runs: list[dict]) -> dict:
    untraced = [r for r in runs if "layers" not in r]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "qmod").rglob("*.py"))),
        "runs_untraced": len(untraced),
        "runs_traced": len(runs) - len(untraced),
        "ops_per_run": len(runs[0]["ops"]),
        "latency_samples": sum(len(r["ops"]) for r in untraced),
        "reports_per_run": sum(op["reports"] for _, op in runs[0]["ops"]),
        "coeffs_per_run": sum(op["coeffs"] for _, op in runs[0]["ops"]),
        "missing_bindings": sorted({m for r in runs
                                    for m in r.get("missing", ())}),
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy-size inputs, for the self-test")
    return ap.parse_args(argv)


def main(argv=None, golden: dict | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "qmod" / "__init__.py").is_file():
        print(f"error: no qmod package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if golden is None:
        golden = json.loads(GOLDEN.read_text())
    WORKDIR.mkdir(exist_ok=True)

    jobs = wl.jobs(args.workload, args.seed, args.smoke)
    # With --trace 1, untraced and traced runs of the same inputs alternate,
    # so both sides of the tracing overhead see the same host conditions.
    # Runs go on while the next one, as long as the last, ends in time.
    deadline = time.monotonic() + args.seconds
    runs = []
    while True:
        started = time.monotonic()
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(jobs, traced))
        took = time.monotonic() - started
        if ((traced or not args.trace)
                and time.monotonic() + took > deadline):
            break

    attempted, failed, messages = gate(runs, golden)
    untraced = [r for r in runs if "layers" not in r]
    if args.trace:
        metrics, count_messages = per_layer(
            untraced, [r for r in runs if "layers" in r])
        messages += count_messages
        units = per_layer_units()
    else:
        metrics = end_to_end(
            untraced, measure_setup(3 if args.smoke else SETUP_SAMPLES))
        units = END_TO_END
    correct = failed == 0 and not messages

    meta = metadata(args, runs)
    meta["fail_ratio"] = failed / attempted
    if not args.trace and metrics["wall_s"] > 0:
        for what in ("reports", "coeffs"):
            meta[f"{what}_per_s"] = meta[f"{what}_per_run"] / metrics["wall_s"]
    for message in messages[:20]:
        print(f"FAIL {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    record = {"meta": meta, "metrics": metrics, "messages": messages,
              "runs": [{"wall_s": r["wall_s"], "maxrss_kb": r["maxrss_kb"],
                        "traced": "layers" in r,
                        "op_seconds": [op["seconds"] for _, op in r["ops"]]}
                       for r in runs]}
    name = (f"result-{args.workload}-{args.seed}-{args.trace}"
            + ("-smoke" if args.smoke else "") + ".json")
    (WORKDIR / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
