"""Write golden.json: the SHA-256 digest of the output of every input any
seed can generate (workloads.all_inputs), keyed by its argv.

    python3 perfbench/make_golden.py

Run it only on code whose output is known to be right; the digests then
gate every benchmark run.  It refuses to record an input whose run fails.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    run.WORKDIR.mkdir(exist_ok=True)
    golden = {}
    for argv in wl.all_inputs():
        op = run.run_job([argv], trace=False)["ops"][0]
        if op["error"] is not None or op["rc"] != 0 or op["passed"] is False:
            print(f"refusing to record failing input {' '.join(argv)}: "
                  f"{op['error'] or op['rc']}", file=sys.stderr)
            return 1
        golden[" ".join(argv)] = op["sha256"]
        print(f"{op['seconds']:8.3f}s  {' '.join(argv)}", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
