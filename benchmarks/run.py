"""ltvbench benchmark: time one workload, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload prediction --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads, metrics and bounds are listed in ``BENCHMARK.json``.

Set-up is timed from a fresh interpreter to the first timed call, three
times (two set-up-only processes and the measuring one), and reported as
the median.  The measuring process runs the workload for ``--seconds``
(at least once) and reports the median wall time of a run.  With
``--trace 1`` it then runs the workload as long again with every layer
boundary wrapped, and reports per-layer metrics instead.  Every run checks
its outputs; the last line of output is one JSON object, and the exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUPS = 3
TIMEOUT_S = 170.0


def spawn(args, setup_only: bool, deadline: float) -> tuple:
    """Start a worker; returns (set-up seconds, its last output line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    # a fixed hash seed removes one source of run-to-run layout differences
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.time()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("benchmark worker timed out")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return ready[0] - started, lines[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ltvbench" / "__init__.py").is_file():
        print(f"no ltvbench source tree under {root / 'src'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIMEOUT_S

    setups = [spawn(args, True, deadline)[0] for _ in range(SETUPS - 1)]
    setup, line = spawn(args, False, deadline)
    setups.append(setup)
    raw = json.loads(line)

    if args.trace:
        wanted = spec["per_layer"]
        values = raw["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(raw["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_frac": 1.0 - raw["failed"] / raw["attempted"],
            **raw["errors"],
        }
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            raw["problems"].append(f"metric {m['name']} was not measured")
    correct = not raw["problems"]
    if not correct:
        raw["failed"] = raw["attempted"]

    print(f"workload {args.workload}, seed {args.seed}: {len(raw['walls'])} timed "
          f"run(s) of {', '.join(f'{w:.3f}' for w in raw['walls'])} s; "
          f"set-up {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"failed_frac {raw['failed'] / raw['attempted']:.6g} ratio "
          f"({raw['failed']} of {raw['attempted']} operations failed)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in raw["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("environment " + json.dumps(raw["env"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
