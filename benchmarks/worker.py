"""One benchmark process: set up a workload, time it, check it, report.

Started by ``run.py`` from the root of a source checkout.  It prints
``ready <time.time()>`` immediately before the first timed call, so the
parent can time set-up from a fresh interpreter; with ``--setup-only`` it
stops there.  Otherwise it runs the workload until ``--seconds`` have passed
(at least once), untraced; with ``--trace 1`` it then runs it as long again
with every layer boundary traced.  Its last line is one JSON object with the
raw results, which ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".benchout"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402  (imports the package from src/)
from tracing import Tracer  # noqa: E402

BLAS_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def csv_digests(out_dir: Path) -> tuple:
    """(digest of the CSV bytes, digest with each file's data rows sorted)."""
    raw, rows_sorted = hashlib.sha256(), hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        name = path.relative_to(out_dir).as_posix().encode()
        data = path.read_bytes()
        header, _, body = data.partition(b"\n")
        raw.update(name + b"\0" + data)
        rows_sorted.update(name + b"\0" + header + b"".join(sorted(body.splitlines(True))))
    return raw.hexdigest(), rows_sorted.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_against_earlier_runs(workload: str, seed: int, raw: str, rows_sorted: str) -> list:
    """Runs of one source tree must write byte-identical CSVs for a seed, and
    the same rows, in whatever order, for every seed.  Earlier runs' digests
    are kept in ``.benchout/digests.json``."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    prefix = f"{workload}/{source_digest()}"
    problems = []
    for key, digest, what in (
        (f"{prefix}/seed={seed}", raw, f"seed {seed} wrote other bytes than an earlier run"),
        (f"{prefix}/rows", rows_sorted, "rows differ from an earlier run with another seed"),
    ):
        if store.setdefault(key, digest) != digest:
            problems.append(what)
    tmp = store_path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store_path)
    return problems


def timed_runs(workload, out_root: Path, seconds: float, tracer=None) -> list:
    """Run the workload until ``seconds`` have passed; one record per run."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        out_dir = out_root / str(len(records))
        out_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = workload.run(out_dir)
            else:
                outcome = tracer.call(layers.ROOT_SPAN, workload.run, (out_dir,), {})
        except Exception:
            # a crash is a failed run of every operation, reported, not fatal
            traceback.print_exc()
            outcome = workloads.Outcome(failed=workload.attempted, problems=["the run raised"])
        wall = time.perf_counter() - t0
        records.append({"wall_s": wall, "outcome": outcome, "digests": csv_digests(out_dir)})
        shutil.rmtree(out_dir)
    return records


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = None   # a benchmark checkout need not be a git repository
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref = ROOT / ".git" / sha[5:]
            sha = ref.read_text().strip() if ref.exists() else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "source_sha256": source_digest(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "note": "CPU frequency and cgroup CPU limits are not pinned on this "
                "machine; times include whatever else shares it",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"ready {time.time()!r}", flush=True)
    if args.setup_only:
        return 0

    out_root = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    try:
        plain = timed_runs(workload, out_root / "plain", args.seconds)
        traced = []
        if args.trace:
            tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
            layers.install(tracer, workloads)
            try:
                traced = timed_runs(workload, out_root / "traced", args.seconds, tracer)
            finally:
                tracer.unwrap()
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    records = plain + traced
    problems = [
        f"run {i}: {p}" for i, r in enumerate(records) for p in r["outcome"].problems
    ]
    if len({r["digests"] for r in records}) > 1:
        problems.append("runs of one seed wrote different CSV bytes")
    if not problems:   # only outputs that passed their checks become references
        problems += check_against_earlier_runs(
            args.workload, args.seed, *records[0]["digests"]
        )
    errors = {}
    for name in ("err.cosmic", "err.all"):
        values = {r["outcome"].errors.get(name) for r in records}
        if len(values) == 1 and None not in values:
            errors[name] = values.pop()
        else:
            problems.append(f"{name} missing or not equal across runs: {sorted(map(str, values))}")
    result = {
        "walls": [r["wall_s"] for r in plain],
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        runs = len(traced)
        counts = layers.span_counts(tracer)
        for name, expected in workload.expected_counts().items():
            if counts[name] != expected * runs:
                problems.append(
                    f"traced {counts[name] / runs:g} {name} calls per run, "
                    f"the configuration implies {expected}"
                )
        result["layers"] = layers.layer_metrics(tracer, runs)
        result["layers"]["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced
        ) - statistics.median(result["walls"])
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    attempted = workload.attempted * len(records)
    result.update(
        attempted=attempted,
        failed=attempted if problems else sum(r["outcome"].failed for r in records),
        problems=problems,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
