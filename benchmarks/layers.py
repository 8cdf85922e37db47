"""The layer ledger: which call paths are traced, and the per-layer metrics.

Each call path is (namespace the caller looks the name up in, attribute,
span name, counter).  ``run_bench`` reaches the layers through names bound in
``ltvbench.bench``; ``tune`` reaches the fits and validation loss through
names bound in ``ltvbench.ident.tuning``; ``cosmic_fit`` reaches the solver
through ``ltvbench.ident.cosmic``; the ``long-record`` workload reaches its
layers through the names bound in ``workloads``.  Open-loop simulation is
reached only through ``ltvbench.datagen``.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

from ltvbench.ident import METHODS
BENCH = "ltvbench.bench"
ROOT_SPAN = "bench.run"   # one timed run of a workload, recorded by worker.py
TUNING = "ltvbench.ident.tuning"


def _fit_name(method, *args, **kwargs) -> str:
    return f"ident.fit.{method}"


def _steps(attrs, args, traj) -> None:
    attrs["steps"] = traj.n_steps


def _trajectories(attrs, args, result) -> None:
    datasets = result.values() if isinstance(result, dict) else (result,)
    attrs["trajectories"] = sum(len(ds) for ds in datasets)


def _fit_info(attrs, args, model) -> None:
    if args[0] == "ltvmodels":
        attrs["iterations"] = int(model.info["iterations"])
        attrs["converged"] = bool(model.info["converged"])


def _blocks(attrs, args, solution) -> None:
    attrs["blocks"] = len(solution)


def _tune_points(attrs, args, result) -> None:
    attrs["points"] = len(result.rows)
    attrs["failed_points"] = sum(1 for row in result.rows if row.error is not None)


def _bytes_written(attrs, args, result) -> None:
    attrs["bytes"] = sum(f.stat().st_size for f in Path(args[1]).iterdir())


def call_paths(workloads) -> list:
    return [
        ("ltvbench.datagen", "simulate", "dynamics.simulate", _steps),
        (BENCH, "ground_truth_ltv", "dynamics.ground_truth_ltv", None),
        (BENCH, "build_dataset", "datagen.build", _trajectories),
        (BENCH, "tvera_experiments", "datagen.build", _trajectories),
        (BENCH, "fit_method", _fit_name, _fit_info),
        (TUNING, "fit_method", _fit_name, _fit_info),
        ("ltvbench.ident.cosmic", "solve_block_tridiag", "ident.tridiag", _blocks),
        (TUNING, "trajectory_prediction_loss", "ident.val_loss", None),
        (BENCH, "tune", "ident.tune", _tune_points),
        (BENCH, "per_trajectory_losses", "ident.test_loss", None),
        (BENCH, "lqr_ltv", "control.lqr", None),
        (BENCH, "feedforward", "control.feedforward", None),
        (BENCH, "closed_loop", "control.closed_loop", None),
        (BENCH, "write_prediction_csv", "bench.write", None),
        (BENCH, "write_tracking_csv", "bench.write", None),
        (workloads, "save_dataset", "datagen.save", _bytes_written),
        (workloads, "load_dataset", "datagen.load", None),
        (workloads, "tune", "ident.tune", _tune_points),
        (workloads, "per_trajectory_losses", "ident.test_loss", None),
        (workloads, "lqr_ltv", "control.lqr", None),
        (workloads, "feedforward", "control.feedforward", None),
        (workloads, "closed_loop", "control.closed_loop", None),
    ]


def install(tracer, workloads) -> None:
    for module, attr, name, counter in call_paths(workloads):
        tracer.wrap(module, attr, name, counter)


def span_counts(tracer) -> dict:
    """Calls per layer boundary that the workloads' expected counts name."""
    counts = defaultdict(int)
    for span in tracer.spans:
        key = "ident.fit" if span.name.startswith("ident.fit.") else span.name
        counts[key] += 1
    return counts


def layer_metrics(tracer, runs: int) -> dict:
    """Per-layer totals over the traced spans, per timed run.

    Times are in seconds, except the per-unit ``us_per_*`` ratios, which are
    given with their bases (``dynamics.simulate.steps``, ``ident.tridiag.blocks``).
    """
    seconds = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    self_s = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        seconds[span.name] += span.duration
        calls[span.name] += 1
        self_s[span.name] += own
        for key, value in span.attrs.items():
            if key != "error":
                attrs[f"{span.name}.{key}"] += value
            elif span.name == "control.closed_loop" and value == "InstabilityError":
                attrs["control.guard_trips"] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    ltv_fits = calls["ident.fit.ltvmodels"]
    total = {
        "dynamics.simulate.calls": calls["dynamics.simulate"],
        "dynamics.simulate.s": seconds["dynamics.simulate"],
        "dynamics.simulate.steps": attrs["dynamics.simulate.steps"],
        "dynamics.simulate.us_per_step": 1e6 * ratio(
            seconds["dynamics.simulate"], attrs["dynamics.simulate.steps"]
        ),
        "dynamics.ground_truth_ltv.s": seconds["dynamics.ground_truth_ltv"],
        "datagen.build.s": seconds["datagen.build"],
        "datagen.build.self_s": self_s["datagen.build"],
        "datagen.trajectories": attrs["datagen.build.trajectories"],
        "datagen.save.s": seconds["datagen.save"],
        "datagen.load.s": seconds["datagen.load"],
        "datagen.bytes": attrs["datagen.save.bytes"],
    }
    for method in METHODS:
        total[f"ident.fit.{method}.s"] = seconds[f"ident.fit.{method}"]
        total[f"ident.fit.{method}.calls"] = calls[f"ident.fit.{method}"]
    total.update({
        "ident.ltvmodels.iterations": attrs["ident.fit.ltvmodels.iterations"],
        "ident.ltvmodels.converged_frac": ratio(
            attrs["ident.fit.ltvmodels.converged"], ltv_fits
        ),
        "ident.tridiag.s": seconds["ident.tridiag"],
        "ident.tridiag.blocks": attrs["ident.tridiag.blocks"],
        "ident.tridiag.us_per_block": 1e6 * ratio(
            seconds["ident.tridiag"], attrs["ident.tridiag.blocks"]
        ),
        "ident.tune.s": seconds["ident.tune"],
        "ident.tune.points": attrs["ident.tune.points"],
        "ident.tune.failed_points": attrs["ident.tune.failed_points"],
        "ident.val_loss.s": seconds["ident.val_loss"],
        "ident.test_loss.s": seconds["ident.test_loss"],
        "control.lqr.s": seconds["control.lqr"],
        "control.feedforward.s": seconds["control.feedforward"],
        "control.closed_loop.s": seconds["control.closed_loop"],
        "control.closed_loop.calls": calls["control.closed_loop"],
        "control.guard_trips": attrs["control.guard_trips"],
        "bench.write.s": seconds["bench.write"],
        "bench.self_s": self_s[ROOT_SPAN],
    })
    # ratios are already per unit; everything else is averaged per timed run
    per_unit = ("us_per_", "converged_frac")
    return {
        name: value if any(tag in name for tag in per_unit) else value / runs
        for name, value in total.items()
    }
