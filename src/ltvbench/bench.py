"""Benchmark orchestration: prediction tables, tracking tables, ECDFs, sweeps.

Everything is deterministic under one master seed: per-scenario dataset seeds
and per-run closed-loop seeds are derived through named substreams, and the
CSV emitters format floats with ``repr`` so re-running a suite reproduces the
output files byte for byte.
"""

from __future__ import annotations

import math
import numbers
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .control import (
    closed_loop,
    default_reference,
    default_weights,
    feedforward,
    lqr_ltv,
    tracking_errors,
    with_feedforward,
)
from .datagen import (
    Split,
    build_dataset,
    default_excitations,
    substream_seed,
    tvera_experiments,
)
from .dynamics import BUILTIN_SCENARIOS, Trajectory, ground_truth_ltv, scenario
from .exceptions import InputError, InstabilityError, LtvBenchError, TuningError
from .files import write_json, write_table
from .ident import (
    DEFAULT_LAMBDA_GRID,
    LAMBDA_METHODS,
    cosmic_objective,
    fit_method,
    per_trajectory_losses,
    rollout_residuals,
    tune,
)
from .ident.regression import check_lam
from .toolchain import single_blas_thread, toolchain

PREDICTION_METHODS = (
    "tvera",
    "ltvmodels",
    "cosmic-single",
    "cosmic",
    "perstep",
    "linearization",
)
CONTROLLERS = ("cosmic", "linearization", "lti")
ALL_METHODS = PREDICTION_METHODS + ("lti",)
ECDF_METHODS = ("cosmic", "tvera", "linearization")
SUITES = ("prediction", "control", "all")

_STREAM_DATASET = 2
_STREAM_CONTROL = 3


@dataclass(frozen=True)
class BenchConfig:
    scenarios: tuple = BUILTIN_SCENARIOS
    master_seed: int = 0
    l_train: int = 20
    l_val: int = 8
    l_test: int = 8
    noise_var: float = 1e-6          # measurement noise variance on train states
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    jobs: int = 1
    # the paper's fixed protocol: read and recorded like the fields above, but
    # set by no constructor call or ``replace``
    n_free: int = field(default=2, init=False)   # free responses per validation/test split
    input_noise_var: float = field(default=0.01, init=False)   # chirp disturbance variance
    tvera_rows_cols: tuple = field(default=((2, 2), (3, 3), (4, 4)), init=False)
    tvera_free: int = field(default=4, init=False)
    tvera_forced: int = field(default=10, init=False)
    initial_conditions: tuple = field(
        default=((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (2.0, 0.0)), init=False
    )


@dataclass
class PredictionRow:
    scenario: str
    method: str
    mean: float | None
    std: float | None
    n_test: int
    best_params: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class TrackingRow:
    scenario: str
    controller: str
    mean: float | None
    std: float | None
    rmse: float | None
    unstable: bool = False
    error: str | None = None


def scenario_names(names) -> tuple:
    """``scenario(name).name`` of each name, which a run seeds, labels and
    names files by; no name, an unknown or a repeated scenario raises
    ``InputError``."""
    canonical = tuple(scenario(name).name for name in names)
    if not canonical:
        raise InputError("need at least one scenario")
    repeated = sorted({name for name in canonical if canonical.count(name) > 1})
    if repeated:
        raise InputError(f"scenarios given more than once: {', '.join(repeated)}")
    return canonical


def _scenario_data(name: str, cfg: BenchConfig):
    """The scenario's spec, its dataset seed and its train/validation/test
    splits: built once per scenario a suite runs."""
    spec = scenario(name)
    seed = substream_seed(int(cfg.master_seed), _STREAM_DATASET, zlib.crc32(name.encode()))
    splits = build_dataset(
        spec,
        default_excitations(spec.horizon, cfg.input_noise_var),
        counts=(cfg.l_train, cfg.l_val, cfg.l_test),
        noise_var=cfg.noise_var,
        master_seed=seed,
        n_free=cfg.n_free,
    )
    return spec, seed, splits


def check_lambda_grid(grid) -> None:
    """Raise ``InputError`` unless ``grid`` holds lambda values, each positive
    and finite."""
    try:
        lams = [check_lam(lam) for lam in grid]
    except InputError:
        lams = []
    if not lams:
        raise InputError(f"lambda values must be positive and finite, got {tuple(grid)}")


def method_grid(method: str, cfg: BenchConfig) -> tuple:
    """The hyperparameter grid a method is tuned over; ``({},)`` for the
    methods without hyperparameters.  ``BenchConfig()`` gives the defaults."""
    if method in LAMBDA_METHODS:
        return tuple({"lam": float(l)} for l in cfg.lambda_grid)
    if method == "tvera":
        return tuple({"hankel_rows": s, "hankel_cols": r} for s, r in cfg.tvera_rows_cols)
    return ({},)


@dataclass
class Entry:
    """One method's model on one scenario (or the recorded error of getting
    it), its chosen hyperparameters and ``tune``'s grid rows, each with its
    fit."""

    model: object
    best_params: dict = field(default_factory=dict)
    grid: list = field(default_factory=list)


def _ok(value):
    """``value``, unless it is a recorded error, which is raised."""
    if isinstance(value, Exception):
        raise value
    return value


def _entry(method: str, spec, seed: int, splits, cfg: BenchConfig) -> Entry:
    """The one place a suite gets a model.

    ``linearization`` is the ground-truth L-LTV model; ``perstep`` and ``lti``
    have no hyperparameters and are fitted once; every other method is tuned
    over its grid on the validation rollout loss.  The realization baseline
    trains on its own free/forced experiments, built only here.  An
    ``LtvBenchError`` is recorded in the entry, and the run goes on.
    """
    try:
        if method == "linearization":
            return Entry(ground_truth_ltv(spec))
        grid = method_grid(method, cfg)
        train = splits[Split.TRAIN]
        if grid == ({},):
            return Entry(fit_method(method, train, {}))
        if method == "tvera":
            train = tvera_experiments(
                spec, n_free=cfg.tvera_free, n_forced=cfg.tvera_forced,
                noise_var=cfg.noise_var, master_seed=seed,
            )
        result = tune(method, grid, train, splits[Split.VALIDATION])
        return Entry(result.best_model, result.best_params, result.rows)
    except LtvBenchError as exc:
        return Entry(exc)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _map_scenarios(fn, cfg: BenchConfig) -> list:
    """``fn(name, cfg)`` for every scenario, in order; across ``cfg.jobs``
    worker processes, each with one BLAS thread, when it is above one."""
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=single_blas_thread) as pool:
            futures = {name: pool.submit(fn, name, cfg) for name in cfg.scenarios}
            return [futures[name].result() for name in cfg.scenarios]
    return [fn(name, cfg) for name in cfg.scenarios]


def _prediction_rows(name: str, entries: dict, test) -> list:
    """table1's rows.  Every fitted model of the scenario is scored in one
    stacked rollout; an ``LtvBenchError`` of that scoring is recorded on each
    of them."""
    # method -> its model, then its per-trajectory losses, or the recorded error
    cells = {method: entries[method].model for method in PREDICTION_METHODS}
    fitted = [m for m in PREDICTION_METHODS if not isinstance(cells[m], Exception)]
    if fitted:
        try:
            cells.update(zip(fitted, per_trajectory_losses([cells[m] for m in fitted], test)))
        except LtvBenchError as exc:
            cells.update(dict.fromkeys(fitted, exc))
    rows = []
    for method in PREDICTION_METHODS:
        losses = cells[method]
        if isinstance(losses, Exception):
            rows.append(PredictionRow(name, method, None, None, 0, error=_error(losses)))
            continue
        rows.append(
            PredictionRow(
                name, method, float(np.mean(losses)), float(np.std(losses)),
                len(losses), entries[method].best_params,
            )
        )
    return rows


def _tracking_stats(spec, sched, ref, cfg, name):
    """Pool absolute tracking errors over the initial-condition set.

    Returns (mean, std, rmse, unstable).  Diverged runs contribute the errors
    realized up to the guard trip and set the unstable flag.  The rmse column
    is the per-run root-mean-square error averaged over runs and normalized
    by the horizon length.
    """
    pooled = []
    rms_runs = []
    unstable = False
    for i, x0 in enumerate(cfg.initial_conditions):
        run_seed = substream_seed(
            int(cfg.master_seed), _STREAM_CONTROL, zlib.crc32(name.encode()), i
        )
        try:
            traj = closed_loop(spec, sched, ref, np.asarray(x0, dtype=float), run_seed)
        except InstabilityError as exc:
            unstable = True
            traj = Trajectory(exc.times, exc.states, exc.inputs)
        errors = tracking_errors(traj, ref)
        pooled.append(errors)
        if len(errors) > 1:
            rms_runs.append(math.sqrt(float(np.mean(errors[1:] ** 2))))
    pooled = np.concatenate(pooled)
    rmse = float(np.mean(rms_runs)) / spec.n_steps if rms_runs else None
    return float(np.mean(pooled)), float(np.std(pooled)), rmse, unstable


def _control_rows(name: str, spec, entries: dict, cfg: BenchConfig) -> list:
    """table2's rows.  Each controller's LQR gains and feedforward come from
    its own model; an ``LtvBenchError`` of getting its model or schedule is
    recorded in its own row."""
    ref = default_reference(spec.horizon)
    rows = []
    for controller in CONTROLLERS:
        try:
            model = _ok(entries[controller].model)
            sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
            stats = _tracking_stats(spec, sched, ref, cfg, name)
        except LtvBenchError as exc:
            rows.append(TrackingRow(name, controller, None, None, None, error=_error(exc)))
            continue
        rows.append(TrackingRow(name, controller, *stats))
    return rows


def ecdf_residuals(models, trajectories) -> np.ndarray:
    """Empirical CDF values of relative absolute position residuals: one
    sorted row per model, from one stacked rollout of the models.

    Per trajectory, rollout residuals |x1_hat(k) - x1(k)| for k >= 1 are
    scaled by that trajectory's mean absolute position, then pooled.
    """
    trajectories = list(trajectories)
    denoms = np.array([np.mean(np.abs(traj.states[:, 0])) for traj in trajectories])
    if np.any(denoms == 0.0):
        raise InputError("trajectory has zero mean absolute position")
    residual = rollout_residuals(models, trajectories)[..., 0].swapaxes(0, 1)
    return np.sort((np.abs(residual) / denoms).reshape(len(residual), -1), axis=1)


@dataclass
class LambdaSweepRow:
    lam: float
    fidelity: float
    smoothness: float        # unweighted path term sum_k ||C(k) - C(k-1)||_F^2
    tracking_rmse: float | None
    unstable: bool = False


def path_smoothness(model) -> float:
    """Unweighted parameter-variation term sum_k ||C(k) - C(k-1)||_F^2.

    This is the quantity that is monotone non-increasing along the lam path
    (the objective's own smoothing term carries the lam factor).
    """
    blocks = model.stacked()
    return float(np.sum((blocks[1:] - blocks[:-1]) ** 2))


def _sweep_rows(spec, entry: Entry, train, cfg: BenchConfig, name: str) -> list:
    """Smoothing-strength study: objective decomposition plus closed-loop
    RMSE of the cosmic fit at every lam of ``cfg.lambda_grid``, in its order.

    The fits are ``tune``'s grid points (the sweep reports every point,
    whatever its validation loss), and each point's gains and feedforward
    come from its own model.  A point without a fit or a schedule fails the
    run.
    """
    _ok(entry.model)   # tune itself failed: no point has a fit
    points = {row.params["lam"]: row for row in entry.grid}
    ref = default_reference(spec.horizon)
    rows = []
    for lam in map(float, cfg.lambda_grid):
        model = points[lam].model
        if model is None:
            raise TuningError(f"lambda sweep point lam={lam} failed to fit: {points[lam].error}")
        sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
        _, fidelity, _ = cosmic_objective(model, train, lam)
        _, _, rmse, unstable = _tracking_stats(spec, sched, ref, cfg, name)
        rows.append(LambdaSweepRow(lam, fidelity, path_smoothness(model), rmse, unstable))
    return rows


def _scenario_results(suite: str, name: str, cfg: BenchConfig) -> dict:
    """The one place a suite builds a scenario's data and models.

    The splits are built once, and each method the suite reads gets one
    :class:`Entry`.  ``table1`` and ``table2`` rows, the ECDF values and
    (on ``cfg.scenarios[0]``) the lambda-sweep rows all come from those
    entries.  A failed ECDF model or sweep point fails the run.
    """
    spec, seed, splits = _scenario_data(name, cfg)
    methods = {"prediction": PREDICTION_METHODS, "control": CONTROLLERS}.get(suite, ALL_METHODS)
    entries = {method: _entry(method, spec, seed, splits, cfg) for method in methods}
    test = splits[Split.TEST].trajectories
    out = {}
    if suite != "control":
        out["table1"] = _prediction_rows(name, entries, test)
    if suite != "prediction":
        out["table2"] = _control_rows(name, spec, entries, cfg)
    if suite == "all":
        models = [_ok(entries[m].model) for m in ECDF_METHODS]
        out["ecdf"] = dict(zip(ECDF_METHODS, ecdf_residuals(models, test)))
        if name == cfg.scenarios[0]:
            out["sweep"] = _sweep_rows(spec, entries["cosmic"], splits[Split.TRAIN], cfg, name)
    return out


def write_prediction_csv(rows: list, path) -> None:
    write_table(
        path,
        ["scenario", "method", "mean_loss", "std_loss", "n_test", "best_params", "error"],
        map(astuple, rows),
    )


def write_tracking_csv(rows: list, path) -> None:
    write_table(
        path,
        ["scenario", "controller", "mean", "std", "rmse", "unstable", "error"],
        map(astuple, rows),
    )


def write_ecdf_csv(values_by_method: dict, path) -> None:
    """Each method's sorted values with their cumulative fractions i / n."""
    rows = []
    for method in sorted(values_by_method):
        values = values_by_method[method]
        fractions = np.arange(1, len(values) + 1) / len(values)
        rows.extend((method, float(v), float(f)) for v, f in zip(values, fractions))
    write_table(path, ["method", "value", "fraction"], rows)


def write_lambda_csv(rows, path) -> None:
    write_table(
        path,
        ["lambda", "fidelity", "smoothness", "tracking_rmse", "unstable"],
        map(astuple, rows),
    )


def run_bench(suite: str, cfg: BenchConfig, out_dir) -> list:
    """Run one benchmark suite and write its CSV artifacts plus a manifest:
    ``prediction`` writes ``table1.csv``, ``control`` ``table2.csv``, and
    ``all`` both, one ECDF file per scenario and ``lambda_sweep.csv``.  The
    suite, ``cfg.jobs``, ``cfg.master_seed``, ``cfg.lambda_grid`` and the
    scenario names (at least one) are checked, and the names canonicalized,
    before any work; a bad one raises ``InputError``.  The manifest records
    the config and the files (:func:`write_manifest`).

    Returns the list of files written (relative names).
    """
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if not isinstance(cfg.jobs, numbers.Integral) or cfg.jobs < 1:
        raise InputError(f"jobs must be at least 1 and an integer, got {cfg.jobs}")
    if not isinstance(cfg.master_seed, numbers.Integral) or cfg.master_seed < 0:
        raise InputError(f"master_seed must be a non-negative integer, got {cfg.master_seed}")
    check_lambda_grid(cfg.lambda_grid)
    cfg = replace(cfg, scenarios=scenario_names(cfg.scenarios))
    results = _map_scenarios(partial(_scenario_results, suite), cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if suite != "control":
        write_prediction_csv([row for r in results for row in r["table1"]], out_dir / "table1.csv")
        written.append("table1.csv")
    if suite != "prediction":
        write_tracking_csv([row for r in results for row in r["table2"]], out_dir / "table2.csv")
        written.append("table2.csv")
    if suite == "all":
        for name, result in zip(cfg.scenarios, results):
            written.append(f"ecdf_{name.replace('-', '_')}.csv")
            write_ecdf_csv(result["ecdf"], out_dir / written[-1])
        write_lambda_csv(results[0]["sweep"], out_dir / "lambda_sweep.csv")
        written.append("lambda_sweep.csv")
    write_manifest(
        out_dir / "manifest.json", {"suite": suite, "config": asdict(cfg), "files": written}
    )
    return written


def write_manifest(path, record: dict) -> None:
    """Write a run's manifest: ``record`` with the version and the
    :func:`~ltvbench.toolchain.toolchain` that wrote the run's files."""
    write_json(path, {**record, "version": __version__, "toolchain": toolchain()})
