"""Command-line entry point wiring the modules into reproducible workflows.

Subcommands: simulate, dataset, identify, tune, control, bench.  Every
stochastic subcommand requires --seed and writes a manifest next to its
artifacts so any output can be regenerated bit-exactly.

Exit codes: 0 success, 1 usage error, 2 runtime error (with a diagnostic
naming the failing stage).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import SUITES, BenchConfig, method_grid, run_bench, scenario_names
from .control import (
    ReferenceSpec,
    closed_loop,
    default_reference,
    default_weights,
    feedforward,
    lqr_ltv,
    save_gains,
    with_feedforward,
)
from .datagen import (
    Split,
    build_dataset,
    chirp,
    default_excitations,
    load_dataset,
    save_dataset,
    save_trajectory_csv,
    tvera_experiments,
)
from .dynamics import BUILTIN_SCENARIOS, ground_truth_ltv, load_scenario, scenario, simulate
from .exceptions import LtvBenchError
from .files import field_errors, read_json, write_json, write_table
from .ident import LAMBDA_METHODS, METHODS, fit_method, tune
from .models import load_model, save_model


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_spec(name_or_path: str):
    if Path(name_or_path).suffix == ".json" or Path(name_or_path).exists():
        return load_scenario(name_or_path)
    return scenario(name_or_path)


def _parse_x0(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse initial state {text!r}; expected 'z,zdot'")
    if len(values) != 2:
        raise ValueError(f"initial state needs two components, got {len(values)}")
    return np.array(values)


def _parse_lams(text: str) -> tuple:
    """The lambda values of a comma-separated list; blank entries are skipped."""
    lams = tuple(float(v) for v in text.split(",") if v.strip())
    if not lams:
        raise ValueError(f"no lambda values in {text!r}")
    return lams


def _write_manifest(path: Path, command: str, options: dict) -> None:
    options = {
        k: v for k, v in options.items() if k not in ("func", "stage") and not callable(v)
    }
    write_json(path, {"command": command, "options": options, "version": __version__})


def _manifest_for_file(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.scenario)
    times = np.arange(spec.n_steps) * spec.dt
    if args.input == "chirp":
        ex = default_excitations(spec.horizon)[Split.TRAIN]
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 99]))
        inputs = chirp(ex, times, rng)
    else:
        inputs = np.zeros(len(times))
    traj = simulate(spec, _parse_x0(args.x0), inputs, seed=args.seed)
    out = Path(args.out)
    save_trajectory_csv(traj, out)
    _write_manifest(_manifest_for_file(out), "simulate", vars(args))
    print(f"wrote {out}")
    return 0


def _cmd_dataset(args) -> int:
    spec = _load_spec(args.scenario)
    out = Path(args.out)
    if args.experiments:
        ds = tvera_experiments(
            spec,
            n_free=args.n_free_experiments,
            n_forced=args.n_forced_experiments,
            noise_var=args.noise_var,
            master_seed=args.seed,
        )
        save_dataset(ds, out)
        _write_manifest(out / "run_manifest.json", "dataset", vars(args))
        print(f"wrote {len(ds)} experiment trajectories to {out}")
        return 0
    splits = build_dataset(
        spec,
        default_excitations(spec.horizon, args.input_noise_var),
        counts=(args.l_train, args.l_val, args.l_test),
        noise_var=args.noise_var,
        master_seed=args.seed,
        n_free=args.n_free,
    )
    for split, ds in splits.items():
        save_dataset(ds, out / split.value)
    _write_manifest(out / "run_manifest.json", "dataset", vars(args))
    total = sum(len(ds) for ds in splits.values())
    print(f"wrote {total} trajectories to {out}")
    return 0


def _cmd_identify(args) -> int:
    ds = load_dataset(args.data)
    params = {}
    if args.method in LAMBDA_METHODS:
        params["lam"] = args.lam
    if args.method == "tvera":
        params = {"hankel_rows": args.hankel_rows, "hankel_cols": args.hankel_cols}
    model = fit_method(args.method, ds, params)
    out = Path(args.out)
    save_model(model, out)
    _write_manifest(_manifest_for_file(out), "identify", vars(args))
    print(f"wrote {args.method} model ({model.n_steps} steps) to {out}")
    return 0


def _cmd_tune(args) -> int:
    cfg = BenchConfig(lambda_grid=_parse_lams(args.grid)) if args.grid else BenchConfig()
    grid = method_grid(args.method, cfg)
    train = load_dataset(args.train)
    validation = load_dataset(args.validation)
    result = tune(args.method, grid, train, validation)
    out = Path(args.out)
    save_model(result.best_model, out)
    write_table(
        out.with_name(out.stem + "_grid.csv"),
        ["params", "loss", "error"],
        [(row.params, row.loss, row.error) for row in result.rows],
    )
    _write_manifest(_manifest_for_file(out), "tune", vars(args))
    print(
        f"best {args.method} params {result.best_params} "
        f"(validation loss {result.best_loss:.6g}); wrote {out}"
    )
    return 0


def _cmd_control(args) -> int:
    spec = _load_spec(args.scenario)
    if args.model == "linearization":
        model = ground_truth_ltv(spec)
    else:
        model = load_model(args.model)
        if abs(model.dt - spec.dt) > 1e-9 * spec.dt:
            raise ValueError(f"model time step {model.dt} differs from the scenario's {spec.dt}")
    if args.ref:
        payload = read_json(args.ref, "reference spec")
        with field_errors(args.ref, "reference spec"):
            ref = ReferenceSpec(segments=tuple((s["t"], s["z"]) for s in payload["segments"]))
    else:
        ref = default_reference(spec.horizon)
    sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
    traj = closed_loop(spec, sched, ref, _parse_x0(args.x0), seed=args.seed)
    out = Path(args.out)
    save_trajectory_csv(traj, out)
    if args.gains_out:
        save_gains(sched, args.gains_out)
    _write_manifest(_manifest_for_file(out), "control", vars(args))
    print(f"wrote closed-loop trajectory to {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        scenarios=tuple(args.scenarios.split(",")) if args.scenarios else BUILTIN_SCENARIOS,
        master_seed=args.seed,
        l_train=args.l_train,
        l_val=args.l_val,
        l_test=args.l_test,
        noise_var=args.noise_var,
        lambda_grid=_parse_lams(args.lambda_grid) if args.lambda_grid else BenchConfig.lambda_grid,
        jobs=args.jobs,
    )
    written = run_bench(args.suite, cfg, args.out)
    print(f"wrote {', '.join(written)} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltvbench", description=__doc__.splitlines()[0])
    defaults = BenchConfig()   # the dataset and bench sizes default to the paper's
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="open-loop simulation of a scenario")
    sim.add_argument("--scenario", required=True, help="built-in name or spec file")
    sim.add_argument("--x0", default="0,0", help="initial state 'z,zdot'")
    sim.add_argument("--input", choices=("zero", "chirp"), default="zero")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output trajectory CSV")
    sim.set_defaults(func=_cmd_simulate, stage="simulate")

    ds = sub.add_parser("dataset", help="generate train/validation/test datasets")
    ds.add_argument("--scenario", required=True)
    ds.add_argument("--seed", type=int, required=True)
    ds.add_argument("--out", required=True, help="output directory")
    ds.add_argument("--l-train", type=int, default=defaults.l_train)
    ds.add_argument("--l-val", type=int, default=defaults.l_val)
    ds.add_argument("--l-test", type=int, default=defaults.l_test)
    ds.add_argument("--n-free", type=int, default=defaults.n_free)
    ds.add_argument("--noise-var", type=float, default=defaults.noise_var)
    ds.add_argument("--input-noise-var", type=float, default=defaults.input_noise_var)
    ds.add_argument(
        "--experiments",
        action="store_true",
        help="write free/forced realization experiments instead of chirp splits",
    )
    ds.add_argument("--n-free-experiments", type=int, default=defaults.tvera_free)
    ds.add_argument("--n-forced-experiments", type=int, default=defaults.tvera_forced)
    ds.set_defaults(func=_cmd_dataset, stage="dataset")

    ident = sub.add_parser("identify", help="fit one model to a dataset directory")
    ident.add_argument(
        "--method",
        required=True,
        choices=METHODS,
    )
    ident.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ident.add_argument("--hankel-rows", type=int, default=3)
    ident.add_argument("--hankel-cols", type=int, default=3)
    ident.add_argument("--data", required=True, help="dataset directory")
    ident.add_argument("--out", required=True, help="output model file")
    ident.set_defaults(func=_cmd_identify, stage="identify")

    tn = sub.add_parser("tune", help="grid-search hyperparameters on validation loss")
    tn.add_argument(
        "--method",
        required=True,
        choices=METHODS,
    )
    tn.add_argument("--grid", help="comma-separated lambda values (default: built-in grid)")
    tn.add_argument("--train", required=True, help="training dataset directory")
    tn.add_argument("--validation", required=True, help="validation dataset directory")
    tn.add_argument("--out", required=True, help="output model file")
    tn.set_defaults(func=_cmd_tune, stage="tune")

    ctl = sub.add_parser("control", help="synthesize gains and track the reference")
    ctl.add_argument("--model", required=True, help="model file or 'linearization'")
    ctl.add_argument("--scenario", required=True)
    ctl.add_argument("--ref", help="reference spec JSON (default: alternating setpoints)")
    ctl.add_argument("--x0", default="0,0")
    ctl.add_argument("--seed", type=int, required=True)
    ctl.add_argument("--out", required=True, help="output trajectory CSV")
    ctl.add_argument("--gains-out", help="also persist the gain schedule")
    ctl.set_defaults(func=_cmd_control, stage="control")

    bn = sub.add_parser("bench", help="run a benchmark suite")
    bn.add_argument("--suite", required=True, choices=SUITES)
    bn.add_argument("--seed", type=int, required=True)
    bn.add_argument("--out", required=True, help="output directory")
    bn.add_argument("--scenarios", help="comma-separated subset of scenarios")
    bn.add_argument("--l-train", type=int, default=defaults.l_train)
    bn.add_argument("--l-val", type=int, default=defaults.l_val)
    bn.add_argument("--l-test", type=int, default=defaults.l_test)
    bn.add_argument("--noise-var", type=float, default=defaults.noise_var)
    bn.add_argument("--lambda-grid", help="comma-separated lambda grid override")
    bn.add_argument("--jobs", type=int, default=defaults.jobs, help="parallel scenario workers")
    bn.set_defaults(func=_cmd_bench, stage="bench")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "tune" and args.grid and args.method not in LAMBDA_METHODS:
            parser.error(f"tune --grid sets lambda, which method {args.method!r} does not take")
        if args.command == "bench" and args.jobs < 1:
            parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
        if args.command == "bench" and args.scenarios:
            try:
                scenario_names(args.scenarios.split(","))
            except ValueError as exc:
                parser.error(f"argument --scenarios: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (LtvBenchError, ValueError, OSError) as exc:
        print(f"ltvbench {args.stage}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
