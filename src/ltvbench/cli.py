"""Command-line entry point wiring the modules into reproducible workflows.

Subcommands: simulate, dataset, identify, tune, control, bench.  Every
stochastic subcommand requires --seed and writes a manifest (with the
toolchain) next to its artifacts so any output can be regenerated
bit-exactly.  A hyperparameter option left out takes the fit's default; one
the method's fit does not take (``tune --grid`` sets ``lam``) is a usage error.

Exit codes: 0 success, 1 usage error, 2 runtime error: an ``LtvBenchError``
(an unusable argument or file, or a failure the benchmark expects; see
:mod:`ltvbench.exceptions`) or an ``OSError``, with a diagnostic naming the
failing command.  Any other exception is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import sys
from inspect import signature
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    SUITES, BenchConfig, check_lambda_grid, method_grid, run_bench, scenario_names, write_manifest,
)
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
from .exceptions import InputError, LtvBenchError
from .files import field_errors, read_json, write_table
from .ident import METHODS, fit_method, tune
from .models import load_model, save_model


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_spec(name_or_path: str):
    """A built-in scenario by name, else a scenario file: a ``.json`` path or
    any path that exists (``./nl`` reads a file named ``nl``)."""
    try:
        return scenario(name_or_path)
    except InputError:
        if Path(name_or_path).suffix == ".json" or Path(name_or_path).exists():
            return load_scenario(name_or_path)
        raise


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy takes non-negative integer seeds."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_x0(text: str) -> list:
    """The numbers of ``text``; the rollout checks that they are two and finite."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"cannot parse initial state {text!r}; expected 'z,zdot'") from None


def _parse_lams(text: str) -> tuple:
    """The lambda values of a comma-separated list; blank entries are skipped.
    Each must be positive and finite."""
    try:
        lams = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise InputError(f"cannot parse lambda values {text!r}") from None
    if not lams:
        raise InputError(f"no lambda values in {text!r}")
    check_lambda_grid(lams)
    return lams


def _write_manifest(path: Path, args) -> None:
    options = {k: v for k, v in vars(args).items() if not callable(v)}
    write_manifest(path, {"command": args.command, "options": options})


# identify's hyperparameter options: option -> (keyword argument of a fit, type)
_FIT_OPTIONS = {
    "--lambda": ("lam", float),
    "--hankel-rows": ("hankel_rows", int),
    "--hankel-cols": ("hankel_cols", int),
}


# dataset's options that one mode alone reads: option -> (dest, type, the mode,
# its default); both modes read --noise-var
_DATASET_OPTIONS = {
    "--l-train": ("l_train", int, "chirp", BenchConfig.l_train),
    "--l-val": ("l_val", int, "chirp", BenchConfig.l_val),
    "--l-test": ("l_test", int, "chirp", BenchConfig.l_test),
    "--n-free": ("n_free", int, "chirp", BenchConfig.n_free),
    "--input-noise-var": ("input_noise_var", float, "chirp", BenchConfig.input_noise_var),
    "--n-free-experiments": ("n_free_experiments", int, "--experiments", BenchConfig.tvera_free),
    "--n-forced-experiments": (
        "n_forced_experiments", int, "--experiments", BenchConfig.tvera_forced,
    ),
}


def _given_fit_options(args) -> dict:
    """Option -> keyword argument of the method's fit, for each option given."""
    if args.command == "tune":
        return {} if args.grid is None else {"--grid": "lam"}
    return {option: name for option, (name, _) in _FIT_OPTIONS.items() if hasattr(args, name)}


def _manifest_for_file(out: Path) -> Path:
    return out.with_name(out.name + ".manifest.json")


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.scenario)
    times = np.arange(spec.n_steps) * spec.dt
    if args.input == "chirp":
        ex = default_excitations(spec.horizon, BenchConfig.input_noise_var)[Split.TRAIN]
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, 99]))
        inputs = chirp(ex, times, rng)
    else:
        inputs = np.zeros(len(times))
    traj = simulate(spec, _parse_x0(args.x0), inputs, seed=args.seed)
    out = Path(args.out)
    save_trajectory_csv(traj, out)
    _write_manifest(_manifest_for_file(out), args)
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
        _write_manifest(out / "run_manifest.json", args)
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
    _write_manifest(out / "run_manifest.json", args)
    total = sum(len(ds) for ds in splits.values())
    print(f"wrote {total} trajectories to {out}")
    return 0


def _cmd_identify(args) -> int:
    ds = load_dataset(args.data)
    params = {name: getattr(args, name) for name in _given_fit_options(args).values()}
    model = fit_method(args.method, ds, params)
    out = Path(args.out)
    save_model(model, out)
    _write_manifest(_manifest_for_file(out), args)
    print(f"wrote {args.method} model ({model.n_steps} steps) to {out}")
    return 0


def _cmd_tune(args) -> int:
    cfg = BenchConfig() if args.grid is None else BenchConfig(lambda_grid=_parse_lams(args.grid))
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
    _write_manifest(_manifest_for_file(out), args)
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
            raise InputError(f"model time step {model.dt} differs from the scenario's {spec.dt}")
        if model.n_steps != spec.n_steps:
            raise InputError(f"model covers {model.n_steps} steps, the scenario {spec.n_steps}")
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
    _write_manifest(_manifest_for_file(out), args)
    print(f"wrote closed-loop trajectory to {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        scenarios=BUILTIN_SCENARIOS if args.scenarios is None else tuple(args.scenarios.split(",")),
        master_seed=args.seed,
        l_train=args.l_train,
        l_val=args.l_val,
        l_test=args.l_test,
        noise_var=args.noise_var,
        lambda_grid=(
            BenchConfig.lambda_grid if args.lambda_grid is None else _parse_lams(args.lambda_grid)
        ),
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

    # options shared by several commands, each declared once
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, required=True)
    noise = argparse.ArgumentParser(add_help=False)
    noise.add_argument(
        "--noise-var", type=float, default=defaults.noise_var,
        help="measurement noise variance of the training states",
    )
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", required=True, choices=METHODS)

    sim = sub.add_parser("simulate", parents=[seed], help="open-loop simulation of a scenario")
    sim.add_argument("--scenario", required=True, help="built-in name or spec file")
    sim.add_argument("--x0", default="0,0", help="initial state 'z,zdot'")
    sim.add_argument("--input", choices=("zero", "chirp"), default="zero")
    sim.add_argument("--out", required=True, help="output trajectory CSV")
    sim.set_defaults(func=_cmd_simulate)

    ds = sub.add_parser("dataset", parents=[seed, noise], help="generate train/val/test datasets")
    ds.add_argument("--scenario", required=True)
    ds.add_argument("--out", required=True, help="output directory")
    ds.add_argument(
        "--experiments",
        action="store_true",
        help="write free/forced realization experiments instead of chirp splits",
    )
    for option, (name, kind, mode, default) in _DATASET_OPTIONS.items():   # absent unless given
        ds.add_argument(
            option, dest=name, type=kind, default=argparse.SUPPRESS,
            help=f"read in {mode} mode only (default {default})",
        )
    ds.set_defaults(func=_cmd_dataset)

    ident = sub.add_parser("identify", parents=[method], help="fit one model to a dataset")
    for option, (name, kind) in _FIT_OPTIONS.items():   # absent unless given
        ident.add_argument(option, dest=name, type=kind, default=argparse.SUPPRESS)
    ident.add_argument("--data", required=True, help="dataset directory")
    ident.add_argument("--out", required=True, help="output model file")
    ident.set_defaults(func=_cmd_identify)

    tn = sub.add_parser("tune", parents=[method], help="grid-search on validation loss")
    tn.add_argument("--grid", help="comma-separated lambda values (default: built-in grid)")
    tn.add_argument("--train", required=True, help="training dataset directory")
    tn.add_argument("--validation", required=True, help="validation dataset directory")
    tn.add_argument("--out", required=True, help="output model file")
    tn.set_defaults(func=_cmd_tune)

    ctl = sub.add_parser("control", parents=[seed], help="synthesize gains, track the reference")
    ctl.add_argument("--model", required=True, help="model file or 'linearization'")
    ctl.add_argument("--scenario", required=True)
    ctl.add_argument("--ref", help="reference spec JSON (default: alternating setpoints)")
    ctl.add_argument("--x0", default="0,0")
    ctl.add_argument("--out", required=True, help="output trajectory CSV")
    ctl.add_argument("--gains-out", help="also persist the gain schedule")
    ctl.set_defaults(func=_cmd_control)

    bn = sub.add_parser("bench", parents=[seed, noise], help="run a benchmark suite")
    bn.add_argument("--l-train", type=int, default=defaults.l_train)
    bn.add_argument("--l-val", type=int, default=defaults.l_val)
    bn.add_argument("--l-test", type=int, default=defaults.l_test)
    bn.add_argument("--suite", required=True, choices=SUITES)
    bn.add_argument("--out", required=True, help="output directory")
    bn.add_argument("--scenarios", help="comma-separated subset of scenarios")
    bn.add_argument("--lambda-grid", help="comma-separated lambda grid override")
    bn.add_argument("--jobs", type=int, default=defaults.jobs, help="parallel scenario workers")
    bn.set_defaults(func=_cmd_bench)

    for command in sub.choices.values():   # post-parse usage errors name their command
        command.set_defaults(error=command.error)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("identify", "tune"):
            taken = signature(METHODS[args.method][2]).parameters
            for option, name in _given_fit_options(args).items():
                if name not in taken:
                    args.error(f"argument {option}: method {args.method!r} does not take {name}")
        if args.command == "dataset":
            mode = "--experiments" if args.experiments else "chirp"
            for option, (name, _, reader, default) in _DATASET_OPTIONS.items():
                if reader == mode:
                    vars(args).setdefault(name, default)
                elif hasattr(args, name):
                    args.error(f"argument {option}: read in {reader} mode only")
        if args.command == "bench" and args.jobs < 1:
            args.error(f"argument --jobs: must be at least 1, got {args.jobs}")
        if args.command == "bench" and args.scenarios is not None:
            try:
                scenario_names(args.scenarios.split(","))
            except InputError as exc:
                args.error(f"argument --scenarios: {exc}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (LtvBenchError, OSError) as exc:
        print(f"ltvbench {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
