"""Excitation signals, dataset assembly, and dataset persistence.

Training data is collected open loop under a disturbed chirp input with
measurement noise added to the stored states only (never fed back into the
simulation).  Validation and test splits are exact and carry extra
free-response trajectories (zero input, nonzero initial state).  All
randomness derives from a single master seed through per-trajectory
substreams, so adding trajectories never perturbs existing ones.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .dynamics import ScenarioSpec, Trajectory, load_scenario, save_scenario, simulate
from .exceptions import InputError
from .files import (
    field_errors,
    read_json,
    read_trajectory_csv,
    write_json,
    write_trajectory_csv,
)

MANIFEST_NAME = "manifest.json"
DATASET_FORMAT = "trajectory-dataset/1"

# Stream tags keep differently-purposed draws independent of each other.
_STREAM_CHIRP = 0
_STREAM_EXPERIMENTS = 1


class Split(Enum):
    TRAIN = "train"
    VALIDATION = "validation"
    TEST = "test"


_SPLIT_CODE = {Split.TRAIN: 0, Split.VALIDATION: 1, Split.TEST: 2}


@dataclass(frozen=True)
class ExcitationSpec:
    """Disturbed chirp parameters: frequency sweep, amplitude, phase, noise."""

    amplitude: float = 1.0
    omega0: float = 0.5        # rad/s, sweep floor
    omega1: float = 8.0        # rad/s, sweep ceiling
    duration: float = 10.0     # s, sweep horizon
    phase: float = 0.0         # rad
    noise_var: float = 0.0     # variance of the additive input disturbance

    def __post_init__(self):
        # written so that NaN fails every check
        if not (self.amplitude > 0 and math.isfinite(self.amplitude)):
            raise InputError(f"amplitude must be positive and finite, got {self.amplitude}")
        if not (0 < self.omega0 <= self.omega1 and math.isfinite(self.omega1)):
            raise InputError(
                f"need 0 < omega0 <= omega1 < inf, got ({self.omega0}, {self.omega1})"
            )
        if not math.isfinite(self.phase):
            raise InputError(f"phase must be finite, got {self.phase}")
        if not (self.noise_var >= 0 and math.isfinite(self.noise_var)):
            raise InputError(f"noise variance must be >= 0 and finite, got {self.noise_var}")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise InputError(f"duration must be positive and finite, got {self.duration}")


def chirp(ex: ExcitationSpec, t, rng: np.random.Generator | None = None) -> np.ndarray:
    """Disturbed chirp A*sin(((w1-w0)/T) t^2 + w0 t + phase) + noise at the times ``t``.

    ``t`` is a float or an array of times; the result has the shape of ``t``.
    With ``rng`` and a positive ``noise_var`` the noise is one vector draw of
    ``rng.normal``, equal to one scalar draw per sample in order; otherwise
    nothing is drawn.  ``np.sin`` and the float order of the argument make
    each sample bit-equal to the same law on Python floats (``math.sin``).
    """
    t = np.asarray(t, dtype=float)
    arg = (ex.omega1 - ex.omega0) / ex.duration * t * t + ex.omega0 * t + ex.phase
    u = ex.amplitude * np.sin(arg)
    if rng is not None and ex.noise_var > 0:
        u += rng.normal(0.0, math.sqrt(ex.noise_var), size=t.shape)
    return u


@dataclass(eq=False)
class Dataset:
    """A labeled collection of trajectories from one scenario."""

    split: Split
    trajectories: list
    scenario: ScenarioSpec
    excitation: ExcitationSpec | None = None
    noise_var: float = 0.0
    labels: tuple = ()
    master_seed: int | None = None

    def __post_init__(self):
        if self.labels and len(self.labels) != len(self.trajectories):
            raise ValueError("labels must match trajectory count")

    def __len__(self):
        return len(self.trajectories)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.split == other.split
            and self.scenario == other.scenario
            and self.excitation == other.excitation
            and self.noise_var == other.noise_var
            and tuple(self.labels) == tuple(other.labels)
            and self.master_seed == other.master_seed
            and len(self.trajectories) == len(other.trajectories)
            and all(a == b for a, b in zip(self.trajectories, other.trajectories))
        )


def substream_seed(*keys: int) -> int:
    """The 32-bit seed of the substream named by ``keys``: the first word of
    their ``SeedSequence`` state."""
    return int(np.random.SeedSequence(keys).generate_state(1, dtype=np.uint32)[0])


def _check_noise_var(noise_var) -> None:
    if not (noise_var >= 0 and math.isfinite(noise_var)):   # NaN fails too
        raise InputError(f"measurement noise variance must be >= 0 and finite, got {noise_var}")


def _experiment(spec, keys, setup, noise_var):
    """Simulate the experiment seeded by the substream ``keys``.

    ``setup(init_rng, input_rng, times)`` draws the initial state and the
    inputs at the step ``times``; the process generator draws the kicks.
    Measured states (``noise_var`` not None) are flagged noisy and carry
    measurement noise of that variance.
    """
    init_rng, input_rng, process_rng, noise_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(keys).spawn(4)
    )
    x0, inputs = setup(init_rng, input_rng, np.arange(spec.n_steps) * spec.dt)
    traj = simulate(spec, x0, inputs, seed=process_rng)
    traj.seed = substream_seed(*keys)
    if noise_var is not None:
        traj.noisy = True
        if noise_var > 0:
            traj.states = traj.states + noise_rng.normal(
                0.0, math.sqrt(noise_var), size=traj.states.shape
            )
    return traj


def _free_response(init_rng, input_rng, times):
    return init_rng.uniform(-1.0, 1.0, size=2), np.zeros(len(times))


def _random_input(init_rng, input_rng, times):
    return np.zeros(2), input_rng.normal(0.0, 1.0, size=len(times))


def _chirp_response(ex: ExcitationSpec):
    def setup(init_rng, input_rng, times):
        x0 = init_rng.uniform(-1.0, 1.0, size=2)
        ex_t = replace(ex, phase=init_rng.uniform(0.0, 2.0 * math.pi))
        return x0, chirp(ex_t, times, input_rng)

    return setup


def _dataset(spec, split, stream, experiments, noise_var, master_seed, excitation=None):
    """The ``split`` dataset of one experiment per ``(label, setup)`` pair,
    the i-th seeded by the substream (master_seed, stream, split code, i).

    Training states are measured: they carry noise of variance ``noise_var``,
    which the dataset records as given; other splits are exact and record 0.0.
    """
    measured = split is Split.TRAIN
    trajs = [
        _experiment(
            spec,
            (int(master_seed), stream, _SPLIT_CODE[split], i),
            setup,
            noise_var if measured else None,
        )
        for i, (_, setup) in enumerate(experiments)
    ]
    return Dataset(
        split=split,
        trajectories=trajs,
        scenario=spec,
        excitation=excitation,
        noise_var=noise_var if measured else 0.0,
        labels=tuple(label for label, _ in experiments),
        master_seed=master_seed,
    )


def build_dataset(
    spec: ScenarioSpec,
    excitations: dict,
    counts: tuple = (20, 8, 8),
    noise_var: float = 1e-6,
    master_seed: int = 0,
    n_free: int = 2,
) -> dict:
    """Build the train/validation/test datasets for one scenario.

    ``excitations`` maps each :class:`Split` to its chirp parameters (each
    split should sweep a distinct frequency band).  Training states carry
    additive measurement noise of variance ``noise_var``; validation and test
    are exact and get ``n_free`` extra free-response trajectories each.
    Counts below one, a negative ``n_free``, a negative or non-finite
    ``noise_var`` and splits that share a band raise ``InputError``.
    """
    if any(c < 1 for c in counts):
        raise InputError("each split needs at least one trajectory")
    if n_free < 0:
        raise InputError(f"free-response count must be >= 0, got {n_free}")
    _check_noise_var(noise_var)
    bands = [
        (excitations[s].omega0, excitations[s].omega1)
        for s in (Split.TRAIN, Split.VALIDATION, Split.TEST)
    ]
    if len(set(bands)) != len(bands):
        raise InputError("splits must sweep distinct chirp frequency bands")
    out = {}
    for split, count in zip((Split.TRAIN, Split.VALIDATION, Split.TEST), counts):
        ex = excitations[split]
        free = 0 if split is Split.TRAIN else n_free
        experiments = [("chirp", _chirp_response(ex))] * count + [("free", _free_response)] * free
        out[split] = _dataset(spec, split, _STREAM_CHIRP, experiments, noise_var, master_seed, ex)
    return out


def default_excitations(duration: float, noise_var: float = 0.01) -> dict:
    """Per-split chirp bands: distinct sweeps so validation/test generalize."""
    return {
        Split.TRAIN: ExcitationSpec(1.0, 0.5, 8.0, duration, 0.0, noise_var),
        Split.VALIDATION: ExcitationSpec(1.0, 0.8, 6.0, duration, 0.0, noise_var),
        Split.TEST: ExcitationSpec(1.0, 0.6, 7.0, duration, 0.0, noise_var),
    }


def tvera_experiments(
    spec: ScenarioSpec,
    n_free: int = 4,
    n_forced: int = 10,
    noise_var: float = 1e-6,
    master_seed: int = 0,
) -> Dataset:
    """Free-response and random-input experiments for realization methods.

    Free runs start from random nonzero states with zero input; forced runs
    start at rest and receive unit-variance white-noise inputs.  States carry
    training measurement noise.  A negative count, no experiment at all and
    a negative or non-finite ``noise_var`` raise ``InputError``.
    """
    if n_free < 0 or n_forced < 0:
        raise InputError(f"experiment counts must be >= 0, got {n_free} free and {n_forced} forced")
    if n_free + n_forced == 0:
        raise InputError("the experiment set needs at least one trajectory")
    _check_noise_var(noise_var)
    experiments = [("free", _free_response)] * n_free + [("random", _random_input)] * n_forced
    return _dataset(spec, Split.TRAIN, _STREAM_EXPERIMENTS, experiments, noise_var, master_seed)


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one trajectory as CSV (layout: :func:`~ltvbench.files.write_trajectory_csv`)."""
    write_trajectory_csv(path, traj.times, traj.states, traj.inputs)


def load_trajectory_csv(path, seed=None, noisy=False) -> Trajectory:
    """Read one trajectory CSV; a malformed file raises ``DataFormatError``."""
    times, states, inputs = read_trajectory_csv(path)
    return Trajectory(times=times, states=states, inputs=inputs, seed=seed, noisy=noisy)


def save_dataset(ds: Dataset, directory) -> None:
    """Persist a dataset as one manifest plus one CSV per trajectory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, traj in enumerate(ds.trajectories):
        fname = f"traj_{i:04d}.csv"
        save_trajectory_csv(traj, directory / fname)
        entries.append({"file": fname, "seed": traj.seed, "noisy": traj.noisy})
    scenario_file = "scenario.json"
    save_scenario(ds.scenario, directory / scenario_file)
    manifest = {
        "format": DATASET_FORMAT,
        "split": ds.split.value,
        "scenario_file": scenario_file,
        "noise_var": ds.noise_var,
        "labels": list(ds.labels),
        "master_seed": ds.master_seed,
        "excitation": None if ds.excitation is None else asdict(ds.excitation),
        "trajectories": entries,
    }
    write_json(directory / MANIFEST_NAME, manifest)


def load_dataset(directory) -> Dataset:
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = read_json(manifest_path, "dataset manifest", DATASET_FORMAT)
    with field_errors(manifest_path, "dataset manifest"):
        spec = load_scenario(directory / manifest["scenario_file"])
        ex = manifest.get("excitation")
        trajs = [
            load_trajectory_csv(
                directory / entry["file"], seed=entry["seed"], noisy=bool(entry["noisy"])
            )
            for entry in manifest["trajectories"]
        ]
        return Dataset(
            split=Split(manifest["split"]),
            trajectories=trajs,
            scenario=spec,
            excitation=None if ex is None else ExcitationSpec(**ex),
            noise_var=float(manifest["noise_var"]),
            labels=tuple(manifest.get("labels", ())),
            master_seed=manifest.get("master_seed"),
        )
