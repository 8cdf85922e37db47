import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from conftest import reference_chirp, step_rk4
from ltvbench import datagen
from ltvbench.datagen import (
    Dataset,
    ExcitationSpec,
    Split,
    build_dataset,
    chirp,
    default_excitations,
    load_dataset,
    load_trajectory_csv,
    save_dataset,
    save_trajectory_csv,
    tvera_experiments,
)
from ltvbench.dynamics import BUILTIN_SCENARIOS, Trajectory, _substep_kernel, scenario
from ltvbench.exceptions import DataFormatError, InputError


def small_splits(noise_var=1e-6, seed=42, name="ltv"):
    spec = scenario(name)
    return build_dataset(
        spec,
        default_excitations(spec.horizon, 0.01),
        counts=(4, 3, 3),
        noise_var=noise_var,
        master_seed=seed,
        n_free=2,
    )


class TestChirp:
    def test_zero_phase_at_origin(self):
        ex = ExcitationSpec(amplitude=2.0, omega0=1.0, omega1=3.0, duration=10.0)
        assert chirp(ex, 0.0) == 0.0

    def test_degenerate_sweep_is_pure_sinusoid(self):
        ex = ExcitationSpec(amplitude=1.5, omega0=2.0, omega1=2.0, duration=10.0, phase=0.4)
        for t in (0.0, 0.7, 3.1):
            assert chirp(ex, t) == pytest.approx(1.5 * math.sin(2.0 * t + 0.4))

    def test_quarter_phase_hits_amplitude(self):
        ex = ExcitationSpec(amplitude=3.0, omega0=1.0, omega1=2.0, duration=10.0, phase=math.pi / 2)
        assert chirp(ex, 0.0) == pytest.approx(3.0)

    def test_noise_is_seeded(self):
        ex = ExcitationSpec(amplitude=1.0, omega0=1.0, omega1=2.0, duration=10.0, noise_var=0.04)
        a = chirp(ex, 1.0, np.random.default_rng(9))
        b = chirp(ex, 1.0, np.random.default_rng(9))
        assert a == b
        assert a != chirp(ex, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExcitationSpec(amplitude=0.0, omega0=1.0, omega1=2.0, duration=10.0)
        with pytest.raises(ValueError):
            ExcitationSpec(amplitude=1.0, omega0=3.0, omega1=2.0, duration=10.0)


    BAD_VALUES = [
        ("amplitude", math.nan, "amplitude"),
        ("amplitude", math.inf, "amplitude"),
        ("duration", math.nan, "duration"),
        ("duration", math.inf, "duration"),
        ("noise_var", math.nan, "noise variance"),
        ("noise_var", math.inf, "noise variance"),
        ("omega1", math.inf, "omega1"),
        ("phase", math.nan, "phase"),
        ("phase", math.inf, "phase"),
        ("phase", -math.inf, "phase"),
    ]

    @pytest.mark.parametrize("field, value, message", BAD_VALUES)
    def test_bad_values_rejected(self, tmp_path, field, value, message):
        self.assert_rejected(tmp_path, {field: value}, message)

    def test_infinite_band_rejected(self, tmp_path):
        self.assert_rejected(tmp_path, {"omega0": math.inf, "omega1": math.inf}, "omega1")

    @staticmethod
    def assert_rejected(tmp_path, changes, message):
        """``changes`` fail on the constructor and on a dataset manifest."""
        ex = ExcitationSpec(amplitude=1.0, omega0=0.5, omega1=8.0, duration=10.0)
        with pytest.raises(ValueError, match=message):
            replace(ex, **changes)
        traj = Trajectory(times=np.arange(3.0), states=np.zeros((3, 2)), inputs=np.zeros(2))
        ds = Dataset(Split.TRAIN, [traj], scenario("ltv"), excitation=ex)
        save_dataset(ds, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["excitation"].update(changes)   # written as NaN / Infinity
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=message):
            load_dataset(tmp_path)


@st.composite
def chirp_cases(draw):
    """An excitation (noise variance 0 in about a third of the cases) and a
    step-time grid ``arange(n) * dt``, as the dataset builders evaluate it."""
    omega0 = draw(st.floats(0.01, 20.0))
    ex = ExcitationSpec(
        amplitude=draw(st.floats(1e-3, 50.0)),
        omega0=omega0,
        omega1=draw(st.floats(omega0, 40.0)),
        duration=draw(st.floats(0.1, 200.0)),
        phase=draw(st.floats(-10.0, 10.0)),
        noise_var=draw(st.sampled_from([0.0, 0.01]) | st.floats(0.0, 4.0)),
    )
    dt = draw(st.sampled_from([0.02, 0.01]) | st.floats(1e-3, 0.5))
    return ex, np.arange(draw(st.integers(1, 600))) * dt


class TestArrayChirp:
    @settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(case=chirp_cases(), seed=st.integers(0, 2**32 - 1))
    def test_array_chirp_is_reference_chirp(self, case, seed):
        # one np.sin and one vector draw against math.sin and a scalar draw per
        # sample: byte-equal samples, and the generators end in equal states
        ex, times = case
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = chirp(ex, times, rng_a)
        expected = np.array([reference_chirp(ex, t, rng_b) for t in times.tolist()])
        assert got.shape == times.shape
        assert got.tobytes() == expected.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        if ex.noise_var == 0:   # nothing drawn
            assert rng_a.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        quiet = np.array([reference_chirp(ex, t) for t in times.tolist()])
        assert chirp(ex, times).tobytes() == quiet.tobytes()


class TestBuildDataset:
    def test_noise_free_train_equals_exact_integration(self):
        # re-integrate the recorded inputs; with zero measurement noise the
        # stored states must be the raw simulation output: bit for bit the
        # recurrence of the plant's step maps, and within rounding of stepping
        # the reference RK4 step in a loop
        splits = small_splits(noise_var=0.0)
        spec = scenario("ltv")
        traj = splits[Split.TRAIN].trajectories[0]
        maps, _ = _substep_kernel(spec)
        exact, reference = [traj.states[0].tolist()], [traj.states[0]]
        for k in range(traj.n_steps):
            u = float(traj.inputs[k, 0])
            m00, m01, g0, m10, m11, g1 = maps[k].tolist()
            x1, x2 = exact[-1]
            exact.append([m00 * x1 + m01 * x2 + g0 * u, m10 * x1 + m11 * x2 + g1 * u])
            reference.append(step_rk4(spec, traj.times[k], reference[-1], u, spec.dt))
        assert np.array(exact).tobytes() == traj.states.tobytes()
        gap = np.abs(np.array(reference) - traj.states).max()
        assert gap <= 1e-12 * np.abs(traj.states).max()

    def test_measurement_noise_perturbs_train_only(self):
        exact = small_splits(noise_var=0.0)
        noisy = small_splits(noise_var=1e-4)
        assert not np.array_equal(
            exact[Split.TRAIN].trajectories[0].states,
            noisy[Split.TRAIN].trajectories[0].states,
        )
        for split in (Split.VALIDATION, Split.TEST):
            for a, b in zip(exact[split].trajectories, noisy[split].trajectories):
                assert np.array_equal(a.states, b.states)

    def test_same_master_seed_is_identical(self):
        a = small_splits(seed=7)
        b = small_splits(seed=7)
        for split in Split:
            assert a[split] == b[split]

    def test_counts_include_free_response(self):
        spec = scenario("ltv")
        splits = build_dataset(
            spec,
            default_excitations(spec.horizon, 0.01),
            counts=(2, 4, 2),
            noise_var=0.0,
            master_seed=1,
            n_free=2,
        )
        val = splits[Split.VALIDATION]
        assert len(val) == 6
        assert val.labels.count("free") == 2

    def test_free_response_trajectories(self):
        splits = small_splits()
        test = splits[Split.TEST]
        for traj, label in zip(test.trajectories, test.labels):
            if label == "free":
                assert_allclose(traj.inputs, 0.0)
                assert np.any(traj.states[0] != 0.0)

    def test_split_flags(self):
        splits = small_splits()
        assert all(t.noisy for t in splits[Split.TRAIN].trajectories)
        assert not any(t.noisy for t in splits[Split.VALIDATION].trajectories)
        assert not any(t.noisy for t in splits[Split.TEST].trajectories)

    @pytest.mark.parametrize("noise_var", [0, 1e-6])
    def test_noise_variance_recorded_as_given(self, noise_var):
        # measured sets record the value given, so an int stays an int in the
        # manifest; exact splits record 0.0
        splits = small_splits(noise_var=noise_var)
        measured = [splits[Split.TRAIN], tvera_experiments(scenario("ltv"), 1, 1, noise_var)]
        assert [repr(ds.noise_var) for ds in measured] == [repr(noise_var)] * 2
        assert [repr(splits[s].noise_var) for s in (Split.VALIDATION, Split.TEST)] == ["0.0"] * 2

    def test_length_and_time_grid_invariants(self):
        for ds in small_splits().values():
            for traj in ds.trajectories:
                assert len(traj.states) == len(traj.inputs) + 1
                assert np.allclose(np.diff(traj.times), ds.scenario.dt, rtol=0, atol=1e-12)

    def test_distinct_bands_required(self):
        spec = scenario("ltv")
        ex = default_excitations(spec.horizon, 0.01)
        ex[Split.TEST] = ex[Split.TRAIN]
        with pytest.raises(ValueError):
            build_dataset(spec, ex, counts=(2, 2, 2), noise_var=0.0, master_seed=0, n_free=2)


    @pytest.mark.parametrize("noise_var", [-1e-6, math.nan, math.inf])
    def test_bad_noise_variance_rejected(self, noise_var):
        # before any draw: a negative variance once failed in math.sqrt
        spec = scenario("ltv")
        ex = default_excitations(spec.horizon, 0.01)
        with pytest.raises(InputError, match="measurement noise variance"):
            build_dataset(spec, ex, (2, 2, 2), noise_var, n_free=2)
        with pytest.raises(InputError, match="measurement noise variance"):
            tvera_experiments(spec, 1, 1, noise_var)

    def test_negative_free_response_count_rejected(self, monkeypatch):
        # it once wrote validation and test splits with no free response
        monkeypatch.setattr(datagen, "_experiment", no_experiment)
        spec = scenario("ltv")
        ex = default_excitations(spec.horizon, 0.01)
        with pytest.raises(InputError, match="free-response count must be >= 0, got -2"):
            build_dataset(spec, ex, (2, 2, 2), 1e-6, n_free=-2)

    @pytest.mark.parametrize(
        "counts, n_free", [((2.5, 2, 2), 2), ((2, 2, 2.0), 2), ((2, 2, 2), 1.5)]
    )
    def test_counts_must_be_integers(self, monkeypatch, counts, n_free):
        # a float count once failed in list repetition with a TypeError
        monkeypatch.setattr(datagen, "_experiment", no_experiment)
        spec = scenario("ltv")
        message = f"trajectory counts must be integers, got {counts} and n_free={n_free}"
        ex = default_excitations(spec.horizon, 0.01)
        with pytest.raises(InputError, match=re.escape(message)):
            build_dataset(spec, ex, counts, 1e-6, n_free=n_free)


def no_experiment(*args):
    raise AssertionError("a bad count must fail before any draw")


class TestExperiments:
    def test_structure(self):
        ds = tvera_experiments(scenario("ltv"), n_free=3, n_forced=5, noise_var=0.0, master_seed=5)
        assert len(ds) == 8
        assert ds.labels[:3] == ("free",) * 3
        for traj, label in zip(ds.trajectories, ds.labels):
            if label == "free":
                assert_allclose(traj.inputs, 0.0)
                assert np.any(traj.states[0] != 0.0)
            else:
                assert_allclose(traj.states[0], 0.0)
                assert np.std(traj.inputs) > 0.1

    def test_deterministic(self):
        a = tvera_experiments(scenario("nld"), 4, 10, 1e-6, master_seed=2)
        b = tvera_experiments(scenario("nld"), 4, 10, 1e-6, master_seed=2)
        assert a == b

    @pytest.mark.parametrize(
        "n_free, n_forced, message",
        [(-1, 5, "got -1 free and 5 forced"), (3, -5, "got 3 free and -5 forced"),
         (-1, -5, "got -1 free and -5 forced"), (0, 0, "needs at least one trajectory"),
         (2.5, 5, "integers, got 2.5 free and 5 forced"), (4, 1.0, "got 4 free and 1.0 forced")],
    )
    def test_bad_counts_rejected(self, monkeypatch, n_free, n_forced, message):
        # a negative count once gave fewer experiments than asked, or an empty set
        monkeypatch.setattr(datagen, "_experiment", no_experiment)
        with pytest.raises(InputError, match=message):
            tvera_experiments(scenario("ltv"), n_free=n_free, n_forced=n_forced, noise_var=1e-6)

    def test_one_kind_alone_is_enough(self):
        assert tvera_experiments(scenario("ltv"), 0, 1, 1e-6).labels == ("random",)
        assert tvera_experiments(scenario("ltv"), 1, 0, 1e-6).labels == ("free",)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = small_splits()[Split.TRAIN]
        save_dataset(ds, tmp_path / "train")
        assert load_dataset(tmp_path / "train") == ds

    def test_round_trip_preserves_full_precision(self, tmp_path):
        ds = small_splits()[Split.VALIDATION]
        save_dataset(ds, tmp_path / "val")
        loaded = load_dataset(tmp_path / "val")
        for a, b in zip(ds.trajectories, loaded.trajectories):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.inputs, b.inputs)
            assert np.array_equal(a.times, b.times)

    def test_load_empty_dir(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_dataset(tmp_path)

    def test_missing_trajectory_file(self, tmp_path):
        ds = small_splits()[Split.TEST]
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "traj_0001.csv").unlink()
        with pytest.raises(DataFormatError, match="traj_0001"):
            load_dataset(tmp_path / "d")

    def test_csv_layout(self, tmp_path):
        ds = small_splits()[Split.TRAIN]
        save_trajectory_csv(ds.trajectories[0], tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,u"
        assert len(lines) == 1 + 501
        assert lines[-1].endswith(",")    # final row has no input

    def test_trajectory_csv_round_trip(self, tmp_path):
        ds = small_splits()[Split.TRAIN]
        save_trajectory_csv(ds.trajectories[1], tmp_path / "t.csv")
        loaded = load_trajectory_csv(tmp_path / "t.csv")
        assert np.array_equal(loaded.states, ds.trajectories[1].states)
        assert np.array_equal(loaded.inputs, ds.trajectories[1].inputs)


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def excitations(draw):
    omega0, omega1 = sorted(draw(st.lists(positive, min_size=2, max_size=2)))
    return ExcitationSpec(
        amplitude=draw(positive), omega0=omega0, omega1=omega1,
        duration=draw(positive), phase=draw(finite),
        noise_var=draw(st.floats(min_value=0.0, allow_infinity=False)),
    )


@st.composite
def datasets(draw):
    count, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    trajs = [
        Trajectory(
            times=draw(arrays(np.float64, n + 1, elements=finite)),
            states=draw(arrays(np.float64, (n + 1, p), elements=finite)),
            inputs=draw(arrays(np.float64, (n, q), elements=finite)),
            seed=draw(st.none() | st.integers(0, 2**32 - 1)),
            noisy=draw(st.booleans()),
        )
        for _ in range(count)
    ]
    return Dataset(
        split=draw(st.sampled_from(Split)),
        trajectories=trajs,
        scenario=scenario(draw(st.sampled_from(BUILTIN_SCENARIOS))),
        excitation=draw(st.none() | excitations()),
        noise_var=draw(st.floats(min_value=0.0, allow_infinity=False)),
        labels=draw(st.just(()) | st.lists(st.text(), min_size=count, max_size=count).map(tuple)),
        master_seed=draw(st.none() | st.integers(0, 2**63)),
    )


def _assert_same_bits(a, b):
    for name in ("times", "states", "inputs"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None)
@given(ds=datasets())
def test_dataset_round_trip_is_exact(tmp_path_factory, ds):
    directory = tmp_path_factory.mktemp("dataset")
    save_dataset(ds, directory)
    loaded = load_dataset(directory)
    assert loaded == ds
    for a, b in zip(loaded.trajectories, ds.trajectories):
        _assert_same_bits(a, b)


def _oracle_csv(traj, path):
    """The per-cell trajectory writer the array codec replaced: one
    ``repr(float(x))`` per cell through ``csv.writer``."""
    p, q = traj.p, traj.q
    header = ["t"] + [f"x{i+1}" for i in range(p)] + [f"u{i+1}" if q > 1 else "u" for i in range(q)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(traj.states)):
            row = [repr(float(traj.times[k]))] + [repr(float(v)) for v in traj.states[k]]
            if k < traj.n_steps:
                row += [repr(float(v)) for v in traj.inputs[k]]
            else:
                row += [""] * q
            writer.writerow(row)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-5, 1e16, 1e300, -1e300]
cells = st.sampled_from(EDGE_FLOATS) | finite


@st.composite
def trajectories(draw):
    n, p, q = draw(st.integers(1, 60)), draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 2]))
    return Trajectory(
        times=draw(arrays(np.float64, n + 1, elements=cells)),
        states=draw(arrays(np.float64, (n + 1, p), elements=cells)),
        inputs=draw(arrays(np.float64, (n, q), elements=cells)),
    )


def _quoted(line):
    return ",".join(f'"{cell}"' if cell else cell for cell in line.split(","))


@settings(max_examples=60, deadline=None)
@given(traj=trajectories())
def test_trajectory_csv_matches_per_cell_oracle(tmp_path_factory, traj):
    d = tmp_path_factory.mktemp("csv")
    save_trajectory_csv(traj, d / "new.csv")
    _oracle_csv(traj, d / "oracle.csv")
    data = (d / "new.csv").read_bytes()
    assert data == (d / "oracle.csv").read_bytes()

    _assert_same_bits(load_trajectory_csv(d / "new.csv"), traj)

    # LF-only line ends, and blank lines between and after rows, read the same
    text = data.decode()
    lines = text.split("\r\n")[:-1]
    for variant in (text.replace("\r\n", "\n"), "\r\n\r\n".join(lines) + "\r\n\r\n"):
        (d / "variant.csv").write_bytes(variant.encode())
        _assert_same_bits(load_trajectory_csv(d / "variant.csv"), traj)

    # quoted numeric cells are rejected, not read
    quoted = [lines[0]] + [_quoted(line) for line in lines[1:]]
    (d / "quoted.csv").write_bytes("".join(line + "\r\n" for line in quoted).encode())
    with pytest.raises(DataFormatError, match="quoted.csv"):
        load_trajectory_csv(d / "quoted.csv")
