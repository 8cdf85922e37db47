import functools
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

import ltvbench as lb
from conftest import derivative, reference_chirp, reference_params, sat, step_rk4
from ltvbench.cli import main
from ltvbench.control import (
    DIVERGENCE_GUARD,
    GainSchedule,
    closed_loop,
    default_reference,
    default_weights,
    feedforward,
    lqr_ltv,
    with_feedforward,
)
from ltvbench.datagen import ExcitationSpec, chirp, default_excitations
from ltvbench.dynamics import (
    RK4_SUBSTEPS,
    Kind,
    ScenarioSpec,
    Trajectory,
    _kick_step_indices,
    _stage_params,
    _substep_kernel,
    discretize,
    ground_truth_ltv,
    load_scenario,
    params_at,
    save_scenario,
    scenario,
    simulate,
)
from ltvbench.exceptions import DataFormatError, InstabilityError, IntegrationError
from ltvbench.ident import rollout_residuals


def two_frame_spec(kind, frames):
    return ScenarioSpec(kind=kind, frames=frames, dt=0.02, horizon=4.0)


def reference_rates(spec, t):
    """Continuous-time (A_c, B_c) of the linearized plant at one time ``t``."""
    m, cs, cd = reference_params(spec, t)
    return np.array([[0.0, 1.0], [-cs / m, -cd / m]]), np.array([[0.0], [1.0 / m]])


def assert_bytes_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


seeds = st.integers(0, 2**32 - 1)

# every generated example is a batch of rollouts or of time-law lookups:
# report failures without shrinking them
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def edge_times(spec):
    """0, the horizon, the range's float ends, and every frame boundary b (and
    b - 1e-9, where the lookup's offset moves it) give or take 1-3 ulp."""
    times = [-1e-12, 0.0, spec.horizon, spec.horizon + 1e-9]
    for j in range(1, math.ceil(spec.horizon / spec.frame_duration) + 1):
        for b in (j * spec.frame_duration, j * spec.frame_duration - 1e-9):
            below = above = b
            times.append(b)
            for _ in range(3):
                below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
                times += [float(below), float(above)]
    return [t for t in times if -1e-12 <= t <= spec.horizon + 1e-9]


class TestParamsAt:
    """Values of the reference law, and the array law against it."""

    def test_ltv_at_zero(self):
        spec = scenario("ltv")
        m, cs, cd = reference_params(spec, 0.0)
        assert m == spec.mass
        assert cs == pytest.approx(0.5 * spec.spring)
        assert cd == pytest.approx(2.5 * spec.damping)

    def test_inst_reconfig_frame_lookup(self):
        spec = two_frame_spec(Kind.INST_RECONFIG, ((1.0, 1.0, 1.0), (2.0, 3.0, 4.0)))
        assert reference_params(spec, 2.0) == (2.0, 3.0, 4.0)
        assert reference_params(spec, 1.99) == (1.0, 1.0, 1.0)

    def test_mixed_reconfig_modulates_frame_bases(self):
        spec = two_frame_spec(Kind.MIXED_RECONFIG, ((1.0, 1.0, 1.0), (2.0, 3.0, 4.0)))
        w = spec.param_freq
        m, cs, cd = reference_params(spec, 2.0)
        assert m == 2.0
        assert cs == pytest.approx(math.cos(3.0 * w + math.pi / 4) ** 2 * 3.0)
        assert cd == pytest.approx((1.5 + math.cos(2.0 * w)) * 4.0)

    def test_stage_at_a_step_end_reads_the_step_frame(self):
        # the last stage of the step that ends on the boundary at 2.0 s
        spec = two_frame_spec(Kind.INST_RECONFIG, ((1.0, 1.0, 1.0), (2.0, 3.0, 4.0)))
        start = 2.0 - spec.dt
        assert reference_params(spec, 2.0, start) == (1.0, 1.0, 1.0)
        assert reference_params(spec, 2.0, 2.0) == (2.0, 3.0, 4.0)
        assert np.array(params_at(spec, [2.0, 2.0], [start, 2.0])).T.tolist() == [
            [1.0, 1.0, 1.0], [2.0, 3.0, 4.0]
        ]

    def test_horizon_end_uses_last_frame(self):
        spec = two_frame_spec(Kind.INST_RECONFIG, ((1.0, 1.0, 1.0), (2.0, 3.0, 4.0)))
        assert reference_params(spec, 4.0) == (2.0, 3.0, 4.0)

    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(seed=seeds, data=st.data())
    def test_array_law_is_reference_law(self, name, seed, data):
        spec = scenario(name)
        drawn = data.draw(st.lists(st.floats(0.0, spec.horizon), min_size=1, max_size=50))
        uniform = np.random.default_rng(seed).uniform(0.0, spec.horizon, 10000)
        times = np.concatenate((drawn, edge_times(spec), uniform))
        expected = np.array([reference_params(spec, t) for t in times.tolist()]).T
        assert_bytes_equal(np.stack(params_at(spec, times)), expected)
        # a 2-D grid and a single float take the same law
        grid = np.stack(params_at(spec, times[:10000].reshape(100, 100)))
        assert_bytes_equal(grid.reshape(3, -1), expected[:, :10000])
        assert_bytes_equal(np.array(params_at(spec, drawn[0])), expected[:, 0])

    def test_outside_horizon_raises(self):
        for name in lb.BUILTIN_SCENARIOS:
            spec = scenario(name)
            for t in (-0.5, spec.horizon + 1.0, math.nan, [0.0, math.nan], [1.0, -1e-9]):
                with pytest.raises(ValueError, match="outside scenario horizon"):
                    params_at(spec, t)


class TestSat:
    @pytest.mark.parametrize("u,limit,expected", [(3, 5, 3), (7, 5, 5), (-9, 5, -5)])
    def test_clamp(self, u, limit, expected):
        assert sat(u, limit) == expected

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            sat(1.0, 0.0)


class TestDerivative:
    def test_equilibrium(self):
        spec = scenario("ltv")
        assert_allclose(derivative(spec, 0.0, np.zeros(2), 0.0), np.zeros(2))

    def test_saturation_clips_input_term(self):
        spec = scenario("nl")
        d_big = derivative(spec, 0.0, np.zeros(2), 10.0)
        d_lim = derivative(spec, 0.0, np.zeros(2), spec.sat_limit)
        assert d_big[1] == pytest.approx(d_lim[1])
        assert d_big[1] == pytest.approx(spec.sat_limit / spec.mass)

    def test_undamped_spring(self):
        # bases chosen so the modulated constants are C_s(t)=1, C_d(t)=0
        spec = ScenarioSpec(kind=Kind.LTV, spring=2.0, damping=0.0, param_freq=0.0)
        assert_allclose(derivative(spec, 0.0, np.array([1.0, 0.0]), 0.0), [0.0, -1.0])

    def test_nld_kick_fires_near_center(self):
        spec = scenario("nld")

        def kick_contribution(x1):
            x = np.array([x1, 0.0])
            return derivative(spec, 0.0, x, 0.0, kick=1.0)[1] - derivative(spec, 0.0, x, 0.0)[1]

        assert kick_contribution(spec.dist_center) == pytest.approx(1.0)
        assert abs(kick_contribution(0.0)) < 1e-10


class TestStepRk4:
    def test_fixed_point_at_equilibrium(self):
        spec = scenario("ltv")
        out = step_rk4(spec, 0.0, np.zeros(2), 0.0, spec.dt)
        assert_allclose(out, np.zeros(2))

    def test_matches_matrix_exponential_on_frozen_plant(self):
        # frozen-parameter linear plant: one step against the expm oracle
        spec = replace(scenario("ltv"), param_freq=0.0, dt=1e-3)
        A_c, _ = reference_rates(spec, 0.0)
        x0 = np.array([0.7, -0.4])
        expected = expm(A_c * 1e-3) @ x0
        out = step_rk4(spec, 0.0, x0, 0.0, 1e-3)
        assert np.max(np.abs(out - expected)) <= 1e-8

    def test_identical_seeds_identical_output(self):
        spec = scenario("nld")
        x0 = np.array([1.9, 0.3])
        a = step_rk4(spec, 0.0, x0, 0.5, spec.dt, np.random.default_rng(5))
        b = step_rk4(spec, 0.0, x0, 0.5, spec.dt, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestSimulate:
    def test_zero_everything_stays_at_origin(self):
        traj = simulate(scenario("ltv"), np.zeros(2), np.zeros(500))
        assert_allclose(traj.states, 0.0)
        assert traj.n_steps == 500

    def test_damped_plant_dissipates(self):
        spec = scenario("ltv")
        traj = simulate(spec, np.array([1.0, 0.0]), np.zeros(spec.n_steps))

        def energy(t, x):
            m, cs, _ = reference_params(spec, t)
            return 0.5 * m * x[1] ** 2 + 0.5 * cs * x[0] ** 2

        e_first = energy(traj.times[0], traj.states[0])
        e_last = energy(traj.times[-1], traj.states[-1])
        assert e_last < 0.01 * e_first

    def test_interior_kick_schedule_count(self):
        spec = scenario("inst-reconfig")
        kicks = _kick_step_indices(spec)
        assert kicks == {100, 200, 300, 400}
        assert len(kicks) == math.ceil(spec.horizon / 2.0) - 1

    @settings(max_examples=300, deadline=None)
    @given(
        per_frame=st.integers(1, 400),
        nudge=st.integers(-2, 2),
        steps=st.integers(1, 2000),
        fraction=st.floats(0.01, 0.99),
        tiny=st.sampled_from([0.0, 4e-15, -4e-15]),
    )
    def test_kick_steps_match_the_ceil_formula(self, per_frame, nudge, steps, fraction, tiny):
        # every spec whose frames start on a step (dt = 2 s / per_frame, give
        # or take 2 ulp) and whose horizon is a whole number of steps (give or
        # take a relative 4e-15) keeps the kick steps that the formula used
        # before those rules, ceil(j * frame_duration / dt - 1e-9), gave it;
        # a horizon between two steps is rejected
        dt = 2.0 / per_frame
        for _ in range(abs(nudge)):
            dt = float(np.nextafter(dt, math.copysign(math.inf, nudge)))
        frames = ((1.0, 1.0, 1.0),) * math.ceil(steps / per_frame)
        with pytest.raises(ValueError, match="horizon must be a whole number of steps"):
            ScenarioSpec(
                kind=Kind.INST_RECONFIG, dt=dt, horizon=(steps + fraction) * dt, frames=frames
            )
        horizon = steps * dt * (1.0 + tiny)
        assume(horizon >= dt)
        spec = ScenarioSpec(kind=Kind.INST_RECONFIG, dt=dt, horizon=horizon, frames=frames)
        assert spec.n_steps == steps
        ceil_steps = set()
        j = 1
        while j * spec.frame_duration < spec.horizon - 1e-9:
            k = math.ceil(j * spec.frame_duration / spec.dt - 1e-9)
            if 1 <= k <= spec.n_steps:
                ceil_steps.add(k)
            j += 1
        assert _kick_step_indices(spec) == ceil_steps

    def test_kicks_perturb_only_after_first_boundary(self):
        spec = scenario("inst-reconfig")
        quiet = replace(spec, kick_sigma=0.0)
        a = simulate(spec, np.array([1.0, 0.0]), np.zeros(spec.n_steps), seed=11)
        b = simulate(quiet, np.array([1.0, 0.0]), np.zeros(spec.n_steps), seed=11)
        assert np.array_equal(a.states[:100], b.states[:100])
        assert not np.array_equal(a.states[100], b.states[100])

    def test_bitwise_deterministic_under_seed(self):
        spec = scenario("mixed-reconfig")
        inputs = np.sin(np.arange(spec.n_steps) * spec.dt)
        a = simulate(spec, np.array([0.4, -0.2]), inputs, seed=21)
        b = simulate(spec, np.array([0.4, -0.2]), inputs, seed=21)
        assert a == b


@pytest.mark.parametrize(
    "x0, message, cli_message",
    [
        ([1.0], "must have shape (2,), got (1,)", "needs two components, got 1"),
        ([1.0, 0.0, 0.0], "must have shape (2,), got (3,)", "needs two components, got 3"),
        ([math.nan, 0.0], "must be finite, got [nan, 0.0]", None),
        ([math.inf, 0.0], "must be finite, got [inf, 0.0]", None),
        ([0.0, -math.inf], "must be finite, got [0.0, -inf]", None),
    ],
)
def test_bad_initial_state_fails_before_any_step(tmp_path, capsys, x0, message, cli_message):
    # simulate and closed_loop share _rollout's check; the CLI counts the
    # components itself (cli_message) and leaves the values to that check
    spec = scenario("ltv")
    n = spec.n_steps
    expected = f"^{re.escape('initial state ' + message)}$"
    with pytest.raises(ValueError, match=expected):
        simulate(spec, x0, np.zeros(n))
    sched = GainSchedule(K=np.zeros((n, 1, 2)), u_ff=np.zeros((n, 1)))
    with pytest.raises(ValueError, match=expected):
        closed_loop(spec, sched, default_reference(spec.horizon), x0)
    out = tmp_path / "s.csv"
    text = ",".join(str(v) for v in x0)
    assert main(["simulate", "--scenario", "ltv", "--x0", text, "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert err == f"ltvbench simulate: error: initial state {cli_message or message}"
    assert not out.exists()


class TestDiscretize:
    def test_zero_rate_matrix(self):
        A, B = discretize(np.zeros((2, 2)), np.array([[1.0], [2.0]]), 0.5)
        assert_allclose(A, np.eye(2))
        assert_allclose(B, 0.5 * np.array([[1.0], [2.0]]))

    def test_rotation_generator_closed_form(self):
        dt = 0.3
        A, _ = discretize(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1)), dt)
        expected = np.array(
            [[math.cos(dt), math.sin(dt)], [-math.sin(dt), math.cos(dt)]]
        )
        assert_allclose(A, expected, atol=1e-12)

    def test_diagonal_decay(self):
        A, _ = discretize(np.diag([-1.0, -2.0]), np.zeros((2, 1)), math.log(2.0))
        assert_allclose(A, np.diag([0.5, 0.25]), atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(3)
        A_c = rng.normal(size=(2, 2))
        B_c = rng.normal(size=(2, 1))
        dt1, dt2 = 0.13, 0.24
        whole = discretize(A_c, B_c, dt1 + dt2)[0]
        parts = discretize(A_c, B_c, dt2)[0] @ discretize(A_c, B_c, dt1)[0]
        assert_allclose(whole, parts, atol=1e-12)

    def test_invalid_dt(self):
        for dt in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="dt must be positive"):
                discretize(np.zeros((2, 2)), np.zeros((2, 1)), dt)


class TestGroundTruthLtv:
    def test_constant_parameters_give_constant_pairs(self):
        spec = replace(scenario("ltv"), param_freq=0.0)
        model = ground_truth_ltv(spec)
        assert np.max(np.abs(model.A - model.A[0])) <= 1e-14
        assert np.max(np.abs(model.B - model.B[0])) <= 1e-14

    def test_zoh_rollout_matches_fine_step_integration(self):
        spec = scenario("ltv")
        traj = simulate(spec, np.array([1.0, 0.0]), np.zeros(spec.n_steps))
        model = ground_truth_ltv(spec)
        assert np.max(np.abs(rollout_residuals([model], [traj]))) <= 1e-4

    def test_inst_reconfig_blocks_constant_within_frames(self):
        spec = scenario("inst-reconfig")
        model = ground_truth_ltv(spec)
        for start in range(0, 500, 100):
            block = model.A[start : start + 100]
            assert np.max(np.abs(block - model.A[start])) <= 1e-14
        for boundary in (100, 200, 300, 400):
            assert np.max(np.abs(model.A[boundary] - model.A[boundary - 1])) > 1e-4

    def test_transition_is_matrix_exponential(self):
        # on every kind, each (A(k), B(k)) is, byte for byte, the ZOH of the
        # reference rates frozen at the step's midpoint; A(k) is expm of them
        for name in lb.BUILTIN_SCENARIOS:
            spec = scenario(name)
            model = ground_truth_ltv(spec)
            for k in range(spec.n_steps):
                A_c, B_c = reference_rates(spec, (k + 0.5) * spec.dt)
                A, B = discretize(A_c, B_c, spec.dt)
                assert_bytes_equal(model.A[k], A)
                assert_bytes_equal(model.B[k], B)
                if k % 100 == 7:
                    assert_allclose(model.A[k], expm(A_c * spec.dt), atol=1e-13)


class TestSpecValidation:
    def test_builtins(self):
        for name in lb.BUILTIN_SCENARIOS:
            spec = scenario(name)
            assert spec.n_steps == 500
        with pytest.raises(ValueError):
            scenario("banana")

    def test_bad_mass(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind=Kind.LTV, mass=0.0)

    def test_frames_rejected_for_continuous_kinds(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind=Kind.LTV, frames=((1.0, 1.0, 1.0),))

    def test_frame_count_must_cover_horizon(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind=Kind.INST_RECONFIG, frames=((1.0, 1.0, 1.0),), horizon=10.0)

    @pytest.mark.parametrize("name", ["inst-reconfig", "mixed-reconfig"])
    @pytest.mark.parametrize("dt", [0.03, 0.064, 2.5])
    def test_frames_must_start_on_a_step(self, tmp_path, name, dt):
        # 2 s / dt = 66.7, 31.25, 0.8: a frame would change inside a step
        # (the horizon of 50 steps passes its own rule)
        self.assert_rejected(tmp_path, name, "dt", dt, horizon=50 * dt)
        assert replace(scenario(name), dt=2.0 / 49).n_steps == 245
        assert replace(scenario("ltv"), dt=dt, horizon=50 * dt).dt == dt   # no frames, no rule

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sat_limit", 0.0), ("dist_width", 0.0), ("dist_sigma", -1.0), ("kick_sigma", -0.5),
            ("mass", math.nan), ("dt", math.nan), ("horizon", math.nan),
            ("spring", math.nan), ("damping", math.nan), ("cubic_damping", math.nan),
            ("dist_center", math.nan), ("mass", math.inf), ("dt", math.inf),
            ("horizon", math.inf), ("param_freq", math.inf), ("sat_limit", math.inf),
            ("horizon", 4.01),   # 200.5 steps
        ],
    )
    def test_bad_plant_constant(self, tmp_path, field, value):
        self.assert_rejected(tmp_path, "nld", field, value)

    @pytest.mark.parametrize(
        "field, value, others",
        [
            ("horizon", math.inf, {}),
            ("frames", ((1.0, math.nan, 0.5),) * 5, {}),
            # 200.5 steps: three frames, and a kick after the last step
            ("horizon", 4.01, {"frames": scenario("inst-reconfig").frames[:3]}),
        ],
        ids=["horizon-inf", "frames-nan", "horizon-off-grid"],
    )
    def test_bad_reconfig_constant(self, tmp_path, field, value, others):
        self.assert_rejected(tmp_path, "inst-reconfig", field, value, **others)

    @staticmethod
    def assert_rejected(tmp_path, name, field, value, **others):
        """``field = value`` (with ``others``) fails on the constructor and on
        a scenario file."""
        with pytest.raises(ValueError, match=field):
            replace(scenario(name), **{field: value}, **others)
        path = tmp_path / "spec.json"
        save_scenario(scenario(name), path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, **others, field: value}))
        with pytest.raises(DataFormatError, match=field):
            load_scenario(path)

    def test_zero_sigmas_are_legal(self):
        spec = replace(scenario("inst-reconfig"), dist_sigma=0.0, kick_sigma=0.0)
        zero = np.zeros(spec.n_steps)
        seeded = simulate(spec, [1.0, 0.0], zero, seed=1)
        assert np.array_equal(seeded.states, simulate(spec, [1.0, 0.0], zero).states)

    def test_roundtrip(self, tmp_path):
        spec = scenario("mixed-reconfig")
        save_scenario(spec, tmp_path / "spec.json")
        assert load_scenario(tmp_path / "spec.json") == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_scenario(tmp_path / "nope.json")


class TestTrajectoryType:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), states=np.zeros((3, 2)), inputs=np.zeros((3, 1)))

    def test_input_vector_promoted_to_column(self):
        traj = Trajectory(times=np.arange(3.0), states=np.zeros((3, 2)), inputs=np.zeros(2))
        assert traj.inputs.shape == (2, 1)
        assert traj.q == 1


# --- the table-driven rollout against a plain loop of the reference step ----

def short_scenario(name, horizon=4.0):
    """A built-in scenario cut to ``horizon`` (reconfig kinds keep a frame boundary)."""
    spec = scenario(name)
    return replace(spec, horizon=horizon, frames=spec.frames[: math.ceil(horizon / 2.0)])


def oracle_rollout(spec, x0, control, rng, guard=None):
    """``step_rk4`` stepped in a plain loop, plus the boundary velocity kicks.

    Returns (times, states, inputs, trip_step); ``trip_step`` is the step at
    which the state first left ``guard`` (the arrays then end there), or None.
    """
    n = spec.n_steps
    times = np.arange(n + 1) * spec.dt
    kick_steps = _kick_step_indices(spec)
    x = np.asarray(x0, dtype=float).copy()
    states, inputs = [x], []
    for k in range(n):
        u = float(control(k, times[k], x))
        inputs.append(u)
        x = step_rk4(spec, times[k], x, u, spec.dt, rng)
        if (k + 1) in kick_steps and rng is not None and spec.kick_sigma > 0:
            x[1] += rng.normal(0.0, spec.kick_sigma)
        states.append(x)
        if guard is not None and np.max(np.abs(x)) > guard:
            return times[: k + 2], np.array(states), np.array(inputs)[:, None], k + 1
    return times, np.array(states), np.array(inputs)[:, None], None


def tracking_policy(sched, ref):
    """The closed-loop input law of ``control.closed_loop``, in its float order."""
    def policy(k, t, x):
        k1, k2 = sched.K[k, 0].tolist()
        return sched.u_ff[k, 0] - (k1 * (x[0] - ref.position_at(t)) + k2 * x[1])
    return policy


# Linear-kind rollouts compose per-step maps, so they differ from the step loop
# by rounding: at most this much relative to the largest entry.
ROLLOUT_RTOL = 1e-12
LINEAR_SCENARIOS = ("ltv", "inst-reconfig", "mixed-reconfig")


def assert_rollouts_match(spec, actual, expected):
    """Byte-equal on the saturated kinds, within ``ROLLOUT_RTOL`` on the linear."""
    if spec.kind in (Kind.NL, Kind.NLD):
        assert_bytes_equal(actual, expected)
    else:
        assert actual.shape == expected.shape
        assert np.abs(actual - expected).max() <= ROLLOUT_RTOL * np.abs(expected).max()


@functools.lru_cache(maxsize=None)
def tracking_schedule(spec):
    model = ground_truth_ltv(spec)
    ref = default_reference(spec.horizon)
    sched = lqr_ltv(model, default_weights())
    return with_feedforward(sched, feedforward(model, ref)), ref


def unstable_variant(spec):
    """``spec`` with negative damping (and no cubic term), so it diverges."""
    if spec.frames:
        return replace(spec, frames=tuple((m, cs, -2.0 * cd) for m, cs, cd in spec.frames))
    return replace(spec, damping=-2.0, cubic_damping=0.0)


initial_states = st.tuples(
    st.floats(-2.5, 2.5, allow_nan=False), st.floats(-2.0, 2.0, allow_nan=False)
)
# chirp amplitudes well past the nl/nld saturation limit of 5
amplitudes = st.floats(6.0, 12.0)


def saturating_chirp(amplitude):
    return ExcitationSpec(amplitude=amplitude, omega0=0.5, omega1=6.0, noise_var=0.1, duration=4.0)


class TestRolloutOracle:
    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(x0=initial_states, seed=seeds, amplitude=amplitudes)
    def test_simulate_matches_step_loop(self, name, x0, seed, amplitude):
        # the inputs come from an input generator, drawn as one array, and
        # the nld and boundary kicks from a process generator, drawn up front;
        # the oracle draws each at its step, so equal generator states after
        # the rollout pin both streams
        spec = short_scenario(name)
        ex = saturating_chirp(amplitude)
        input_seq, process_seq = np.random.SeedSequence(seed).spawn(2)
        input_a, input_b = np.random.default_rng(input_seq), np.random.default_rng(input_seq)
        process_a = np.random.default_rng(process_seq)
        process_b = np.random.default_rng(process_seq)
        inputs_a = chirp(ex, np.arange(spec.n_steps) * spec.dt, input_a)
        got = simulate(spec, x0, inputs_a, seed=process_a)
        times, states, inputs, _ = oracle_rollout(
            spec, x0, lambda k, t, x: reference_chirp(ex, t, input_b), process_b
        )
        assert_bytes_equal(got.times, times)
        assert_rollouts_match(spec, got.states, states)
        assert_bytes_equal(got.inputs, inputs)
        assert input_a.bit_generator.state == input_b.bit_generator.state
        assert process_a.bit_generator.state == process_b.bit_generator.state
        # inputs on both sides of the saturation limit
        assert np.abs(inputs).min() < spec.sat_limit < np.abs(inputs).max()

    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(x0=initial_states, amplitude=amplitudes)
    def test_unseeded_simulate_matches_step_loop(self, name, x0, amplitude):
        spec = short_scenario(name)
        ex = saturating_chirp(amplitude)
        got = simulate(spec, x0, chirp(ex, np.arange(spec.n_steps) * spec.dt))
        _, states, inputs, _ = oracle_rollout(
            spec, x0, lambda k, t, x: reference_chirp(ex, t), None
        )
        assert_rollouts_match(spec, got.states, states)
        assert_bytes_equal(got.inputs, inputs)

    def test_nld_kicks_fire_near_the_bump(self):
        # start on the bump centre: the seeded kicks must move the state
        spec = short_scenario("nld")
        zero = np.zeros(spec.n_steps)
        quiet = simulate(spec, [spec.dist_center, 0.0], zero)
        kicked = simulate(spec, [spec.dist_center, 0.0], zero, seed=3)
        times, states, _, _ = oracle_rollout(
            spec, [spec.dist_center, 0.0], lambda k, t, x: 0.0, np.random.default_rng(3)
        )
        assert not np.array_equal(quiet.states, kicked.states)
        assert_bytes_equal(kicked.states, states)

    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    @given(x0=initial_states, seed=seeds)
    def test_closed_loop_matches_step_loop(self, name, x0, seed):
        spec = short_scenario(name)
        sched, ref = tracking_schedule(spec)
        got = closed_loop(spec, sched, ref, x0, seed=seed)
        times, states, inputs, _ = oracle_rollout(
            spec, x0, tracking_policy(sched, ref), np.random.default_rng(seed)
        )
        # the inputs feed back the states, so they too match within rounding
        assert_rollouts_match(spec, got.states, states)
        assert_rollouts_match(spec, got.inputs, inputs)

    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    def test_guard_trip_partial_data_matches(self, name):
        spec = unstable_variant(scenario(name))
        n = spec.n_steps
        sched = GainSchedule(K=np.zeros((n, 1, 2)), u_ff=np.zeros((n, 1)))
        ref = default_reference(spec.horizon)
        with pytest.raises(InstabilityError) as info:
            closed_loop(spec, sched, ref, [1.0, 0.0], seed=5)
        times, states, inputs, step = oracle_rollout(
            spec,
            [1.0, 0.0],
            tracking_policy(sched, ref),
            np.random.default_rng(5),
            guard=DIVERGENCE_GUARD,
        )
        assert step is not None and info.value.step == step
        assert_bytes_equal(info.value.times, times)
        assert_rollouts_match(spec, info.value.states, states)
        assert_bytes_equal(info.value.inputs, inputs)

    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    def test_non_finite_step_raises(self, name):
        spec = short_scenario(name)
        inputs = np.where(np.arange(spec.n_steps) * spec.dt < 1.0, 0.0, math.nan)
        with pytest.raises(IntegrationError) as got:
            simulate(spec, [0.5, 0.0], inputs)
        with pytest.raises(IntegrationError) as expected:
            oracle_rollout(spec, [0.5, 0.0], lambda k, t, x: inputs[k], None)
        assert str(got.value) == str(expected.value)


def convergence_inputs(spec):
    """(inputs, x0) pairs: a noise-free chirp in each split's band, a free
    response, white noise and a constant input above the saturation limit."""
    times = np.arange(spec.n_steps) * spec.dt
    cases = [(chirp(ex, times), (0.0, 0.0)) for ex in default_excitations(spec.horizon, 0.0).values()]
    cases.append((np.zeros(spec.n_steps), (1.0, -0.5)))
    cases.append((np.random.default_rng(0).normal(0.0, 1.0, spec.n_steps), (0.0, 0.0)))
    cases.append((np.full(spec.n_steps, 8.0), (0.0, 0.0)))
    return cases


@pytest.fixture
def substeps(monkeypatch):
    """``substeps(count)`` sets ``RK4_SUBSTEPS`` for the rest of the test; the
    step tables built meanwhile leave the cache with it."""
    def use(count):
        monkeypatch.setattr("ltvbench.dynamics.RK4_SUBSTEPS", count)
        _substep_kernel.cache_clear()
    yield use
    _substep_kernel.cache_clear()


class TestSubstepConvergence:
    """The ground truth converges at RK4's fourth order on every kind, frames
    included: at ``RK4_SUBSTEPS`` a rollout is within 1e-5 (relative) of the
    same rollout at 80 substeps, within 1e-9 on the kinds without frames, and
    doubling the substeps cuts that error at least 8x (16x at fourth order)."""

    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    def test_fourth_order_against_80_substeps(self, name, substeps):
        spec = scenario(name)
        bound = 1e-5 if spec.frames else 1e-9
        cases = convergence_inputs(spec)
        rollouts = {}
        for count in (80, RK4_SUBSTEPS, 2 * RK4_SUBSTEPS):
            substeps(count)
            rollouts[count] = [simulate(spec, x0, u, seed=3).states for u, x0 in cases]
        for i, fine in enumerate(rollouts[80]):
            scale = np.max(np.abs(fine))
            err, err_doubled = (
                np.max(np.abs(rollouts[count][i] - fine)) / scale
                for count in (RK4_SUBSTEPS, 2 * RK4_SUBSTEPS)
            )
            assert err <= bound, (i, err)
            assert err >= 8.0 * err_doubled, (i, err, err_doubled)


class TestStageTable:
    @pytest.mark.parametrize("name", lb.BUILTIN_SCENARIOS)
    def test_rows_are_params_at_stage_times(self, name):
        # against the reference law at the reference step's stage times, in
        # the step's frame
        spec = short_scenario(name, horizon=2.5)
        table = _stage_params(spec)
        h = spec.dt / RK4_SUBSTEPS
        times = np.arange(spec.n_steps + 1) * spec.dt
        assert table.shape == (spec.n_steps, RK4_SUBSTEPS, 9)
        for k in range(spec.n_steps):
            for i in range(RK4_SUBSTEPS):
                ti = times[k] + i * h
                row = (
                    reference_params(spec, ti, times[k])
                    + reference_params(spec, ti + 0.5 * h, times[k])
                    + reference_params(spec, ti + h, times[k])
                )
                assert tuple(table[k, i].tolist()) == row
        if spec.kind in (Kind.NL, Kind.NLD):
            assert_bytes_equal(_substep_kernel(spec)[0], table)

    @pytest.mark.parametrize("name", LINEAR_SCENARIOS)
    def test_step_maps_are_reference_steps_of_the_basis(self, name):
        # column j of (M_k | g_k) is step_rk4 applied to the j-th basis vector
        # of (x1, x2, u), byte for byte
        spec = scenario(name)
        table, _ = _substep_kernel(spec)
        times = np.arange(spec.n_steps + 1) * spec.dt
        basis = (((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((0.0, 0.0), 1.0))
        assert table.shape == (spec.n_steps, 6)
        for k in range(spec.n_steps):
            columns = [step_rk4(spec, times[k], x, u, spec.dt) for x, u in basis]
            assert_bytes_equal(table[k], np.array(columns).T.ravel())

    def test_long_record_table_build_stays_small(self):
        # the step maps of a 5000-step record take 240 kB; building them one
        # substep column at a time peaks at ~2.5 MB, below the 3.6 MB that a
        # whole 10-substep stage table of the record would take
        spec = replace(scenario("ltv"), horizon=100.0)
        tracemalloc.start()
        try:
            table, _ = _substep_kernel.__wrapped__(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == spec.n_steps * 6 * 8
        assert peak < 3_600_000

    def test_long_record_gain_recursion_stays_small(self):
        # the float recursion of a 5000-step record holds its flat input
        # copies (240 kB), its gain and cost buffers (240 kB) and the
        # schedule's arrays (280 kB); Python float lists of the same values
        # would add ~1 MB
        model = ground_truth_ltv(replace(scenario("ltv"), horizon=100.0))
        tracemalloc.start()
        try:
            sched = lqr_ltv(model, default_weights())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sched.K.shape == (5000, 1, 2)
        assert peak < 1_000_000

    @pytest.mark.parametrize("name, horizon, bound", [("ltv", 100.0, 1.7e6), ("nl", 10.0, 1.0e6)])
    def test_cached_rows_stay_small(self, name, horizon, bound):
        # one cached spec keeps its table and the table's rows as Python
        # lists: ~300 B per step on a linear plant (1.5 MB for the 5000-step
        # record) and ~1.8 kB per step on a saturated one (0.9 MB at 500)
        spec = replace(scenario(name), horizon=horizon)
        tracemalloc.start()
        try:
            table, _ = _substep_kernel.__wrapped__(spec)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 3 * table.nbytes < kept < bound

    def test_one_table_per_spec(self):
        spec = scenario("ltv")
        shorter = replace(spec, horizon=4.0)
        assert _substep_kernel(spec) is _substep_kernel(spec)
        assert _substep_kernel(shorter)[0] is not _substep_kernel(spec)[0]
        assert len(_substep_kernel(shorter)[0]) == shorter.n_steps

    def test_frame_lists_make_an_equal_spec(self):
        spec = scenario("inst-reconfig")
        listed = replace(spec, frames=[list(f) for f in spec.frames])
        assert listed == spec
        assert _substep_kernel(listed)[0] is _substep_kernel(spec)[0]

    def test_cached_table_is_read_only(self):
        for name in ("nl", "ltv"):
            table, _ = _substep_kernel(scenario(name))
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 1.0
