from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import solve_discrete_are

from conftest import read_gains, reference_params
from ltvbench.control import (
    CostWeights,
    GainSchedule,
    ReferenceSpec,
    closed_loop,
    default_reference,
    default_weights,
    feedforward,
    lqr_ltv,
    save_gains,
    tracking_errors,
    with_feedforward,
)
from ltvbench.dynamics import (
    BUILTIN_SCENARIOS,
    Trajectory,
    ground_truth_ltv,
    scenario,
    simulate,
)
from ltvbench.exceptions import InstabilityError, SynthesisError
from ltvbench.models import LtvModel, MatrixPair


def scalar_unit_model(n=1):
    return LtvModel.from_constant(MatrixPair(np.eye(1), np.eye(1)), n, 1.0)


def unit_weights():
    return CostWeights(Q=np.eye(1), R=np.eye(1), H=np.eye(1))


class TestLqrRecursion:
    def test_hand_scalar_case(self):
        sched = lqr_ltv(scalar_unit_model(), unit_weights())
        assert sched.K[0, 0, 0] == 0.5
        assert sched.cost_to_go[0, 0, 0] == 1.5

    def test_prohibitive_input_cost_kills_gains(self):
        model = ground_truth_ltv(scenario("ltv"))
        weights = CostWeights(Q=np.diag([1.0, 0.1]), R=np.array([[1e9]]), H=np.diag([1.0, 0.1]))
        sched = lqr_ltv(model, weights)
        assert np.max(np.abs(sched.K)) <= 1e-6

    def test_converges_to_riccati_fixed_point(self):
        A = np.array([[1.0, 0.1], [0.0, 1.0]])
        B = np.array([[0.0], [0.1]])
        model = LtvModel.from_constant(MatrixPair(A, B), 500, 0.1)
        weights = default_weights()
        sched = lqr_ltv(model, weights)
        # independent oracle: iterate the algebraic Riccati map to its fixed point
        P = weights.H.copy()
        for _ in range(200000):
            gain_term = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
            P_next = weights.Q + A.T @ P @ A - A.T @ P @ B @ gain_term
            if np.max(np.abs(P_next - P)) < 1e-14:
                P = P_next
                break
            P = P_next
        K_fixed = np.linalg.solve(weights.R + B.T @ P @ B, B.T @ P @ A)
        assert np.max(np.abs(sched.K[0] - K_fixed)) <= 1e-6
        # cross-check against the library solver
        P_dare = solve_discrete_are(A, B, weights.Q, weights.R)
        K_dare = np.linalg.solve(weights.R + B.T @ P_dare @ B, B.T @ P_dare @ A)
        assert np.max(np.abs(sched.K[0] - K_dare)) <= 1e-6

    def test_cost_to_go_symmetric_psd(self):
        model = ground_truth_ltv(scenario("mixed-reconfig"))
        sched = lqr_ltv(model, default_weights())
        for P in sched.cost_to_go[::50]:
            assert np.max(np.abs(P - P.T)) <= 1e-12
            assert np.min(np.linalg.eigvalsh(P)) >= -1e-10

    def test_value_function_matches_simulated_cost(self):
        model = ground_truth_ltv(scenario("ltv"))
        weights = default_weights()
        sched = lqr_ltv(model, weights)
        for x0 in ([1.0, 0.0], [0.3, -0.7]):
            x = np.array(x0)
            cost = 0.0
            for k in range(model.n_steps):
                u = -sched.K[k] @ x
                cost += 0.5 * (x @ weights.Q @ x + u @ weights.R @ u)
                x = model.A[k] @ x + model.B[k] @ u
            cost += 0.5 * x @ weights.H @ x
            expected = 0.5 * np.array(x0) @ sched.cost_to_go[0] @ np.array(x0)
            assert abs(cost - expected) <= 1e-8

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CostWeights(Q=np.eye(2), R=np.zeros((1, 1)), H=np.eye(2))
        with pytest.raises(ValueError):
            CostWeights(Q=np.array([[0.0, 1.0], [0.0, 0.0]]), R=np.eye(1), H=np.eye(2))


def loop_feedforward(model, ref):
    """Per-step ``np.linalg.lstsq`` feedforward: the oracle for the stacked solve."""
    out = np.empty((model.n_steps, model.q))
    for k in range(model.n_steps):
        x_now = ref.state_at(k * model.dt, model.p)
        x_next = ref.state_at((k + 1) * model.dt, model.p)
        out[k] = np.linalg.lstsq(model.B[k], x_next - model.A[k] @ x_now, rcond=None)[0]
    return out


class TestFeedforward:
    @pytest.mark.parametrize(
        "spec",
        [scenario(name) for name in BUILTIN_SCENARIOS]
        + [replace(scenario("ltv"), horizon=100.0)],
        ids=[*BUILTIN_SCENARIOS, "ltv-N5000"],
    )
    def test_matches_per_step_lstsq(self, spec):
        model = ground_truth_ltv(spec)
        ref = default_reference(spec.horizon)
        u_ff = feedforward(model, ref)
        oracle = loop_feedforward(model, ref)
        assert u_ff.shape == (spec.n_steps, 1)
        assert np.max(np.abs(u_ff - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_zero_input_map_names_step(self):
        model = ground_truth_ltv(scenario("ltv"))
        B = model.B.copy()
        B[137] = 0.0
        broken = LtvModel(A=model.A, B=B, dt=model.dt)
        with pytest.raises(SynthesisError, match="feedforward at step 137$"):
            feedforward(broken, default_reference(10.0))

    def test_exact_equilibrium_input_recovered(self):
        # constant-parameter plant: holding the reference requires the exact
        # spring-compensation force, and the model rollout then stays put
        spec = replace(scenario("ltv"), param_freq=0.0)
        model = ground_truth_ltv(spec)
        ref = ReferenceSpec(segments=((0.0, 2.0),))
        u_ff = feedforward(model, ref)
        _, cs, _ = reference_params(spec, 0.0)
        assert_allclose(u_ff, cs * 2.0, rtol=1e-9)
        x = ref.state_at(0.0)
        for k in range(model.n_steps):
            x = model.A[k] @ x + model.B[k] @ u_ff[k]
        assert_allclose(x, ref.state_at(0.0), atol=1e-9)

    def test_zero_reference_needs_no_input(self):
        model = ground_truth_ltv(scenario("ltv"))
        u_ff = feedforward(model, ReferenceSpec(segments=((0.0, 0.0),)))
        assert np.max(np.abs(u_ff)) <= 1e-12

    def test_scalar_case_is_exact_solve(self):
        model = LtvModel.from_constant(MatrixPair(np.array([[0.8]]), np.eye(1)), 4, 1.0)
        ref = ReferenceSpec(segments=((0.0, 3.0),))
        u_ff = feedforward(model, ref)
        assert_allclose(u_ff, 3.0 - 0.8 * 3.0)


class TestClosedLoop:
    def test_perfect_regulation_on_frozen_plant(self):
        spec = replace(scenario("ltv"), param_freq=0.0)
        model = ground_truth_ltv(spec)
        ref = ReferenceSpec(segments=((0.0, 1.0),))
        sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
        traj = closed_loop(spec, sched, ref, np.array([1.0, 0.0]))
        assert np.max(tracking_errors(traj, ref)) <= 1e-6

    def test_zero_gains_reduce_to_open_loop(self):
        spec = scenario("inst-reconfig")
        n = spec.n_steps
        sched = GainSchedule(K=np.zeros((n, 1, 2)), u_ff=np.zeros((n, 1)))
        ref = default_reference(spec.horizon)
        a = closed_loop(spec, sched, ref, np.array([0.5, 0.0]), seed=9)
        b = simulate(spec, np.array([0.5, 0.0]), np.zeros(n), seed=9)
        assert a == b

    def test_identical_seeds_identical_runs(self):
        spec = scenario("mixed-reconfig")
        model = ground_truth_ltv(spec)
        ref = default_reference(spec.horizon)
        sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
        a = closed_loop(spec, sched, ref, np.array([2.0, 0.0]), seed=17)
        b = closed_loop(spec, sched, ref, np.array([2.0, 0.0]), seed=17)
        assert a == b

    def test_divergence_raises_with_step_and_partial_data(self):
        spec = scenario("ltv")
        n = spec.n_steps
        # positive feedback: gains of the wrong sign destabilize the loop
        sched = GainSchedule(K=np.full((n, 1, 2), -200.0), u_ff=np.zeros((n, 1)))
        ref = ReferenceSpec(segments=((0.0, 0.0),))
        with pytest.raises(InstabilityError) as exc_info:
            closed_loop(spec, sched, ref, np.array([0.1, 0.0]))
        err = exc_info.value
        assert 0 < err.step <= n
        assert len(err.states) == err.step + 1
        assert len(err.inputs) == err.step

    def test_schedule_length_must_match(self):
        spec = scenario("ltv")
        sched = GainSchedule(K=np.zeros((7, 1, 2)), u_ff=np.zeros((7, 1)))
        with pytest.raises(ValueError):
            closed_loop(spec, sched, default_reference(spec.horizon), np.zeros(2))

    def test_error_envelope_settles_on_lti_plant(self):
        # constant plant, constant reference: late-horizon error is a tiny
        # fraction of the initial error
        spec = replace(scenario("ltv"), param_freq=0.0)
        model = ground_truth_ltv(spec)
        ref = ReferenceSpec(segments=((0.0, 1.0),))
        sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
        traj = closed_loop(spec, sched, ref, np.array([-1.0, 0.0]))
        errors = tracking_errors(traj, ref)
        tail = errors[int(0.9 * len(errors)):]
        assert np.max(tail) < 0.05 * errors[0]


class TestTrackingErrors:
    def test_perfect_tracking_is_zero(self):
        ref = ReferenceSpec(segments=((0.0, 1.0),))
        traj = Trajectory(
            times=np.arange(4.0),
            states=np.column_stack([np.ones(4), np.zeros(4)]),
            inputs=np.zeros((3, 1)),
        )
        assert_allclose(tracking_errors(traj, ref), 0.0)

    def test_constant_offset(self):
        ref = ReferenceSpec(segments=((0.0, 1.0),))
        traj = Trajectory(
            times=np.arange(4.0),
            states=np.column_stack([np.full(4, 1.25), np.zeros(4)]),
            inputs=np.zeros((3, 1)),
        )
        assert_allclose(tracking_errors(traj, ref), 0.25)

    def test_reference_two_at_origin_state(self):
        ref = ReferenceSpec(segments=((0.0, 2.0),))
        traj = Trajectory(
            times=np.arange(3.0), states=np.zeros((3, 2)), inputs=np.zeros((2, 1))
        )
        assert_allclose(tracking_errors(traj, ref), 2.0)


def linear_scan_position(ref, t):
    """The reference lookup by definition: scan segments until one starts later."""
    z = ref.segments[0][1]
    for start, value in ref.segments:
        if t + 1e-12 >= start:
            z = value
        else:
            break
    return z


@st.composite
def references_and_times(draw):
    later = draw(st.lists(st.floats(1e-6, 100.0), max_size=60, unique=True))
    starts = [0.0] + sorted(later)
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(starts), max_size=len(starts)))
    ref = ReferenceSpec(segments=tuple(zip(starts, values)))
    boundary = draw(st.sampled_from(starts))
    near = st.floats(-3e-12, 3e-12).map(lambda d: boundary + d)
    exact = st.sampled_from([boundary - 1e-12, boundary + 1e-12, boundary])
    anywhere = st.floats(-1.0, 110.0)
    return ref, draw(st.lists(st.one_of(near, exact, anywhere), min_size=1, max_size=10))


class TestReferenceSpec:
    @settings(max_examples=200, deadline=None)
    @given(references_and_times())
    def test_lookup_matches_linear_scan(self, case):
        ref, times = case
        for t in times:
            assert ref.position_at(t) == linear_scan_position(ref, t)

    def test_piecewise_lookup(self):
        ref = ReferenceSpec(segments=((0.0, 1.0), (2.0, -1.0)))
        assert ref.position_at(0.0) == 1.0
        assert ref.position_at(1.999) == 1.0
        assert ref.position_at(2.0) == -1.0
        assert ref.position_at(10.0) == -1.0

    def test_default_reference_alternates(self):
        ref = default_reference(10.0)
        assert [z for _, z in ref.segments] == [1.0, -1.0, 1.0, -1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ReferenceSpec(segments=())
        with pytest.raises(ValueError):
            ReferenceSpec(segments=((1.0, 0.0),))
        with pytest.raises(ValueError):
            ReferenceSpec(segments=((0.0, 1.0), (0.0, 2.0)))


def test_gain_schedule_round_trip(tmp_path):
    model = ground_truth_ltv(scenario("ltv"))
    ref = default_reference(10.0)
    sched = with_feedforward(lqr_ltv(model, default_weights()), feedforward(model, ref))
    save_gains(sched, tmp_path / "gains.json")
    loaded = read_gains(tmp_path / "gains.json")
    assert np.array_equal(loaded.K, sched.K)
    assert np.array_equal(loaded.u_ff, sched.u_ff)
    assert loaded.provenance == sched.provenance


@st.composite
def schedules(draw):
    n, p, q = draw(st.integers(1, 12)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return GainSchedule(
        K=draw(arrays(np.float64, (n, q, p), elements=finite)),
        u_ff=draw(arrays(np.float64, (n, q), elements=finite)),
        provenance=draw(st.text()),
    )


@settings(max_examples=60, deadline=None)
@given(sched=schedules())
def test_gain_schedule_round_trip_is_exact(tmp_path_factory, sched):
    path = tmp_path_factory.mktemp("gains") / "gains.json"
    save_gains(sched, path)
    loaded = read_gains(path)
    for name in ("K", "u_ff"):
        a, b = getattr(loaded, name), getattr(sched, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert loaded.provenance == sched.provenance
