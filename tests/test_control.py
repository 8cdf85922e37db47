import math
from dataclasses import replace
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.linalg import solve_discrete_are

from conftest import model_trajectories, read_gains, reference_params
from ltvbench.bench import path_smoothness
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
from ltvbench.ident import per_trajectory_losses, perstep_ls_fit
from ltvbench.models import LtvModel


def scalar_unit_model(n=1):
    return LtvModel.from_constant(np.eye(1), np.eye(1), n, 1.0)


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
        model = LtvModel.from_constant(A, B, 500, 0.1)
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

    def test_weights_must_fit_the_model(self):
        with pytest.raises(ValueError, match=r"Q \(1, 1\), R \(1, 1\) and H \(1, 1\) do not match"):
            lqr_ltv(ground_truth_ltv(scenario("ltv")), unit_weights())

    def test_terminal_cost_must_have_the_state_cost_shape(self):
        with pytest.raises(ValueError, match=r"H \(3, 3\) must have the shape of Q \(2, 2\)"):
            CostWeights(Q=np.eye(2), R=np.eye(1), H=np.eye(3))


def loop_lqr(model, weights):
    """The numpy recursion one step and one model at a time: the byte oracle
    for models of other shapes than the plant's, a cross-check for the plant's."""
    n = model.n_steps
    K = np.empty((n, model.q, model.p))
    P_stack = np.empty((n + 1, model.p, model.p))
    P = P_stack[n] = weights.H.copy()
    for k in range(n - 1, -1, -1):
        A, B = model.A[k], model.B[k]
        BtP = B.T @ P
        K[k] = np.linalg.solve(weights.R + BtP @ B, BtP @ A)
        Acl = A - B @ K[k]
        P = weights.Q + K[k].T @ weights.R @ K[k] + Acl.T @ P @ Acl
        P = P_stack[k] = 0.5 * (P + P.T)
    return K, P_stack


def _mul(x, y):
    """The matrix product of nested lists, each entry's terms summed in index order."""
    return [[reduce(add, (x[i][m] * y[m][j] for m in range(len(y)))) for j in range(len(y[0]))]
            for i in range(len(x))]


def _add(x, y):
    return [[a + b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _sub(x, y):
    return [[a - b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


def _t(x):
    return [list(col) for col in zip(*x)]


def float_lqr(model, weights):
    """The recursion one step and one model at a time on nested lists of
    Python floats, the docstring formula read left to right: the oracle for
    models of the plant's shape (p=2, q=1), whose 1x1 solve is a division."""
    Q, R, H = weights.Q.tolist(), weights.R.tolist(), weights.H.tolist()
    K = [None] * model.n_steps
    P_stack = [None] * model.n_steps + [H]
    P = H
    for k in range(model.n_steps - 1, -1, -1):
        A, B = model.A[k].tolist(), model.B[k].tolist()
        BtP = _mul(_t(B), P)
        (s,), = _add(R, _mul(BtP, B))
        K[k] = [[g / s for g in row] for row in _mul(BtP, A)]
        Acl = _sub(A, _mul(B, K[k]))
        P = _add(_add(Q, _mul(_mul(_t(K[k]), R), K[k])), _mul(_mul(_t(Acl), P), Acl))
        P = P_stack[k] = [[0.5 * (a + b) for a, b in zip(rp, rt)] for rp, rt in zip(P, _t(P))]
    return np.array(K), np.array(P_stack)


LAYOUTS = ("stacked", "augmented", "contiguous")


def in_layout(blocks, q, layout):
    """The model of per-step blocks ``[A(k)^T; B(k)^T]`` built in one of the
    three memory layouts the fits and the plant give their matrices: the
    column-major views of ``LtvModel.from_stacked`` (the fits), row-major
    slices of one augmented matrix per step (``ground_truth_ltv``), or
    contiguous arrays (``from_constant``, ``load_model``)."""
    if layout == "stacked":
        return LtvModel.from_stacked(blocks, q=q, dt=0.1)
    n, d, p = blocks.shape
    augmented = np.zeros((n, d, d))
    augmented[:, :p] = blocks.transpose(0, 2, 1)
    A, B = augmented[:, :p, :p], augmented[:, :p, p:]
    if layout == "contiguous":
        A, B = A.copy(), B.copy()
    return LtvModel(A=A, B=B, dt=0.1)


@st.composite
def model_stacks(draw):
    """1-9 random models sharing N, p and q, plus PSD weights that fit them;
    about half the draws have the plant's shape, p=2 and q=1.  Each model's
    matrices come in one of the layouts of :func:`in_layout`, which the
    ``LtvModel`` constructor stores C-contiguous."""
    n = draw(st.integers(1, 12))
    p, q = draw(st.one_of(st.just((2, 1)), st.tuples(st.integers(1, 3), st.integers(1, 2))))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    models = [
        in_layout(
            draw(arrays(float, (n, p + q, p), elements=entries)), q, draw(st.sampled_from(LAYOUTS))
        )
        for _ in range(draw(st.integers(1, 9)))
    ]
    root = draw(arrays(float, (p + q, p + q), elements=st.floats(-1.0, 1.0)))
    gram = root @ root.T
    weights = CostWeights(
        Q=gram[:p, :p], R=gram[p:, p:] + np.eye(q), H=0.5 * gram[:p, :p] + np.eye(p)
    )
    return models, weights


def test_results_do_not_depend_on_the_layout_given():
    # One perstep fit of noisy data, built in each layout: every product with
    # A(k) and B(k) rounds alike.
    spec = scenario("ltv")
    truth = ground_truth_ltv(spec)
    blocks = perstep_ls_fit(model_trajectories(truth, 8, seed=3, noise=1e-3)).stacked()
    test = model_trajectories(truth, 4, seed=4)
    ref = default_reference(spec.horizon)
    results = []
    for layout in LAYOUTS:
        model = replace(in_layout(blocks, 1, layout), dt=truth.dt)
        assert model.A.flags.c_contiguous and model.B.flags.c_contiguous
        sched = lqr_ltv(model, default_weights())
        results.append([
            per_trajectory_losses(model, test).tobytes(),
            sched.K.tobytes(),
            sched.cost_to_go.tobytes(),
            feedforward(model, ref).tobytes(),
            path_smoothness(model),
        ])
    assert results[0] == results[1] == results[2]


def model_and_weights(shape):
    """A copy of a model that runs the plant's float recursion (the ``ltv``
    linearization) or the numpy one (p=q=1, 300 steps), with weights that
    fit it; a test may edit the copy's A(k), B(k) and R."""
    if shape == "plant":
        model, weights = ground_truth_ltv(scenario("ltv")), default_weights()
    else:
        model, weights = scalar_unit_model(300), unit_weights()
    return replace(model, A=model.A.copy(), B=model.B.copy()), weights


class TestGainRecursions:
    """``lqr_ltv`` runs one recursion on one model: on Python floats for the
    plant's shape (p=2, q=1), in numpy for every other shape."""

    @settings(max_examples=150, deadline=None)
    @given(model_stacks())
    def test_each_model_matches_its_oracle(self, case):
        models, weights = case
        for model in models:
            sched = lqr_ltv(model, weights)
            K, P = loop_lqr(model, weights)
            if (model.p, model.q) == (2, 1):
                # the float recursion differs from numpy's products by
                # rounding, relative to each model's largest entry: an entry
                # that cancels is an exact zero in one and a residue in the other
                assert_allclose(sched.K, K, rtol=1e-12, atol=1e-12 * np.abs(K).max())
                assert_allclose(sched.cost_to_go, P, rtol=1e-12, atol=1e-12 * np.abs(P).max())
                K, P = float_lqr(model, weights)
            assert sched.K.tobytes() == K.tobytes()
            assert sched.cost_to_go.tobytes() == P.tobytes()
            assert sched.provenance == model.method
            assert sched.u_ff.shape == (model.n_steps, model.q)
            assert not sched.u_ff.any()

    @pytest.mark.parametrize("shape", ["plant", "scalar"])
    @pytest.mark.parametrize("entry", ["A", "B"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_raises(self, shape, entry, bad):
        model, weights = model_and_weights(shape)
        getattr(model, entry)[200] = bad
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SynthesisError, match="^gain recursion produced non-finite gains$"):
                lqr_ltv(model, weights)

    @pytest.mark.parametrize("shape", ["plant", "scalar"])
    def test_singular_input_cost_raises(self, shape):
        # A zero input cost (past CostWeights' check) and a zero B(k) make the
        # input-cost term of step k exactly zero.
        model, weights = model_and_weights(shape)
        object.__setattr__(weights, "R", np.zeros((1, 1)))
        model.B[137] = 0.0
        with pytest.raises(SynthesisError, match="^singular input-cost term at step 137$"):
            lqr_ltv(model, weights)


def loop_feedforward(model, ref):
    """Per-step ``np.linalg.lstsq`` feedforward: the oracle for the stacked solve."""
    out = np.empty((model.n_steps, model.q))
    for k in range(model.n_steps):
        x_now = np.array((ref.position_at(k * model.dt), 0.0))
        x_next = np.array((ref.position_at((k + 1) * model.dt), 0.0))
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
        x = x_ref = np.array((ref.position_at(0.0), 0.0))
        for k in range(model.n_steps):
            x = model.A[k] @ x + model.B[k] @ u_ff[k]
        assert_allclose(x, x_ref, atol=1e-9)

    def test_zero_reference_needs_no_input(self):
        model = ground_truth_ltv(scenario("ltv"))
        u_ff = feedforward(model, ReferenceSpec(segments=((0.0, 0.0),)))
        assert np.max(np.abs(u_ff)) <= 1e-12

    def test_scalar_case_is_exact_solve(self):
        model = LtvModel.from_constant(np.array([[0.8]]), np.eye(1), 4, 1.0)
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

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_zero_gains_reduce_to_open_loop(self, name):
        # one loop per force law serves both: with zero gains the policy
        # returns u_ff exactly, so the closed loop is the seeded open loop of
        # u_ff, inputs and kicks included; 8 N reaches past the nl/nld limit
        spec = scenario(name)
        n = spec.n_steps
        u_ff = np.random.default_rng(4).uniform(-8.0, 8.0, (n, 1))
        sched = GainSchedule(K=np.zeros((n, 1, 2)), u_ff=u_ff)
        ref = default_reference(spec.horizon)
        a = closed_loop(spec, sched, ref, np.array([0.5, 0.0]), seed=9)
        b = simulate(spec, np.array([0.5, 0.0]), u_ff, seed=9)
        assert a == b
        assert np.abs(u_ff).max() > spec.sat_limit

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

    @pytest.mark.parametrize("q, p", [(2, 2), (1, 3)], ids=["two-inputs", "three-states"])
    def test_schedule_must_fit_the_plant(self, q, p):
        spec = scenario("ltv")
        n = spec.n_steps
        sched = GainSchedule(K=np.zeros((n, q, p)), u_ff=np.zeros((n, q)))
        with pytest.raises(ValueError, match=rf"shaped \(500, 1, 2\), got \(500, {q}, {p}\)"):
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
            expected = linear_scan_position(ref, t)
            # a numpy scalar (as an array's element) looks up as its float
            for form in (t, np.float64(t)):
                got = ref.position_at(form)
                assert type(got) is float and got == expected
            assert ref.position_at(math.floor(t)) == linear_scan_position(ref, math.floor(t))
            # any time before zero gets the first segment
            assert ref.position_at(-abs(t) - 1e-9) == ref.segments[0][1]
        # an array of times is looked up at once, to the same bytes
        expected = np.array([linear_scan_position(ref, t) for t in times])
        assert ref.position_at(np.array(times)).tobytes() == expected.tobytes()

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

    @pytest.mark.parametrize(
        "segments",
        [
            ((0.0, 1.0), (math.nan, 2.0)),
            ((math.nan, 1.0),),
            ((0.0, math.nan),),
            ((0.0, math.inf),),
            ((0.0, 1.0), (2.0, -math.inf)),
        ],
    )
    def test_non_finite_segment_is_rejected(self, segments):
        # a NaN start compares false with its neighbours, so the ordering
        # check alone lets it through
        with pytest.raises(ValueError, match="must be finite"):
            ReferenceSpec(segments=segments)


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
