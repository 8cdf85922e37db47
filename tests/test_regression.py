import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import solve_triangular

from conftest import model_trajectories
from ltvbench.datagen import Split, build_dataset, default_excitations, tvera_experiments
from ltvbench.dynamics import Trajectory, scenario
from ltvbench.exceptions import ExcitationError, NumericalError
from ltvbench.ident import (
    CosmicConfig,
    check_excitation,
    cosmic_fit,
    lti_fit,
    perstep_ls_fit,
    tvera_fit,
)
from ltvbench.ident.regression import _rank_deficient, _stack_all, stacked_lstsq
from ltvbench.models import LtvModel
from test_cosmic import dense_normal_solution


def qr_solve(v, y):
    """One regression by QR and scipy's triangular solve: the per-slice oracle
    for ``stacked_lstsq``, with its rank test."""
    qmat, rmat = np.linalg.qr(v)
    if _rank_deficient(rmat):
        raise ExcitationError("rank-deficient")
    return solve_triangular(rmat, qmat.T @ y)


def tiny_traj(states, inputs):
    states = np.asarray(states, dtype=float)
    return Trajectory(
        times=np.arange(len(states), dtype=float),
        states=states,
        inputs=np.asarray(inputs, dtype=float),
    )


class TestStackRegressors:
    def test_single_trajectory_row(self):
        traj = tiny_traj([[1.0, 2.0], [4.0, 5.0]], [[3.0]])
        v, xn = _stack_all([traj])
        assert_allclose(v[0], [[1.0, 2.0, 3.0]])
        assert_allclose(xn[0], [[4.0, 5.0]])

    def test_one_row_per_trajectory(self):
        trajs = [
            tiny_traj([[1.0, 0.0], [0.0, 0.0]], [[0.5]]),
            tiny_traj([[0.0, 1.0], [0.0, 0.0]], [[0.2]]),
        ]
        v, xn = _stack_all(trajs)
        assert v.shape == (1, 2, 3)
        assert xn.shape == (1, 2, 2)

    def test_next_states_by_construction(self, constant_model):
        trajs = model_trajectories(constant_model, 3, seed=0)
        _, xn = _stack_all(trajs)
        for k in (0, 5, constant_model.n_steps - 1):
            for l, traj in enumerate(trajs):
                assert_allclose(xn[k, l], traj.states[k + 1])

    def test_ragged_trajectories_rejected(self):
        trajs = [
            tiny_traj(np.zeros((3, 2)), np.zeros((2, 1))),
            tiny_traj(np.zeros((4, 2)), np.zeros((3, 1))),
        ]
        with pytest.raises(ValueError, match="ragged"):
            _stack_all(trajs)


class TestCheckExcitation:
    def test_all_zero_dataset(self):
        traj = tiny_traj(np.zeros((6, 2)), np.zeros((5, 1)))
        report = check_excitation([traj])
        assert report.rank == 0
        assert not report.satisfied

    def test_chirp_dataset_satisfied(self):
        spec = scenario("ltv")
        splits = build_dataset(
            spec, default_excitations(spec.horizon), counts=(2, 1, 1),
            noise_var=0.0, master_seed=3,
        )
        report = check_excitation(splits[Split.TRAIN])
        assert report.satisfied
        # cross-check with the numpy rank oracle on the same stacked rows
        rows = np.concatenate(
            [
                np.concatenate([t.states[:-1], t.inputs], axis=1)
                for t in splits[Split.TRAIN].trajectories
            ]
        )
        assert np.linalg.matrix_rank(rows) == 3

    def test_states_on_a_line_unsatisfied(self):
        a = np.linspace(0.0, 1.0, 7)
        states = np.stack([a, 2.0 * a], axis=1)
        traj = tiny_traj(states, np.zeros((6, 1)))
        report = check_excitation([traj])
        assert report.rank == 1
        assert not report.satisfied


    @pytest.mark.parametrize("ratio, rank", [(1e-9, 3), (1e-11, 2)])
    def test_relative_rank_threshold(self, ratio, rank):
        # stacked rows with singular values (1, 1, ratio): the threshold
        # RANK_RTOL = 1e-10 lies between the two ratios
        rotation, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
        rows = np.diag([1.0, 1.0, ratio]) @ rotation
        states = np.vstack([rows[:, :2], np.zeros((1, 2))])
        report = check_excitation([tiny_traj(states, rows[:, 2:])])
        assert report.rank == rank
        assert report.satisfied == (rank == 3)


class TestPrecondition:
    """The per-channel 1/std scaling inside ``cosmic_fit``."""

    def test_unit_variance_transform_is_identity(self):
        rng = np.random.default_rng(0)
        n = 4000
        states = rng.normal(0.0, 1.0, (n + 1, 2))
        inputs = rng.normal(0.0, 1.0, (n, 1))
        traj = Trajectory(times=np.arange(n + 1.0), states=states, inputs=inputs)
        scaling = cosmic_fit([traj]).preconditioning
        assert_allclose(scaling["state_scale"] + scaling["input_scale"], 1.0, atol=0.05)

    def test_scale_equivariance(self, constant_model):
        # exact data: rescaling channels by S maps the fit to S A S^-1, S_x B S_u^-1
        trajs = model_trajectories(constant_model, 5, seed=2)
        direct = cosmic_fit(trajs, CosmicConfig(lam=1.0))
        sx, su = np.array([1e3, 1.0]), 0.25
        scaled = [
            Trajectory(times=t.times, states=t.states * sx, inputs=t.inputs * su)
            for t in trajs
        ]
        fit = cosmic_fit(scaled, CosmicConfig(lam=1.0))
        mapped_a = fit.A * (sx[None, None, :] / sx[None, :, None])
        mapped_b = fit.B * (su / sx[None, :, None])
        assert np.max(np.abs(mapped_a - direct.A)) <= 1e-8
        assert np.max(np.abs(mapped_b - direct.B)) <= 1e-8
        scale_ratio = np.divide(
            fit.preconditioning["state_scale"], direct.preconditioning["state_scale"]
        )
        assert_allclose(scale_ratio, 1.0 / sx)

    def test_zero_variance_channel_flagged(self):
        states = np.random.default_rng(2).normal(size=(20, 2))
        traj = tiny_traj(states, np.full((19, 1), 0.5))
        scaling = cosmic_fit([traj]).preconditioning
        assert scaling["zero_variance"] == [2]
        assert scaling["input_scale"] == [1.0]

    def test_constant_channel_with_rounding_noise_flagged(self):
        # the std of a constant 0.7 channel is ~1e-16 from rounding, not 0;
        # it must still be flagged and keep scale 1, and the fit stay exact
        states = np.random.default_rng(2).normal(size=(20, 2))
        traj = tiny_traj(states, np.full((19, 1), 0.7))
        assert np.std(traj.inputs) > 0.0
        fit = cosmic_fit([traj])
        assert fit.preconditioning["zero_variance"] == [2]
        assert fit.preconditioning["input_scale"] == [1.0]
        direct = dense_normal_solution([traj], 1.0)
        assert np.max(np.abs(fit.stacked() - direct)) <= 1e-10 * np.max(np.abs(direct))

    def test_precondition_fit_unscale_matches_direct_fit(self, constant_model):
        # noisy, badly scaled data: the standardized solve mapped back equals
        # the dense solve of the raw normal equations
        trajs = model_trajectories(constant_model, 5, seed=2, noise=0.01)
        sx, su = np.array([1e3, 1.0]), 0.25
        scaled = [
            Trajectory(times=t.times, states=t.states * sx, inputs=t.inputs * su)
            for t in trajs
        ]
        fit = cosmic_fit(scaled, CosmicConfig(lam=0.7))
        direct = dense_normal_solution(scaled, 0.7)
        assert np.max(np.abs(fit.stacked() - direct)) <= 1e-8 * np.max(np.abs(direct))


class TestUnscaleModel:
    """The map from the standardized solve back to raw channels in ``cosmic_fit``."""

    def test_identity_transform(self, constant_model):
        # channels standardized beforehand: every scale is 1 and the fit is the
        # plain raw-equation solve
        trajs = model_trajectories(constant_model, 5, seed=7, noise=0.01)
        v, _ = _stack_all(trajs)
        stds = v.reshape(-1, v.shape[2]).std(axis=0)
        unit = [
            Trajectory(times=t.times, states=t.states / stds[:2], inputs=t.inputs / stds[2:])
            for t in trajs
        ]
        fit = cosmic_fit(unit, CosmicConfig(lam=0.7))
        scaling = fit.preconditioning
        assert_allclose(scaling["state_scale"] + scaling["input_scale"], 1.0, rtol=1e-12)
        assert np.max(np.abs(fit.stacked() - dense_normal_solution(unit, 0.7))) <= 1e-10

    def test_diagonal_dynamics_invariant_under_state_scaling(self):
        # S^-1 A S = A for diagonal A: scaled exact data give back A itself
        model = LtvModel.from_constant(
            np.diag([0.9, 0.7]), np.array([[0.3], [0.4]]), 20, 0.1
        )
        trajs = model_trajectories(model, 4, seed=8)
        sx = np.array([2.0, 50.0])
        scaled = [
            Trajectory(times=t.times, states=t.states * sx, inputs=t.inputs)
            for t in trajs
        ]
        fit = cosmic_fit(scaled, CosmicConfig(lam=1.0))
        assert np.max(np.abs(fit.A - model.A)) <= 1e-8
        assert_allclose(fit.B, model.B * sx[None, :, None], atol=1e-8)

    def test_scalar_input_map_scaling(self):
        # x~ = 4 x, u~ = 2 u turns b = 1 into b~ = 4 * 1 / 2 = 2
        model = LtvModel.from_constant(
            np.array([[0.9]]), np.array([[1.0]]), 10, 0.1
        )
        trajs = model_trajectories(model, 3, seed=9)
        scaled = [
            Trajectory(times=t.times, states=t.states * 4.0, inputs=t.inputs * 2.0)
            for t in trajs
        ]
        fit = cosmic_fit(scaled, CosmicConfig(lam=1.0))
        assert np.max(np.abs(fit.B - 2.0)) <= 1e-8
        assert np.max(np.abs(fit.A - 0.9)) <= 1e-8


class TestPerstepFit:
    def test_exact_recovery(self, constant_model):
        trajs = model_trajectories(constant_model, 5, seed=4)
        fit = perstep_ls_fit(trajs)
        assert np.max(np.abs(fit.A - constant_model.A)) <= 1e-8
        assert np.max(np.abs(fit.B - constant_model.B)) <= 1e-8

    def test_rank_deficient_step_raises(self, constant_model):
        traj = model_trajectories(constant_model, 1, seed=5)[0]
        with pytest.raises(ExcitationError):
            perstep_ls_fit([traj, traj, traj])

    def test_first_rank_deficient_step_named(self):
        rng = np.random.default_rng(3)
        trajs = [tiny_traj(rng.normal(size=(8, 2)), rng.normal(size=(7, 1))) for _ in range(4)]
        for k in (3, 5):   # every trajectory shares its regressor row at steps 3 and 5
            for traj in trajs[1:]:
                traj.states[k], traj.inputs[k] = trajs[0].states[k], trajs[0].inputs[k]
        with pytest.raises(ExcitationError, match="^rank-deficient regressors for time step 3$"):
            perstep_ls_fit(trajs)

    def test_all_zero_regressors_raise(self):
        trajs = [tiny_traj(np.zeros((4, 2)), np.zeros((3, 1))) for _ in range(3)]
        with pytest.raises(ExcitationError, match="time step 0$"):
            perstep_ls_fit(trajs)

    def test_equals_per_step_qr_solves(self, constant_model):
        # the stacked QR does each step's arithmetic, so it matches a loop of
        # single-step solves exactly
        trajs = model_trajectories(constant_model, 6, seed=9, noise=1e-3)
        fit = perstep_ls_fit(trajs)
        v, xn = _stack_all(trajs)
        blocks = np.stack([qr_solve(v[k], xn[k]) for k in range(len(v))])
        oracle = LtvModel.from_stacked(blocks, q=1, dt=constant_model.dt)
        assert np.array_equal(fit.A, oracle.A)
        assert np.array_equal(fit.B, oracle.B)

    def test_matches_cosmic_at_vanishing_lam(self, constant_model):
        trajs = model_trajectories(constant_model, 6, seed=6, noise=1e-4)
        perstep = perstep_ls_fit(trajs)
        smooth = cosmic_fit(trajs, CosmicConfig(lam=1e-12))
        assert np.max(np.abs(perstep.A - smooth.A)) <= 1e-6
        assert np.max(np.abs(perstep.B - smooth.B)) <= 1e-6


@st.composite
def regression_stacks(draw):
    """A (K, L, d) regressor stack with columns scaled by 10^[-6, 6] and
    (K, L, p) targets."""
    k = draw(st.integers(1, 40))
    d = draw(st.integers(1, 11))
    ell = draw(st.integers(d, d + 20))
    p = draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d))
    v = rng.normal(size=(k, ell, d)) * 10.0 ** np.array(exponents)
    return v, rng.normal(size=(k, ell, p))


class TestStackedLstsq:
    STEPS = range(100, 140)

    @settings(max_examples=150, deadline=None)
    @given(regression_stacks())
    def test_matches_per_slice_oracle(self, stack):
        v, y = stack
        deficient = [k for k in range(len(v)) if _rank_deficient(np.linalg.qr(v[k])[1])]
        if deficient:
            with pytest.raises(
                ExcitationError, match=f"for slice {self.STEPS[deficient[0]]}$"
            ):
                stacked_lstsq(v, y, self.STEPS, "slice")
            return
        x = stacked_lstsq(v, y, self.STEPS, "slice")
        oracle = np.stack([qr_solve(v[k], y[k]) for k in range(len(v))])
        if y.shape[2] >= 2:
            assert np.array_equal(x, oracle)
        else:
            # one right-hand side: LAPACK's solve and trsv may round differently
            cond = np.linalg.cond(np.linalg.qr(v)[1])
            gap = np.linalg.norm(x - oracle, axis=(1, 2))
            bound = 4 * np.finfo(float).eps * cond * np.linalg.norm(oracle, axis=(1, 2))
            assert np.all(gap <= bound)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 6), st.data())
    def test_names_first_rank_deficient_slice(self, k, d, data):
        first = data.draw(st.integers(0, k - 2))
        later = data.draw(st.integers(first + 1, k - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.normal(size=(k, d + 3, d))
        for step in (later, first):
            v[step, :, data.draw(st.integers(0, d - 1))] = 0.0
        message = f"^rank-deficient regressors for slice {100 + first}$"
        with pytest.raises(ExcitationError, match=message):
            stacked_lstsq(v, rng.normal(size=(k, d + 3, 2)), self.STEPS, "slice")

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 6), st.booleans(), st.data())
    def test_nan_raises_numerical_error(self, k, d, in_targets, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = rng.normal(size=(k, d + 3, d))
        y = rng.normal(size=(k, d + 3, 2))
        step = data.draw(st.integers(0, k - 1))
        target = y if in_targets else v
        row = data.draw(st.integers(0, d + 2))
        target[step, row, data.draw(st.integers(0, target.shape[2] - 1))] = np.nan
        with pytest.raises(NumericalError, match=f"for slice {100 + step}$"):
            stacked_lstsq(v, y, self.STEPS, "slice")


@pytest.mark.parametrize(
    "fit", [perstep_ls_fit, lti_fit, tvera_fit], ids=["perstep", "lti", "tvera"]
)
def test_nan_training_state_raises(fit):
    trajs = list(
        tvera_experiments(scenario("ltv"), n_free=4, n_forced=10, master_seed=3).trajectories
    )
    trajs[6].states[40, 1] = np.nan
    with pytest.raises(NumericalError, match="non-finite regressors or targets"):
        fit(trajs)


class TestLtiFit:
    def test_equals_pooled_oracle(self, constant_model):
        trajs = model_trajectories(constant_model, 5, seed=11, noise=1e-3)
        v, xn = _stack_all(trajs)
        block = qr_solve(v.reshape(-1, 3), xn.reshape(-1, 2))
        model = lti_fit(trajs)
        assert (model.n_steps, model.dt, model.method) == (60, 0.02, "lti")
        assert np.array_equal(model.stacked(), np.repeat(block[None], 60, axis=0))

    def test_rank_deficient_pooled_fit_named(self):
        trajs = [tiny_traj(np.zeros((4, 2)), np.zeros((3, 1))) for _ in range(3)]
        with pytest.raises(
            ExcitationError, match="^rank-deficient regressors for pooled time-invariant fit$"
        ):
            lti_fit(trajs)

    def test_exact_recovery_on_lti_data(self, constant_model):
        trajs = model_trajectories(constant_model, 4, seed=7)
        model = lti_fit(trajs)
        assert np.max(np.abs(model.A - constant_model.A)) <= 1e-8
        assert np.max(np.abs(model.B - constant_model.B)) <= 1e-8

    def test_equals_perstep_for_single_step(self, constant_model):
        trajs = []
        for traj in model_trajectories(constant_model, 5, seed=8):
            trajs.append(
                Trajectory(times=traj.times[:2], states=traj.states[:2], inputs=traj.inputs[:1])
            )
        model = lti_fit(trajs)
        perstep = perstep_ls_fit(trajs)
        assert_allclose(model.A, perstep.A, atol=1e-12)
        assert_allclose(model.B, perstep.B, atol=1e-12)
