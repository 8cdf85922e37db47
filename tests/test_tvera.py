import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import model_trajectories, rollout_model
from ltvbench.datagen import tvera_experiments
from ltvbench.dynamics import Trajectory, ground_truth_ltv, scenario
from ltvbench.exceptions import ExcitationError, InputError, RealizationError
from ltvbench.ident import per_trajectory_losses, tvera_fit
from ltvbench.ident.tvera import SVD_GAP_RTOL
from ltvbench.models import LtvModel


def exact_experiments(model, n_free=4, n_forced=10, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(model.n_steps + 1) * model.dt
    trajs = []
    for _ in range(n_free):
        x0 = rng.uniform(-1.0, 1.0, model.p)
        inputs = np.zeros((model.n_steps, model.q))
        trajs.append(Trajectory(times=times, states=rollout_model(model, x0, inputs), inputs=inputs))
    for _ in range(n_forced):
        inputs = rng.normal(0.0, 1.0, (model.n_steps, model.q))
        trajs.append(
            Trajectory(times=times, states=rollout_model(model, np.zeros(model.p), inputs), inputs=inputs)
        )
    return trajs


class TestTveraExact:
    def test_realization_matches_truth_on_exact_data(self):
        truth = ground_truth_ltv(scenario("ltv"))
        fit = tvera_fit(exact_experiments(truth))
        assert np.max(np.abs(fit.A - truth.A)) <= 1e-6
        assert np.max(np.abs(fit.B - truth.B)) <= 1e-6

    def test_rollouts_match_fresh_trajectories(self):
        truth = ground_truth_ltv(scenario("mixed-reconfig"))
        fit = tvera_fit(exact_experiments(truth, seed=1))
        tests = model_trajectories(truth, 3, seed=2)
        losses = per_trajectory_losses(fit, tests)
        assert np.max(losses) <= 1e-4

    def test_hankel_of_order_p_system_has_rank_p(self):
        # independent construction from the true model: H = O R with
        # h(i, j) = Phi(i, j+1) B(j)
        truth = ground_truth_ltv(scenario("ltv"))
        k, s, r = 10, 3, 3
        h = np.zeros((s * 2, r * 1))
        for i in range(s):
            for j in range(r):
                phi = np.eye(2)
                for step in range(k - j, k + i):      # Phi(k+i, k-j)
                    phi = truth.A[step] @ phi
                block = phi @ truth.B[k - 1 - j]
                h[i * 2 : (i + 1) * 2, j : j + 1] = block
        sv = np.linalg.svd(h, compute_uv=False)
        assert sv[1] / sv[0] > 1e-6
        assert sv[2] / sv[0] < 1e-10


class TestTveraErrors:
    def test_hankel_shape_is_checked_before_the_data(self):
        with pytest.raises(InputError, match="^need at least two Hankel block rows to shift$"):
            tvera_fit([], hankel_rows=1)
        with pytest.raises(InputError, match="^need at least one Hankel block column$"):
            tvera_fit([], hankel_cols=0)

    def test_insufficient_experiments(self):
        # a 3x3 window needs p + 5q = 7 experiments
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = exact_experiments(truth, n_free=2, n_forced=3)
        with pytest.raises(ExcitationError, match="needs at least 7 experiments, got 5"):
            tvera_fit(trajs)

    def test_collapsed_hankel_spectrum(self):
        # zero input map: the Hankel matrices vanish identically
        dead = LtvModel.from_constant(
            np.array([[0.9, 0.1], [0.0, 0.8]]), np.zeros((2, 1)), 60, 0.02
        )
        trajs = exact_experiments(dead, n_free=6, n_forced=8, seed=3)
        with pytest.raises(RealizationError, match="at step 5 collapses"):
            tvera_fit(trajs)


class TestTveraNoisy:
    def test_still_produces_bounded_rollouts(self):
        spec = scenario("ltv")
        experiments = tvera_experiments(spec, n_free=4, n_forced=10, noise_var=1e-6, master_seed=3)
        fit = tvera_fit(experiments)
        truth = ground_truth_ltv(spec)
        tests = model_trajectories(truth, 4, seed=4)
        losses = per_trajectory_losses(fit, tests)
        assert np.all(np.isfinite(losses))
        # noisy realization is far off the truth but not divergent
        assert 1e-4 < np.mean(losses) < 50.0


def loop_tvera(trajs, s, r):
    """Step-by-step realization: per-step ``lstsq`` Markov windows, one Hankel
    SVD per step, one frame inversion per step and per-step boundary
    regressions.  The oracle the batched fit is checked against."""
    states = np.stack([t.states for t in trajs])   # (L, N+1, p)
    inputs = np.stack([t.inputs for t in trajs])   # (L, N, q)
    ell, n, q = inputs.shape
    p = states.shape[2]
    w = s + r - 1
    markov = np.zeros((n + 1, w, p, q))
    for k in range(w, n + 1):
        reg = np.concatenate([states[:, k - w], inputs[:, k - w : k].reshape(ell, -1)], axis=1)
        coef = np.linalg.lstsq(reg, states[:, k], rcond=None)[0]
        markov[k] = coef[p:].T.reshape(p, w, q).transpose(1, 0, 2)
    scale = np.max(np.abs(states)) / np.max(np.abs(inputs))

    def factors(k):
        h = np.block(
            [[markov[k + i, w - (i + j + 1)] for j in range(r)] for i in range(s)]
        )
        u, sing, vt = np.linalg.svd(h, full_matrices=False)
        if sing[0] <= SVD_GAP_RTOL * scale or sing[p - 1] / sing[0] < SVD_GAP_RTOL:
            raise RealizationError(f"Hankel spectrum at step {k} collapses")
        sq = np.sqrt(sing[:p])
        return u[:, :p] * sq, sq[:, None] * vt[:p]

    A = np.empty((n, p, p))
    B = np.empty((n, p, q))
    lo, hi = w, n - s
    obs_k, _ = factors(lo)
    for k in range(lo, hi + 1):
        obs_next, ctrl_next = factors(k + 1)
        a_frame = np.linalg.lstsq(obs_next[: (s - 1) * p], obs_k[p:], rcond=None)[0]
        A[k] = obs_next[:p] @ a_frame @ np.linalg.inv(obs_k[:p])
        B[k] = obs_next[:p] @ ctrl_next[:, :q]
        obs_k = obs_next
    for k in list(range(lo)) + list(range(hi + 1, n)):
        reg = np.concatenate([states[:, k], inputs[:, k]], axis=1)
        coef = np.linalg.lstsq(reg, states[:, k + 1], rcond=None)[0]
        A[k], B[k] = coef[:p].T, coef[p:].T
    return A, B


def random_ltv(p, q, n, seed):
    """A smoothly varying, well-excited LTV model for the oracle checks."""
    rng = np.random.default_rng(seed)
    wave = np.sin(np.linspace(0.0, 3.0, n))[:, None, None]
    A = 0.9 * np.eye(p) + 0.1 * rng.normal(size=(p, p)) + 0.1 * wave * rng.normal(size=(p, p))
    B = rng.normal(size=(p, q)) + 0.3 * wave * rng.normal(size=(p, q))
    return LtvModel(A=A, B=B, dt=0.1)


@st.composite
def oracle_cases(draw):
    p = draw(st.sampled_from([1, 2]))
    q = draw(st.sampled_from([1, 2]))
    s = draw(st.integers(2, 4))
    r = draw(st.integers(2, 4))   # r * q >= p holds for every draw
    w = s + r - 1
    n = draw(st.integers(w + s, w + s + 20))
    model = random_ltv(p, q, n, draw(st.integers(0, 2**16)))
    trajs = exact_experiments(model, n_free=p + 2, n_forced=w * q + 2, seed=draw(st.integers(0, 99)))
    return model, trajs, (s, r)


# Tolerances stated for the oracle checks: the batched fit solves every step by
# QR where the loop uses SVD-based lstsq and an LU inverse, so the two agree to
# rounding amplified by each step's conditioning.  Over 1,500 draws of these
# cases the worst relative gaps were 2.3e-11 (exact A, B) and 2.0e-11 (losses).
EXACT_RTOL = 1e-9
LOSS_RTOL = 1e-9


class TestBatchedMatchesLoop:
    @settings(max_examples=40, deadline=None)
    @given(case=oracle_cases())
    def test_exact_data(self, case):
        model, trajs, (s, r) = case
        fit = tvera_fit(trajs, hankel_rows=s, hankel_cols=r)
        A, B = loop_tvera(trajs, s, r)
        scale = 1.0 + max(np.max(np.abs(A)), np.max(np.abs(B)))
        assert np.max(np.abs(fit.A - A)) <= EXACT_RTOL * scale
        assert np.max(np.abs(fit.B - B)) <= EXACT_RTOL * scale

    @settings(max_examples=40, deadline=None)
    @given(case=oracle_cases(), noise_seed=st.integers(0, 99))
    def test_noisy_rollout_losses(self, case, noise_seed):
        model, trajs, (s, r) = case
        rng = np.random.default_rng(noise_seed)
        noisy = [
            Trajectory(t.times, t.states + rng.normal(0.0, 1e-3, t.states.shape), t.inputs)
            for t in trajs
        ]
        tests = model_trajectories(model, 3, seed=noise_seed)
        fit = tvera_fit(noisy, hankel_rows=s, hankel_cols=r)
        A, B = loop_tvera(noisy, s, r)
        loop = LtvModel(A=A, B=B, dt=model.dt)
        expected = per_trajectory_losses(loop, tests)
        got = per_trajectory_losses(fit, tests)
        assert np.all(np.abs(got - expected) <= LOSS_RTOL * expected)


class TestStepNamedErrors:
    def test_rank_deficient_window_names_first_step(self):
        # u(20) = 0 in every experiment: the windows ending at 21..21+w-1
        # lose a column, and the first of them is named
        truth = ground_truth_ltv(scenario("ltv"))
        trajs = exact_experiments(truth)
        for traj in trajs:
            traj.inputs[20] = 0.0
        with pytest.raises(ExcitationError, match="^rank-deficient regressors for Markov window at step 21$"):
            tvera_fit(trajs)

    def test_collapsed_hankel_names_first_step(self):
        # B(k) = 0 for k in 20..39: the Hankel columns at step k are built
        # from B(k-1) .. B(k-3), so with q = 1 its rank falls below p = 2
        # once only B(k-3) is left, first at k = 22
        model = random_ltv(2, 1, 60, seed=4)
        model.B[20:40] = 0.0
        trajs = exact_experiments(model, seed=5)
        with pytest.raises(RealizationError, match="^Hankel spectrum at step 22 collapses"):
            tvera_fit(trajs)

    def test_singular_frame_names_its_step(self):
        # x(k) = C(k) [u(k-3), u(k-2), u(k-1)]: at k = 20 both states see
        # u(19) and u(18) only through the same second component, so the
        # first block row of the 2x2 Hankel matrix at step 20 has rank one
        # while the matrix keeps rank two, and its frame is singular
        rng = np.random.default_rng(6)
        n, k0 = 40, 20
        coefs = np.tile([[1.0, 0.5, 1.0], [0.3, 1.0, -0.7]], (n + 1, 1, 1))
        coefs[k0] = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
        trajs = []
        for _ in range(8):
            inputs = rng.normal(size=(n, 1))
            states = rng.normal(size=(n + 1, 2))
            for k in range(3, n + 1):
                states[k] = coefs[k] @ inputs[k - 3 : k, 0]
            trajs.append(Trajectory(np.arange(n + 1) * 0.1, states, inputs))
        with pytest.raises(RealizationError, match="^rank-deficient regressors for frame at step 20$"):
            tvera_fit(trajs, hankel_rows=2, hankel_cols=2)
