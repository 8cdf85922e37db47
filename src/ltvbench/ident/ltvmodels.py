"""Single-trajectory LTV identification with a group (non-squared) difference penalty.

Minimizes, over the per-step blocks C(t) (d x p, d = p + q),

    P(C) = sum_t ||C(t)^T v(t) - y(t)||_2^2  +  lam * sum_t ||C(t+1) - C(t)||_F

with v(t) = [x(t); u(t)] and y(t) = x(t+1).  The non-squared penalty
promotes piecewise-constant parameter paths.

Certificate.  With r(t) = C(t)^T v(t) - y(t), the fit gradients
g(t) = 2 v(t) r(t)^T and their prefix sums U(t) = sum_{s<=t} g(s), the blocks
are first shifted by the constant that zeroes sum_t g(t) (a d x d solve that
leaves the jumps alone and only lowers the fit).  Then theta(t) = 2 a r(t),
with a = min(1, lam / max_t ||U(t)||_F), is dual feasible and

    dual = sum_t (-a^2 ||r(t)||^2 - 2 a r(t) . y(t))  <=  P*,

so gap = (P - dual) / P bounds the relative excess (P - P*) / P of the
blocks, whatever they are.  Summation by parts writes P - dual as a sum of
nonnegative terms, (1 - a)^2 fit + sum_t (lam ||z(t)|| - a <z(t), U(t)>)
with z(t) = C(t+1) - C(t), and that form is evaluated, free of the
cancellation in the dual sum.  It drops one term: after the shift the
summed gradient is zero only up to the rounding of the residuals, and its
pairing with the last block would add that rounding (an absolute error of
order eps ||y||^2 that dwarfs P on data fitted almost exactly) rather than
any excess of the blocks.

Solver.  The fit starts at the pooled constant fit, the shift of zero blocks.
If that already certifies (always so once lam >= max_t ||U(t)||, where the
constant model is the exact optimum), it is returned after 0 iterations.
Otherwise a log-barrier path-following method (Boyd & Vandenberghe, Convex
Optimization, 2004, ch. 11) minimizes

    f(C) + mu * sum_t (q(t) - log(1 + q(t))),   q(t) = sqrt(1 + (lam/mu)^2 ||z(t)||^2),

the second-order-cone barrier of the epigraph of lam ||z(t)|| with the
epigraph variable eliminated in closed form.  Its gradient in z(t) is
c(t) z(t) with c = lam^2 / (mu (1 + q)), a vector of norm below lam: the
barrier's estimate of the dual variable of jump t.

Newton directions come from a separate dual estimate w(t), as in the
primal-dual Newton method of Chan, Golub & Mulet (SIAM J. Sci. Comput. 20(6),
1999) for total-variation penalties.  The right-hand side stays the barrier
gradient, but the edge block of the Newton matrix between steps t and t+1 is

    c (I - (w z^T + z w^T) / (2 mu q)),

which at w = c z (on the central path) is the barrier's own Hessian,
c (I - (1 - 1/q) z z^T / ||z||^2).  Since ||z|| / (mu q) < 1 / lam, its
eigenvalues are at least c (1 - ||w|| / lam), so the Newton matrix stays
positive definite while every ||w(t)|| < lam.  w starts at 0 (so the first
step is the barrier's), and after each step moves by s dw, where

    dw = c dz - (c / (mu q)) <z, dz> w + (c z - w)

linearizes w = c z along the primal direction dz, and s = min(1, 0.99 times
the step at which some ||w(t)|| reaches lam) keeps it strictly inside the
ball.  The barrier's Hessian changes fast where ||z|| is near mu / lam,
which forces short, damped steps; the system in (z, w) is less curved there,
and on Table 1's lambda grid at master seed 7 the 45 fits take 604 Newton
steps instead of 1010.

Each Newton step is one banded Cholesky of the block-tridiagonal matrix,
whose (dp x dp) blocks are full; steps are damped by backtracking on the
barrier, and mu is divided by 10 once a centering ends.  Every iterate is
shifted and certified, and the fit stops as soon as the incumbent (the
lowest-objective iterate, which is returned) has gap <= tol.  ``info``
holds ``gap`` (a float), ``converged`` (a bool, gap <= tol),
``iterations`` (Newton steps) and ``objective``, the incumbent objective
after the start and after each step, which is monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ExcitationError, NumericalError
from ..models import LtvModel
from .regression import _stack_all, check_excitation, trajectories_of
from .tridiag import banded_solve, factor_block_tridiag

_ARMIJO = 0.25      # sufficient-decrease fraction of the backtracking search
_MIN_STEP = 1e-10   # below this step length the centering has stalled in rounding


@dataclass(frozen=True)
class LtvModelsConfig:
    lam: float = 1.0
    max_iter: int = 200   # Newton-step cap
    tol: float = 1e-8     # relative duality gap that certifies a fit

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x**2, axis=(1, 2)))


def _residual(blocks, vt, yt) -> np.ndarray:
    return np.einsum("ti,tip->tp", vt, blocks) - yt


def certify(blocks, vt, yt, lam) -> tuple:
    """Shift ``blocks`` by the zero-summed-gradient constant and bound its excess.

    Returns (shifted blocks, P, gap): the objective P of the shifted blocks
    and the relative duality gap of the module docstring, which is at least
    (P - P*) / P.
    """
    residual = _residual(blocks, vt, yt)
    shift = np.linalg.solve(vt.T @ vt, -(vt.T @ residual))
    blocks = blocks + shift
    residual = residual + vt @ shift
    prefix = np.cumsum(2.0 * vt[:, :, None] * residual[:, None, :], axis=0)
    jumps = blocks[1:] - blocks[:-1]
    jump_norms = _norms(jumps)
    top = float(_norms(prefix[:-1]).max())
    a = 1.0 if top <= lam else lam / top
    fit = float(np.sum(residual**2))
    objective = fit + lam * float(np.sum(jump_norms))
    slack = (1.0 - a) ** 2 * fit + float(
        np.sum(lam * jump_norms - a * np.sum(jumps * prefix[:-1], axis=(1, 2)))
    )
    return blocks, objective, (slack / objective if objective > 0 else 0.0)


def _dual_step(w, dw, lam) -> float:
    """min(1, 0.99 times the step along ``dw`` at which some ||w(t)|| reaches lam)."""
    # Positive root of ||w + s dw||^2 = lam^2 per jump, in a form free of
    # cancellation; a jump that never reaches the sphere gives inf, and one
    # already on it (rounding) gives nan, read as no room to move.
    a = np.sum(dw**2, axis=1)
    b = np.sum(w * dw, axis=1)
    room = lam**2 - np.sum(w**2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(b**2 + a * room)
        reach = np.where(b < 0.0, (root - b) / a, room / (b + root))
    return min(1.0, 0.99 * float(np.nan_to_num(reach, nan=0.0).min()))


def ltvmodels_fit(traj, cfg: LtvModelsConfig = LtvModelsConfig()) -> LtvModel:
    """Fit a smooth-or-jumping LTV model to a single trajectory.

    Accepts a Trajectory (or a dataset, from which the first trajectory is
    taken).  Reaching the Newton-step cap, or a Newton system that is no
    longer positive definite in floating point (possible only at a very
    small mu), returns the incumbent with ``info["converged"] = False`` and
    its certified gap.
    """
    trajs = trajectories_of(traj)[:1]
    if trajs[0].n_steps < 2:
        raise ValueError("need at least two transitions for a difference penalty")
    report = check_excitation(trajs)
    if not report.satisfied:
        raise ExcitationError(
            f"trajectory spans rank {report.rank} < {report.required}"
        )
    v, xn = _stack_all(trajs)         # L = 1
    n, _, d = v.shape
    p = xn.shape[2]
    m = d * p
    vt = v[:, 0, :]                   # (N, d)
    yt = xn[:, 0, :]                  # (N, p)
    lam = float(cfg.lam)

    # Fit Hessian of each block, flattened row-major: 2 v v^T (x) I_p.
    fit_hess = 2.0 * np.einsum("ti,tk,jl->tijkl", vt, vt, np.eye(p)).reshape(n, m, m)
    eye = np.eye(m)

    def barrier(blocks, mu):
        z = (blocks[1:] - blocks[:-1]).reshape(n - 1, m)
        q = np.hypot(1.0, (lam / mu) * np.sqrt(np.sum(z**2, axis=1)))
        return float(np.sum(_residual(blocks, vt, yt) ** 2)) + mu * float(
            np.sum(q - np.log1p(q))
        )

    def newton_step(blocks, mu, w):
        """Newton direction of the barrier objective, its squared decrement,
        and the direction of the dual estimate ``w``."""
        z = (blocks[1:] - blocks[:-1]).reshape(n - 1, m)
        ratio = lam / mu
        q = np.hypot(1.0, ratio * np.sqrt(np.sum(z**2, axis=1)))
        c = lam * ratio / (1.0 + q)
        grad = (2.0 * vt[:, :, None] * _residual(blocks, vt, yt)[:, None, :]).reshape(n, m)
        grad[1:] += c[:, None] * z
        grad[:-1] -= c[:, None] * z
        # Edge block c (I - (w z^T + z w^T) / (2 mu q)); at w = c z it is the
        # barrier's own Hessian, and it is positive definite while ||w|| < lam.
        scale = (c / (2.0 * mu * q))[:, None, None]
        cross = w[:, :, None] * z[:, None, :]
        edge = c[:, None, None] * eye - scale * (cross + cross.transpose(0, 2, 1))
        diag = fit_hess.copy()
        diag[1:] += edge
        diag[:-1] += edge
        step = -banded_solve(factor_block_tridiag(diag, -edge), grad[:, :, None])[:, :, 0]
        dz = step[1:] - step[:-1]
        dw = c[:, None] * (dz + z) - w - (c / (mu * q) * np.sum(z * dz, axis=1))[:, None] * w
        return step.reshape(n, d, p), -float(np.sum(grad * step)), dw

    blocks, best_obj, gap = certify(np.zeros((n, d, p)), vt, yt, lam)
    best = blocks
    history = [best_obj]
    # Start the path where the barrier's duality gap, 2 (N-1) mu, matches the
    # start's certified one (positive whenever the loop runs).
    mu = gap * best_obj / (2.0 * (n - 1))
    w = np.zeros((n - 1, m))
    iterations = 0
    while gap > cfg.tol and iterations < cfg.max_iter:
        try:
            step, decrement, dw = newton_step(blocks, mu, w)
        except NumericalError:
            break   # the Newton system lost definiteness in rounding at a very small mu
        iterations += 1
        w += _dual_step(w, dw, lam) * dw
        value = barrier(blocks, mu)
        t = 1.0
        while t >= _MIN_STEP and barrier(blocks + t * step, mu) > value - _ARMIJO * t * decrement:
            t *= 0.5
        if t >= _MIN_STEP:
            blocks, obj, obj_gap = certify(blocks + t * step, vt, yt, lam)
            if obj < best_obj:
                best, best_obj, gap = blocks, obj, obj_gap
        # Centered once the decrease left to take, about decrement / 2, is
        # under 1/40 of the barrier's gap 2 (N-1) mu; or when rounding stalls.
        if t < _MIN_STEP or decrement <= 0.1 * (n - 1) * mu:
            mu /= 10.0
        history.append(best_obj)

    return LtvModel.from_stacked(
        best,
        q=d - p,
        dt=trajs[0].dt,
        method="ltvmodels",
        hyperparams={"lam": lam},
        info={
            "converged": gap <= cfg.tol,
            "gap": gap,
            "iterations": iterations,
            "objective": history,
        },
    )
