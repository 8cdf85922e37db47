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
and on Table 1's lambda grid at master seed 7 the 45 fits take 605 Newton
steps instead of 1010.

Each Newton step is one banded Cholesky of the block-tridiagonal matrix,
whose (dp x dp) blocks are full (LAPACK ``dpbtrf`` on the band that
:func:`~.tridiag.factor_block_tridiag` assembles); the blocks of the matrix
are built with the step index last, so their products run along N.  Steps
are damped by backtracking on the barrier, starting from the barrier value
the step computed at the iterate, and mu is divided by 10 once a centering
ends.  Every iterate is shifted and certified, reusing the residual of the
accepted trial point and the fit's constants ``v^T v`` and ``2 v``, and the
fit stops as soon as the incumbent (the lowest-objective iterate, which is
returned) has gap <= 1e-8, or after 200 Newton steps: a fixed rule with
no setting.  ``info`` holds ``gap`` (a float), ``converged`` (a bool, gap
<= 1e-8), ``iterations`` (Newton steps) and ``objective``, the incumbent
objective after the start and after each step, which is monotone by
construction.  The fit needs the trajectory's state/input rows to span
rank p+q (:func:`~.regression.check_excitation`).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InputError, NumericalError
from ..models import LtvModel
from .regression import _stack_all, check_excitation, check_lam, trajectories_of
from .tridiag import banded_solve, factor_block_tridiag

_ARMIJO = 0.25      # sufficient-decrease fraction of the backtracking search
_MIN_STEP = 1e-10   # below this step length the centering has stalled in rounding
_TOL = 1e-8         # relative duality gap that certifies a fit
_MAX_ITER = 200     # Newton-step cap


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x**2, axis=(1, 2)))


def _residual(blocks, vt, yt) -> np.ndarray:
    return np.einsum("ti,tip->tp", vt, blocks) - yt


def _certify(blocks, residual, vt, gram, two_v, lam) -> tuple:
    """Shift ``blocks`` by the zero-summed-gradient constant and bound its excess.

    ``residual`` is that of ``blocks``; ``gram = vt^T vt`` and ``two_v = 2 vt^T``
    are the fit's constants, computed once.  Returns (shifted blocks, P, gap):
    the objective P of the shifted blocks and the relative duality gap of the
    module docstring, which is at least (P - P*) / P.
    """
    shift = np.linalg.solve(gram, -(vt.T @ residual))
    blocks = blocks + shift
    residual = residual + vt @ shift
    # prefix sums of the fit gradients, formed with the step index last
    prefix = np.cumsum(two_v[:, None] * residual.T[None], axis=2)[:, :, :-1]
    prefix = prefix.transpose(2, 0, 1).copy()
    jumps = blocks[1:] - blocks[:-1]
    jump_norms = _norms(jumps)
    top = float(_norms(prefix).max())
    a = 1.0 if top <= lam else lam / top
    fit = float((residual**2).sum())
    objective = fit + lam * float(jump_norms.sum())
    slack = (1.0 - a) ** 2 * fit + float(
        (lam * jump_norms - a * (jumps * prefix).sum(axis=(1, 2))).sum()
    )
    return blocks, objective, (slack / objective if objective > 0 else 0.0)


def _dual_step(w, dw, lam) -> float:
    """min(1, 0.99 times the step along ``dw`` at which some ||w(t)|| reaches lam)."""
    # Positive root of ||w + s dw||^2 = lam^2 per jump, in a form free of
    # cancellation; a jump that never reaches the sphere gives inf, and one
    # already on it (rounding) gives nan, read as no room to move.
    a = (dw**2).sum(axis=1)
    b = (w * dw).sum(axis=1)
    room = lam**2 - (w**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(b**2 + a * room)
        reach = np.where(b < 0.0, (root - b) / a, room / (b + root))
    return min(1.0, 0.99 * float(np.nan_to_num(reach, nan=0.0, copy=False).min()))


def ltvmodels_fit(traj, *, lam: float = 1.0) -> LtvModel:
    """Fit a smooth-or-jumping LTV model to a single trajectory at the
    penalty weight ``lam`` (positive and finite, else ``InputError``); the
    stop rule, gap <= 1e-8 within 200 Newton steps, is fixed (module
    docstring).

    Accepts a Trajectory, or a list or dataset of exactly one (more raise
    ``InputError``).  Reaching the Newton-step cap, or a Newton system that
    is no longer positive definite in floating point (possible only at a
    very small mu), returns the incumbent with ``info["converged"] = False``
    and its certified gap.  Raises ``ExcitationError`` when the state/input
    rows span a rank below p+q.
    """
    lam = check_lam(lam)
    trajs = trajectories_of(traj)
    if len(trajs) != 1:
        raise InputError(f"ltvmodels fits one trajectory, got {len(trajs)}")
    if trajs[0].n_steps < 2:
        raise InputError("need at least two transitions for a difference penalty")
    v, xn = _stack_all(trajs)         # L = 1
    check_excitation(v)
    n, _, d = v.shape
    p = xn.shape[2]
    m = d * p
    vt = v[:, 0, :]                   # (N, d)
    yt = xn[:, 0, :]                  # (N, p)

    # Elementwise products (the Newton matrix among them) are formed with the
    # step index last, e.g. (m, m, N), so they run along N.  Every sum stays
    # in the (N, m) layout, which fixes its order of addition.
    # Fit Hessian of each block, flattened row-major: 2 v v^T (x) I_p.
    fit_hess = 2.0 * np.einsum("ti,tk,jl->ijklt", vt, vt, np.eye(p)).reshape(m, m, n)
    gram = vt.T @ vt
    two_v = 2.0 * vt.T.copy()

    def barrier(blocks, mu):
        """The barrier objective at ``blocks``, their residual, their jumps z
        (N-1, m) and the q of each jump."""
        z = (blocks[1:] - blocks[:-1]).reshape(n - 1, m)
        q = np.hypot(1.0, (lam / mu) * np.sqrt((z**2).sum(axis=1)))
        residual = _residual(blocks, vt, yt)
        value = float((residual**2).sum()) + mu * float((q - np.log1p(q)).sum())
        return value, residual, z, q

    def newton_step(blocks, mu, w):
        """Newton direction of the barrier objective, its squared decrement,
        the direction of the dual estimate ``w``, and the barrier at ``blocks``."""
        value, residual, z, q = barrier(blocks, mu)
        c = lam * (lam / mu) / (1.0 + q)
        z_cols, w_cols = z.T.copy(), w.T.copy()
        grad = (two_v[:, None] * residual.T[None]).reshape(m, n)
        cz = c * z_cols
        grad[:, 1:] += cz
        grad[:, :-1] -= cz
        grad = grad.T.copy()
        # Edge block c (I - (w z^T + z w^T) / (2 mu q)); at w = c z it is the
        # barrier's own Hessian, and it is positive definite while ||w|| < lam.
        cross = w_cols[:, None] * z_cols[None]
        edge = np.zeros((m, m, n - 1))
        edge.reshape(m * m, n - 1)[:: m + 1] = c   # c I: entry (i, i) is row i (m + 1)
        edge -= (c / (2.0 * mu * q)) * (cross + cross.transpose(1, 0, 2))
        diag = np.empty((m, m, n))
        diag[:, :, 0] = fit_hess[:, :, 0]
        np.add(fit_hess[:, :, 1:], edge, out=diag[:, :, 1:])
        diag[:, :, :-1] += edge
        fact = factor_block_tridiag(diag.transpose(2, 0, 1), (-edge).transpose(2, 0, 1))
        step = -banded_solve(fact, grad[:, :, None])[:, :, 0]
        dz = step[1:] - step[:-1]
        along = c / (mu * q) * (z * dz).sum(axis=1)
        dw = c * (dz.T + z_cols) - w_cols - along * w_cols
        return step.reshape(n, d, p), -float((grad * step).sum()), dw.T.copy(), value

    start = np.zeros((n, d, p))
    blocks, best_obj, gap = _certify(start, _residual(start, vt, yt), vt, gram, two_v, lam)
    best = blocks
    history = [best_obj]
    # Start the path where the barrier's duality gap, 2 (N-1) mu, matches the
    # start's certified one (positive whenever the loop runs).
    mu = gap * best_obj / (2.0 * (n - 1))
    w = np.zeros((n - 1, m))
    iterations = 0
    while gap > _TOL and iterations < _MAX_ITER:
        try:
            step, decrement, dw, value = newton_step(blocks, mu, w)
        except NumericalError:
            break   # the Newton system lost definiteness in rounding at a very small mu
        iterations += 1
        w += _dual_step(w, dw, lam) * dw
        t = 1.0
        while t >= _MIN_STEP:
            trial = blocks + t * step
            trial_value, residual, _, _ = barrier(trial, mu)
            if not trial_value > value - _ARMIJO * t * decrement:
                break
            t *= 0.5
        if t >= _MIN_STEP:
            blocks, obj, obj_gap = _certify(trial, residual, vt, gram, two_v, lam)
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
            "converged": gap <= _TOL,
            "gap": gap,
            "iterations": iterations,
            "objective": history,
        },
    )
