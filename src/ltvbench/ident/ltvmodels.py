"""Single-trajectory LTV identification with a group (non-squared) difference penalty.

Minimizes, over the per-step blocks C(t) stacked as k_t = vec(C(t)),

    sum_t ||x(t+1) - C(t)^T [x(t); u(t)]||_2^2  +  lam * sum_t ||k_{t+1} - k_t||_2

The non-squared penalty promotes piecewise-constant parameter paths.  The
solver is an operator-splitting (ADMM) scheme on the split z_t = k_{t+1} - k_t:
a block-tridiagonal quadratic solve alternates with the exact group-norm
proximal step (block soft-threshold), plus a scaled dual update.  The
quadratic subproblem's matrix is fixed, so it is factored once and reused.

ADMM iterates are not monotone in the objective, so the solver tracks the
best iterate seen and returns it; ``info["objective"]`` records that
incumbent objective path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ExcitationError
from ..models import LtvModel
from .regression import _stack_all, check_excitation, trajectories_of
from .tridiag import banded_factor, banded_solve


@dataclass(frozen=True)
class LtvModelsConfig:
    lam: float = 1.0
    rho: float | None = None  # splitting penalty; default max(1, lam)
    max_iter: int = 2000
    tol: float = 1e-8         # relative objective-change stopping tolerance

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.rho is not None and not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")
        if self.max_iter < 1:
            raise ValueError("need at least one iteration")

    @property
    def effective_rho(self) -> float:
        # The dual update must compete with the lam-weighted penalty, so the
        # splitting parameter tracks lam from above.
        return self.rho if self.rho is not None else max(1.0, self.lam)


def _shrink_blocks(v: np.ndarray, tau: float) -> np.ndarray:
    """Block soft-threshold of each v[k], the prox of tau*||.||_2 on a block.

    Zero when ||v[k]|| <= tau, otherwise (1 - tau/||v[k]||) v[k].
    """
    norms = np.sqrt(np.sum(v**2, axis=(1, 2)))
    scale = np.zeros_like(norms)
    np.divide(norms - tau, norms, out=scale, where=norms > tau)
    return scale[:, None, None] * v


def ltvmodels_fit(traj, cfg: LtvModelsConfig = LtvModelsConfig()) -> LtvModel:
    """Fit a smooth-or-jumping LTV model to a single trajectory.

    Accepts a Trajectory (or a dataset, from which the first trajectory is
    taken).  Non-convergence within the iteration cap returns the best
    iterate with ``info["converged"] = False``.
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
    vt = v[:, 0, :]                   # (N, d)
    yt = xn[:, 0, :]                  # (N, p)

    rho = cfg.effective_rho
    gram = 2.0 * vt[:, :, None] * vt[:, None, :]
    rhs0 = 2.0 * vt[:, :, None] * yt[:, None, :]
    lam_vec = np.full(n + 1, rho)
    lam_vec[0] = lam_vec[-1] = 0.0
    fact = banded_factor(gram, lam_vec)

    def objective(blocks, diffs):
        residual = np.einsum("ki,kip->kp", vt, blocks) - yt
        fit = float(np.sum(residual**2))
        return fit + cfg.lam * float(np.sum(np.sqrt(np.sum(diffs**2, axis=(1, 2)))))

    tau = cfg.lam / rho
    z = np.zeros((n - 1, d, p))
    w = np.zeros_like(z)
    best = None
    best_obj = prev_obj = np.inf
    history = []
    raw_history = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        zw = z - w
        rhs = rhs0.copy()
        rhs[:-1] -= rho * zw
        rhs[1:] += rho * zw
        blocks = banded_solve(fact, rhs)
        diffs = blocks[1:] - blocks[:-1]
        z = _shrink_blocks(diffs + w, tau)
        w = w + diffs - z
        obj = objective(blocks, diffs)
        if obj < best_obj:
            best_obj = obj
            best = blocks
        history.append(best_obj)
        raw_history.append(obj)
        if abs(prev_obj - obj) <= cfg.tol * max(1.0, abs(obj)):
            converged = True
            break
        prev_obj = obj

    return LtvModel.from_stacked(
        best,
        q=d - p,
        dt=trajs[0].dt,
        method="ltvmodels",
        hyperparams={"lam": float(cfg.lam), "rho": float(rho)},
        info={
            "converged": converged,
            "iterations": iterations,
            "objective": history,
            "objective_raw": raw_history,
        },
    )
