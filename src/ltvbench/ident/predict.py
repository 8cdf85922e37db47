"""Model rollouts and the trajectory prediction loss.

A set of trajectories is scored in one batched rollout: the set is stacked
(all trajectories must share N, p and q) and its L states advance together,
one Python step per time step.
"""

from __future__ import annotations

import numpy as np

from ..models import LtvModel
from .regression import _stack_all, trajectories_of


def predict_rollout(model: LtvModel, x0, inputs) -> np.ndarray:
    """Iterate x(k+1) = A(k) x(k) + B(k) u(k) from x0 over a stack of trajectories.

    ``x0`` of shape (L, p) with ``inputs`` of shape (N, L, q) returns the
    states (N+1, L, p).  A single trajectory, ``x0`` (p,) with ``inputs``
    (N, q) (or (N,) when q = 1), is the L = 1 case and returns (N+1, p).
    """
    x0 = np.asarray(x0, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    single = x0.ndim == 1
    if single:
        x0, inputs = x0[None], inputs[:, None]
    n = inputs.shape[0]
    if n > model.n_steps:
        raise ValueError(f"model covers {model.n_steps} steps, got {n} inputs")
    # np.matvec computes each row exactly as ``A[k] @ x`` does, so the
    # batched rollout is byte-identical to one trajectory at a time.
    bu = np.matvec(model.B[:n, None], inputs)
    states = np.empty((n + 1,) + x0.shape)
    states[0] = x0
    for k in range(n):
        states[k + 1] = np.matvec(model.A[k], states[k]) + bu[k]
    return states[:, 0] if single else states


def rollout_residuals(model: LtvModel, data) -> np.ndarray:
    """Predicted minus recorded states at steps k = 1..N, shape (N, L, p).

    Every trajectory is predicted from its own initial state; a ragged set
    raises ``ValueError``.
    """
    v, next_states = _stack_all(trajectories_of(data))
    p = next_states.shape[2]
    return predict_rollout(model, v[0, :, :p], v[:, :, p:])[1:] - next_states


def per_trajectory_losses(model: LtvModel, data) -> np.ndarray:
    """Rollout RMSE per trajectory, predicting from the initial state.

    For each trajectory: sqrt of the mean over steps k = 1..N of the squared
    state residual summed over components (the component sum is not averaged).
    """
    residual = rollout_residuals(model, data)
    n, ell, _ = residual.shape
    # One contiguous row per trajectory sums in the same order as a flat sum
    # over that trajectory alone.
    rows = np.ascontiguousarray(residual.transpose(1, 0, 2)).reshape(ell, -1)
    return np.sqrt(np.sum(rows**2, axis=1) / n)


def trajectory_prediction_loss(model: LtvModel, data) -> float:
    """Per-trajectory rollout RMSE averaged over the trajectory set."""
    return float(np.mean(per_trajectory_losses(model, data)))
