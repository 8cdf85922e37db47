"""Model rollouts and the trajectory prediction loss.

:func:`rollout_residuals` is the one rollout against recorded data: the
trajectory set is stacked (all trajectories must share N, p and q) and the
G * L states of G models on its L trajectories advance together, one Python
step per time step.  Each model's residuals are byte-identical to rolling it
out alone.  A tuning grid, and each scenario's test split, is scored in one
such stacked rollout: the losses are a reduction of its residuals.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import InputError
from ..models import LtvModel
from .regression import _stack_all, trajectories_of


# Steps per stacked copy of the models' A matrices: bounds the copy's memory
# on long records (9 models x 5000 steps would take 1.4 MB at once).
_A_CHUNK = 512


def rollout_residuals(models, data) -> np.ndarray:
    """Predicted minus recorded states at steps k = 1..N of G ``models``,
    shape (N, G, L, p).

    Every trajectory is predicted from its own initial state; a ragged set,
    or a model that covers fewer than N steps or has other p or q than the
    data, raises ``InputError``.  The states are written in place: B u first,
    then A x added.
    """
    models = list(models)
    v, next_states = _stack_all(trajectories_of(data))
    n, ell, p = next_states.shape
    for model in models:
        if n > model.n_steps:
            raise InputError(f"model covers {model.n_steps} steps, got {n} inputs")
        if (model.p, model.q) != (p, v.shape[2] - p):
            raise InputError(
                f"model has p={model.p} and q={model.q}, the data p={p} and q={v.shape[2] - p}"
            )
    states = np.empty((n + 1, len(models), ell, p))
    states[0] = v[0, :, :p]
    for g, model in enumerate(models):
        np.matvec(model.B[:n, None], v[:, :, p:], out=states[1:, g])
    # np.matvec computes each row exactly as ``A[k] @ x`` does, so the
    # batched rollout is byte-identical to one trajectory at a time.
    for start in range(0, n, _A_CHUNK):
        A = np.stack([model.A[start : start + _A_CHUNK] for model in models], axis=1)
        for k, A_k in enumerate(A[:, :, None], start):
            states[k + 1] += np.matvec(A_k, states[k])
    residuals = states[1:]
    residuals -= next_states[:, None]
    return residuals


def per_trajectory_losses(model, data) -> np.ndarray:
    """Rollout RMSE per trajectory, predicting from the initial state.

    For each trajectory: sqrt of the mean over steps k = 1..N of the squared
    state residual summed over components (the component sum is not averaged).
    ``model`` is one model, giving shape (L,), or a sequence of G models that
    cover the N steps, giving (G, L).
    """
    residuals = rollout_residuals([model] if isinstance(model, LtvModel) else model, data)
    n, g, ell, p = residuals.shape
    # One contiguous row per trajectory sums in the same order as a flat sum
    # over that trajectory alone.
    rows = np.ascontiguousarray(residuals.transpose(1, 2, 0, 3)).reshape(g, ell, n * p)
    losses = np.sqrt(np.sum(np.square(rows, out=rows), axis=-1) / n)
    return losses[0] if isinstance(model, LtvModel) else losses


def trajectory_prediction_loss(model, data):
    """Per-trajectory rollout RMSE averaged over the trajectory set.

    A float for one model; for a sequence of models, an array of one loss
    per model (see :func:`per_trajectory_losses`).
    """
    losses = np.mean(per_trajectory_losses(model, data), axis=-1)
    return float(losses) if isinstance(model, LtvModel) else losses
