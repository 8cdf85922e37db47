"""Model rollouts and the trajectory prediction loss.

A set of trajectories is scored in one batched rollout: the set is stacked
(all trajectories must share N, p and q) and its L states advance together,
one Python step per time step.  The loss functions also take a sequence of
G models (a tuning grid); their G * L states advance together the same way,
and each model's losses are byte-identical to scoring it alone.
"""

from __future__ import annotations

import numpy as np

from ..models import LtvModel
from .regression import _stack_all, trajectories_of


# Steps per stacked copy of the models' A matrices: bounds the copy's memory
# on long records (9 models x 5000 steps would take 1.4 MB at once).
_A_CHUNK = 512


def _rollouts(models, x0, inputs) -> np.ndarray:
    """States (N+1, G, L, p) of G models from the (L, p) states ``x0`` under
    the (N, L, q) ``inputs``, written in place: B u first, then A x added."""
    n = inputs.shape[0]
    for model in models:
        if n > model.n_steps:
            raise ValueError(f"model covers {model.n_steps} steps, got {n} inputs")
    states = np.empty((n + 1, len(models)) + x0.shape)
    states[0] = x0
    for g, model in enumerate(models):
        np.matvec(model.B[:n, None], inputs, out=states[1:, g])
    # np.matvec computes each row exactly as ``A[k] @ x`` does, so the
    # batched rollout is byte-identical to one trajectory at a time.
    for start in range(0, n, _A_CHUNK):
        A = np.stack([model.A[start : start + _A_CHUNK] for model in models], axis=1)
        for k, A_k in enumerate(A[:, :, None], start):
            states[k + 1] += np.matvec(A_k, states[k])
    return states


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
    states = _rollouts([model], x0, inputs)[:, 0]
    return states[:, 0] if single else states


def rollout_residuals(model: LtvModel, data) -> np.ndarray:
    """Predicted minus recorded states at steps k = 1..N, shape (N, L, p).

    Every trajectory is predicted from its own initial state; a ragged set
    raises ``ValueError``.
    """
    v, next_states = _stack_all(trajectories_of(data))
    p = next_states.shape[2]
    return predict_rollout(model, v[0, :, :p], v[:, :, p:])[1:] - next_states


def per_trajectory_losses(model, data) -> np.ndarray:
    """Rollout RMSE per trajectory, predicting from the initial state.

    For each trajectory: sqrt of the mean over steps k = 1..N of the squared
    state residual summed over components (the component sum is not averaged).
    ``model`` is one model, giving shape (L,), or a sequence of G models that
    cover the N steps, giving (G, L).
    """
    models = [model] if isinstance(model, LtvModel) else list(model)
    v, next_states = _stack_all(trajectories_of(data))
    n, ell, p = next_states.shape
    states = _rollouts(models, v[0, :, :p], v[:, :, p:])
    residuals = states[1:]
    residuals -= next_states[:, None]
    losses = np.empty((len(models), ell))
    for g in range(len(models)):
        # One contiguous row per trajectory sums in the same order as a flat
        # sum over that trajectory alone.
        rows = np.ascontiguousarray(residuals[:, g].transpose(1, 0, 2)).reshape(ell, -1)
        losses[g] = np.sqrt(np.sum(np.square(rows, out=rows), axis=1) / n)
    return losses[0] if isinstance(model, LtvModel) else losses


def trajectory_prediction_loss(model, data):
    """Per-trajectory rollout RMSE averaged over the trajectory set.

    A float for one model; for a sequence of models, an array of one loss
    per model (see :func:`per_trajectory_losses`).
    """
    losses = np.mean(per_trajectory_losses(model, data), axis=-1)
    return float(losses) if isinstance(model, LtvModel) else losses
