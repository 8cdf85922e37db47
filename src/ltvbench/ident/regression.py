"""Regressor assembly, excitation checks, and least-squares fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datagen import Dataset
from ..dynamics import Trajectory
from ..exceptions import ExcitationError, NumericalError
from ..models import LtvModel

RANK_RTOL = 1e-10


def trajectories_of(data) -> list:
    """Normalize a Dataset / Trajectory / sequence of trajectories to a list."""
    if isinstance(data, Dataset):
        return list(data.trajectories)
    if isinstance(data, Trajectory):
        return [data]
    trajs = list(data)
    if not trajs:
        raise ValueError("no trajectories supplied")
    return trajs


def _stack_all(trajs) -> tuple:
    """All regressor/target blocks at once: V (N, L, p+q) and Xnext (N, L, p)."""
    n = trajs[0].n_steps
    p, q = trajs[0].p, trajs[0].q
    for traj in trajs:
        if traj.n_steps != n or traj.p != p or traj.q != q:
            raise ValueError(
                f"ragged trajectories: expected N={n}, p={p}, q={q}, "
                f"got N={traj.n_steps}, p={traj.p}, q={traj.q}"
            )
    states = np.stack([t.states for t in trajs], axis=1)   # (N+1, L, p)
    inputs = np.stack([t.inputs for t in trajs], axis=1)   # (N, L, q)
    v = np.concatenate([states[:-1], inputs], axis=2)
    return v, states[1:]


@dataclass(frozen=True)
class ExcitationReport:
    rank: int
    required: int
    satisfied: bool
    singular_values: tuple


def check_excitation(data) -> ExcitationReport:
    """Rank of all stacked state/input rows; identification needs rank p+q."""
    trajs = trajectories_of(data)
    v, _ = _stack_all(trajs)
    d = v.shape[2]
    rows = v.reshape(-1, d)
    s = np.linalg.svd(rows, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(s > RANK_RTOL * s[0]))
    return ExcitationReport(
        rank=rank, required=d, satisfied=rank == d, singular_values=tuple(s.tolist())
    )


def _rank_deficient(rmat: np.ndarray) -> np.ndarray:
    """Relative rank test on the diagonal of each triangular QR factor in a stack."""
    diag = np.abs(np.diagonal(rmat, axis1=-2, axis2=-1))
    top = diag.max(axis=-1, initial=0.0)
    return (top == 0.0) | (diag.min(axis=-1, initial=np.inf) < RANK_RTOL * top)


def stacked_lstsq(v: np.ndarray, y: np.ndarray, steps, context: str) -> np.ndarray:
    """Least squares for every step of a stack: ``v`` (K, L, d), ``y`` (K, L, p)
    to the (K, d, p) solutions, with L >= d.

    One stacked QR, then one ``np.linalg.solve`` on the triangular factors (an
    LU of an upper-triangular factor does no pivoting).  A factor that fails
    the relative rank test raises ``ExcitationError``, and then a non-finite
    factor or projected target ``NumericalError``; each names its first step
    as ``{context} {steps[i]}``.
    """
    qmat, rmat = np.linalg.qr(v)
    deficient = _rank_deficient(rmat)
    if deficient.any():
        bad = steps[np.argmax(deficient)]
        raise ExcitationError(f"rank-deficient regressors for {context} {bad}")
    qty = qmat.transpose(0, 2, 1) @ y
    finite = np.isfinite(rmat).all(axis=(1, 2)) & np.isfinite(qty).all(axis=(1, 2))
    if not finite.all():
        bad = steps[np.argmin(finite)]
        raise NumericalError(f"non-finite regressors or targets for {context} {bad}")
    return np.linalg.solve(rmat, qty)


def perstep_ls_fit(data) -> LtvModel:
    """Independent per-step least squares (the unsmoothed reference fit).

    Requires at least p+q trajectories with full-rank regressors at every step.
    """
    trajs = trajectories_of(data)
    v, xn = _stack_all(trajs)
    n, ell, d = v.shape
    if ell < d:
        raise ExcitationError(
            f"per-step fit needs at least {d} trajectories, got {ell}"
        )
    blocks = stacked_lstsq(v, xn, range(n), "time step")
    return LtvModel.from_stacked(blocks, q=trajs[0].q, dt=trajs[0].dt, method="perstep")


def lti_fit(data) -> LtvModel:
    """The constant model whose single (A, B) minimizes the pooled squared
    residuals over all steps."""
    trajs = trajectories_of(data)
    v, xn = _stack_all(trajs)
    d = v.shape[2]
    p = xn.shape[2]
    block = stacked_lstsq(
        v.reshape(1, -1, d), xn.reshape(1, -1, p), ["fit"], "pooled time-invariant"
    )[0]
    return LtvModel.from_constant(
        block[:p].T, block[p:].T, trajs[0].n_steps, trajs[0].dt, method="lti"
    )
