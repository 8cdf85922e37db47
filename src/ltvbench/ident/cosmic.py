"""Closed-form smoothed LTV identification (the cosmic fit).

The fit minimizes, over the per-step parameter blocks C(k) = [A(k)^T; B(k)^T],

    f(C) = 1/(2N) * sum_k ||V(k) C(k) - X'(k)||_F^2
         + 1/2     * sum_{k=1}^{N-1} lam ||C(k) - C(k-1)||_F^2

where row l of V(k) is [x_l(k)^T u_l(k)^T] and X'(k) stacks the states at
k+1.  The objective is strictly convex whenever the stacked state/input rows
span the regressor space, and its normal equations are block tridiagonal:

    (G(k) + (lam + lam) I) C(k) - lam C(k-1) - lam C(k+1) = R(k)

with G(k) = V(k)^T V(k) / N and R(k) = V(k)^T X'(k) / N, where the end
steps k = 0 and N-1 have one neighbour and carry lam I once.
The solver factors them with a banded Cholesky in O(N (p+q)^3), i.e. linear
in the number of time steps, and takes one refinement sweep on the residual.

Ill-conditioned data is handled by an exact diagonal preconditioning: the
system is solved in per-channel standardized variables and mapped back, which
changes the arithmetic but not the minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import InputError
from ..models import LtvModel
from .regression import _check_rows, _stack_all, trajectories_of
from .tridiag import solve_block_tridiag


@dataclass(frozen=True)
class CosmicConfig:
    """Uniform smoothing strength and the single-trajectory switch."""

    lam: float = 1.0
    single_trajectory: bool = False

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise InputError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class CosmicProblem:
    """What every cosmic fit on one training set shares: the standardized
    Gram blocks and right-hand sides of the normal equations, the channel
    scales and the excitation rank.  Only the banded solve depends on lam.

    Build it with :func:`cosmic_problem`; it holds no regressor rows.
    """

    gram: np.ndarray           # (N, d, d), standardized G(k)
    rhs: np.ndarray            # (N, d, p), standardized R(k)
    scales: np.ndarray         # (d,), 1 / channel std (1 for a flat channel)
    zero_variance: tuple       # indices of the flat channels
    rank: int
    n_trajectories: int
    dt: float
    single_trajectory: bool


def cosmic_problem(data, single_trajectory: bool = False) -> CosmicProblem:
    """The lam-independent set-up of :func:`cosmic_fit` on ``data``.

    Raises :class:`ExcitationError` when the stacked state/input rows do not
    span the regressor space (no unique minimizer exists).
    """
    trajs = trajectories_of(data)
    if single_trajectory:
        trajs = trajs[:1]
    v, xn = _stack_all(trajs)
    rank = _check_rows(v)
    n, _, d = v.shape

    # Exact change of variables: standardize regressor channels, solve the
    # transformed (better conditioned) system, map back.  The solution is the
    # raw-objective minimizer either way.
    # A channel whose std is rounding noise on its magnitude (a constant
    # input, or all zeros) counts as zero-variance and keeps scale 1.
    rows = v.reshape(-1, d)
    stds = rows.std(axis=0)
    flat = stds <= 1e-12 * np.sqrt(np.mean(rows**2, axis=0))
    scales = 1.0 / np.where(flat, 1.0, stds)

    vs = v * scales[None, None, :]
    gram = np.einsum("kli,klj->kij", vs, vs) / n
    rhs = np.einsum("kli,klp->kip", vs, xn) / n
    for arr in (gram, rhs, scales):
        arr.flags.writeable = False   # shared by every fit of a tuning grid
    return CosmicProblem(
        gram=gram,
        rhs=rhs,
        scales=scales,
        zero_variance=tuple(int(i) for i in np.flatnonzero(flat)),
        rank=rank,
        n_trajectories=len(trajs),
        dt=trajs[0].dt,
        single_trajectory=single_trajectory,
    )


def cosmic_fit(data, cfg: CosmicConfig = CosmicConfig()) -> LtvModel:
    """Exact minimizer of the smoothed identification objective.

    ``data`` is a dataset, a trajectory list, or a single trajectory; with
    ``cfg.single_trajectory`` only the first trajectory is used.  It may also
    be a :class:`CosmicProblem` built once for several fits (a tuning grid),
    which gives the same model as the data it was built from.  Raises
    :class:`ExcitationError` when the stacked state/input rows do not span
    the regressor space (no unique minimizer exists).
    """
    if isinstance(data, CosmicProblem):
        problem = data
        if problem.single_trajectory != cfg.single_trajectory:
            raise ValueError("problem and config disagree on single_trajectory")
    else:
        problem = cosmic_problem(data, cfg.single_trajectory)
    scales = problem.scales
    _, d, p = problem.rhs.shape
    blocks = solve_block_tridiag(problem.gram, float(cfg.lam), problem.rhs, weight=scales**2)
    blocks = blocks * scales[:, None]

    return LtvModel.from_stacked(
        blocks,
        q=d - p,
        dt=problem.dt,
        method="cosmic-single" if cfg.single_trajectory else "cosmic",
        hyperparams={"lam": float(cfg.lam)},
        preconditioning={
            "state_scale": scales[:p].tolist(),
            "input_scale": scales[p:].tolist(),
            "zero_variance": list(problem.zero_variance),
        },
        info={"excitation_rank": problem.rank, "n_trajectories": problem.n_trajectories},
    )


def cosmic_objective(model: LtvModel, data, lam: float) -> tuple:
    """(total, fidelity, smoothness) of the identification objective.

    fidelity   = 1/(2N) sum_k ||V(k) C(k) - X'(k)||_F^2
    smoothness = lam/2  sum_{k>=1} ||C(k) - C(k-1)||_F^2
    """
    trajs = trajectories_of(data)
    v, xn = _stack_all(trajs)
    n = v.shape[0]
    blocks = model.stacked()
    if blocks.shape[0] != n:
        raise ValueError(
            f"model covers {blocks.shape[0]} steps but data has {n}"
        )
    residual = np.einsum("kli,kip->klp", v, blocks) - xn
    fidelity = float(np.sum(residual**2)) / (2.0 * n)
    diffs = blocks[1:] - blocks[:-1]
    smoothness = 0.5 * float(lam) * float(np.sum(diffs**2))
    return fidelity + smoothness, fidelity, smoothness
