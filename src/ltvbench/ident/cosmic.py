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

Ill-conditioned data is handled by an exact diagonal preconditioning: the
system is solved in per-channel standardized variables and mapped back, which
changes the arithmetic but not the minimizer; in those variables each lam I
becomes lam W, W = diag(scales)^2.  :func:`solve_block_tridiag` assembles the
system, with the couplings -lam W as full blocks, factors it with the banded
Cholesky of :mod:`.tridiag` in O(N (p+q)^3), i.e. linear in the number of
time steps, and takes one refinement sweep on the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import NumericalError
from ..models import LtvModel
from .regression import _stack_all, check_excitation, check_lam, trajectories_of
from .tridiag import banded_solve, factor_block_tridiag


@dataclass(frozen=True)
class CosmicProblem:
    """What every cosmic fit on one training set shares: the standardized
    Gram blocks and right-hand sides of the normal equations and the channel
    scales.  Only the banded solve depends on lam.

    Build it with :func:`cosmic_problem`; it holds no regressor rows.
    """

    gram: np.ndarray           # (N, d, d), standardized G(k)
    rhs: np.ndarray            # (N, d, p), standardized R(k)
    scales: np.ndarray         # (d,), 1 / channel std (1 for a flat channel)
    zero_variance: tuple       # indices of the flat channels
    n_trajectories: int
    dt: float


def cosmic_problem(data) -> CosmicProblem:
    """The lam-independent set-up of :func:`cosmic_fit` on ``data``.

    Raises :class:`ExcitationError` when the stacked state/input rows do not
    span the regressor space (no unique minimizer exists).
    """
    trajs = trajectories_of(data)
    v, xn = _stack_all(trajs)
    check_excitation(v)
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
        n_trajectories=len(trajs),
        dt=trajs[0].dt,
    )


def _coupling_sums(n: int, lam: float) -> np.ndarray:
    """lam once per neighbour of each of the n blocks: lam + lam inside, lam
    at the two ends, 0 for a lone block."""
    sums = np.zeros(n)
    sums[1:] += lam
    sums[:-1] += lam
    return sums


def apply_block_tridiag(gram, lam, x, weight=None) -> np.ndarray:
    """Multiply the system matrix of :func:`solve_block_tridiag` by stacked blocks ``x``."""
    gram = np.asarray(gram, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = gram.shape[:2]
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    wx = w[None, :, None] * x
    out = np.einsum("kij,kjm->kim", gram, x)
    out += _coupling_sums(n, lam)[:, None, None] * wx
    out[1:] -= lam * wx[:-1]
    out[:-1] -= lam * wx[1:]
    return out


def solve_block_tridiag(gram, lam, rhs, weight=None) -> np.ndarray:
    """Solve the system of the module docstring, W = diag(``weight``) (identity
    by default), for the stacked right-hand sides ``rhs`` (N, d, c).

    One refinement sweep re-solves for the residual of the first solution
    with the same factorization; it recovers accuracy when the coupling
    dwarfs the data blocks (very large lam).  Raises ``ValueError`` when
    ``lam`` is negative, and :class:`NumericalError` when an entry is not
    finite or the system is not positive definite.
    """
    gram = np.asarray(gram, dtype=float)
    n, d, d2 = gram.shape
    if d != d2:
        raise ValueError(f"gram blocks must be square, got {gram.shape}")
    if lam < 0:
        raise ValueError(f"coupling lam must be nonnegative, got {lam}")
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    diag = gram.copy()
    diag[:, np.arange(d), np.arange(d)] += _coupling_sums(n, lam)[:, None] * w
    upper = np.zeros((n - 1, d, d))
    upper[:, np.arange(d), np.arange(d)] = -lam * w
    fact = factor_block_tridiag(diag, upper)
    del diag, upper   # free the blocks before the solves' peak (0.7 MB at N=5000, d=3)
    x = banded_solve(fact, rhs)
    x = x + banded_solve(fact, rhs - apply_block_tridiag(gram, lam, x, weight))
    if not np.all(np.isfinite(x)):
        raise NumericalError("block-tridiagonal solve produced non-finite values")
    return x


def cosmic_fit(data, *, lam: float = 1.0) -> LtvModel:
    """Exact minimizer of the smoothed identification objective at the
    smoothing strength ``lam`` (positive and finite, else ``InputError``).

    ``data`` is a dataset, a trajectory list, or a single trajectory, and
    every trajectory in it is fitted.  It may also be a :class:`CosmicProblem`
    built once for several fits (a tuning grid), which gives the same model
    as the data it was built from.  Raises :class:`ExcitationError` when the
    stacked state/input rows do not span the regressor space (no unique
    minimizer exists).
    """
    lam = check_lam(lam)
    problem = data if isinstance(data, CosmicProblem) else cosmic_problem(data)
    scales = problem.scales
    _, d, p = problem.rhs.shape
    blocks = solve_block_tridiag(problem.gram, lam, problem.rhs, weight=scales**2)
    blocks = blocks * scales[:, None]

    return LtvModel.from_stacked(
        blocks,
        q=d - p,
        dt=problem.dt,
        method="cosmic",
        hyperparams={"lam": lam},
        preconditioning={
            "state_scale": scales[:p].tolist(),
            "input_scale": scales[p:].tolist(),
            "zero_variance": list(problem.zero_variance),
        },
        info={"n_trajectories": problem.n_trajectories},
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
