"""Time-varying eigensystem realization from multi-experiment data.

The classical realization pipeline, specialized to full-state measurement:

1. estimate time-varying Markov parameters by regressing, across experiments,
   each state x(k) on a window [x(k-w); u(k-w) .. u(k-1)] with w = s + r - 1;
2. assemble, per step, the generalized Hankel matrix whose (i, j) block is
   the Markov parameter mapping u(k-1-j) to x(k+i);
3. factor it by a rank-p truncated SVD into observability and controllability
   factors;
4. extract the step transition from the shifted observability factors and the
   input map from the controllability factor;
5. align the step-local coordinate frames through the full-state output map
   (the leading block row of the observability factor), which makes the
   realized matrices directly comparable to the true ones.

Steps too close to the data boundary for a full Hankel window fall back to a
direct per-step regression over the experiments.  Every stage runs on all
steps at once: each per-step regression is one :func:`stacked_lstsq` call,
with the rank test the per-step fit uses, and the Hankel matrices are
factored by one stacked SVD.  Data requirements: at least p + w*q
experiments, full rank at every window; the free-response runs provide
initial-state variation, the forced runs input variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..exceptions import ExcitationError, RealizationError
from ..models import LtvModel
from .regression import _stack_all, stacked_lstsq, trajectories_of

# A Hankel spectrum whose p-th singular value falls below this fraction of the
# largest (or whose largest falls below it times the state/input scale) has
# collapsed below the state dimension.
SVD_GAP_RTOL = 1e-8


@dataclass(frozen=True)
class TveraConfig:
    hankel_rows: int = 3      # s, block rows of the Hankel matrices
    hankel_cols: int = 3      # r, block columns

    def __post_init__(self):
        if self.hankel_rows < 2:
            raise ValueError("need at least two Hankel block rows to shift")
        if self.hankel_cols < 1:
            raise ValueError("need at least one Hankel block column")


def tvera_fit(experiments, cfg: TveraConfig = TveraConfig()) -> LtvModel:
    """Realize a time-indexed (A(k), B(k)) sequence from experiment data.

    ``experiments`` is a dataset or list of trajectories from repeated runs
    of the same plant.  Raises ``ExcitationError`` when the experiments are
    too few or rank-deficient at some step, and ``RealizationError`` when a
    Hankel spectrum collapses below the state dimension or a frame is
    singular; each names the first failing step.
    """
    trajs = trajectories_of(experiments)
    v, xn = _stack_all(trajs)
    n, ell, _ = v.shape
    p = xn.shape[2]
    q = v.shape[2] - p
    s, r = cfg.hankel_rows, cfg.hankel_cols
    w = s + r - 1
    if r * q < p:
        raise ValueError("Hankel columns too few for the state dimension")
    if n < w + s:
        raise ValueError(f"trajectories too short for a {s}x{r} Hankel window")
    if ell < p + w * q:
        raise ExcitationError(
            f"window regression needs at least {p + w * q} experiments, got {ell}"
        )
    inputs = v[:, :, p:]                  # (N, L, q)
    input_peak = float(np.max(np.abs(inputs)))
    if input_peak == 0.0:
        raise ExcitationError("realization needs forced experiments with nonzero inputs")

    # Markov parameter estimates for the windows ending at k = w..N:
    # markov[k - w, i] maps u(k-w+i) to x(k).
    windows = sliding_window_view(inputs, w, axis=0)          # (N-w+1, L, q, w)
    u_win = windows.transpose(0, 1, 3, 2).reshape(n - w + 1, ell, w * q)
    reg = np.concatenate([v[: n - w + 1, :, :p], u_win], axis=2)
    coef = stacked_lstsq(reg, xn[w - 1 :], range(w, n + 1), "Markov window at step")
    markov = coef[:, p:].transpose(0, 2, 1).reshape(-1, p, w, q).transpose(0, 2, 1, 3)

    # Hankel matrices at k = lo..hi+1: block (i, j) is the parameter mapping
    # u(k-1-j) into x(k+i), at window offset w-(i+j+1).
    lo, hi = w, n - s          # steps identified through the Hankel pipeline
    i, j = np.ogrid[:s, :r]
    step = np.arange(hi - lo + 2)[:, None, None] + i
    hankel = markov[step, w - (i + j + 1)].transpose(0, 1, 3, 2, 4)
    u_svd, sing, vt = np.linalg.svd(
        hankel.reshape(-1, s * p, r * q), full_matrices=False
    )

    # Degeneracy reference: a realizable input-to-state map has Hankel
    # singular values comparable to the state/input magnitude ratio, so an
    # all-but-vanishing spectrum at that scale is ill-posed regardless of the
    # relative gap.
    state_peak = max(np.max(np.abs(v[0, :, :p])), np.max(np.abs(xn)))   # x(0), x(1..N)
    signal_scale = float(state_peak) / input_peak
    collapsed = np.flatnonzero(
        (sing[:, 0] <= SVD_GAP_RTOL * signal_scale)
        | (sing[:, p - 1] < SVD_GAP_RTOL * sing[:, 0])
    )
    if collapsed.size:
        raise RealizationError(
            f"Hankel spectrum at step {lo + collapsed[0]} collapses below order {p}"
        )
    sq = np.sqrt(sing[:, :p])
    obs = u_svd[:, :, :p] * sq[:, None, :]
    ctrl = sq[:, :, None] * vt[:, :p, :]
    frames = obs[:, :p]         # full-state output map = frame at each step

    # Observability factors in the data coordinates, O_k T_k^{-1}, solved as
    # T_k^T X = O_k^T; their leading block is the identity.
    try:
        obs_data = stacked_lstsq(
            frames.transpose(0, 2, 1), obs.transpose(0, 2, 1), range(lo, hi + 2), "frame at step"
        ).transpose(0, 2, 1)
    except ExcitationError as exc:   # a singular frame, not missing data
        raise RealizationError(str(exc)) from exc
    A = np.empty((n, p, p))
    B = np.empty((n, p, q))
    # Shifted observability: rows 1..s-1 of O_k equal O_{k+1}^{(s-1)} A(k).
    A[lo : hi + 1] = stacked_lstsq(
        obs_data[1:, : (s - 1) * p], obs_data[:-1, p:], range(lo, hi + 1),
        "shifted observability at step",
    )
    B[lo : hi + 1] = frames[1:] @ ctrl[1:, :, :q]

    # Boundary steps: direct per-step regression across experiments.
    edge = np.r_[:lo, hi + 1 : n]
    coef = stacked_lstsq(v[edge], xn[edge], edge, "boundary step")
    A[edge] = coef[:, :p].transpose(0, 2, 1)
    B[edge] = coef[:, p:].transpose(0, 2, 1)

    return LtvModel(
        A=A,
        B=B,
        dt=trajs[0].dt,
        method="tvera",
        hyperparams={"hankel_rows": s, "hankel_cols": r, "order": p},
        info={"identified_range": [int(lo), int(hi)], "n_experiments": ell},
    )
