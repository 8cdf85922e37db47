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
direct per-step regression over the experiments.  Data requirements: enough
experiments to make the window regression and the Hankel factorization full
rank; the free-response runs provide initial-state variation, the forced runs
input variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ExcitationError, RealizationError
from ..models import LtvModel
from .regression import _stack_all, trajectories_of

# A Hankel spectrum whose p-th singular value falls below this fraction of the
# largest (or whose largest falls below it times the state/input scale) has
# collapsed below the state dimension.
SVD_GAP_RTOL = 1e-8


@dataclass(frozen=True)
class TveraConfig:
    hankel_rows: int = 3      # s, block rows of the Hankel matrices
    hankel_cols: int = 3      # r, block columns
    n_free: int = 4           # free-response experiments the fit expects
    n_forced: int = 10        # forced (random-input) experiments the fit expects

    def __post_init__(self):
        if self.hankel_rows < 2:
            raise ValueError("need at least two Hankel block rows to shift")
        if self.hankel_cols < 1:
            raise ValueError("need at least one Hankel block column")


def _markov_window(states, inputs, k: int, w: int):
    """Regressor rows [x(k-w), u(k-w..k-1)] across experiments, targets x(k)."""
    x_back = states[:, k - w, :]
    u_win = inputs[:, k - w : k, :].reshape(states.shape[0], -1)
    return np.concatenate([x_back, u_win], axis=1), states[:, k, :]


def _lstsq_full_rank(a, b, context):
    coef, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < a.shape[1]:
        raise ExcitationError(
            f"experiments are rank-deficient for {context} "
            f"(rank {rank} < {a.shape[1]})"
        )
    return coef


def tvera_fit(experiments, cfg: TveraConfig = TveraConfig()) -> LtvModel:
    """Realize a time-indexed (A(k), B(k)) sequence from experiment data.

    ``experiments`` is a dataset or list of trajectories from repeated runs
    of the same plant.  Raises when fewer experiments are supplied than the
    configuration requires, or when the Hankel spectra collapse below the
    state dimension.
    """
    trajs = trajectories_of(experiments)
    required = cfg.n_free + cfg.n_forced
    if len(trajs) < required:
        raise ExcitationError(
            f"realization needs {required} experiments "
            f"({cfg.n_free} free + {cfg.n_forced} forced), got {len(trajs)}"
        )
    v, xn = _stack_all(trajs)
    n = v.shape[0]
    p = xn.shape[2]
    q = v.shape[2] - p
    s, r = cfg.hankel_rows, cfg.hankel_cols
    w = s + r - 1
    if r * q < p:
        raise ValueError("Hankel columns too few for the state dimension")
    if n < w + s:
        raise ValueError(f"trajectories too short for a {s}x{r} Hankel window")
    if len(trajs) < p + w * q:
        raise ExcitationError(
            f"window regression needs at least {p + w * q} experiments, got {len(trajs)}"
        )

    states = np.stack([t.states for t in trajs], axis=0)   # (L, N+1, p)
    inputs = np.stack([t.inputs for t in trajs], axis=0)   # (L, N, q)

    # Markov parameter estimates: markov[k, i] maps u(k-w+i) to x(k).
    markov = np.zeros((n + 1, w, p, q))
    for k in range(w, n + 1):
        reg, target = _markov_window(states, inputs, k, w)
        coef = _lstsq_full_rank(reg, target, f"Markov window at step {k}")
        markov[k] = coef[p:, :].T.reshape(p, w, q).transpose(1, 0, 2)

    def hankel(k):
        h = np.empty((s * p, r * q))
        for i in range(s):
            for j in range(r):
                # parameter mapping u(k-1-j) into x(k+i): window offset w-(i+j+1)
                h[i * p : (i + 1) * p, j * q : (j + 1) * q] = markov[k + i, w - (i + j + 1)]
        return h

    # Degeneracy reference: a realizable input-to-state map has Hankel
    # singular values comparable to the state/input magnitude ratio, so an
    # all-but-vanishing spectrum at that scale is ill-posed regardless of the
    # relative gap.
    input_peak = float(np.max(np.abs(inputs)))
    if input_peak == 0.0:
        raise ExcitationError("realization needs forced experiments with nonzero inputs")
    signal_scale = float(np.max(np.abs(states))) / input_peak

    def factors(k):
        h = hankel(k)
        u_svd, sing, vt = np.linalg.svd(h, full_matrices=False)
        if (
            sing[0] <= SVD_GAP_RTOL * signal_scale
            or sing[p - 1] / sing[0] < SVD_GAP_RTOL
        ):
            raise RealizationError(
                f"Hankel spectrum at step {k} collapses below order {p}"
            )
        sq = np.sqrt(sing[:p])
        obs = u_svd[:, :p] * sq[None, :]
        ctrl = sq[:, None] * vt[:p, :]
        return obs, ctrl

    A = np.empty((n, p, p))
    B = np.empty((n, p, q))
    lo, hi = w, n - s          # steps identified through the Hankel pipeline
    obs_k, _ = factors(lo)
    for k in range(lo, hi + 1):
        obs_next, ctrl_next = factors(k + 1)
        # Shifted observability: rows 1..s-1 of O_k equal O_{k+1}^{(s-1)} A(k)
        # expressed in the step-k frame.
        a_frame = np.linalg.lstsq(
            obs_next[: (s - 1) * p], obs_k[p : s * p], rcond=None
        )[0]
        t_k = obs_k[:p]          # full-state output map = frame at step k
        t_next = obs_next[:p]
        try:
            t_k_inv = np.linalg.inv(t_k)
        except np.linalg.LinAlgError as exc:
            raise RealizationError(f"singular frame at step {k}") from exc
        A[k] = t_next @ a_frame @ t_k_inv
        B[k] = t_next @ ctrl_next[:, :q]
        obs_k = obs_next

    # Boundary steps: direct per-step regression across experiments.
    for k in list(range(lo)) + list(range(hi + 1, n)):
        coef = _lstsq_full_rank(v[k], xn[k], f"boundary step {k}")
        A[k] = coef[:p].T
        B[k] = coef[p:].T

    return LtvModel(
        A=A,
        B=B,
        dt=trajs[0].dt,
        method="tvera",
        hyperparams={
            "hankel_rows": s,
            "hankel_cols": r,
            "order": p,
            "n_free": cfg.n_free,
            "n_forced": cfg.n_forced,
        },
        info={"identified_range": [int(lo), int(hi)], "n_experiments": len(trajs)},
    )
