"""Finite-horizon LQR synthesis and closed-loop reference tracking.

Gains come from the backward dynamic-programming recursion on an identified
(or ground-truth) LTV model; tracking combines error feedback with a
model-based feedforward that makes the reference an approximate equilibrium
trajectory of the model.  Pure error feedback cannot hold a nonzero setpoint
against a spring, hence the feedforward term.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import ScenarioSpec, Trajectory, _rollout
from .exceptions import ExcitationError, SynthesisError
from .files import write_json
from .ident.regression import stacked_lstsq
from .models import LtvModel

GAINS_FORMAT = "gain-schedule/1"
DIVERGENCE_GUARD = 1e6


@dataclass(frozen=True)
class CostWeights:
    """Constant per-step quadratic weights: state Q >= 0, input R > 0, terminal H >= 0."""

    Q: np.ndarray
    R: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        for name, m in (("Q", self.Q), ("R", self.R), ("H", self.H)):
            arr = np.asarray(m, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"{name} must be square, got {arr.shape}")
            if not np.allclose(arr, arr.T):
                raise ValueError(f"{name} must be symmetric")
        if np.any(np.linalg.eigvalsh(self.R) <= 0):
            raise ValueError("R must be positive definite")
        for name, m in (("Q", self.Q), ("H", self.H)):
            if np.any(np.linalg.eigvalsh(m) < -1e-12):
                raise ValueError(f"{name} must be positive semidefinite")


def default_weights() -> CostWeights:
    """Design weights: unit position weight, velocity weight 0.1, input cost
    1e-3, terminal cost equal to the stage state cost."""
    q = np.diag([1.0, 0.1])
    return CostWeights(Q=q, R=np.array([[1e-3]]), H=q)


@dataclass
class GainSchedule:
    """Time-indexed feedback gains plus optional feedforward inputs."""

    K: np.ndarray                    # (N, q, p)
    u_ff: np.ndarray                 # (N, q)
    provenance: str = ""
    cost_to_go: np.ndarray | None = None   # (N+1, p, p) Riccati stack

    def __post_init__(self):
        self.K = np.asarray(self.K, dtype=float)
        self.u_ff = np.asarray(self.u_ff, dtype=float)
        if self.K.ndim != 3:
            raise ValueError(f"K must be (N, q, p), got {self.K.shape}")
        if self.u_ff.shape != (self.K.shape[0], self.K.shape[1]):
            raise ValueError("feedforward shape must match the gain schedule")
        if not np.all(np.isfinite(self.K)) or not np.all(np.isfinite(self.u_ff)):
            raise ValueError("gain schedule must be finite")

    @property
    def n_steps(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class ReferenceSpec:
    """Piecewise-constant position targets (velocity reference is zero).

    ``segments`` is a sequence of (start_time, position) pairs with strictly
    increasing start times beginning at zero; each segment holds until the
    next one starts.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple((float(t), float(z)) for t, z in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ValueError("reference needs at least one segment")
        if abs(segs[0][0]) > 1e-12:
            raise ValueError("first reference segment must start at t=0")
        starts = tuple(t for t, _ in segs)
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment start times must strictly increase")
        object.__setattr__(self, "_starts", starts)

    def position_at(self, t: float) -> float:
        """Position of the last segment starting at or before ``t`` (1e-12 slack)."""
        i = bisect_right(self._starts, t + 1e-12)
        return self.segments[max(i - 1, 0)][1]

    def state_at(self, t: float, p: int = 2) -> np.ndarray:
        """Reference state: target position, zero for the remaining components."""
        x = np.zeros(p)
        x[0] = self.position_at(t)
        return x


def default_reference(horizon: float) -> ReferenceSpec:
    """Alternating +/-1 setpoints, switching every 2 seconds."""
    segments = []
    t = 0.0
    sign = 1.0
    while t < horizon:
        segments.append((t, sign))
        sign = -sign
        t += 2.0
    return ReferenceSpec(segments=tuple(segments))


def lqr_ltv(model: LtvModel, weights: CostWeights) -> GainSchedule:
    """Backward dynamic-programming recursion for the finite-horizon gains.

    P_N = H; then for k = N-1..0:
        K_k = (R + B(k)^T P_{k+1} B(k))^-1 B(k)^T P_{k+1} A(k)
        P_k = Q + K_k^T R K_k + (A(k) - B(k) K_k)^T P_{k+1} (A(k) - B(k) K_k)
    Every P_k is symmetrized; all are PSD by construction.
    """
    n, p, q = model.n_steps, model.p, model.q
    if weights.Q.shape != (p, p) or weights.R.shape != (q, q):
        raise ValueError("weight dimensions do not match the model")
    K = np.empty((n, q, p))
    P_stack = np.empty((n + 1, p, p))
    P = weights.H.copy()
    P_stack[n] = P
    for k in range(n - 1, -1, -1):
        A, B = model.A[k], model.B[k]
        BtP = B.T @ P
        try:
            K[k] = np.linalg.solve(weights.R + BtP @ B, BtP @ A)
        except np.linalg.LinAlgError as exc:
            raise SynthesisError(f"singular input-cost term at step {k}") from exc
        Acl = A - B @ K[k]
        P = weights.Q + K[k].T @ weights.R @ K[k] + Acl.T @ P @ Acl
        P = 0.5 * (P + P.T)
        P_stack[k] = P
    if not np.all(np.isfinite(K)):
        raise SynthesisError("gain recursion produced non-finite gains")
    return GainSchedule(
        K=K,
        u_ff=np.zeros((n, q)),
        provenance=model.method,
        cost_to_go=P_stack,
    )


def feedforward(model: LtvModel, ref: ReferenceSpec) -> np.ndarray:
    """Per-step least-squares input making the reference an equilibrium of the model.

    u_ff(k) = argmin_u || x_ref(k+1) - A(k) x_ref(k) - B(k) u ||_2, all k in one
    :func:`stacked_lstsq`; a rank-deficient B(k) raises ``SynthesisError``.
    """
    n = model.n_steps
    states = (ref.state_at(k * model.dt, model.p) for k in range(n + 1))
    x_ref = np.fromiter(states, dtype=np.dtype((float, model.p)), count=n + 1)
    delta = x_ref[1:] - np.matvec(model.A, x_ref[:-1])
    try:
        u_ff = stacked_lstsq(model.B, delta[..., None], range(n), "feedforward at step")
    except ExcitationError as exc:   # B(k) cannot reach the reference, not missing data
        raise SynthesisError(str(exc)) from exc
    return u_ff[..., 0]


def with_feedforward(sched: GainSchedule, u_ff: np.ndarray) -> GainSchedule:
    return replace(sched, u_ff=u_ff)


def closed_loop(
    spec: ScenarioSpec,
    sched: GainSchedule,
    ref: ReferenceSpec,
    x0,
    seed=None,
) -> Trajectory:
    """Run u(k) = -K_k (x(k) - x_ref(k)) + u_ff(k) against the ground-truth plant.

    Raises :class:`InstabilityError` (with the partial trajectory attached)
    if the state leaves the divergence guard.
    """
    if sched.n_steps != spec.n_steps:
        raise ValueError(
            f"schedule covers {sched.n_steps} steps but scenario has {spec.n_steps}"
        )
    rng = np.random.default_rng(seed) if seed is not None else None
    K, u_ff = sched.K, sched.u_ff[:, 0].tolist()
    targets = [ref.position_at(k * spec.dt) for k in range(spec.n_steps)]

    def policy(k, t, x1, x2):
        # the error stays a numpy matmul: a scalar dot product rounds differently
        return u_ff[k] - (K[k] @ np.array((x1 - targets[k], x2)))[0]

    times, states, inputs = _rollout(spec, x0, policy, rng, guard=DIVERGENCE_GUARD)
    return Trajectory(
        times=times,
        states=states,
        inputs=inputs,
        seed=seed if isinstance(seed, int) else None,
    )


def tracking_errors(traj: Trajectory, ref: ReferenceSpec) -> np.ndarray:
    """Per-step absolute position error |x1(k) - z_ref(t_k)| for k = 0..N."""
    targets = np.array([ref.position_at(t) for t in traj.times])
    return np.abs(traj.states[:, 0] - targets)


def save_gains(sched: GainSchedule, path) -> None:
    payload = {
        "format": GAINS_FORMAT,
        "n_steps": sched.n_steps,
        "p": sched.K.shape[2],
        "q": sched.K.shape[1],
        "provenance": sched.provenance,
        "K": sched.K,
        "u_ff": sched.u_ff,
    }
    write_json(path, payload)

