"""Finite-horizon LQR synthesis and closed-loop reference tracking.

Gains come from the backward dynamic-programming recursion on an identified
(or ground-truth) LTV model; tracking combines error feedback with a
model-based feedforward that makes the reference an approximate equilibrium
trajectory of the model.  Pure error feedback cannot hold a nonzero setpoint
against a spring, hence the feedforward term.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import ScenarioSpec, Trajectory, _rollout
from .exceptions import ExcitationError, InputError, SynthesisError
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
                raise InputError(f"{name} must be square, got {arr.shape}")
            if not np.allclose(arr, arr.T):
                raise InputError(f"{name} must be symmetric")
        if self.H.shape != self.Q.shape:
            raise InputError(f"H {self.H.shape} must have the shape of Q {self.Q.shape}")
        if np.any(np.linalg.eigvalsh(self.R) <= 0):
            raise InputError("R must be positive definite")
        for name, m in (("Q", self.Q), ("H", self.H)):
            if np.any(np.linalg.eigvalsh(m) < -1e-12):
                raise InputError(f"{name} must be positive semidefinite")


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
            raise SynthesisError("gain schedule must be finite")

    @property
    def n_steps(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class ReferenceSpec:
    """Piecewise-constant position targets (velocity reference is zero).

    ``segments`` is a sequence of finite (start_time, position) pairs with
    strictly increasing start times beginning at zero; each segment holds
    until the next one starts.
    """

    segments: tuple

    def __post_init__(self):
        segs = tuple((float(t), float(z)) for t, z in self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise InputError("reference needs at least one segment")
        if not all(math.isfinite(v) for seg in segs for v in seg):
            raise InputError(f"reference segments must be finite, got {segs}")
        if abs(segs[0][0]) > 1e-12:
            raise InputError("first reference segment must start at t=0")
        starts = tuple(t for t, _ in segs)
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise InputError("segment start times must strictly increase")
        positions = tuple(z for _, z in segs)
        # bisect_right gives 0 before the first start, so a scalar lookup's
        # table repeats the first position in front
        object.__setattr__(self, "_scalar", (starts, positions[:1] + positions))
        object.__setattr__(self, "_lookup", (np.array(starts), np.array(positions)))

    def position_at(self, t):
        """Position of the last segment starting at or before ``t`` (1e-12 slack).

        ``t`` is a number (a numpy scalar too), giving a float, or an array of
        times, giving an array of their positions.  A time before zero gets
        the first segment's position.
        """
        if not isinstance(t, np.ndarray):
            starts, positions = self._scalar
            return positions[bisect_right(starts, float(t) + 1e-12)]
        starts, positions = self._lookup
        i = np.searchsorted(starts, t + 1e-12, side="right")
        return positions[np.maximum(i - 1, 0)]


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

    Gives the model's zero-feedforward ``GainSchedule``, with its cost-to-go.
    A model of the plant's shape (p=2 states, q=1 input) runs the
    Python-float recursion :func:`_plant_riccati`, which differs from the
    numpy recursion :func:`_riccati` that other shapes run by rounding only.
    A singular input-cost term or a non-finite gain raises ``SynthesisError``.
    """
    p, q = model.p, model.q
    if weights.Q.shape != (p, p) or weights.R.shape != (q, q):
        raise InputError(
            f"weights Q {weights.Q.shape}, R {weights.R.shape} and H {weights.H.shape} "
            f"do not match the model's p={p} and q={q}"
        )
    K, P = (_plant_riccati if (p, q) == (2, 1) else _riccati)(model, weights)
    if not np.isfinite(K).all():
        raise SynthesisError("gain recursion produced non-finite gains")
    return GainSchedule(
        K=np.ascontiguousarray(K),
        u_ff=np.zeros((model.n_steps, q)),
        provenance=model.method,
        cost_to_go=np.ascontiguousarray(P),
    )


def _plant_riccati(model, weights: CostWeights) -> tuple:
    """The recursion of :func:`lqr_ltv` for one model with p=2 and q=1, on
    Python floats: its gains ``(N, 1, 2)`` and cost-to-go ``(N+1, 2, 2)``.
    Raises ``SynthesisError`` at the first step whose input-cost term is zero.

    Each matrix product sums its two terms in index order, as the docstring
    formula reads: ``BtP = B^T P``, ``s = R + BtP B``, ``K = (BtP A) / s``,
    then ``P = (Q + (K^T R) K) + (A_cl^T P) A_cl`` and ``0.5 (P + P^T)``.
    A(k) and B(k) are read once, step by step as Python floats, from flat
    copies in step order N-1..0; the gains and cost-to-go go to flat
    ``array('d')`` buffers, 8 B a value, that become arrays at the end.  No
    step calls numpy, and no value is kept as a Python float object.
    """
    n = model.n_steps
    a = iter(memoryview(model.A[::-1].ravel()))
    b = iter(memoryview(model.B[::-1].ravel()))
    q00, q01, q10, q11 = weights.Q.ravel().tolist()
    (r,) = weights.R.ravel().tolist()
    p00, p01, p10, p11 = weights.H.ravel().tolist()
    gains = array("d")
    costs = array("d", (p00, p01, p10, p11))
    for k, a00, a01, a10, a11, b0, b1 in zip(range(n - 1, -1, -1), a, a, a, a, b, b):
        bp0 = b0 * p00 + b1 * p10
        bp1 = b0 * p01 + b1 * p11
        s = r + (bp0 * b0 + bp1 * b1)
        if s == 0.0:
            raise SynthesisError(f"singular input-cost term at step {k}")
        k0 = (bp0 * a00 + bp1 * a10) / s
        k1 = (bp0 * a01 + bp1 * a11) / s
        c00 = a00 - b0 * k0
        c01 = a01 - b0 * k1
        c10 = a10 - b1 * k0
        c11 = a11 - b1 * k1
        m00 = c00 * p00 + c10 * p10
        m01 = c00 * p01 + c10 * p11
        m10 = c01 * p00 + c11 * p10
        m11 = c01 * p01 + c11 * p11
        kr0 = k0 * r
        kr1 = k1 * r
        x00 = q00 + kr0 * k0 + (m00 * c00 + m01 * c10)
        x01 = q01 + kr0 * k1 + (m00 * c01 + m01 * c11)
        x10 = q10 + kr1 * k0 + (m10 * c00 + m11 * c10)
        x11 = q11 + kr1 * k1 + (m10 * c01 + m11 * c11)
        p00 = 0.5 * (x00 + x00)
        p01 = p10 = 0.5 * (x01 + x10)
        p11 = 0.5 * (x11 + x11)
        gains.extend((k0, k1))
        costs.extend((p00, p01, p10, p11))
    K = np.frombuffer(gains).reshape(n, 1, 2)[::-1]
    P = np.frombuffer(costs).reshape(n + 1, 2, 2)[::-1]
    return K, P


def _riccati(model, weights: CostWeights) -> tuple:
    """The recursion of :func:`lqr_ltv` in numpy, one step at a time on the
    model's own ``(N, p, p)`` and ``(N, p, q)`` arrays: its gains and
    cost-to-go.  Raises ``SynthesisError`` at the first step whose
    input-cost term is singular.
    """
    n, p, q = model.n_steps, model.p, model.q
    K = np.empty((n, q, p))
    P_stack = np.empty((n + 1, p, p))
    P = P_stack[n] = weights.H
    for k in range(n - 1, -1, -1):
        A, B = model.A[k], model.B[k]
        BtP = B.T @ P
        try:
            K[k] = np.linalg.solve(weights.R + BtP @ B, BtP @ A)
        except np.linalg.LinAlgError as exc:
            raise SynthesisError(f"singular input-cost term at step {k}") from exc
        Acl = A - B @ K[k]
        P = weights.Q + K[k].T @ weights.R @ K[k] + Acl.T @ P @ Acl
        P = P_stack[k] = 0.5 * (P + P.T)
    return K, P_stack


def feedforward(model: LtvModel, ref: ReferenceSpec) -> np.ndarray:
    """Per-step least-squares input making the reference an equilibrium of the model.

    u_ff(k) = argmin_u || x_ref(k+1) - A(k) x_ref(k) - B(k) u ||_2, all k in one
    :func:`stacked_lstsq`; a rank-deficient B(k) raises ``SynthesisError``.
    """
    n = model.n_steps
    x_ref = np.zeros((n + 1, model.p))
    x_ref[:, 0] = ref.position_at(np.arange(n + 1) * model.dt)
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

    The policy is Python float arithmetic in the order ``u_ff[k] - (K[k, 0, 0]
    * (x1 - x_ref[k]) + K[k, 0, 1] * x2)``, which a BLAS ``gemv`` may round
    differently; no step calls numpy.  The gains must be shaped (N, 1, 2), N
    the scenario's steps; others raise ``ValueError``.  Raises
    :class:`InstabilityError` (with the partial trajectory attached) if the
    state leaves the divergence guard.
    """
    expected = (spec.n_steps, 1, 2)   # the plant has one force input and two states
    if sched.K.shape != expected:
        raise ValueError(f"schedule gains must be shaped {expected}, got {sched.K.shape}")
    rng = np.random.default_rng(seed) if seed is not None else None
    u_ff = sched.u_ff[:, 0].tolist()
    k1, k2 = sched.K[:, 0, 0].tolist(), sched.K[:, 0, 1].tolist()
    targets = ref.position_at(np.arange(spec.n_steps) * spec.dt).tolist()

    def policy(k, x1, x2):
        return u_ff[k] - (k1[k] * (x1 - targets[k]) + k2[k] * x2)

    times, states, inputs = _rollout(spec, x0, policy, rng, guard=DIVERGENCE_GUARD)
    return Trajectory(
        times=times,
        states=states,
        inputs=inputs,
        seed=seed if isinstance(seed, int) else None,
    )


def tracking_errors(traj: Trajectory, ref: ReferenceSpec) -> np.ndarray:
    """Per-step absolute position error |x1(k) - z_ref(t_k)| for k = 0..N."""
    return np.abs(traj.states[:, 0] - ref.position_at(traj.times))


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

