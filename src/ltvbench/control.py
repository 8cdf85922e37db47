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
PLANT_SHAPE = (2, 1)   # (p, q): position and velocity, one force input


@dataclass(frozen=True)
class CostWeights:
    """Constant per-step quadratic weights of the plant: state Q >= 0 (2, 2),
    input R > 0 (1, 1), terminal H >= 0 (2, 2)."""

    Q: np.ndarray
    R: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        p, q = PLANT_SHAPE
        for name, shape in (("Q", (p, p)), ("R", (q, q)), ("H", (p, p))):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != shape:
                raise InputError(f"{name} must be shaped {shape} for the plant, got {arr.shape}")
            if not np.allclose(arr, arr.T):
                raise InputError(f"{name} must be symmetric")
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
    """Time-indexed feedback gains plus optional feedforward inputs, shaped
    for the plant's one input and two states (:func:`lqr_ltv`, and all that
    :func:`closed_loop` runs)."""

    K: np.ndarray                    # (N, 1, 2)
    u_ff: np.ndarray                 # (N, 1)
    provenance: str = ""
    cost_to_go: np.ndarray | None = None   # (N+1, 2, 2) Riccati stack

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


def _check_plant_shape(model: LtvModel, what: str) -> None:
    if (model.p, model.q) != PLANT_SHAPE:
        raise InputError(
            f"{what} serves the plant's p={PLANT_SHAPE[0]} and q={PLANT_SHAPE[1]}, "
            f"not the model's p={model.p} and q={model.q}"
        )


def lqr_ltv(model: LtvModel, weights: CostWeights) -> GainSchedule:
    """Backward dynamic-programming recursion for the finite-horizon gains.

    P_N = H; then for k = N-1..0:
        K_k = (R + B(k)^T P_{k+1} B(k))^-1 B(k)^T P_{k+1} A(k)
        P_k = Q + K_k^T R K_k + (A(k) - B(k) K_k)^T P_{k+1} (A(k) - B(k) K_k)
    Every P_k is symmetrized; all are PSD by construction.

    Gives the model's zero-feedforward ``GainSchedule``: gains ``(N, 1, 2)``
    and cost-to-go ``(N+1, 2, 2)``.  A model whose shape is not the plant's
    (:data:`PLANT_SHAPE`) raises ``InputError`` before any step; a zero
    input-cost term (at the first step that has one) or a non-finite gain
    raises ``SynthesisError``.

    The recursion runs on Python floats.  Each matrix product sums its two
    terms in index order, as the formula reads: ``BtP = B^T P``,
    ``s = R + BtP B``, ``K = (BtP A) / s``, then
    ``P = (Q + (K^T R) K) + (A_cl^T P) A_cl`` and ``0.5 (P + P^T)``.  A(k) and
    B(k) are read once, step by step as Python floats, from flat copies in
    step order N-1..0; the gains and cost-to-go go to flat ``array('d')``
    buffers, 8 B a value, that become arrays at the end.  No step calls
    numpy, and no value is kept as a Python float object.
    """
    _check_plant_shape(model, "the gain recursion")
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
    if not np.isfinite(K).all():
        raise SynthesisError("gain recursion produced non-finite gains")
    return GainSchedule(
        K=np.ascontiguousarray(K),
        u_ff=np.zeros((n, 1)),
        provenance=model.method,
        cost_to_go=np.ascontiguousarray(P),
    )


def feedforward(model: LtvModel, ref: ReferenceSpec) -> np.ndarray:
    """Per-step least-squares input making the reference an equilibrium of the model.

    u_ff(k) = argmin_u || x_ref(k+1) - A(k) x_ref(k) - B(k) u ||_2, all k in one
    :func:`stacked_lstsq`, shaped (N, 1).  A model whose shape is not the
    plant's (:data:`PLANT_SHAPE`) raises ``InputError`` before any solve; a
    rank-deficient B(k) raises ``SynthesisError``.
    """
    _check_plant_shape(model, "the feedforward")
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
    p, q = PLANT_SHAPE
    expected = (spec.n_steps, q, p)
    if sched.K.shape != expected:
        raise ValueError(f"schedule gains must be shaped {expected}, got {sched.K.shape}")
    u_ff = sched.u_ff[:, 0].tolist()
    k1, k2 = sched.K[:, 0, 0].tolist(), sched.K[:, 0, 1].tolist()
    targets = ref.position_at(np.arange(spec.n_steps) * spec.dt).tolist()

    def policy(k, x1, x2):
        return u_ff[k] - (k1[k] * (x1 - targets[k]) + k2[k] * x2)

    return _rollout(spec, x0, policy, seed, guard=DIVERGENCE_GUARD)


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

