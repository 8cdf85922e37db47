"""Shared helpers: exact data generated by iterating a discrete LTV model, a
reader for saved gain schedules, the reference time law and 3/8-rule RK4 step
of the ground-truth plants, and the reference chirp."""

import math

import numpy as np
import pytest

from ltvbench import dynamics
from ltvbench.control import GAINS_FORMAT, GainSchedule
from ltvbench.dynamics import Kind, ScenarioSpec, Trajectory
from ltvbench.exceptions import IntegrationError
from ltvbench.files import field_errors, read_json
from ltvbench.models import LtvModel


def rollout_model(model, x0, inputs):
    """Iterate the discrete model; independent of the package rollout helper."""
    inputs = np.asarray(inputs, dtype=float)
    states = np.empty((len(inputs) + 1, model.p))
    states[0] = x0
    for k in range(len(inputs)):
        states[k + 1] = model.A[k] @ states[k] + model.B[k] @ inputs[k]
    return states


def model_trajectories(model, count, seed, noise=0.0, input_std=1.0, x0_std=1.0):
    """Exact (or noise-perturbed) trajectories generated by a discrete model.

    All trajectories advance in one batched sweep so large counts stay cheap.
    """
    rng = np.random.default_rng(seed)
    n = model.n_steps
    times = np.arange(n + 1) * model.dt
    inputs = rng.normal(0.0, input_std, (count, n, model.q))
    states = np.empty((count, n + 1, model.p))
    states[:, 0] = rng.normal(0.0, x0_std, (count, model.p))
    for k in range(n):
        states[:, k + 1] = states[:, k] @ model.A[k].T + inputs[:, k] @ model.B[k].T
    if noise > 0:
        states = states + rng.normal(0.0, noise, states.shape)
    return [
        Trajectory(times=times, states=states[i], inputs=inputs[i])
        for i in range(count)
    ]


@pytest.fixture(scope="session")
def constant_model():
    A = np.array([[0.9, 0.1], [-0.2, 0.8]])
    B = np.array([[0.0], [0.5]])
    return LtvModel.from_constant(A, B, n_steps=60, dt=0.02)


def read_gains(path) -> GainSchedule:
    """A file written by ``control.save_gains``, read through ``files.read_json``."""
    payload = read_json(path, "gain schedule", GAINS_FORMAT)
    with field_errors(path, "gain schedule"):
        return GainSchedule(K=payload["K"], u_ff=payload["u_ff"], provenance=payload["provenance"])


# --- the reference time law and 3/8-rule RK4 step: oracles for the package's
# array time law and its rollout kernels ---

def reference_params(spec: ScenarioSpec, t: float, step_start: float | None = None) -> tuple:
    """Effective (mass, stiffness, damping) of the plant at one time ``t``.

    The law of ``dynamics.params_at`` on Python floats (``math.cos``, ``** 2``),
    one time at a time: the oracle the array version must match byte for byte.
    A reconfiguration frame is the 2 s frame containing ``step_start``, the
    start of the step that ``t`` belongs to (by default ``t``).
    """
    if t < -1e-12 or t > spec.horizon + 1e-9:
        raise ValueError(f"t={t} outside scenario horizon [0, {spec.horizon}]")
    w = spec.param_freq
    if spec.kind in (Kind.INST_RECONFIG, Kind.MIXED_RECONFIG):
        start = t if step_start is None else step_start
        i = min(int((start + 1e-9) // 2.0), spec.n_frames - 1)
        m_i, cs_i, cd_i = spec.frames[i]
        if spec.kind is Kind.INST_RECONFIG:
            return m_i, cs_i, cd_i
        cs = math.cos(1.5 * w * t + math.pi / 4) ** 2 * cs_i
        cd = (1.5 + math.cos(w * t)) * cd_i
        return m_i, cs, cd
    cs = math.cos(1.5 * w * t + math.pi / 4) ** 2 * spec.spring
    cd = (1.5 + math.cos(w * t)) * spec.damping
    return spec.mass, cs, cd


def sat(u: float, limit: float) -> float:
    """Clamp ``u`` to [-limit, limit]."""
    if limit <= 0:
        raise ValueError(f"saturation limit must be positive, got {limit}")
    return -limit if u < -limit else (limit if u > limit else u)


def _force_law(spec: ScenarioSpec):
    """The plant's acceleration as ``accel(m, cs, cd, x1, x2, u, kick)``.

    Input saturation and cubic damping for ``nl``/``nld``, and for ``nld`` the
    Gaussian bump that scales the per-step ``kick``; written apart from the
    package's rollout kernels so it can check them.
    """
    if spec.kind not in (Kind.NL, Kind.NLD):
        def accel(m, cs, cd, x1, x2, u, kick):
            return (u - cs * x1 - cd * x2) / m
        return accel

    limit = spec.sat_limit
    cubic = spec.cubic_damping
    bump = spec.kind is Kind.NLD
    center = spec.dist_center
    spread = 2.0 * spec.dist_width * spec.dist_width

    def accel(m, cs, cd, x1, x2, u, kick):
        a = (sat(u, limit) - cs * x1 - cd * x2 - cubic * x2 * x2 * x2) / m
        if bump and kick != 0.0:
            dz = x1 - center
            a += kick * math.exp(-dz * dz / spread)
        return a
    return accel


def _accel(
    spec: ScenarioSpec, t: float, step_start: float | None,
    x1: float, x2: float, u: float, kick: float,
) -> float:
    return _force_law(spec)(*reference_params(spec, t, step_start), x1, x2, u, kick)


def derivative(spec: ScenarioSpec, t: float, x, u: float, kick: float = 0.0) -> np.ndarray:
    """Continuous-time state derivative of the ground-truth plant.

    ``kick`` is the per-step disturbance amplitude supplied by the caller's
    sampler (zero for the deterministic kinds); for the ``nld`` plant it
    scales a Gaussian bump centered at ``dist_center``.
    """
    x1, x2 = float(x[0]), float(x[1])
    return np.array([x2, _accel(spec, t, None, x1, x2, float(u), kick)])


def step_rk4(
    spec: ScenarioSpec,
    t: float,
    x,
    u: float,
    dt: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Advance the plant by one step with Kutta's 3/8-rule RK4.

    The input is held constant over the step (zero-order hold) and so is any
    stochastic disturbance amplitude, which is sampled once per call.  The
    step is internally subdivided into the substeps of the plant's force law
    (``dynamics.SATURATED_SUBSTEPS`` on ``nl``/``nld``, else
    ``dynamics.LINEAR_SUBSTEPS``, read at each call) so the continuously
    varying parameters are tracked accurately; every stage reads the
    reconfiguration frame of the step's start ``t``.  This is the reference
    the package's per-family rollout kernels are tested against.
    """
    u = float(u)
    kick = 0.0
    if spec.kind is Kind.NLD and rng is not None and spec.dist_sigma > 0:
        kick = rng.normal(0.0, spec.dist_sigma)
    x1, x2 = float(x[0]), float(x[1])
    saturated = spec.kind in (Kind.NL, Kind.NLD)
    substeps = dynamics.SATURATED_SUBSTEPS if saturated else dynamics.LINEAR_SUBSTEPS
    h = dt / substeps
    for i in range(substeps):
        ti = t + i * h
        # k_j = (a_j, b_j); the stage states are y + h/3 k1, y + h (k2 - k1/3)
        # and y + h (k1 - k2 + k3)
        a1 = x2
        b1 = _accel(spec, ti, t, x1, x2, u, kick)
        a2 = x2 + h / 3.0 * b1
        b2 = _accel(spec, ti + h / 3.0, t, x1 + h / 3.0 * a1, a2, u, kick)
        a3 = x2 + h * b2 - h / 3.0 * b1
        b3 = _accel(spec, ti + 2.0 * h / 3.0, t, x1 + h * a2 - h / 3.0 * a1, a3, u, kick)
        a4 = x2 + h * (b1 - b2 + b3)
        b4 = _accel(spec, ti + h, t, x1 + h * (a1 - a2 + a3), a4, u, kick)
        x1 += 0.125 * h * (a1 + 3.0 * (a2 + a3) + a4)
        x2 += 0.125 * h * (b1 + 3.0 * (b2 + b3) + b4)
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise IntegrationError(f"non-finite state after step at t={t}")
    return np.array([x1, x2])


def reference_chirp(ex, t: float, rng: np.random.Generator | None = None) -> float:
    """One disturbed chirp sample on Python floats: ``math.sin`` and, with
    ``rng`` and a positive ``noise_var``, one scalar ``rng.normal`` draw.

    The oracle that ``datagen.chirp`` on an array of times must match byte
    for byte, drawing the same values from the generator.
    """
    arg = (ex.omega1 - ex.omega0) / ex.duration * t * t + ex.omega0 * t + ex.phase
    u = ex.amplitude * math.sin(arg)
    if rng is not None and ex.noise_var > 0:
        u += rng.normal(0.0, math.sqrt(ex.noise_var))
    return u
