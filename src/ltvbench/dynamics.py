"""Ground-truth spring-mass-damper plants and their discrete LTV linearizations.

Five scenario kinds are built in:

* ``ltv``            -- linear plant with continuously modulated stiffness/damping,
* ``nl``             -- adds cubic damping and input saturation,
* ``nld``            -- ``nl`` plus an impulsive velocity disturbance that fires
                        near a fixed position,
* ``inst-reconfig``  -- piecewise-constant parameters over :data:`FRAME_DURATION`
                        frames with random velocity kicks at the frame boundaries,
* ``mixed-reconfig`` -- frame-wise parameter jumps combined with the continuous
                        modulation, kicks at the boundaries.

All plants are second order (position, velocity) with a scalar force input.
Simulation is fixed-step RK4 by Kutta's 3/8 rule (four stages at ``ti``,
``ti + h/3``, ``ti + 2h/3`` and ``ti + h``; Hairer, Norsett & Wanner, *Solving
ODEs I*, II.1), with :data:`LINEAR_SUBSTEPS` substeps per step on the linear
plants and :data:`SATURATED_SUBSTEPS` on the saturated ones; the
linearized zero-order-hold discretization of the same plant is available as
:func:`ground_truth_ltv` and doubles as the "linearization" baseline model.
Both read one time law, :func:`params_at`, evaluated on whole arrays of times:
the stage times of a rollout, or the step midpoints, whose stack of rate
pairs :func:`discretize` turns into ``(A, B)`` arrays in one call.  Frames
start on steps (``FRAME_DURATION / dt`` is an integer), and every stage of a
step reads that step's frame, so every kind converges at fourth order.

The plant parameters depend only on time, so :func:`simulate` and
:func:`control.closed_loop` (both through :func:`_rollout`) run one Python
loop per force law over a table built once per spec by :func:`_substep_kernel`
and kept, with its rows as Python lists, for the :data:`STAGE_TABLE_CACHE`
latest specs; no step makes a numpy call, open or closed loop.  On the linear
plants (``ltv``, reconfiguration) a step is one affine map of ``(x1, x2, u)``,
bit-equal to the reference RK4 step on the basis vectors, so rollouts differ
from stepping the reference in a loop by rounding only; on the saturated
plants (``nl``, ``nld``) they are bit-identical to it.  The reference step
lives in the tests (``tests/conftest.py``).  The caller draws the inputs of an
open-loop rollout from its own generator and passes them as an array; the
process generator draws only the kicks, all before the first step
(:func:`_kicks`): one ``nld`` kick per step, or one per frame boundary.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .exceptions import InputError, InstabilityError, IntegrationError, NumericalError
from .files import field_errors, read_json, write_json
from .models import LtvModel

# Internal 3/8-rule substeps per scenario step, the fewest that keep each force
# law within its bound against 80 substeps (relative; test_dynamics.py::
# TestSubstepConvergence): 1e-9 without frames, 1e-5 with them.  Linear plants
# pay for their substeps once per spec, in the step maps, so they keep 4:
# ltv 5.2e-11, mixed-reconfig's light frames (m = 0.02, the stiffest case)
# 1.4e-6.  Saturated plants pay in every step of the loop, so they take 2:
# nl/nld 8.5e-10, where classical RK4 would reach 1.03e-9 on nld.
LINEAR_SUBSTEPS = 4
SATURATED_SUBSTEPS = 2

# Scenario specs whose step tables stay cached, each with its rows as Python
# lists: ~300 B per step for a linear plant (150 kB at 500 steps, 1.5 MB for a
# 5000-step record), ~1.1 kB per step for a saturated one (0.57 MB at 500).
STAGE_TABLE_CACHE = 8

# The reconfiguration scenarios' frame length (s) and frame parameter ranges.
# Masses follow a two-regime distribution (mostly heavy frames with occasional
# drastic mass drops, as in payload release) so the frame sequence spans
# genuinely different dynamic regimes; spring and damping are uniform.
FRAME_DURATION = 2.0
FRAME_HEAVY_MASS_RANGE = (0.8, 2.0)
FRAME_LIGHT_MASS_RANGE = (0.02, 0.08)
FRAME_LIGHT_PROB = 0.35
FRAME_SPRING_RANGE = (0.5, 2.0)
FRAME_DAMPING_RANGE = (0.25, 1.0)
_FRAME_TABLE_SEED = 2314607


class Kind(enum.Enum):
    """Which ground-truth plant a :class:`ScenarioSpec` describes."""

    LTV = "ltv"
    NL = "nl"
    NLD = "nld"
    INST_RECONFIG = "inst-reconfig"
    MIXED_RECONFIG = "mixed-reconfig"


_RECONFIG_KINDS = (Kind.INST_RECONFIG, Kind.MIXED_RECONFIG)
_SATURATED_KINDS = (Kind.NL, Kind.NLD)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full parameterization of one ground-truth plant.

    ``frames`` holds per-frame (mass, spring, damping) triples for the
    reconfiguration kinds and must be empty otherwise.  ``param_freq`` is the
    angular frequency of the continuous stiffness/damping modulation; it is
    configured independently of any excitation-signal frequency.
    """

    kind: Kind
    mass: float = 1.0                 # kg
    spring: float = 1.0               # N/m, base stiffness
    damping: float = 0.5              # N*s/m, base damping
    cubic_damping: float = 0.1        # N*s^3/m^3, nl/nld only
    sat_limit: float = 5.0            # N, input saturation, nl/nld only
    param_freq: float = math.pi / 2   # rad/s
    dist_center: float = 2.0          # m, nld bump position
    dist_width: float = 0.25          # m, nld bump width
    dist_sigma: float = 2.0           # nld kick scale (accel units)
    kick_sigma: float = 0.5           # m/s, boundary velocity kick, reconfig only
    frames: tuple = ()                # ((m_i, C_s_i, C_d_i), ...)
    dt: float = 0.02                  # s
    horizon: float = 10.0             # s
    name: str = ""

    def __post_init__(self):
        if not isinstance(self.kind, Kind):
            raise TypeError(f"kind must be a Kind, got {self.kind!r}")
        # a hashable frame table keeps the spec usable as a cache key
        object.__setattr__(self, "frames", tuple(tuple(f) for f in self.frames))
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InputError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not all(math.isfinite(v) for frame in self.frames for v in frame):
            raise InputError(f"frames entries must be finite, got {self.frames}")
        for name in ("mass", "dt", "sat_limit", "dist_width"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("dist_sigma", "kick_sigma"):
            if not getattr(self, name) >= 0:
                raise InputError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.horizon >= self.dt:
            raise InputError(f"horizon must cover at least one step, got {self.horizon}")
        steps = self.horizon / self.dt
        if not math.isclose(steps, round(steps), rel_tol=1e-14):
            raise InputError(f"horizon must be a whole number of steps, got {steps!r} steps")
        if self.kind in _RECONFIG_KINDS:
            per_frame = FRAME_DURATION / self.dt
            if not math.isclose(per_frame, round(per_frame), rel_tol=1e-14):
                raise InputError(
                    f"frames must start on a step, but {FRAME_DURATION} / dt = {per_frame!r}"
                )
            expected = math.ceil(self.n_steps / round(per_frame))
            if len(self.frames) != expected:
                raise InputError(
                    f"need {expected} frame parameter triples, got {len(self.frames)}"
                )
            for m_i, _, _ in self.frames:
                if not m_i > 0:
                    raise InputError("frame masses must be positive")
        elif self.frames:
            raise InputError(f"{self.kind.value} scenarios take no frame table")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    @property
    def n_frames(self) -> int:
        return len(self.frames)


@dataclass(eq=False)
class Trajectory:
    """Time-stamped state and input sequences for one experiment.

    ``states`` has one more row than ``inputs``: states run k = 0..N, inputs
    k = 0..N-1.  ``noisy`` flags stored measurement noise (training splits).
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    seed: int | None = None
    noisy: bool = False

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        self.inputs = np.asarray(self.inputs, dtype=float)
        if self.inputs.ndim == 1:
            self.inputs = self.inputs[:, None]
        if len(self.states) != len(self.inputs) + 1:
            raise ValueError(
                f"states ({len(self.states)}) must be one longer than inputs ({len(self.inputs)})"
            )
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")

    @property
    def n_steps(self) -> int:
        return len(self.inputs)

    @property
    def p(self) -> int:
        return self.states.shape[1]

    @property
    def q(self) -> int:
        return self.inputs.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.states, other.states)
            and np.array_equal(self.inputs, other.inputs)
            and self.seed == other.seed
            and self.noisy == other.noisy
        )


def _sample_frames(n: int, rng: np.random.Generator) -> tuple:
    frames = []
    for _ in range(n):
        if rng.uniform() < FRAME_LIGHT_PROB:
            lo, hi = FRAME_LIGHT_MASS_RANGE
            m_i = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        else:
            m_i = rng.uniform(*FRAME_HEAVY_MASS_RANGE)
        cs_i = rng.uniform(*FRAME_SPRING_RANGE)
        cd_i = rng.uniform(*FRAME_DAMPING_RANGE)
        frames.append((m_i, cs_i, cd_i))
    return tuple(frames)


def _builtin(kind: Kind, name: str) -> ScenarioSpec:
    frames = ()
    if kind in _RECONFIG_KINDS:
        rng = np.random.default_rng(
            np.random.SeedSequence([_FRAME_TABLE_SEED, 0 if kind is Kind.INST_RECONFIG else 1])
        )
        frames = _sample_frames(math.ceil(ScenarioSpec.horizon / FRAME_DURATION), rng)
    return ScenarioSpec(kind=kind, frames=frames, name=name)


BUILTIN_SCENARIOS = tuple(kind.value for kind in Kind)


def scenario(name: str) -> ScenarioSpec:
    """Return one of the five built-in scenarios by name."""
    key = name.strip().lower().replace("_", "-")
    try:
        kind = Kind(key)
    except ValueError:
        raise InputError(
            f"unknown scenario {name!r}; expected one of {', '.join(BUILTIN_SCENARIOS)}"
        ) from None
    return _builtin(kind, key)


def save_scenario(spec: ScenarioSpec, path) -> None:
    write_json(path, {**asdict(spec), "kind": spec.kind.value, "frame_duration": FRAME_DURATION})


def load_scenario(path) -> ScenarioSpec:
    """Read a file of :func:`save_scenario`; a malformed one, or one whose
    ``frame_duration`` is not :data:`FRAME_DURATION`, raises ``DataFormatError``."""
    payload = read_json(path, "scenario file")
    with field_errors(path, "scenario file"):
        payload["kind"] = Kind(payload["kind"])
        if payload.pop("frame_duration", FRAME_DURATION) != FRAME_DURATION:
            raise ValueError(f"frame_duration is fixed at {FRAME_DURATION} s")
        return ScenarioSpec(**payload)


def params_at(spec: ScenarioSpec, t, step_start=None) -> tuple:
    """Effective (mass, stiffness, damping) of the plant at time(s) ``t``.

    ``t`` is a float or an array of times; each result has the shape of
    ``t``.  Continuous kinds modulate the base constants; the reconfiguration
    kinds look up (and for mixed reconfiguration additionally modulate) the
    parameters of the :data:`FRAME_DURATION` frame containing ``step_start`` (by default
    ``t``): the start of the step each ``t`` belongs to, so every RK4 stage of
    step k reads step k's frame, also the stage at its end.  The values are
    bit-equal to the same law evaluated on Python floats (``math.cos``,
    ``** 2``), which is why the square is ``np.float_power``.
    """
    t = np.asarray(t, dtype=float)
    outside = ~((t >= -1e-12) & (t <= spec.horizon + 1e-9))   # NaN is outside
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside scenario horizon [0, {spec.horizon}]")
    if spec.kind in _RECONFIG_KINDS:
        frames = spec.frames
        start = t if step_start is None else np.broadcast_to(step_start, t.shape)
        i = np.minimum(((start + 1e-9) // FRAME_DURATION).astype(int), spec.n_frames - 1)
    else:
        frames = ((spec.mass, spec.spring, spec.damping),)
        i = np.zeros(t.shape, dtype=int)
    m, cs, cd = np.array(frames).T[:, i]
    if spec.kind is Kind.INST_RECONFIG:
        return m, cs, cd
    w = spec.param_freq
    cs = np.float_power(np.cos(1.5 * w * t + math.pi / 4), 2) * cs
    cd = (1.5 + np.cos(w * t)) * cd
    return m, cs, cd


def _kick_step_indices(spec: ScenarioSpec) -> frozenset:
    """Step indices at which boundary velocity kicks land (reconfig kinds):
    the first step of every frame after the first."""
    if spec.kind not in _RECONFIG_KINDS:
        return frozenset()
    per_frame = round(FRAME_DURATION / spec.dt)
    return frozenset(range(per_frame, spec.n_steps, per_frame))


def _substeps(spec: ScenarioSpec) -> int:
    """The substeps per step of the spec's force law."""
    return SATURATED_SUBSTEPS if spec.kind in _SATURATED_KINDS else LINEAR_SUBSTEPS


def _stage_column(spec: ScenarioSpec, i: int) -> np.ndarray:
    """Plant parameters at the four stage times of substep ``i`` of every
    step: column ``i`` of :func:`_stage_params`, shape (N, 12)."""
    n = spec.n_steps
    h = spec.dt / _substeps(spec)
    tk = np.arange(n) * spec.dt
    ti = tk + i * h
    times = np.stack((ti, ti + h / 3.0, ti + 2.0 * h / 3.0, ti + h), axis=-1)
    m, cs, cd = params_at(spec, times, tk[:, None])
    return np.stack((m, cs, cd), axis=-1).reshape(n, 12)


def _stage_params(spec: ScenarioSpec) -> np.ndarray:
    """Plant parameters at every stage time of a rollout of ``spec``.

    Row ``[k, i]`` holds ``(m, C_s, C_d)`` at ``ti``, ``ti + h/3``,
    ``ti + 2h/3`` and ``ti + h``, with ``ti = t_k + i*h``, all in step k's
    frame: the float times the reference step evaluates, computed the same
    way, so the values are bit-equal to its parameter lookups.  The end time
    is not shared with the next substep's start, as the two can differ by an
    ulp.  The table is filled one substep column at a time, which bounds the
    time law's temporaries on long records.
    """
    table = np.empty((spec.n_steps, _substeps(spec), 12))
    for i in range(table.shape[1]):
        table[:, i] = _stage_column(spec, i)
    return table


def _step_maps(spec: ScenarioSpec) -> np.ndarray:
    """The linear plant's step maps, shape (N, 6).

    Row k is ``(M00, M01, g0, M10, M11, g1)``, ``x(k+1) = M_k x(k) + g_k u(k)``,
    found by running the reference substeps, in their float order, on the
    basis columns of ``(x1, x2, u)`` for all steps at once.
    """
    substeps = _substeps(spec)
    h = spec.dt / substeps
    third_h = h / 3.0
    eighth_h = 0.125 * h
    x1, x2, u = np.eye(3)
    for i in range(substeps):
        m1, cs1, cd1, m2, cs2, cd2, m3, cs3, cd3, m4, cs4, cd4 = (
            _stage_column(spec, i).T[..., None]
        )
        b1 = (u - cs1 * x1 - cd1 * x2) / m1
        a2 = x2 + third_h * b1
        b2 = (u - cs2 * (x1 + third_h * x2) - cd2 * a2) / m2
        a3 = x2 + h * b2 - third_h * b1
        b3 = (u - cs3 * (x1 + h * a2 - third_h * x2) - cd3 * a3) / m3
        a4 = x2 + h * (b1 - b2 + b3)
        b4 = (u - cs4 * (x1 + h * (x2 - a2 + a3)) - cd4 * a4) / m4
        x1 = x1 + eighth_h * (x2 + 3.0 * (a2 + a3) + a4)
        x2 = x2 + eighth_h * (b1 + 3.0 * (b2 + b3) + b4)
    return np.concatenate((x1, x2), axis=1)


@functools.lru_cache(maxsize=STAGE_TABLE_CACHE)
def _substep_kernel(spec: ScenarioSpec):
    """The plant's rollout loop as ``(table, run)``, cached per spec.

    ``run(x1, x2, control, nld, boundary, guard) -> (x1s, x2s, us)`` steps the
    plant from ``(x1, x2)`` on Python floats and returns the state and input
    lists.  ``control`` holds the inputs of an open loop, or is the policy
    ``control(k, x1, x2)`` of a closed one.  The kicks come from
    :func:`_kicks`, and each law reads those its kinds have.  The loop stops
    after the first state that is non-finite or outside ``[-guard, guard]``.

    This is the only code that writes either force law, one loop each, over
    the read-only table's rows as Python lists, converted once per spec.
    Linear kinds: the table is :func:`_step_maps`; a step is one affine map.
    Saturated kinds: the table is :func:`_stage_params`; a step runs the
    substeps inline with saturation, cubic damping and the ``nld`` bump (when
    its kick is nonzero), in the reference step's float order.
    """
    saturated = spec.kind in _SATURATED_KINDS
    table = _stage_params(spec) if saturated else _step_maps(spec)
    table.flags.writeable = False
    rows = table.tolist()
    if not saturated:
        def run(x1, x2, control, nld, boundary, guard):
            closed = callable(control)
            x1s, x2s, us = [x1], [x2], []
            for k, (m00, m01, g0, m10, m11, g1) in enumerate(rows):
                u = control(k, x1, x2) if closed else control[k]
                us.append(u)
                x1, x2 = m00 * x1 + m01 * x2 + g0 * u, m10 * x1 + m11 * x2 + g1 * u
                if k + 1 in boundary:
                    x2 += boundary[k + 1]
                x1s.append(x1)
                x2s.append(x2)
                if not (abs(x1) <= guard and abs(x2) <= guard):
                    break
            return x1s, x2s, us
        return table, run

    h = spec.dt / _substeps(spec)
    third_h = h / 3.0
    eighth_h = 0.125 * h
    limit = spec.sat_limit
    c = spec.cubic_damping
    center = spec.dist_center
    spread = 2.0 * spec.dist_width * spec.dist_width
    exp = math.exp

    def run(x1, x2, control, nld, boundary, guard):
        closed = callable(control)
        x1s, x2s, us = [x1], [x2], []
        kick = 0.0
        for k, substeps in enumerate(rows):
            u = control(k, x1, x2) if closed else control[k]
            us.append(u)
            f = -limit if u < -limit else (limit if u > limit else u)
            if nld:
                kick = nld[k]
            bump = kick != 0.0
            for m1, cs1, cd1, m2, cs2, cd2, m3, cs3, cd3, m4, cs4, cd4 in substeps:
                b1 = (f - cs1 * x1 - cd1 * x2 - c * x2 * x2 * x2) / m1
                if bump:
                    b1 += kick * exp(-(x1 - center) * (x1 - center) / spread)
                a2 = x2 + third_h * b1
                z2 = x1 + third_h * x2
                b2 = (f - cs2 * z2 - cd2 * a2 - c * a2 * a2 * a2) / m2
                if bump:
                    b2 += kick * exp(-(z2 - center) * (z2 - center) / spread)
                a3 = x2 + h * b2 - third_h * b1
                z3 = x1 + h * a2 - third_h * x2
                b3 = (f - cs3 * z3 - cd3 * a3 - c * a3 * a3 * a3) / m3
                if bump:
                    b3 += kick * exp(-(z3 - center) * (z3 - center) / spread)
                a4 = x2 + h * (b1 - b2 + b3)
                z4 = x1 + h * (x2 - a2 + a3)
                b4 = (f - cs4 * z4 - cd4 * a4 - c * a4 * a4 * a4) / m4
                if bump:
                    b4 += kick * exp(-(z4 - center) * (z4 - center) / spread)
                x1 += eighth_h * (x2 + 3.0 * (a2 + a3) + a4)
                x2 += eighth_h * (b1 + 3.0 * (b2 + b3) + b4)
            x1s.append(x1)
            x2s.append(x2)
            if not (abs(x1) <= guard and abs(x2) <= guard):
                break
        return x1s, x2s, us
    return table, run


def _kicks(spec: ScenarioSpec, rng) -> tuple:
    """The process generator's draws for one rollout, made up front.

    Returns ``(nld, boundary)``: the ``nld`` kick of every step as a list (or
    None), and ``{step: velocity kick}`` for the frame boundaries.  No kind
    has both, and a vector draw equals the same number of scalar draws, so
    the values are those of drawing each kick at its step.
    """
    if rng is None:
        return None, {}
    nld = None
    if spec.kind is Kind.NLD and spec.dist_sigma:
        nld = rng.normal(0.0, spec.dist_sigma, size=spec.n_steps).tolist()
    steps = sorted(_kick_step_indices(spec)) if spec.kick_sigma else []
    return nld, dict(zip(steps, rng.normal(0.0, spec.kick_sigma, size=len(steps)).tolist()))


def _rollout(spec, x0, control, seed, guard: float = sys.float_info.max) -> Trajectory:
    """The trajectory of one rollout of ``control`` (held inputs or a policy,
    as in :func:`_substep_kernel`) through the spec's ``run`` loop, with the
    kicks of :func:`_kicks` drawn by the generator of ``seed`` (an int or a
    numpy Generator; None, no kicks).  The trajectory records an int seed.
    A boundary velocity kick lands on the state at the frame boundary, and
    the recorded state includes it.  A non-finite state
    raises :class:`IntegrationError`, and a state beyond ``guard`` (by default
    the largest float) :class:`InstabilityError`, carrying the partial arrays.
    An initial state that is not two finite numbers raises ``InputError``.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (2,):
        raise InputError(f"initial state must have shape (2,), got {x.shape}")
    if not np.isfinite(x).all():
        raise InputError(f"initial state must be finite, got {x.tolist()}")
    run = _substep_kernel(spec)[1]
    rng = np.random.default_rng(seed) if seed is not None else None
    x1s, x2s, us = run(float(x[0]), float(x[1]), control, *_kicks(spec, rng), guard)
    steps = len(us)
    times = np.arange(steps + 1) * spec.dt
    states = np.column_stack((x1s, x2s))
    inputs = np.array(us).reshape(steps, 1)
    if not np.isfinite(states[-1]).all():
        raise IntegrationError(f"non-finite state after step at t={float(times[-2])}")
    if np.abs(states[-1]).max() > guard:
        raise InstabilityError(steps, times=times, states=states, inputs=inputs)
    return Trajectory(
        times=times,
        states=states,
        inputs=inputs,
        seed=seed if isinstance(seed, int) else None,
    )


def simulate(spec: ScenarioSpec, x0, inputs, seed=None) -> Trajectory:
    """Integrate the plant open loop, holding ``inputs[k]`` over step k.

    ``inputs`` holds the ``spec.n_steps`` inputs, shape (N,) or (N, 1); the
    caller draws any randomness in them.  ``seed`` (an int or a numpy
    Generator) drives the kicks only; omitted, there are none.  Two calls
    with identical inputs, seeds and specs are bitwise-identical.
    """
    n = spec.n_steps
    u = np.array(inputs, dtype=float)
    if u.shape not in ((n,), (n, 1)):
        raise ValueError(f"need {n} inputs, shape ({n},) or ({n}, 1), got {u.shape}")
    return _rollout(spec, x0, u.reshape(n).tolist(), seed)


# Diagonal Pade approximants r_m of exp, m = 3, 5, 7, 9, 13: the coefficients
# b_0..b_m of their numerator, and the largest 1-norm theta_m at which r_m's
# backward error stays below the unit roundoff (Higham 2005, SIAM J. Matrix
# Anal. Appl. 26(4)).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential of each matrix in the stack ``a`` (..., n, n)
    with finite entries, by Pade scaling and squaring (Higham 2005).

    Each matrix takes the lowest degree whose 1-norm bound it meets; above
    the degree-13 bound it is scaled by 2^-s into it and the result squared
    s times.  The matrices of one degree are evaluated as one stack.
    """
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    degree = np.full(norm.shape, 13)
    for m in (9, 7, 5, 3):
        degree[norm <= _PADE_THETA[m]] = m
    squarings = np.ceil(np.log2(np.maximum(norm, _PADE_THETA[13]) / _PADE_THETA[13])).astype(int)
    out = np.empty_like(a)
    for m in np.unique(degree):
        sel = degree == m
        x = a[sel] * np.exp2(-squarings[sel])[:, None, None]
        b = _PADE[m]
        x2 = x @ x
        power = np.broadcast_to(np.eye(a.shape[-1]), x.shape)
        u, v = b[1] * power, b[0] * power
        for k in range(1, m // 2 + 1):   # the even powers x^2k
            power = power @ x2
            u, v = u + b[2 * k + 1] * power, v + b[2 * k] * power
        u = x @ u
        out[sel] = np.linalg.solve(v - u, v + u)
    for k in range(squarings.max(initial=0)):
        sel = squarings > k
        out[sel] = out[sel] @ out[sel]
    return out


def discretize(A_c: np.ndarray, B_c: np.ndarray, dt: float) -> tuple:
    """Zero-order-hold discretization ``(A, B)`` of (A_c, B_c) over one step.

    ``A_c`` is ``(..., p, p)`` and ``B_c`` ``(..., p, q)`` with the same
    leading shape: a stack of rate pairs is discretized in one call.  Computed
    through the augmented matrix exponential (:func:`expm`, one batched call)

        exp([[A_c, B_c], [0, 0]] * dt) = [[A, B], [0, I]],

    which handles singular A_c (the inverse-based closed form is the special
    case of invertible A_c).
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    p = A_c.shape[-1]
    q = B_c.shape[-1]
    m = np.zeros(A_c.shape[:-2] + (p + q, p + q))
    m[..., :p, :p] = A_c
    m[..., :p, p:] = B_c
    m *= dt
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix exponential of non-finite entries")
    e = expm(m)
    if not np.all(np.isfinite(e)):
        raise NumericalError("matrix exponential produced non-finite entries")
    return e[..., :p, :p], e[..., :p, p:]


def ground_truth_ltv(spec: ScenarioSpec) -> LtvModel:
    """Per-step ZOH discretization of the linearized plant (the L-LTV baseline).

    The linearization drops cubic damping and saturation for the nonlinear
    kinds and keeps the time-varying stiffness and damping.  Step k freezes
    the parameters at its midpoint ``(k + 0.5) * dt``: that keeps the
    piecewise-constant model second-order accurate against the continuously
    varying plant, where start-of-step freezing drifts an order of magnitude
    further over a full horizon.
    """
    n = spec.n_steps
    m, cs, cd = params_at(spec, (np.arange(n) + 0.5) * spec.dt)
    zero, one = np.zeros(n), np.ones(n)
    A_c = np.stack((zero, one, -cs / m, -cd / m), axis=-1).reshape(n, 2, 2)
    B_c = np.stack((zero, 1.0 / m), axis=-1)[..., None]
    A, B = discretize(A_c, B_c, spec.dt)
    return LtvModel(A=A, B=B, dt=spec.dt, method="linearization", hyperparams={})
