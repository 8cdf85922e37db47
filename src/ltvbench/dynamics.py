"""Ground-truth spring-mass-damper plants and their discrete LTV linearizations.

Five scenario kinds are built in:

* ``ltv``            -- linear plant with continuously modulated stiffness/damping,
* ``nl``             -- adds cubic damping and input saturation,
* ``nld``            -- ``nl`` plus an impulsive velocity disturbance that fires
                        near a fixed position,
* ``inst-reconfig``  -- piecewise-constant parameters over two-second frames with
                        random velocity kicks at the frame boundaries,
* ``mixed-reconfig`` -- frame-wise parameter jumps combined with the continuous
                        modulation, kicks at the boundaries.

All plants are second order (position, velocity) with a scalar force input.
Simulation is fixed-step RK4 with internal substepping; the linearized
zero-order-hold discretization of the same plant is available as
:func:`ground_truth_ltv` and doubles as the "linearization" baseline model.
Both read one time law, :func:`params_at`, evaluated on whole arrays of times:
the RK4 stage times of a rollout, or the step midpoints, whose stack of rate
pairs :func:`discretize` turns into ``(A, B)`` arrays in one call.

The plant parameters depend only on time, so :func:`simulate` and
:func:`control.closed_loop` (both through :func:`_rollout`) step with a table
built once per spec by :func:`_substep_kernel` and cached for the
:data:`STAGE_TABLE_CACHE` latest specs.  On the linear plants (``ltv``,
reconfiguration) a step is one affine map of ``(x1, x2, u)``, bit-equal to the
reference RK4 step on the basis vectors, so rollouts differ from stepping the
reference in a loop by rounding only; on the saturated plants (``nl``,
``nld``) they are bit-identical to it.  The reference step lives in the tests
(``tests/conftest.py``).  The caller draws the inputs of an open-loop rollout
from its own generator and passes them as an array; the process generator
draws only the kicks, all before the first step (:func:`_kicks`): one ``nld``
kick per step, or one kick per frame boundary in step order.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.linalg import expm

from .exceptions import InstabilityError, IntegrationError, NumericalError
from .files import field_errors, read_json, write_json
from .models import LtvModel

# Internal RK4 substeps per scenario step; keeps the ground truth clearly more
# accurate than any ZOH-discretized model of it.
RK4_SUBSTEPS = 10

# Scenario specs whose step tables stay cached: 6 float64 per step for a linear
# plant, RK4_SUBSTEPS * 9 for a saturated one (24 kB / 360 kB at 500 steps).
STAGE_TABLE_CACHE = 8

# Frame parameter ranges for the reconfiguration scenarios.  Masses follow a
# two-regime distribution (mostly heavy frames with occasional drastic mass
# drops, as in payload release) so the frame sequence spans genuinely
# different dynamic regimes; spring and damping are uniform.
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
    frame_duration: float = 2.0       # s, fixed for reconfig kinds
    frames: tuple = ()                # ((m_i, C_s_i, C_d_i), ...)
    dt: float = 0.02                  # s
    horizon: float = 10.0             # s
    name: str = ""

    def __post_init__(self):
        # a hashable frame table keeps the spec usable as a cache key
        object.__setattr__(self, "frames", tuple(tuple(f) for f in self.frames))
        for name in ("mass", "dt", "sat_limit", "dist_width"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("dist_sigma", "kick_sigma"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.horizon >= self.dt:
            raise ValueError(f"horizon must cover at least one step, got {self.horizon}")
        if self.kind in _RECONFIG_KINDS:
            if abs(self.frame_duration - 2.0) > 1e-12:
                raise ValueError("reconfiguration frames are fixed at 2.0 s")
            expected = math.ceil(self.horizon / self.frame_duration)
            if len(self.frames) != expected:
                raise ValueError(
                    f"need {expected} frame parameter triples, got {len(self.frames)}"
                )
            for m_i, _, _ in self.frames:
                if not m_i > 0:
                    raise ValueError("frame masses must be positive")
        elif self.frames:
            raise ValueError(f"{self.kind.value} scenarios take no frame table")

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
        frames = _sample_frames(math.ceil(10.0 / 2.0), rng)
    return ScenarioSpec(kind=kind, frames=frames, name=name)


BUILTIN_SCENARIOS = ("ltv", "nl", "nld", "inst-reconfig", "mixed-reconfig")


def scenario(name: str) -> ScenarioSpec:
    """Return one of the five built-in scenarios by name."""
    key = name.strip().lower().replace("_", "-")
    try:
        kind = Kind(key)
    except ValueError:
        raise ValueError(
            f"unknown scenario {name!r}; expected one of {', '.join(BUILTIN_SCENARIOS)}"
        ) from None
    return _builtin(kind, key)


def save_scenario(spec: ScenarioSpec, path) -> None:
    write_json(path, {**asdict(spec), "kind": spec.kind.value})


def load_scenario(path) -> ScenarioSpec:
    payload = read_json(path, "scenario file")
    with field_errors(path, "scenario file"):
        payload["kind"] = Kind(payload["kind"])
        return ScenarioSpec(**payload)


def params_at(spec: ScenarioSpec, t) -> tuple:
    """Effective (mass, stiffness, damping) of the plant at time(s) ``t``.

    ``t`` is a float or an array of times; each result has the shape of
    ``t``.  Continuous kinds modulate the base constants; the reconfiguration
    kinds look up (and for mixed reconfiguration additionally modulate) the
    parameters of the two-second frame containing ``t``.  The values are
    bit-equal to the same law evaluated on Python floats (``math.cos``,
    ``** 2``), which is why the square is ``np.float_power``.
    """
    t = np.asarray(t, dtype=float)
    outside = ~((t >= -1e-12) & (t <= spec.horizon + 1e-9))   # NaN is outside
    if outside.any():
        raise ValueError(f"t={t[outside][0]} outside scenario horizon [0, {spec.horizon}]")
    if spec.kind in _RECONFIG_KINDS:
        frames = spec.frames
        i = np.minimum(((t + 1e-9) // spec.frame_duration).astype(int), spec.n_frames - 1)
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
    """Step indices at which boundary velocity kicks land (reconfig kinds)."""
    if spec.kind not in _RECONFIG_KINDS:
        return frozenset()
    steps = set()
    j = 1
    while j * spec.frame_duration < spec.horizon - 1e-9:
        k = math.ceil(j * spec.frame_duration / spec.dt - 1e-9)
        if 1 <= k <= spec.n_steps:
            steps.add(k)
        j += 1
    return frozenset(steps)


def _stage_params(spec: ScenarioSpec) -> np.ndarray:
    """Plant parameters at every RK4 stage time of a rollout of ``spec``.

    Row ``[k, i]`` holds ``(m, C_s, C_d)`` at ``ti``, ``ti + 0.5*h`` and
    ``ti + h``, with ``ti = t_k + i*h``: the float times the reference RK4
    step evaluates, computed the same way, so the values are bit-equal to its
    parameter lookups.  The end time is not shared with the next substep's
    start, as the two can differ by an ulp.
    """
    n = spec.n_steps
    h = spec.dt / RK4_SUBSTEPS
    ti = (np.arange(n) * spec.dt)[:, None] + np.arange(RK4_SUBSTEPS) * h
    m, cs, cd = params_at(spec, np.stack((ti, ti + 0.5 * h, ti + h), axis=-1))
    return np.stack((m, cs, cd), axis=-1).reshape(n, RK4_SUBSTEPS, 9)


@functools.lru_cache(maxsize=STAGE_TABLE_CACHE)
def _substep_kernel(spec: ScenarioSpec):
    """The plant's step as ``(table, advance)``, cached per spec.

    ``advance(table[k].tolist(), x1, x2, u, kick) -> (x1, x2)`` takes the
    plant over step k with ``u`` held; the table is read-only.  This is the
    only code that writes either force law.  Linear kinds: row k is the map
    ``(M00, M01, g0, M10, M11, g1)``, ``x(k+1) = M_k x(k) + g_k u(k)``, found
    by running the ``RK4_SUBSTEPS`` reference substeps, in their float order,
    on the basis columns of ``(x1, x2, u)`` for all steps at once.  Saturated
    kinds: the table is :func:`_stage_params`; ``advance`` runs the substeps
    inline with saturation, cubic damping and the ``nld`` bump (when ``kick``
    is nonzero), in the reference step's float order.
    """
    h = spec.dt / RK4_SUBSTEPS
    half_h = 0.5 * h
    sixth_h = h / 6.0
    stages = _stage_params(spec)
    if spec.kind not in _SATURATED_KINDS:
        def advance(row, x1, x2, u, kick):
            m00, m01, g0, m10, m11, g1 = row
            return m00 * x1 + m01 * x2 + g0 * u, m10 * x1 + m11 * x2 + g1 * u

        x1, x2, u = np.eye(3)
        for i in range(RK4_SUBSTEPS):
            m1, cs1, cd1, m2, cs2, cd2, m3, cs3, cd3 = stages[:, i].T[..., None]
            b1 = (u - cs1 * x1 - cd1 * x2) / m1
            a2 = x2 + half_h * b1
            b2 = (u - cs2 * (x1 + half_h * x2) - cd2 * a2) / m2
            a3 = x2 + half_h * b2
            b3 = (u - cs2 * (x1 + half_h * a2) - cd2 * a3) / m2
            a4 = x2 + h * b3
            b4 = (u - cs3 * (x1 + h * a3) - cd3 * a4) / m3
            x1 = x1 + sixth_h * (x2 + 2.0 * a2 + 2.0 * a3 + a4)
            x2 = x2 + sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        table = np.concatenate((x1, x2), axis=1)
        table.flags.writeable = False
        return table, advance

    stages.flags.writeable = False
    limit = spec.sat_limit
    c = spec.cubic_damping
    center = spec.dist_center
    spread = 2.0 * spec.dist_width * spec.dist_width
    exp = math.exp

    def advance(rows, x1, x2, u, kick):
        f = -limit if u < -limit else (limit if u > limit else u)
        bump = kick != 0.0
        for m1, cs1, cd1, m2, cs2, cd2, m3, cs3, cd3 in rows:
            b1 = (f - cs1 * x1 - cd1 * x2 - c * x2 * x2 * x2) / m1
            if bump:
                b1 += kick * exp(-(x1 - center) * (x1 - center) / spread)
            a2 = x2 + half_h * b1
            z2 = x1 + half_h * x2
            b2 = (f - cs2 * z2 - cd2 * a2 - c * a2 * a2 * a2) / m2
            if bump:
                b2 += kick * exp(-(z2 - center) * (z2 - center) / spread)
            a3 = x2 + half_h * b2
            z3 = x1 + half_h * a2
            b3 = (f - cs2 * z3 - cd2 * a3 - c * a3 * a3 * a3) / m2
            if bump:
                b3 += kick * exp(-(z3 - center) * (z3 - center) / spread)
            a4 = x2 + h * b3
            z4 = x1 + h * a3
            b4 = (f - cs3 * z4 - cd3 * a4 - c * a4 * a4 * a4) / m3
            if bump:
                b4 += kick * exp(-(z4 - center) * (z4 - center) / spread)
            x1 += sixth_h * (x2 + 2.0 * a2 + 2.0 * a3 + a4)
            x2 += sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        return x1, x2
    return stages, advance


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


def _initial_state(x0) -> tuple:
    x = np.asarray(x0, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"initial state must have shape (2,), got {x.shape}")
    return float(x[0]), float(x[1])


def _rollout(spec, x0, control, rng, guard: float = math.inf):
    """Kernel loop: ``control(k, t, x1, x2)`` supplies the input.

    It runs every closed loop, and the open-loop rollouts of the saturated
    kinds (their inputs looked up by step).

    Each step is one ``advance`` call of the spec's :func:`_substep_kernel`
    on Python floats and the step's row of its cached table.  The kicks come
    from :func:`_kicks`; ``control`` may draw from generators of its own.
    Reconfiguration velocity kicks are applied to the state exactly when a
    step lands on a frame boundary; the recorded state at that time includes
    the kick.  A state exceeding ``guard`` raises :class:`InstabilityError`
    carrying the partial trajectory.
    """
    n = spec.n_steps
    times = np.arange(n + 1) * spec.dt
    x1, x2 = _initial_state(x0)
    table, advance = _substep_kernel(spec)
    nld, boundary = _kicks(spec, rng)
    states = [(x1, x2)]
    inputs = []
    for k, t in enumerate(times[:-1].tolist()):
        u = float(control(k, t, x1, x2))
        inputs.append(u)
        x1, x2 = advance(table[k].tolist(), x1, x2, u, nld[k] if nld else 0.0)
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise IntegrationError(f"non-finite state after step at t={t}")
        if k + 1 in boundary:
            x2 += boundary[k + 1]
        states.append((x1, x2))
        if abs(x1) > guard or abs(x2) > guard:
            raise InstabilityError(
                k + 1,
                times=times[: k + 2],
                states=np.array(states),
                inputs=np.array(inputs).reshape(k + 1, 1),
            )
    return times, np.array(states), np.array(inputs).reshape(n, 1)


def simulate(spec: ScenarioSpec, x0, inputs, seed=None) -> Trajectory:
    """Integrate the plant open loop, holding ``inputs[k]`` over step k.

    ``inputs`` holds the ``spec.n_steps`` inputs, shape (N,) or (N, 1); the
    caller draws any randomness in them.  ``seed`` (an int or a numpy
    Generator) drives the kicks only; omitted, there are none.  Two calls
    with identical inputs, seeds and specs are bitwise-identical.  On the
    linear kinds a step is the inlined affine map of the step-map table.
    """
    n = spec.n_steps
    u = np.array(inputs, dtype=float)
    if u.shape not in ((n,), (n, 1)):
        raise ValueError(f"need {n} inputs, shape ({n},) or ({n}, 1), got {u.shape}")
    u = u.reshape(n)
    rng = np.random.default_rng(seed) if seed is not None else None
    if spec.kind in _SATURATED_KINDS:
        held = u.tolist()
        times, states, _ = _rollout(spec, x0, lambda k, t, x1, x2: held[k], rng)
    else:
        times = np.arange(n + 1) * spec.dt
        x1, x2 = _initial_state(x0)
        _, boundary = _kicks(spec, rng)
        m00, m01, g0, m10, m11, g1 = _substep_kernel(spec)[0].T
        steps = zip(
            m00.tolist(), m01.tolist(), (g0 * u).tolist(),
            m10.tolist(), m11.tolist(), (g1 * u).tolist(),
        )
        isfinite = math.isfinite
        x1s, x2s = [x1], [x2]
        for k, (a, b, c, d, e, f) in enumerate(steps, 1):
            x1, x2 = a * x1 + b * x2 + c, d * x1 + e * x2 + f
            if not (isfinite(x1) and isfinite(x2)):
                raise IntegrationError(f"non-finite state after step at t={float(times[k - 1])}")
            if k in boundary:
                x2 += boundary[k]
            x1s.append(x1)
            x2s.append(x2)
        states = np.column_stack((x1s, x2s))
    return Trajectory(
        times=times,
        states=states,
        inputs=u[:, None],
        seed=seed if isinstance(seed, int) else None,
    )


def discretize(A_c: np.ndarray, B_c: np.ndarray, dt: float) -> tuple:
    """Zero-order-hold discretization ``(A, B)`` of (A_c, B_c) over one step.

    ``A_c`` is ``(..., p, p)`` and ``B_c`` ``(..., p, q)`` with the same
    leading shape: a stack of rate pairs is discretized in one call.  Computed through the augmented matrix
    exponential

        exp([[A_c, B_c], [0, 0]] * dt) = [[A, B], [0, I]],

    which handles singular A_c (the inverse-based closed form is the special
    case of invertible A_c).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    A_c = np.asarray(A_c, dtype=float)
    B_c = np.asarray(B_c, dtype=float)
    p = A_c.shape[-1]
    q = B_c.shape[-1]
    m = np.zeros(A_c.shape[:-2] + (p + q, p + q))
    m[..., :p, :p] = A_c
    m[..., :p, p:] = B_c
    e = expm(m * dt)
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
