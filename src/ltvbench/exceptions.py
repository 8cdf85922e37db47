"""Exception types shared across the package."""

import numpy as np


class LtvBenchError(Exception):
    """Base class for all package-specific errors."""


class NumericalError(LtvBenchError):
    """A numerical routine produced non-finite or singular results."""


class IntegrationError(NumericalError):
    """Numerical integration produced a non-finite state."""


class InstabilityError(LtvBenchError):
    """Closed-loop state exceeded the divergence guard.

    Carries the step index at which the guard tripped and the trajectory
    realized up to (and including) that step.
    """

    def __init__(self, step, times=None, states=None, inputs=None):
        super().__init__(f"state diverged at step {step}")
        self.step = step
        self.times = times
        self.states = states
        self.inputs = inputs


class ExcitationError(LtvBenchError):
    """Data does not span the regressor space needed for identification."""


class RealizationError(LtvBenchError):
    """Hankel factorization too ill-posed to extract a realization."""


class SynthesisError(LtvBenchError):
    """Gain synthesis hit a singular or non-finite quantity."""


class TuningError(LtvBenchError):
    """Every grid point failed to fit; carries per-point diagnostics."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class DataFormatError(LtvBenchError):
    """A dataset, model, or schedule file is missing or malformed."""


# What a tuning grid point or a benchmark table cell records as its error
# instead of failing the run: the package's own errors, invalid settings
# (e.g. ``lam=-1``) and singular linear algebra.  Anything else, e.g. a
# ``TypeError``, is a bug and propagates.
RECORDED_ERRORS = (LtvBenchError, ValueError, np.linalg.LinAlgError)
