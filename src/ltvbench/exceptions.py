"""Exception types shared across the package, and the one rule for errors.

Only an :class:`LtvBenchError` is recorded: as a tuning grid row's error, a
table cell's ``"<type>: <message>"``, or the CLI's exit 2 (with an
``OSError``).  The recorded types: :class:`InputError` (an outside value
the package cannot use), :class:`DataFormatError` (a malformed file),
:class:`ExcitationError`, :class:`RealizationError`,
:class:`NumericalError` and its :class:`IntegrationError`,
:class:`SynthesisError`, :class:`InstabilityError` and :class:`TuningError`.
Anything else (a ``TypeError``, numpy's ``LinAlgError``, a plain
``ValueError`` from a wrong call or a shape bug) is a programming bug and
fails the run with its traceback.  So each check raises its typed error
where it is made; only a file reader or a CLI parser turns the
``ValueError`` of parsing its input into a typed one.
"""


class LtvBenchError(Exception):
    """Base class for all package-specific errors."""


class InputError(LtvBenchError, ValueError):
    """A value from outside the program (an argument, a setting, a spec or
    the data's shape) that the package cannot use."""


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

    def __reduce__(self):   # a worker process sends it whole, message included
        return type(self), (self.step, self.times, self.states, self.inputs)


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
