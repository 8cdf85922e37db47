"""Outside-in tracing: spans around the public functions each layer exposes.

Callers bind names at import time (``from .dynamics import simulate``), so a
span is recorded by replacing the name in the namespace of the module that
calls it; replacing it in the defining module would miss those callers.
Each call path is wrapped exactly once, at the binding its caller uses:
wrapping a function at two bindings that lead to each other counts every
call twice.

Spans stay in memory and are written out when the run ends.  Nothing under
``src/`` is modified; the wrappers are removed when tracing stops.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the enclosing span, None at the root
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for one run; single-threaded by construction."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list = []

    def call(self, name: str, fn, args, kwargs, on_result=None):
        """Run ``fn`` inside a span; ``on_result(attrs, args, result)`` adds counts."""
        span = Span(
            name, time.perf_counter(), 0.0,
            self._stack[-1] if self._stack else None, self.run_id,
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            on_result(span.attrs, args, result)
        return result

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Replace ``module.attr`` by a traced wrapper until :meth:`unwrap`.

        ``name`` is a span name or a function of the call's arguments.
        """
        if isinstance(module, str):
            module = importlib.import_module(module)
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            return tracer.call(span_name, original, args, kwargs, on_result)

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def self_times(self) -> list:
        """Each span's duration minus the part of it its direct children cover."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
