"""Model containers shared by the simulation, identification, and control layers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataFormatError
from .files import field_errors, read_json, write_json

MODEL_FORMAT = "ltv-model/1"


@dataclass
class LtvModel:
    """Discrete LTV model x(k+1) = A(k) x(k) + B(k) u(k) for k = 0..N-1.

    ``A`` has shape (N, p, p) and ``B`` shape (N, p, q).  Both are stored
    C-contiguous, whatever layout they arrive in: the memory order of A(k)
    picks the BLAS kernel of every product with it, and so its rounding, so
    one layout makes a model's products independent of the fit that built
    it.  ``info`` holds solver diagnostics (iteration counts, convergence
    flags); it is not part of the persisted file format.
    """

    A: np.ndarray
    B: np.ndarray
    dt: float
    method: str = ""
    hyperparams: dict = field(default_factory=dict)
    preconditioning: dict | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.A = np.ascontiguousarray(self.A, dtype=float)
        self.B = np.ascontiguousarray(self.B, dtype=float)
        if self.A.ndim != 3 or self.A.shape[1] != self.A.shape[2]:
            raise ValueError(f"A must be (N, p, p), got shape {self.A.shape}")
        if self.B.ndim != 3 or self.B.shape[:2] != self.A.shape[:2]:
            raise ValueError(f"B must be (N, p, q), got shape {self.B.shape}")
        if self.A.shape[0] < 1:
            raise ValueError("model must cover at least one step")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def n_steps(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.A.shape[1]

    @property
    def q(self) -> int:
        return self.B.shape[2]

    def stacked(self) -> np.ndarray:
        """Return the per-step parameter blocks [A(k)^T; B(k)^T], shape (N, p+q, p)."""
        return np.concatenate(
            [self.A.transpose(0, 2, 1), self.B.transpose(0, 2, 1)], axis=1
        )

    @classmethod
    def from_stacked(cls, blocks: np.ndarray, q: int, dt: float, **meta) -> "LtvModel":
        blocks = np.asarray(blocks, dtype=float)
        p = blocks.shape[1] - q
        A = blocks[:, :p, :].transpose(0, 2, 1)
        B = blocks[:, p:, :].transpose(0, 2, 1)
        return cls(A=A, B=B, dt=dt, **meta)

    @classmethod
    def from_constant(cls, A, B, n_steps: int, dt: float, **meta) -> "LtvModel":
        """The time-invariant model that applies one (A, B) pair at every step."""
        A = np.repeat(np.asarray(A, dtype=float)[None], n_steps, axis=0)
        B = np.repeat(np.asarray(B, dtype=float)[None], n_steps, axis=0)
        return cls(A=A, B=B, dt=dt, **meta)


def save_model(model: LtvModel, path) -> None:
    """Write a model to JSON with row-major A(k)/B(k) arrays at full precision."""
    payload = {
        "format": MODEL_FORMAT,
        "p": model.p,
        "q": model.q,
        "n_steps": model.n_steps,
        "dt": model.dt,
        "method": model.method,
        "hyperparams": model.hyperparams,
        "preconditioning": model.preconditioning,
        "A": model.A,
        "B": model.B,
    }
    write_json(path, payload)


def load_model(path) -> LtvModel:
    payload = read_json(path, "model file", MODEL_FORMAT)
    with field_errors(path, "model file"):
        model = LtvModel(
            A=np.asarray(payload["A"], dtype=float),
            B=np.asarray(payload["B"], dtype=float),
            dt=float(payload["dt"]),
            method=payload.get("method", ""),
            hyperparams=payload.get("hyperparams") or {},
            preconditioning=payload.get("preconditioning"),
        )
        header = (payload["p"], payload["q"], payload["n_steps"])
    if (model.p, model.q, model.n_steps) != header:
        raise DataFormatError(f"dimension header disagrees with arrays in {path}")
    return model
