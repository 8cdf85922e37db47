"""Symmetric block-tridiagonal solver for chain-coupled normal equations.

Solves, for k = 0..N-1 with the boundary convention lam[0] = lam[N] = 0,

    (G[k] + (lam[k] + lam[k+1]) W) X[k] - lam[k] W X[k-1] - lam[k+1] W X[k+1] = R[k]

where G[k] are symmetric PSD blocks of size d, W is a fixed diagonal weight
(identity by default), and the right-hand sides R[k] may carry multiple
columns.  The system is a symmetric band matrix of half-bandwidth d, so it is
factored by LAPACK's banded Cholesky in O(N d^3), i.e. linear in the number
of blocks.  The factorization can be reused across right-hand sides, which
the iterative solvers rely on.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from ..exceptions import NumericalError


def _check_lam(lam, n):
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (n + 1,):
        raise ValueError(f"lam must have shape ({n + 1},), got {lam.shape}")
    if lam[0] != 0.0 or lam[-1] != 0.0:
        raise ValueError("boundary couplings lam[0] and lam[N] must be zero")
    if np.any(lam < 0):
        raise ValueError("couplings must be nonnegative")
    return lam


def apply_block_tridiag(gram, lam, x, weight=None) -> np.ndarray:
    """Multiply the block-tridiagonal system matrix by stacked blocks ``x``."""
    gram = np.asarray(gram, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = gram.shape[:2]
    lam = _check_lam(lam, n)
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    wx = w[None, :, None] * x
    out = np.einsum("kij,kjm->kim", gram, x)
    out += (lam[:-1] + lam[1:])[:, None, None] * wx
    out[1:] -= lam[1:-1, None, None] * wx[:-1]
    out[:-1] -= lam[1:-1, None, None] * wx[1:]
    return out


def banded_factor(gram, lam, weight=None):
    """Cholesky-factor the system in LAPACK upper banded form.

    Returns an opaque factorization for :func:`banded_solve`.  Raises
    :class:`NumericalError` when the blocks, couplings or weight are not
    finite, or the system is not positive definite.
    """
    gram = np.asarray(gram, dtype=float)
    n, d, d2 = gram.shape
    if d != d2:
        raise ValueError(f"gram blocks must be square, got {gram.shape}")
    lam = _check_lam(lam, n)
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    ab = np.zeros((d + 1, n * d))
    diag_add = np.repeat(lam[:-1] + lam[1:], d) * np.tile(w, n)
    ab[d, :] = gram[:, np.arange(d), np.arange(d)].reshape(-1) + diag_add
    for off in range(1, d):
        i = np.arange(d - off)
        vals = gram[:, i, i + off]                      # (n, d-off)
        idx = (np.arange(n)[:, None] * d + i[None, :] + off).reshape(-1)
        ab[d - off, idx] = vals.reshape(-1)
    if n > 1:
        ab[0, d:] = -np.repeat(lam[1:-1], d) * np.tile(w, n - 1)
    if not np.all(np.isfinite(ab)):
        raise NumericalError("block-tridiagonal system has non-finite entries")
    try:
        cb = cholesky_banded(ab, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("banded factorization failed; system not PD") from exc
    return cb, n, d


def banded_solve(fact, rhs) -> np.ndarray:
    cb, n, d = fact
    rhs = np.asarray(rhs, dtype=float)
    cols = rhs.shape[2]
    out = cho_solve_banded((cb, False), rhs.reshape(n * d, cols), check_finite=False)
    return out.reshape(n, d, cols)


def solve_block_tridiag(gram, lam, rhs, weight=None) -> np.ndarray:
    """Factor, solve, and take one refinement sweep on the residual.

    The refinement re-solves for the residual of the first solution with the
    same factorization; it recovers accuracy when the coupling dwarfs the
    data blocks (very large lam).
    """
    fact = banded_factor(gram, lam, weight)
    x = banded_solve(fact, rhs)
    x = x + banded_solve(fact, rhs - apply_block_tridiag(gram, lam, x, weight))
    if not np.all(np.isfinite(x)):
        raise NumericalError("block-tridiagonal solve produced non-finite values")
    return x
