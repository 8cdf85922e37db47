"""Symmetric block-tridiagonal solver for chain-coupled normal equations.

:func:`factor_block_tridiag` Cholesky-factors any symmetric block-tridiagonal
matrix, given its diagonal blocks D[k] (size m) and the upper blocks E[k]
that couple step k to step k+1.  An upper block is either a full m x m
matrix, giving a band of half-bandwidth 2m-1 (the Newton systems of the
``ltvmodels`` fit), or a diagonal stored as a length-m vector, giving
half-bandwidth m.  Both are factored by LAPACK's banded Cholesky in
O(N m u^2) for half-bandwidth u, i.e. linear in the number of blocks, and a
factorization can be reused across right-hand sides.

The chain-coupled system of the cosmic fit,

    (G[k] + (lam[k] + lam[k+1]) W) X[k] - lam[k] W X[k-1] - lam[k+1] W X[k+1] = R[k]

for k = 0..N-1 with the boundary convention lam[0] = lam[N] = 0, has
diagonal couplings: G[k] are symmetric PSD blocks of size d, W is a fixed
diagonal weight (identity by default), and the right-hand sides R[k] may
carry multiple columns.  :func:`banded_factor` assembles it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
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


def factor_block_tridiag(diag, upper):
    """Cholesky-factor a symmetric block-tridiagonal matrix in LAPACK upper
    banded form.

    ``diag`` holds the N diagonal blocks, shape (N, m, m); ``upper`` the N-1
    blocks coupling step k to k+1, either full, shape (N-1, m, m), or
    diagonal, shape (N-1, m).  Returns an opaque factorization for
    :func:`banded_solve`.  Raises :class:`NumericalError` when an entry is
    not finite or the matrix is not positive definite.
    """
    n, m = diag.shape[:2]
    full = upper.ndim == 3
    u = 2 * m - 1 if full else m
    nm = n * m
    # Entry (row, col) of the matrix sits at ab[u + row - col, col].  ab gets
    # m - 1 spare rows below the band, where the lower triangles of the
    # diagonal blocks land; they are dropped before factoring.
    ab = np.zeros((u + m, nm))
    size = ab.itemsize

    def blocks_at(row, col, count):
        # View whose [k, i, j] is ab[row + i - j, col + k m + j]; every such
        # position lies inside ab for the callers below.
        return as_strided(
            ab[row:, col:], (count, m, m), (m * size, nm * size, (1 - nm) * size)
        )

    blocks_at(u, 0, n)[...] = diag
    if n > 1:
        if full:
            blocks_at(u - m, m, n - 1)[...] = upper
        else:
            ab[0, m:] = upper.reshape(-1)
    ab = ab[: u + 1]
    if not np.all(np.isfinite(ab)):
        raise NumericalError("block-tridiagonal system has non-finite entries")
    try:
        cb = cholesky_banded(ab, lower=False, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("banded factorization failed; system not PD") from exc
    return cb, n, m


def banded_factor(gram, lam, weight=None):
    """Factor the chain-coupled system of the module docstring.

    Raises :class:`NumericalError` when the blocks, couplings or weight are
    not finite, or the system is not positive definite.
    """
    gram = np.asarray(gram, dtype=float)
    n, d, d2 = gram.shape
    if d != d2:
        raise ValueError(f"gram blocks must be square, got {gram.shape}")
    lam = _check_lam(lam, n)
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    diag = gram.copy()
    diag[:, np.arange(d), np.arange(d)] += (lam[:-1] + lam[1:])[:, None] * w
    return factor_block_tridiag(diag, -lam[1:-1, None] * w)


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
