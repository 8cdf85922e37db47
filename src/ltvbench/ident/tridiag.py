"""Symmetric block-tridiagonal solver for chain-coupled normal equations.

:func:`factor_block_tridiag` Cholesky-factors any symmetric block-tridiagonal
matrix, given its diagonal blocks D[k] (size m) and the upper blocks E[k]
that couple step k to step k+1.  An upper block is either a full m x m
matrix, giving a band of half-bandwidth 2m-1 (the Newton systems of the
``ltvmodels`` fit), or a diagonal stored as a length-m vector, giving
half-bandwidth m.  Both are factored by LAPACK's banded Cholesky
(``dpbtrf``, called directly, then ``dpbtrs`` per solve) in O(N m u^2) for
half-bandwidth u, i.e. linear in the number of blocks, and a
factorization can be reused across right-hand sides.

The chain-coupled system of the cosmic fit,

    (G[k] + (lam + lam) W) X[k] - lam W X[k-1] - lam W X[k+1] = R[k]

for k = 0..N-1, where the terms in X[-1] and X[N] and their lam W on the
diagonal are dropped, has diagonal couplings: lam >= 0 is one coupling, G[k]
are symmetric PSD blocks of size d, W is a fixed diagonal weight (identity
by default), and the right-hand sides R[k] may carry multiple columns.
:func:`banded_factor` assembles it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from ..exceptions import NumericalError


def _coupling_sums(n: int, lam: float) -> np.ndarray:
    """lam once per neighbour of each of the n blocks: lam + lam inside, lam
    at the two ends, 0 for a lone block."""
    sums = np.zeros(n)
    sums[1:] += lam
    sums[:-1] += lam
    return sums


def apply_block_tridiag(gram, lam, x, weight=None) -> np.ndarray:
    """Multiply the block-tridiagonal system matrix by stacked blocks ``x``."""
    gram = np.asarray(gram, dtype=float)
    x = np.asarray(x, dtype=float)
    n, d = gram.shape[:2]
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    wx = w[None, :, None] * x
    out = np.einsum("kij,kjm->kim", gram, x)
    out += _coupling_sums(n, lam)[:, None, None] * wx
    out[1:] -= lam * wx[:-1]
    out[:-1] -= lam * wx[1:]
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
    # Entry (row, col), row <= col, of the matrix sits at band[col, u + row - col],
    # so band.T is the column-major upper band that LAPACK factors in place;
    # cols[k, j] is column k m + j.  Lower triangles are never written.
    band = np.zeros((n * m, u + 1))
    cols = band.reshape(n, m, u + 1)
    for j in range(m):
        cols[:, j, u - j :] = diag[:, : j + 1, j]   # rows k m .. k m + j
        if full:
            cols[1:, j, u - m - j : u - j] = upper[:, :, j]   # rows (k-1) m + 0..m-1
    if not full:
        cols[1:, :, 0] = upper
    ab = band.T
    if not np.all(np.isfinite(ab)):
        raise NumericalError("block-tridiagonal system has non-finite entries")
    cb, info = dpbtrf(ab, lower=0, overwrite_ab=1)
    if info != 0:
        raise NumericalError(f"banded factorization failed (LAPACK info {info}); system not PD")
    return cb, n, m


def banded_factor(gram, lam, weight=None):
    """Factor the chain-coupled system of the module docstring.

    Raises ``ValueError`` when ``lam`` is negative, and
    :class:`NumericalError` when the blocks, coupling or weight are not
    finite, or the system is not positive definite.
    """
    gram = np.asarray(gram, dtype=float)
    n, d, d2 = gram.shape
    if d != d2:
        raise ValueError(f"gram blocks must be square, got {gram.shape}")
    if lam < 0:
        raise ValueError(f"coupling lam must be nonnegative, got {lam}")
    w = np.ones(d) if weight is None else np.asarray(weight, dtype=float)
    diag = gram.copy()
    diag[:, np.arange(d), np.arange(d)] += _coupling_sums(n, lam)[:, None] * w
    return factor_block_tridiag(diag, np.broadcast_to(-lam * w, (n - 1, d)))


def banded_solve(fact, rhs) -> np.ndarray:
    cb, n, d = fact
    rhs = np.asarray(rhs, dtype=float)
    cols = rhs.shape[2]
    out, info = dpbtrs(cb, rhs.reshape(n * d, cols), lower=0)
    if info != 0:
        raise ValueError(f"illegal argument {-info} to LAPACK dpbtrs")
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
