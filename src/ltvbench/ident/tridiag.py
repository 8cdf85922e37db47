"""Symmetric block-tridiagonal solver for chain-coupled normal equations.

:func:`factor_block_tridiag` Cholesky-factors any symmetric block-tridiagonal
matrix, given its diagonal blocks D[k] (size m) and the upper blocks E[k]
that couple step k to step k+1.  An upper block is either a full m x m
matrix, giving a band of half-bandwidth 2m-1 (the Newton systems of the
``ltvmodels`` fit), or a diagonal stored as a length-m vector, giving
half-bandwidth m.  Both are factored by LAPACK's banded Cholesky
(``dpbtrf``, then ``dpbtrs`` per solve) in O(N m u^2) for half-bandwidth u,
i.e. linear in the number of blocks, and a factorization can be reused
across right-hand sides.  Both routines are called through ctypes from the
OpenBLAS that numpy's wheel bundles (:func:`ltvbench.toolchain.lapack_routine`);
importing this module fails, naming the symbol, where that library does not
export them.

The chain-coupled system of the cosmic fit,

    (G[k] + (lam + lam) W) X[k] - lam W X[k-1] - lam W X[k+1] = R[k]

for k = 0..N-1, where the terms in X[-1] and X[N] and their lam W on the
diagonal are dropped, has diagonal couplings: lam >= 0 is one coupling, G[k]
are symmetric PSD blocks of size d, W is a fixed diagonal weight (identity
by default), and the right-hand sides R[k] may carry multiple columns.
:func:`banded_factor` assembles it.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..exceptions import NumericalError
from ..toolchain import lapack_routine

# Fortran ABI: every argument by reference, 64-bit integers, and the length
# of the UPLO string as a trailing hidden argument.
_INT = ctypes.POINTER(ctypes.c_int64)
_DPBTRF = lapack_routine("dpbtrf")   # UPLO, N, KD, AB, LDAB, INFO
_DPBTRF.argtypes = [ctypes.c_char_p, _INT, _INT, ctypes.c_void_p, _INT, _INT, ctypes.c_size_t]
_DPBTRS = lapack_routine("dpbtrs")   # UPLO, N, KD, NRHS, AB, LDAB, B, LDB, INFO
_DPBTRS.argtypes = [
    ctypes.c_char_p, _INT, _INT, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT,
    ctypes.c_size_t,
]
_DPBTRF.restype = _DPBTRS.restype = None


def _ints(*values) -> list:
    return [ctypes.byref(ctypes.c_int64(v)) for v in values]


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
    info = ctypes.c_int64()
    _DPBTRF(b"U", *_ints(n * m, u), ab.ctypes.data, *_ints(u + 1), ctypes.byref(info), 1)
    if info.value != 0:
        raise NumericalError(
            f"banded factorization failed (LAPACK info {info.value}); system not PD"
        )
    return ab, n, m


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
    """Solve with a factorization of :func:`factor_block_tridiag` for the
    stacked right-hand sides ``rhs`` (N, m, c), into a Fortran-ordered copy."""
    ab, n, d = fact
    rhs = np.asarray(rhs, dtype=float)
    cols = rhs.shape[2]
    out = np.array(rhs.reshape(n * d, cols), order="F")
    info = ctypes.c_int64()
    _DPBTRS(
        b"U", *_ints(n * d, ab.shape[0] - 1, cols), ab.ctypes.data, *_ints(ab.shape[0]),
        out.ctypes.data, *_ints(n * d), ctypes.byref(info), 1,
    )
    if info.value != 0:
        raise ValueError(f"illegal argument {-info.value} to LAPACK dpbtrs")
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
