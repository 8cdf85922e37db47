"""Banded Cholesky of a symmetric block-tridiagonal matrix.

:func:`factor_block_tridiag` factors the matrix given its diagonal blocks
D[k] (size m) and the full m x m upper blocks E[k] that couple step k to
step k+1: a band of half-bandwidth 2m-1, factored by LAPACK's banded
Cholesky (``dpbtrf``) in O(N m^3), i.e. linear in the number of blocks.
:func:`banded_solve` solves with a factorization (``dpbtrs``), which can be
reused across right-hand sides.  Both routines are called through ctypes
from the OpenBLAS that numpy's wheel bundles
(:func:`ltvbench.toolchain.lapack_routine`); importing this module fails,
naming the symbol, where that library does not export them.  The fits
assemble their own blocks (:mod:`.cosmic`, :mod:`.ltvmodels`).
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


def factor_block_tridiag(diag, upper):
    """Cholesky-factor a symmetric block-tridiagonal matrix in LAPACK upper
    banded form.

    ``diag`` holds the N diagonal blocks, shape (N, m, m); ``upper`` the N-1
    blocks coupling step k to k+1, shape (N-1, m, m).  Returns an opaque
    factorization for :func:`banded_solve`.  Raises :class:`NumericalError`
    when an entry is not finite or the matrix is not positive definite.
    """
    n, m = diag.shape[:2]
    u = 2 * m - 1
    # Entry (row, col), row <= col, of the matrix sits at band[col, u + row - col],
    # so band.T is the column-major upper band that LAPACK factors in place;
    # cols[k, j] is column k m + j.  Lower triangles are never written.
    band = np.zeros((n * m, u + 1))
    cols = band.reshape(n, m, u + 1)
    for j in range(m):
        cols[:, j, u - j :] = diag[:, : j + 1, j]   # rows k m .. k m + j
        cols[1:, j, u - m - j : u - j] = upper[:, :, j]   # rows (k-1) m + 0..m-1
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
