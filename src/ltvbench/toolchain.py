"""The toolchain a run's bytes depend on, as its manifest records it, and the
one BLAS library the package calls: the OpenBLAS that numpy's wheel bundles."""

import ctypes
import platform
from pathlib import Path

import numpy as np

# numpy's bundled OpenBLAS, in the ``numpy.libs`` directory of a wheel install;
# None for a numpy that bundles none
_PATHS = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*.so"))
_LIBRARY = ctypes.CDLL(str(_PATHS[0])) if _PATHS else None


def openblas_symbol(symbol: str):
    """``symbol`` of numpy's bundled OpenBLAS, as a ctypes function; ``None``
    when the library or its symbol is not found."""
    return getattr(_LIBRARY, symbol, None)


def lapack_routine(name: str):
    """LAPACK routine ``name`` (e.g. ``dpbtrf``) of numpy's bundled OpenBLAS,
    as a ctypes function.  The library exports it as ``scipy_<name>_64_``:
    the Fortran ABI with 64-bit integers.  Raises ``ImportError`` naming that
    symbol when it is not found (a numpy that is not a PyPI wheel)."""
    symbol = f"scipy_{name}_64_"
    function = openblas_symbol(symbol)
    if function is None:
        raise ImportError(
            f"numpy's bundled OpenBLAS does not export {symbol}; "
            "ltvbench needs numpy's Linux wheel from PyPI"
        )
    return function


def openblas_core() -> str | None:
    """The core (e.g. ``SkylakeX``) of numpy's bundled OpenBLAS; ``None``
    when the library or its symbol is not found."""
    corename = openblas_symbol("scipy_openblas_get_corename64_")
    if corename is None:
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def single_blas_thread() -> None:
    """Set the bundled OpenBLAS to one thread, so that parallel worker
    processes do not oversubscribe the cores; without it nothing is set."""
    setter = openblas_symbol("scipy_openblas_set_num_threads64_")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter(1)


def toolchain() -> dict:
    """The versions the artifacts' bytes depend on, and the core the
    OpenBLAS dispatched to: another core may round differently."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_core_numpy": openblas_core(),
    }
