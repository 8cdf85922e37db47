"""The toolchain a run's bytes depend on, as its manifest records it."""

import ctypes
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

# package -> the OpenBLAS symbol that names the core its kernels were chosen for
OPENBLAS_CORENAMES = {
    "numpy": "scipy_openblas_get_corename64_",
    "scipy": "scipy_openblas_get_corename",
}
# package -> the OpenBLAS symbol that sets its thread count
OPENBLAS_THREAD_SETTERS = {
    "numpy": "scipy_openblas_set_num_threads64_",
    "scipy": "scipy_openblas_set_num_threads",
}


def openblas_symbol(package: str, symbol: str):
    """``symbol`` of the OpenBLAS library bundled in the ``<package>.libs``
    directory of a wheel install, as a ctypes function; ``None`` when the
    library or its symbol is not found."""
    libs = Path(sys.modules[package].__file__).parents[1] / f"{package}.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        function = getattr(ctypes.CDLL(str(path)), symbol, None)
        if function is not None:
            return function
    return None


def openblas_core(package: str) -> str | None:
    """The core (e.g. ``SkylakeX``) of ``package``'s bundled OpenBLAS;
    ``None`` when the library or its symbol is not found."""
    corename = openblas_symbol(package, OPENBLAS_CORENAMES[package])
    if corename is None:
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def single_blas_thread() -> None:
    """Set each bundled OpenBLAS to one thread, so that parallel worker
    processes do not oversubscribe the cores; a library that is not bundled
    is left alone."""
    for package, symbol in OPENBLAS_THREAD_SETTERS.items():
        setter = openblas_symbol(package, symbol)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter(1)


def toolchain() -> dict:
    """The versions the artifacts' bytes depend on, and the core each
    OpenBLAS dispatched to: another core may round differently."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{f"openblas_core_{package}": openblas_core(package) for package in OPENBLAS_CORENAMES},
    }
