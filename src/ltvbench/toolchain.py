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


def openblas_core(package: str) -> str | None:
    """The core (e.g. ``SkylakeX``) of the OpenBLAS library bundled in the
    ``<package>.libs`` directory of a wheel install; ``None`` when the
    library or its symbol is not found."""
    libs = Path(sys.modules[package].__file__).parents[1] / f"{package}.libs"
    symbol = OPENBLAS_CORENAMES[package]
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        corename = getattr(ctypes.CDLL(str(path)), symbol, None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def toolchain() -> dict:
    """The versions the artifacts' bytes depend on, and the core each
    OpenBLAS dispatched to: another core may round differently."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{f"openblas_core_{package}": openblas_core(package) for package in OPENBLAS_CORENAMES},
    }
