"""numpy is the one run-time dependency: the package's LAPACK routines come
from numpy's bundled OpenBLAS, and importing it never imports scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltvbench
from ltvbench.toolchain import lapack_routine


def test_missing_lapack_routine_names_its_symbol():
    with pytest.raises(ImportError, match="scipy_no_such_routine_64_"):
        lapack_routine("no_such_routine")


def test_package_imports_leave_scipy_out():
    # a fresh interpreter: the tests themselves import scipy as an oracle
    src = str(Path(ltvbench.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, ltvbench.cli, ltvbench.bench; print('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
