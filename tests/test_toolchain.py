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


def run_fresh(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter that imports this
    checkout's package (the tests themselves import scipy and every module)."""
    src = str(Path(ltvbench.__file__).parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_imports_leave_scipy_out():
    code = "import sys, ltvbench.cli, ltvbench.bench; print('scipy' in sys.modules)"
    assert run_fresh(code) == "False\n"


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("ltvbench", "ltvbench"),
        ("ltvbench.toolchain", "ltvbench ltvbench.toolchain"),
        (
            "ltvbench.dynamics",
            "ltvbench ltvbench.dynamics ltvbench.exceptions ltvbench.files ltvbench.models",
        ),
    ],
)
def test_leaf_modules_load_alone(module, loaded):
    # the package root imports nothing, so a leaf loads only what it uses:
    # the toolchain probe no fit, and the plants no fit, controller or dataset
    code = f"import sys, {module}; print(*sorted(m for m in sys.modules if 'ltvbench' in m))"
    assert run_fresh(code) == loaded + "\n"
