import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ltvbench.exceptions import NumericalError
from ltvbench.ident.tridiag import (
    apply_block_tridiag,
    banded_factor,
    banded_solve,
    factor_block_tridiag,
    solve_block_tridiag,
)


def random_system(rng, n, d, cols, lam_scale=1.0, weight=None):
    m = rng.normal(size=(n, d + 2, d))
    gram = np.einsum("kli,klj->kij", m, m)          # PSD blocks
    lam = np.zeros(n + 1)
    lam[1:-1] = lam_scale * rng.uniform(0.1, 1.0, size=max(n - 1, 0))
    rhs = rng.normal(size=(n, d, cols))
    return gram, lam, rhs


def dense_assemble(gram, lam, weight=None):
    n, d = gram.shape[:2]
    w = np.ones(d) if weight is None else np.asarray(weight)
    big = np.zeros((n * d, n * d))
    for k in range(n):
        big[k * d : (k + 1) * d, k * d : (k + 1) * d] = gram[k] + (
            lam[k] + lam[k + 1]
        ) * np.diag(w)
        if k > 0:
            big[k * d : (k + 1) * d, (k - 1) * d : k * d] = -lam[k] * np.diag(w)
            big[(k - 1) * d : k * d, k * d : (k + 1) * d] = -lam[k] * np.diag(w)
    return big


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
@pytest.mark.parametrize("d,cols", [(3, 2), (1, 1), (4, 3)])
def test_matches_dense_solve(n, d, cols):
    rng = np.random.default_rng(100 * n + d)
    gram, lam, rhs = random_system(rng, n, d, cols)
    x = solve_block_tridiag(gram, lam, rhs)
    dense = np.linalg.solve(dense_assemble(gram, lam), rhs.reshape(n * d, cols))
    assert np.max(np.abs(x.reshape(n * d, cols) - dense)) <= 1e-10


def test_weighted_variant_matches_dense():
    rng = np.random.default_rng(5)
    gram, lam, rhs = random_system(rng, 6, 3, 2)
    w = rng.uniform(0.5, 2.0, size=3)
    x = solve_block_tridiag(gram, lam, rhs, weight=w)
    dense = np.linalg.solve(dense_assemble(gram, lam, w), rhs.reshape(18, 2))
    assert np.max(np.abs(x.reshape(18, 2) - dense)) <= 1e-10


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(6)
    gram, lam, _ = random_system(rng, 5, 3, 1)
    x = rng.normal(size=(5, 3, 2))
    out = apply_block_tridiag(gram, lam, x)
    dense = dense_assemble(gram, lam) @ x.reshape(15, 2)
    assert_allclose(out.reshape(15, 2), dense, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    d=st.integers(1, 4),
    weighted=st.booleans(),
    log_lam=st.floats(-6.0, 9.0),
)
def test_random_systems_match_dense_oracle(seed, n, d, weighted, log_lam):
    rng = np.random.default_rng(seed)
    gram, lam, rhs = random_system(rng, n, d, 2, lam_scale=10.0**log_lam)
    w = rng.uniform(0.5, 2.0, size=d) if weighted else None
    x = solve_block_tridiag(gram, lam, rhs, weight=w)
    residual = rhs - apply_block_tridiag(gram, lam, x, weight=w)
    assert np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(rhs))
    big = dense_assemble(gram, lam, w)
    if np.linalg.cond(big) <= 1e5:
        dense = np.linalg.solve(big, rhs.reshape(n * d, 2))
        err = np.max(np.abs(x.reshape(n * d, 2) - dense))
        assert err <= 1e-10 * max(1.0, np.max(np.abs(dense)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    m=st.integers(1, 6),
    diagonal_coupling=st.booleans(),
)
def test_general_blocks_match_dense_oracle(seed, n, m, diagonal_coupling):
    # Full upper blocks span half-bandwidth 2m-1, diagonal ones m.
    rng = np.random.default_rng(seed)
    if diagonal_coupling:
        upper = rng.normal(size=(n - 1, m))
        up_blocks = upper[:, :, None] * np.eye(m)
    else:
        upper = up_blocks = rng.normal(size=(n - 1, m, m))
    f = rng.normal(size=(n, m, m))
    diag = f @ f.transpose(0, 2, 1) + 2.0 * m * (1.0 + np.abs(up_blocks).max(initial=0.0)) * np.eye(m)
    big = np.zeros((n * m, n * m))
    for k in range(n):
        big[k * m : (k + 1) * m, k * m : (k + 1) * m] = diag[k]
        if k < n - 1:
            big[k * m : (k + 1) * m, (k + 1) * m : (k + 2) * m] = up_blocks[k]
            big[(k + 1) * m : (k + 2) * m, k * m : (k + 1) * m] = up_blocks[k].T
    rhs = rng.normal(size=(n, m, 2))
    x = banded_solve(factor_block_tridiag(diag, upper), rhs)
    dense = np.linalg.solve(big, rhs.reshape(n * m, 2))
    assert np.max(np.abs(x.reshape(n * m, 2) - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


def test_refinement_handles_dominant_coupling():
    # coupling 12 orders above the data blocks; refinement keeps the residual small
    rng = np.random.default_rng(8)
    gram, lam, rhs = random_system(rng, 20, 3, 2, lam_scale=1e9)
    x = solve_block_tridiag(gram, lam, rhs)
    residual = rhs - apply_block_tridiag(gram, lam, x)
    assert np.max(np.abs(residual)) <= 1e-6 * np.max(np.abs(rhs))


def test_singular_system_raises():
    gram = np.zeros((3, 2, 2))
    lam = np.zeros(4)
    with pytest.raises(NumericalError):
        banded_factor(gram, lam)
    with pytest.raises(NumericalError):
        solve_block_tridiag(gram, lam, np.ones((3, 2, 1)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_block_raises(bad):
    rng = np.random.default_rng(9)
    gram, lam, rhs = random_system(rng, 4, 2, 1)
    gram[2, 0, 1] = gram[2, 1, 0] = bad
    with pytest.raises(NumericalError):
        banded_factor(gram, lam)
    with pytest.raises(NumericalError):
        solve_block_tridiag(gram, lam, rhs)


def test_non_finite_rhs_raises():
    rng = np.random.default_rng(10)
    gram, lam, rhs = random_system(rng, 4, 2, 1)
    rhs[1, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        solve_block_tridiag(gram, lam, rhs)


def test_lam_validation():
    gram = np.eye(2)[None].repeat(3, axis=0)
    with pytest.raises(ValueError):
        banded_factor(gram, np.ones(4))    # nonzero boundaries
    with pytest.raises(ValueError):
        banded_factor(gram, np.zeros(3))   # wrong length
    with pytest.raises(ValueError):
        solve_block_tridiag(gram, np.array([0.0, -1.0, -1.0, 0.0]), np.ones((3, 2, 1)))
