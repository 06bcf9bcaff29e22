import numpy as np
import pytest
import scipy.sparse as sp

from goalfem.assembly import assemble_residual
from goalfem.errors import SingularMatrix
from goalfem.linalg import factorize, max_norm

from conftest import poisson_setup


class TestSolveDirect:
    def test_identity(self, rng):
        b = rng.normal(size=20)
        x = factorize(sp.eye(20, format="csr")).solve(b)
        assert np.allclose(x, b, atol=1e-14)

    def test_diagonal(self):
        A = sp.diags([2.0, 4.0]).tocsr()
        assert np.allclose(factorize(A).solve(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_random_spd_residual(self, rng):
        M = rng.normal(size=(50, 50))
        A = sp.csr_matrix(M @ M.T + 50 * np.eye(50))
        b = rng.normal(size=50)
        x = factorize(A).solve(b)
        assert max_norm(A @ x - b) <= 1e-10 * (1 + max_norm(b))

    def test_roundtrip(self, rng):
        M = rng.normal(size=(40, 40))
        A = sp.csr_matrix(M @ M.T + 40 * np.eye(40))
        x0 = rng.normal(size=40)
        x = factorize(A).solve(A @ x0)
        assert np.max(np.abs(x - x0)) <= 1e-8 * np.max(np.abs(x0))

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
        with pytest.raises(SingularMatrix):
            factorize(A).solve(np.ones(2))

    def test_tiny_pivot_raises(self):
        A = sp.csr_matrix(np.diag([1.0, 1e-16]))
        with pytest.raises(SingularMatrix):
            factorize(A).solve(np.ones(2))

    def test_tiny_pivot_tolerated_when_disabled(self):
        A = sp.csr_matrix(np.diag([1.0, 1e-16]))
        x = factorize(A, pivot_rtol=0.0).solve(np.ones(2))
        assert x[1] == pytest.approx(1e16, rel=1e-10)

    def test_transposed_solve(self, rng):
        M = rng.normal(size=(30, 30)) + 30 * np.eye(30)
        A = sp.csr_matrix(M)
        b = rng.normal(size=30)
        x = factorize(A).solve(b, transposed=True)
        assert np.allclose(A.T @ x, b, atol=1e-9)


class TestMaxNorm:
    def test_basic(self):
        assert max_norm(np.array([1.0, -3.0, 2.0])) == 3.0

    def test_zero(self):
        assert max_norm(np.zeros(5)) == 0.0

    def test_constrained_excluded(self):
        v = np.array([1.0, -9.0, 2.0])
        mask = np.array([False, True, False])
        assert max_norm(v, constrained=mask) == 2.0

    def test_solved_poisson_residual(self):
        problem, _, space, cons, u, _ = poisson_setup(n=4, degree=1)
        r = assemble_residual(problem, space, cons, u)
        assert max_norm(r) <= 1e-10
