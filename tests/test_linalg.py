import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from goalfem.assembly import assemble_jacobian, assemble_residual
from goalfem.errors import SingularMatrix
from goalfem.estimator import make_initial_guess
from goalfem.fespace import build_constraints, build_space
from goalfem.linalg import factorize, max_norm
from goalfem.mesh import build_slit
from goalfem.problems import build_quasilinear

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

    def test_denormal_pivot_raises_when_check_disabled(self):
        # the pivot passes SuperLU and the disabled check; the solution
        # overflows, and a non-finite solution is a singular matrix
        A = sp.csr_matrix(np.diag([1e-320, 1.0]))
        lu = factorize(A, pivot_rtol=0.0)
        for transposed in (False, True):
            with pytest.raises(SingularMatrix):
                lu.solve(np.ones(2), transposed=transposed)

    def test_transposed_solve(self, rng):
        M = rng.normal(size=(30, 30)) + 30 * np.eye(30)
        A = sp.csr_matrix(M)
        b = rng.normal(size=30)
        x = factorize(A).solve(b, transposed=True)
        assert np.allclose(A.T @ x, b, atol=1e-9)


class TestOrdering:
    """The symmetric-pattern ordering on an enriched slit Jacobian with
    hanging nodes (vector Q2, condensed)."""

    @pytest.fixture(scope="class")
    def jacobian(self):
        prob = build_quasilinear()
        mesh = build_slit().refine_uniform(3)
        for radius in (0.4, 0.2):
            mid = mesh.corners().mean(axis=1)
            mesh = mesh.refine(mesh.active_cells[
                np.hypot(mid[:, 0], mid[:, 1]) < radius])
        assert mesh.hanging_interfaces()
        space = build_space(mesh, 2, 3)
        cons = build_constraints(space, prob.dirichlet)
        return assemble_jacobian(prob, space, cons,
                                 make_initial_guess(space, cons))

    def test_solves_match_spsolve(self, jacobian, rng):
        A = jacobian
        assert A.shape[0] >= 5000
        lu = factorize(A)
        b = rng.normal(size=A.shape[0])
        for transposed, M in ((False, A), (True, A.T)):
            ref = spla.spsolve(sp.csc_matrix(M), b)
            x = lu.solve(b, transposed=transposed)
            assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_fill_not_above_colamd(self, jacobian):
        colamd = spla.splu(sp.csc_matrix(jacobian), permc_spec="COLAMD")
        assert factorize(jacobian)._lu.nnz <= colamd.nnz


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
