import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from goalfem import assembly
from goalfem.assembly import (assemble_jacobian, assemble_residual,
                              basis_integrals, cell_basis, cell_geometry,
                              gauss, local_matrices, on_ray,
                              quadrature_values)
from goalfem.errors import QuadratureFailure
from goalfem.estimator import (_transposed_flux, adjoint_weighted_form,
                               primal_weighted_form, solve_enriched_adjoint)
from goalfem.fespace import (ConstraintSet, build_constraints, build_space,
                             interpolate_between, tensor_basis)
from goalfem.goals import PointValue, Product, RegionIntegral
from goalfem.linalg import factorize, max_norm
from goalfem.mesh import build_slit, build_unit_square
from goalfem.problems import (PLaplaceParams, ProblemDefinition,
                              build_plaplace, build_quasilinear)

from conftest import (linear_solve, mesh_marks, poisson_problem,
                      poisson_setup, refined_mesh)


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_polynomial_exactness(self, n):
        rule = gauss(n)
        for d in range(2 * n):
            val = np.sum(rule.weights * rule.points[:, 0] ** d
                         * rule.points[:, 1] ** d)
            assert val == pytest.approx(1.0 / (d + 1) ** 2, rel=1e-13)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_mass_row_sums_are_cell_areas(self, degree):
        # the enriched-degree rule integrates phi_i phi_j exactly; row
        # sums of the local mass matrix add up to the cell area
        mesh = build_unit_square(4)
        space = build_space(mesh, degree)
        rule = gauss(degree + 3)
        det, _, _ = cell_geometry(mesh, rule)
        N = cell_basis(mesh, space.degree, rule)[:, 0]
        mass = np.einsum("q,eq,eqb,eqd->ebd",
                         rule.weights, det, N, N)
        assert np.allclose(mass.sum(axis=(1, 2)), 1.0 / 16.0, atol=1e-14)


class TestResidual:
    def test_exact_solution_residual_vanishes(self):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=2)
        assert max_norm(assemble_residual(problem, space, cons, u)) <= 1e-12

    def test_interior_hat_entry(self):
        # p=2, u=0, f=1: the single interior Q1 node of a 2x2 mesh pairs
        # with a hat of unit integral over area 1/4
        problem, _, space, cons, _, _ = poisson_setup(n=2, degree=1)
        u0 = space.function(cons.apply(np.zeros(space.n_dofs)))
        r = assemble_residual(problem, space, cons, u0)
        assert r[~cons.constrained] == pytest.approx([-0.25], abs=1e-14)

    def test_linearity_in_f(self):
        mesh = build_unit_square(3)
        space = build_space(mesh, 1)
        rs = {}
        for scale in (1.0, 2.0):
            prob = build_plaplace(PLaplaceParams(
                2.0, 1.0, rhs=lambda x, y, s=scale: s * np.ones(np.shape(x))))
            cons = build_constraints(space, prob.dirichlet)
            u = space.function(cons.apply(np.zeros(space.n_dofs)))
            rs[scale] = assemble_residual(prob, space, cons, u)
        assert np.allclose(rs[2.0], 2.0 * rs[1.0], atol=1e-14)

    def test_nonfinite_integrand_raises(self):
        prob = build_plaplace(PLaplaceParams(
            2.0, 1.0, rhs=lambda x, y: np.full(np.shape(x), np.nan)))
        mesh = build_unit_square(2)
        space = build_space(mesh, 1)
        cons = build_constraints(space, prob.dirichlet)
        with pytest.raises(QuadratureFailure):
            assemble_residual(prob, space, cons,
                              space.function(np.zeros(space.n_dofs)))


class TestJacobian:
    def test_p2_stiffness_independent_of_u(self, rng):
        problem, _, space, cons, _, _ = poisson_setup(n=3, degree=1)
        a = assemble_jacobian(problem, space, cons,
                              space.function(rng.normal(size=space.n_dofs)))
        b = assemble_jacobian(problem, space, cons,
                              space.function(rng.normal(size=space.n_dofs)))
        assert (a - b).nnz == 0 or np.max(np.abs((a - b).data)) <= 1e-14

    def test_plaplace_symmetry(self, rng):
        prob = build_plaplace(PLaplaceParams(4.0, 1.0))
        mesh = build_unit_square(3).refine([2])
        space = build_space(mesh, 1)
        cons = build_constraints(space, prob.dirichlet)
        u = space.function(cons.apply(rng.normal(size=space.n_dofs)))
        A = assemble_jacobian(prob, space, cons, u)
        assert abs(A - A.T).max() <= 1e-12

    @pytest.mark.parametrize("p", [1.5, 4.0, 5.0])
    def test_fd_consistency(self, p, rng):
        prob = build_plaplace(PLaplaceParams(
            p, 0.8, rhs=lambda x, y: np.ones(np.shape(x))))
        mesh = build_unit_square(2).refine([1])
        space = build_space(mesh, 1)
        cons = build_constraints(space, prob.dirichlet)
        for _ in range(5):
            u = space.function(cons.apply(rng.normal(size=space.n_dofs)))
            d = cons.distribute(rng.normal(size=space.n_dofs))
            A = assemble_jacobian(prob, space, cons, u)
            h = 1e-6 * (1 + np.abs(u.coeffs).max())
            fd = (assemble_residual(prob, space, cons,
                                    space.function(u.coeffs + h * d))
                  - assemble_residual(prob, space, cons,
                                      space.function(u.coeffs - h * d))) / (2 * h)
            free = ~cons.constrained
            assert np.max(np.abs((A @ d - fd)[free])) \
                <= 1e-6 * (1 + np.abs(fd).max())

    def test_condensation_matches_reduced_system(self):
        # eliminating constrained DOFs explicitly (rectangular reduction of
        # the raw Galerkin system) must reproduce the square condensed solve
        from goalfem.fespace import ConstraintSet

        problem = poisson_problem()
        mesh = build_unit_square(2).refine([0])
        space = build_space(mesh, 1)
        cons = build_constraints(space, problem.dirichlet)
        u0 = space.function(cons.apply(np.zeros(space.n_dofs)))
        A = assemble_jacobian(problem, space, cons, u0)
        r = assemble_residual(problem, space, cons, u0)
        du_condensed = cons.distribute(factorize(A).solve(-r))

        empty = ConstraintSet(space.n_dofs)
        raw_A = assemble_jacobian(problem, space, empty, u0)
        raw_r = assemble_residual(problem, space, empty, u0)
        free = np.flatnonzero(~cons.constrained)
        C = cons.matrix[:, free]
        K = sp.csr_matrix(C.T @ raw_A @ C)
        x = factorize(K).solve(-(C.T @ raw_r))
        du_reduced = C @ x
        assert np.max(np.abs(du_reduced - du_condensed)) <= 1e-10


def einsum_phys_gradients(mesh, degree, rule):
    """Reference: physical basis gradients (e, b, q, i) by one einsum."""
    _, invJT, _ = cell_geometry(mesh, rule)
    _, dN = tensor_basis(degree, rule.points)
    return np.einsum("cqij,bqj->cbqi", invJT, dN, optimize=True)


def einsum_eval(space, coeffs, N, gphi):
    """Reference: values (e, k, q) and gradients (e, k, q, i) on every
    active cell."""
    uloc = space.local_coeffs(coeffs)
    return (np.einsum("ecb,bq->ecq", uloc, N, optimize=True),
            np.einsum("ecb,ebqi->ecqi", uloc, gphi, optimize=True))


def einsum_residual(problem, space, u, rule):
    """Reference: the unconstrained residual vector by the einsum
    contraction of the kernel densities with the test basis."""
    det, _, xq = cell_geometry(space.mesh, rule)
    N, _ = tensor_basis(space.degree, rule.points)
    gphi = einsum_phys_gradients(space.mesh, space.degree, rule)
    val, grd = problem.residual(xq, *einsum_eval(space, u.coeffs, N, gphi))
    wdet = rule.weights[None, :] * det
    rloc = np.einsum("eq,ekq,bq->ekb", wdet, val, N, optimize=True)
    rloc += np.einsum("eq,ekqi,ebqi->ekb", wdet, grd, gphi, optimize=True)
    raw = np.zeros(space.n_dofs)
    np.add.at(raw, space.cell_dofs, rloc)
    return raw


def einsum_jacobian(problem, space, u, rule):
    """Reference: the unconstrained Jacobian from the dense einsum local
    matrices, summed into a sparse matrix."""
    det, _, xq = cell_geometry(space.mesh, rule)
    N, _ = tensor_basis(space.degree, rule.points)
    gphi = einsum_phys_gradients(space.mesh, space.degree, rule)
    terms = problem.jacobian(xq, *einsum_eval(space, u.coeffs, N, gphi))
    A = einsum_local_matrices(terms, rule.weights[None, :] * det, N, gphi,
                              space.n_components)
    ne = len(A)
    gdof = space.cell_dofs.reshape(ne, -1)
    rows = np.repeat(gdof, gdof.shape[1], axis=1)
    cols = np.tile(gdof, (1, gdof.shape[1]))
    return sp.csr_matrix((A.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(space.n_dofs, space.n_dofs))


def basis_layout(N, gphi):
    """Values N (b, q) and gradients gphi (e, b, q, i) in the cell-basis
    layout (e, d, q, b)."""
    B = np.empty((gphi.shape[0], 3) + N.T.shape)
    B[:, 0] = N.T
    B[:, 1:] = gphi.transpose(0, 3, 2, 1)
    return B


def einsum_local_matrices(terms, wdet, N, gphi, ncomp):
    """Reference: the dense einsum contraction of every term."""
    ne, nb, nq = gphi.shape[:3]
    # a value side (e, b, q, 1) and a gradient side (e, b, q, 2)
    sides = (np.broadcast_to(N[None, :, :, None], (ne, nb, nq, 1)), gphi)
    A = np.zeros((ne, ncomp, nb, ncomp, nb))
    for test_grad, trial_grad, k, m, c in terms:
        A[:, k, :, m, :] += np.einsum("eq,eqij,ebqi,edqj->ebd", wdet, c,
                                      sides[test_grad], sides[trial_grad])
    return A


def einsum_transposed_flux(terms, zv, zg):
    """Reference: the einsum contraction of every term with z."""
    tv = np.zeros(zv.shape)
    tg = np.zeros(zg.shape)
    z = (zv[..., None], zg)
    out = (tv[..., None], tg)
    for test_grad, trial_grad, k, m, c in terms:
        out[trial_grad][:, m] += np.einsum("eqij,eqi->eqj", c,
                                           z[test_grad][:, k])
    return tv, tg


def random_terms(rng, ne, nq, ncomp):
    """Random terms of all four kinds, every (k, m) pair but
    (0, ncomp-1); the (1, 1) terms are zero on the first cell."""
    terms = []
    for test_grad in (False, True):
        for trial_grad in (False, True):
            for k in range(ncomp):
                for m in range(ncomp):
                    if (k, m) == (0, ncomp - 1):
                        continue
                    c = rng.normal(size=(ne, nq, 1 + test_grad,
                                         1 + trial_grad))
                    if (k, m) == (1, 1):
                        c[0] = 0.0
                    terms.append((test_grad, trial_grad, k, m, c))
    return terms


class TestLocalMatrices:
    """The per-term matmul contraction against the einsum reference."""

    RTOL = 1e-13

    def close(self, got, ref):
        return np.max(np.abs(got - ref)) <= self.RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("nb, nq", [(4, 9), (9, 16)])
    def test_matches_einsum(self, nb, nq, rng):
        ne, ncomp = 7, 3
        N = rng.normal(size=(nb, nq))
        gphi = rng.normal(size=(ne, nb, nq, 2))
        wdet = rng.uniform(0.1, 1.0, size=(ne, nq))
        terms = random_terms(rng, ne, nq, ncomp)
        B = basis_layout(N, gphi)
        ref = einsum_local_matrices(terms, wdet, N, gphi, ncomp)
        assert self.close(local_matrices(terms, wdet, B, ncomp), ref)
        # each kind alone, so no kind's error hides behind another's
        for kind in {(tg, rg) for tg, rg, _, _, _ in terms}:
            one = [t for t in terms if t[:2] == kind]
            assert self.close(local_matrices(one, wdet, B, ncomp),
                              einsum_local_matrices(one, wdet, N, gphi, ncomp))

    def test_all_zero_term_leaves_matrix_unchanged(self, rng):
        # a listed term that vanishes on every cell (the slit's coupling
        # where grad u3 = 0) adds exact zeros: A and the transposed flux
        # stay bitwise what they are without it
        ne, nb, nq, ncomp = 5, 4, 9, 3
        N = rng.normal(size=(nb, nq))
        gphi = rng.normal(size=(ne, nb, nq, 2))
        wdet = rng.uniform(0.1, 1.0, size=(ne, nq))
        B = basis_layout(N, gphi)
        zv = rng.normal(size=(ne, ncomp, nq))
        zg = rng.normal(size=(ne, ncomp, nq, 2))
        terms = random_terms(rng, ne, nq, ncomp)
        for tg in (False, True):
            for rg in (False, True):
                zero = (tg, rg, 2, 0, np.zeros((ne, nq, 1 + tg, 1 + rg)))
                padded = terms[:3] + [zero] + terms[3:]
                assert np.array_equal(local_matrices(padded, wdet, B, ncomp),
                                      local_matrices(terms, wdet, B, ncomp))
                for got, ref in zip(_transposed_flux(padded, zv, zg),
                                    _transposed_flux(terms, zv, zg)):
                    assert np.array_equal(got, ref)

    def test_chunk_with_a_vanishing_pair(self, rng):
        # a term nonzero in general (the slit's coupling, gradient-value
        # (2, 0)) can be exactly zero on some cells; there it changes
        # nothing
        ne, nb, nq, ncomp = 6, 4, 9, 3
        N = rng.normal(size=(nb, nq))
        gphi = rng.normal(size=(ne, nb, nq, 2))
        wdet = rng.uniform(0.1, 1.0, size=(ne, nq))
        terms = random_terms(rng, ne, nq, ncomp)
        coupling = [t for t in terms if t[:4] == (True, False, 2, 0)]
        coupling[0][4][:3] = 0.0
        B = basis_layout(N, gphi)
        got = local_matrices(terms, wdet, B, ncomp)
        assert self.close(got, einsum_local_matrices(terms, wdet, N, gphi,
                                                     ncomp))
        without = [t for t in terms if t[:4] != (True, False, 2, 0)]
        assert np.all(got[:3, 2, :, 0, :] == local_matrices(
            without, wdet, B, ncomp)[:3, 2, :, 0, :])

    def test_transposed_flux_matches_einsum(self, rng):
        ne, nq, ncomp = 7, 9, 3
        terms = random_terms(rng, ne, nq, ncomp)
        zv = rng.normal(size=(ne, ncomp, nq))
        zg = rng.normal(size=(ne, ncomp, nq, 2))
        for got, ref in zip(_transposed_flux(terms, zv, zg),
                            einsum_transposed_flux(terms, zv, zg)):
            assert self.close(got, ref)

    def test_nonfinite_block_raises(self):
        def jacobian(x, u, grad_u):
            vv = np.ones(u.shape[:1] + u.shape[2:] + (1, 1))
            vv[0, 0] = np.nan
            return [(False, False, 0, 0, vv)]

        prob = build_plaplace(PLaplaceParams(2.0, 1.0))
        bad = ProblemDefinition("nan", 1, prob.residual, jacobian,
                                prob.dirichlet)
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, bad.dirichlet)
        with pytest.raises(QuadratureFailure):
            assemble_jacobian(bad, space, cons,
                              space.function(np.zeros(space.n_dofs)))


class TestCellBasis:
    """The cached cell basis and the matmuls against it, checked against
    the einsum formulas they replaced."""

    RTOL = 1e-13

    def close(self, got, ref):
        return np.max(np.abs(got - ref)) <= self.RTOL * np.max(np.abs(ref))

    @given(case=mesh_marks, degree=st.integers(1, 4),
           n_comp=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_matches_einsum_formulas(self, case, degree, n_comp, seed):
        mesh = refined_mesh(*case)
        rule = gauss(degree + 2)
        space = build_space(mesh, degree, n_comp)
        B = cell_basis(mesh, degree, rule)
        N, _ = tensor_basis(degree, rule.points)
        gphi = einsum_phys_gradients(mesh, degree, rule)
        assert B.shape == (len(mesh.active_cells), 3, len(rule.weights),
                           space.n_local)
        assert np.all(B[:, 0] == N.T)
        assert self.close(B, basis_layout(N, gphi))

        rng = np.random.default_rng(seed)
        u = space.function(0.5 * rng.normal(size=space.n_dofs))
        for got, ref in zip(quadrature_values(u),
                            einsum_eval(space, u.coeffs, N, gphi)):
            assert self.close(got, ref)

        problem = build_quasilinear() if n_comp == 3 else build_plaplace(
            PLaplaceParams(4.0, 0.5, rhs=lambda x, y: np.sin(3.0 * x + y)))
        got = assemble_residual(problem, space, ConstraintSet(space.n_dofs),
                                u)
        assert self.close(got, einsum_residual(problem, space, u, rule))

    def test_one_tabulation_per_mesh_degree_rule(self, rng, monkeypatch):
        calls = []

        def counting(r, pts):
            calls.append(r)
            return tensor_basis(r, pts)

        monkeypatch.setattr(assembly, "tensor_basis", counting)
        mesh = build_unit_square(3).refine([4])
        rule = gauss(4)
        first = cell_basis(mesh, 2, rule)
        prob = build_plaplace(PLaplaceParams(3.0, 1.0))
        for n_comp, problem in ((1, prob), (3, build_quasilinear())):
            space = build_space(mesh, 2, n_comp)
            cons = ConstraintSet(space.n_dofs)
            u = space.function(rng.normal(size=space.n_dofs))
            assemble_residual(problem, space, cons, u)
            assemble_jacobian(problem, space, cons, u)
            assert cell_basis(mesh, 2, rule) is first
        assert calls.count(2) == 1
        assert cell_basis(mesh, 2, gauss(5)) is not first
        assert cell_basis(mesh, 3, rule) is not first
        assert calls.count(2) == 2


@pytest.fixture(scope="module")
def large_mesh():
    """A distorted 72 x 72 mesh: 5,184 active cells, so every cell
    operator runs over more than 4,096 cells at once."""
    return build_unit_square(72).distort(0.2, seed=3)


class TestLargeMesh:
    """Whole-mesh residual and Jacobian against the einsum references on
    a mesh above 4,096 cells, for the scalar and the vector kernels."""

    RTOL = 1e-13

    @pytest.mark.parametrize("n_comp", [1, 3])
    def test_residual_and_jacobian_match_einsum(self, large_mesh, n_comp,
                                                rng):
        problem = build_quasilinear() if n_comp == 3 else build_plaplace(
            PLaplaceParams(4.0, 0.5, rhs=lambda x, y: np.sin(3.0 * x + y)))
        space = build_space(large_mesh, 1, n_comp)
        assert len(space.mesh.active_cells) > 4096
        rule = gauss(3)
        u = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
        none = ConstraintSet(space.n_dofs)

        got = assemble_residual(problem, space, none, u)
        ref = einsum_residual(problem, space, u, rule)
        assert np.max(np.abs(got - ref)) <= self.RTOL * np.max(np.abs(ref))

        got = assemble_jacobian(problem, space, none, u)
        ref = einsum_jacobian(problem, space, u, rule)
        assert abs(got - ref).max() <= self.RTOL * abs(ref).max()


def transposed_condense(cons, raw):
    """Reference: C^T raw with the constrained entries zeroed."""
    out = cons.matrix.T @ raw
    out[cons.constrained] = 0.0
    return out


def add_at_condensed(space, cons, local):
    """Reference: ``np.add.at`` of the cell blocks onto the DOFs, then
    the transposed condensation."""
    raw = np.zeros(space.n_dofs)
    np.add.at(raw, space.cell_dofs, local)
    return transposed_condense(cons, raw)


class TestScatterAndRay:
    """The bincount scatter against ``np.add.at``, and trial functions
    on the ray against evaluation from their coefficients."""

    @given(case=mesh_marks, degree=st.integers(1, 3),
           n_comp=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_scatter_matches_add_at(self, case, degree, n_comp, seed):
        mesh = refined_mesh(*case)
        problem = build_quasilinear() if n_comp == 3 else poisson_problem()
        # a rule other than the space's default
        space = build_space(mesh, degree, n_comp, gauss(degree + 1))
        cons = build_constraints(space, problem.dirichlet)
        assert cons.constrained.any()
        rng = np.random.default_rng(seed)

        local = rng.normal(size=space.cell_dofs.shape)
        assert np.array_equal(cons.condense_rhs(space.scatter(local)),
                              add_at_condensed(space, cons, local))

        rule = space.rule
        u = space.function(cons.apply(0.5 * rng.normal(size=space.n_dofs)))
        det, _, xq = cell_geometry(mesh, rule)
        val, grd = problem.residual(xq, *quadrature_values(u))
        local = basis_integrals(val, grd, rule.weights * det,
                                cell_basis(mesh, degree, rule))
        assert np.array_equal(
            assemble_residual(problem, space, cons, u),
            add_at_condensed(space, cons, local))

        # goal leaves: the sample groups scattered in their order
        point = mesh.corners()[0].mean(axis=0)
        for leaf in (PointValue(point, component=n_comp - 1),
                     RegionIntegral()):
            groups = leaf._groups(mesh, rule, n_comp)
            ref = np.zeros(space.n_dofs)
            for rows, pts, w in groups:
                N, _ = space.basis_at(pts)
                np.add.at(ref, space.cell_dofs[rows],
                          np.swapaxes(w, 1, 2) @ N.T)
            assert np.array_equal(leaf._raw_gradient(space), ref)
            assert np.array_equal(leaf.leaf_gradient(space, cons),
                                  transposed_condense(cons, ref))

    @given(case=mesh_marks, degree=st.integers(1, 3),
           n_comp=st.sampled_from([1, 3]), L=st.integers(0, 40),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_ray_matches_evaluation(self, case, degree, n_comp, L, seed):
        space = build_space(refined_mesh(*case), degree, n_comp)
        rng = np.random.default_rng(seed)
        u, delta = (space.function(rng.normal(size=space.n_dofs))
                    for _ in range(2))
        alpha = 0.85 ** L
        rule = gauss(degree + 2)
        trial = on_ray(u, delta, alpha)
        assert np.array_equal(trial.coeffs, u.coeffs + alpha * delta.coeffs)
        fresh = quadrature_values(space.function(trial.coeffs))
        for got, ref in zip(trial.quad_values, fresh):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_ray_keeps_no_reference_to_its_ends(self, rng):
        space = build_space(build_unit_square(3).refine([4]), 2)
        rule = gauss(4)
        u, delta = (space.function(rng.normal(size=space.n_dofs))
                    for _ in range(2))
        ends = [weakref.ref(u), weakref.ref(delta)]
        trial = on_ray(u, delta, 0.5)
        del u, delta
        assert [end() for end in ends] == [None, None]
        assert trial.quad_values is not None

    def test_values_cached_and_coefficients_read_only(self, rng):
        space = build_space(build_unit_square(3).refine([4]), 2, 3)
        rule = gauss(4)
        coeffs = rng.normal(size=space.n_dofs)
        u = space.function(coeffs)
        first = quadrature_values(u)
        assert quadrature_values(u) is first
        # a slice of the whole-mesh values is the evaluation on its cells
        rows = slice(2, 5)
        B = cell_basis(space.mesh, 2, rule)[rows]
        ne, _, nq, nb = B.shape
        part = (space.local_coeffs(coeffs, rows)
                @ B.reshape(ne, 3 * nq, nb).transpose(0, 2, 1))
        part = part.reshape(ne, 3, 3, nq)      # (e, component, d, q)
        assert np.array_equal(first[0][rows], part[:, :, 0])
        assert np.array_equal(first[1][rows],
                              part[:, :, 1:].transpose(0, 1, 3, 2))
        with pytest.raises(ValueError):
            u.coeffs[0] = 1.0
        # the function holds a copy: the caller's array stays writable
        coeffs[0] += 1.0
        assert u.coeffs[0] == coeffs[0] - 1.0


class TestFunctionalGradient:
    def test_linear_integral_gradient_u_independent(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        J = RegionIntegral()
        g1 = J.gradient(cons, u)
        g2 = J.gradient(cons,
                        space.function(rng.normal(size=space.n_dofs)))
        assert np.allclose(g1, g2)
        # entries are int phi_i over the free hat: 0.25 for the interior node
        assert g1[~cons.constrained] == pytest.approx([0.25], abs=1e-14)

    def test_point_gradient_is_delta(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        g = PointValue((0.5, 0.5)).gradient(cons, u)
        expected = np.zeros(space.n_dofs)
        free = np.flatnonzero(~cons.constrained)
        expected[free] = 1.0   # the interior hat equals 1 at its node
        assert np.allclose(g, expected)

    def test_product_gradient_fd(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        J = Product([RegionIntegral(), PointValue((0.4, 0.6))])
        g = J.gradient(cons, u)
        d = cons.distribute(rng.normal(size=space.n_dofs))
        h = 1e-6
        fd = (J.value(space.function(u.coeffs + h * d))
              - J.value(space.function(u.coeffs - h * d))) / (2 * h)
        assert g @ d == pytest.approx(fd, abs=1e-7 * (1 + abs(fd)))


def check_transposed_flux(prob, space, rng):
    """The adjoint form with a zero goal is -A'(u)(w, z) = -z.(A w) for
    the assembled Jacobian, and its PU localization sums to it."""
    u = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
    A = assemble_jacobian(prob, space, build_constraints(space), u)
    w = rng.normal(size=space.n_dofs)
    z = rng.normal(size=space.n_dofs)
    direct = float(z @ (A @ w))
    nodal, total = adjoint_weighted_form(
        prob, RegionIntegral(weight=0.0), u, space.function(z),
        space.function(w))
    assert -total == pytest.approx(direct, rel=1e-12)
    assert nodal.sum() == pytest.approx(total, rel=1e-12)


class TestWeightedResiduals:
    """The estimator's primal and adjoint weighted forms (global parts)."""

    def test_zero_weight(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        z = space.function(np.zeros(space.n_dofs))
        nodal, total = primal_weighted_form(problem, u, z)
        assert total == 0.0
        assert np.all(nodal == 0.0)

    def test_galerkin_orthogonality(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=4, degree=1)
        w = space.function(cons.distribute(rng.normal(size=space.n_dofs)))
        _, total = primal_weighted_form(problem, u, w)
        assert abs(total) <= 1e-11

    def test_linear_identity_with_enriched_adjoint(self):
        # -A(u_h)(z2) equals J(u2) - J(u_h) for a linear goal: the Poisson
        # run provides the oracle values
        problem, mesh, space, cons, u, _ = poisson_setup(n=4, degree=1,
                                                         rule=gauss(4))
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2)
        J = RegionIntegral()
        z2 = solve_enriched_adjoint(problem, J, space2, cons2, u2)
        _, lhs = primal_weighted_form(problem, u, z2)
        rhs = J.value(u2) - J.value(u)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_adjoint_weight_vanishes_on_discrete_adjoint(self, rng):
        problem, mesh, space, cons, u, lu = poisson_setup(n=4, degree=1,
                                                          rule=gauss(4))
        J = RegionIntegral()
        rhs = J.gradient(cons, u)
        z = space.function(cons.distribute(lu.solve(rhs, transposed=True)))
        w = space.function(cons.distribute(rng.normal(size=space.n_dofs)))
        _, out = adjoint_weighted_form(problem, J, u, z, w)
        assert abs(out) <= 1e-11

    def test_p2_primal_adjoint_symmetry(self):
        # linear self-adjoint case: rho(u_h)(w) = rho*(u_h, z_h)(w') when
        # the roles mirror; checked through equal halves of the estimator
        problem, mesh, space, cons, u, lu = poisson_setup(n=4, degree=1,
                                                          rule=gauss(4))
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2)
        J = RegionIntegral()
        z = space.function(cons.distribute(
            lu.solve(J.gradient(cons, u), transposed=True)))
        z2 = solve_enriched_adjoint(problem, J, space2, cons2, u2)
        _, primal = primal_weighted_form(problem, u, space2.function(
            z2.coeffs - interpolate_between(z, space2).coeffs))
        _, adjoint = adjoint_weighted_form(problem, J, u, z, space2.function(
            u2.coeffs - interpolate_between(u, space2).coeffs))
        assert primal == pytest.approx(adjoint, rel=1e-8)

    def test_weight_linearity(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=2)
        ws = [rng.normal(size=space.n_dofs) for _ in range(3)]
        parts = [primal_weighted_form(problem, u, space.function(w))
                 for w in ws]
        nodal, total = primal_weighted_form(problem, u,
                                            space.function(sum(ws)))
        single = sum(t for _, t in parts)
        assert total == pytest.approx(single, abs=1e-12 * (1 + abs(single)))
        assert np.allclose(nodal, sum(n for n, _ in parts), rtol=0,
                           atol=1e-12 * (1 + np.abs(nodal).max()))

    def test_jacobian_weighted_matches_matrix(self, rng):
        # p-Laplacian: the transposed flux of its one gradient term
        check_transposed_flux(build_plaplace(PLaplaceParams(4.0, 1.0)),
                              build_space(build_unit_square(3), 1), rng)

    def test_transposed_flux_vector_system(self, rng):
        # slit system: value-value, gradient-gradient and gradient-value
        # terms together
        check_transposed_flux(build_quasilinear(),
                              build_space(build_slit().refine_uniform(1), 1, 3),
                              rng)
