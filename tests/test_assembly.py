import numpy as np
import pytest
import scipy.sparse as sp

from goalfem.assembly import (assemble_jacobian, assemble_residual,
                              cell_geometry, coefficient_pairs, gauss,
                              local_matrices, space_tab)
from goalfem.errors import QuadratureFailure
from goalfem.estimator import (_transposed_flux, adjoint_weighted_form,
                               primal_weighted_form, solve_enriched_adjoint)
from goalfem.fespace import build_constraints, build_space
from goalfem.goals import PointValue, Product, RegionIntegral
from goalfem.linalg import factorize, max_norm
from goalfem.mesh import build_slit, build_unit_square
from goalfem.problems import (PLaplaceParams, ProblemDefinition,
                              build_plaplace, build_quasilinear)

from conftest import linear_solve, poisson_problem, poisson_setup


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
        N, _ = space_tab(space, rule)
        mass = np.einsum("q,eq,bq,dq->ebd",
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

        empty = ConstraintSet(space.n_dofs, {})
        raw_A = assemble_jacobian(problem, space, empty, u0)
        raw_r = assemble_residual(problem, space, empty, u0)
        free = np.flatnonzero(~cons.constrained)
        C = cons.matrix[:, free]
        K = sp.csr_matrix(C.T @ raw_A @ C)
        x = factorize(K).solve(-(C.T @ raw_r))
        du_reduced = C @ x
        assert np.max(np.abs(du_reduced - du_condensed)) <= 1e-10


def einsum_local_matrices(blocks, wdet, N, gphi, ncomp):
    """Reference: the dense einsum contraction of every block entry."""
    ne, nb = gphi.shape[:2]
    A = np.zeros((ne, ncomp, nb, ncomp, nb))
    if "gg" in blocks:
        A += np.einsum("eq,eqkmij,ebqi,edqj->ekbmd", wdet, blocks["gg"],
                       gphi, gphi)
    if "vv" in blocks:
        A += np.einsum("eq,eqkm,bq,dq->ekbmd", wdet, blocks["vv"], N, N)
    if "gv" in blocks:
        A += np.einsum("eq,eqkmi,ebqi,dq->ekbmd", wdet, blocks["gv"], gphi, N)
    if "vg" in blocks:
        A += np.einsum("eq,eqkmi,bq,edqi->ekbmd", wdet, blocks["vg"], N, gphi)
    return A


def einsum_transposed_flux(blocks, zv, zg):
    """Reference: the dense einsum contraction of the blocks with z."""
    tv = np.zeros(zv.shape)
    tg = np.zeros(zg.shape)
    if "gg" in blocks:
        tg += np.einsum("eqkmij,ekqi->emqj", blocks["gg"], zg)
    if "vv" in blocks:
        tv += np.einsum("eqkm,ekq->emq", blocks["vv"], zv)
    if "gv" in blocks:
        tv += np.einsum("eqkmi,ekqi->emq", blocks["gv"], zg)
    if "vg" in blocks:
        tg += np.einsum("eqkmi,ekq->emqi", blocks["vg"], zv)
    return tv, tg


def random_blocks(rng, ne, nq, ncomp):
    """Dense random blocks of all four kinds; the (0, ncomp-1) pair of
    every kind is zero throughout, (1, 1) is zero on the first cell."""
    tails = {"vv": (), "vg": (2,), "gv": (2,), "gg": (2, 2)}
    blocks = {}
    for kind, tail in tails.items():
        b = rng.normal(size=(ne, nq, ncomp, ncomp) + tail)
        b[:, :, 0, ncomp - 1] = 0.0
        b[0, :, 1, 1] = 0.0
        blocks[kind] = b
    return blocks


class TestLocalMatrices:
    """The nonzero-pair matmul contraction against the dense einsum."""

    RTOL = 1e-13

    def close(self, got, ref):
        return np.max(np.abs(got - ref)) <= self.RTOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("nb, nq", [(4, 9), (9, 16)])
    def test_matches_einsum(self, nb, nq, rng):
        ne, ncomp = 7, 3
        N = rng.normal(size=(nb, nq))
        gphi = rng.normal(size=(ne, nb, nq, 2))
        wdet = rng.uniform(0.1, 1.0, size=(ne, nq))
        blocks = random_blocks(rng, ne, nq, ncomp)
        ref = einsum_local_matrices(blocks, wdet, N, gphi, ncomp)
        assert self.close(local_matrices(blocks, wdet, N, gphi, ncomp), ref)
        # each kind alone, so no kind's error hides behind another's
        for kind, block in blocks.items():
            one = {kind: block}
            assert self.close(local_matrices(one, wdet, N, gphi, ncomp),
                              einsum_local_matrices(one, wdet, N, gphi, ncomp))

    def test_zero_pairs_skipped(self, rng):
        ne, nq, ncomp = 5, 9, 3
        blocks = random_blocks(rng, ne, nq, ncomp)
        pairs = {(tg, rg, k, m) for tg, rg, k, m, _ in coefficient_pairs(blocks)}
        sides = [(False, False), (False, True), (True, False), (True, True)]
        expected = {(tg, rg, k, m) for tg, rg in sides
                    for k in range(ncomp) for m in range(ncomp)
                    if (k, m) != (0, ncomp - 1)}
        assert pairs == expected

    def test_chunk_with_a_vanishing_pair(self, rng):
        # a pair nonzero in general (the slit's coupling gv[2, 0]) can be
        # exactly zero on one chunk; skipping it there changes nothing
        ne, nb, nq, ncomp = 6, 4, 9, 3
        N = rng.normal(size=(nb, nq))
        gphi = rng.normal(size=(ne, nb, nq, 2))
        wdet = rng.uniform(0.1, 1.0, size=(ne, nq))
        blocks = random_blocks(rng, ne, nq, ncomp)
        blocks["gv"][:, :, 2, 0] = 0.0
        blocks["vv"][:, :, 1, 1] = 0.0
        got = local_matrices(blocks, wdet, N, gphi, ncomp)
        assert self.close(got, einsum_local_matrices(blocks, wdet, N, gphi,
                                                     ncomp))
        without_gv = {kind: b for kind, b in blocks.items() if kind != "gv"}
        assert np.all(got[:, 2, :, 0, :] == local_matrices(
            without_gv, wdet, N, gphi, ncomp)[:, 2, :, 0, :])

    def test_transposed_flux_matches_einsum(self, rng):
        ne, nq, ncomp = 7, 9, 3
        blocks = random_blocks(rng, ne, nq, ncomp)
        zv = rng.normal(size=(ne, ncomp, nq))
        zg = rng.normal(size=(ne, ncomp, nq, 2))
        for got, ref in zip(_transposed_flux(blocks, zv, zg),
                            einsum_transposed_flux(blocks, zv, zg)):
            assert self.close(got, ref)

    def test_nonfinite_block_raises(self):
        def jacobian(x, u, grad_u):
            vv = np.ones(u.shape[:1] + u.shape[2:] + (1, 1))
            vv[0, 0] = np.nan
            return {"vv": vv}

        prob = build_plaplace(PLaplaceParams(2.0, 1.0))
        bad = ProblemDefinition("nan", 1, prob.residual, jacobian,
                                prob.dirichlet)
        space = build_space(build_unit_square(2), 1)
        cons = build_constraints(space, bad.dirichlet)
        with pytest.raises(QuadratureFailure):
            assemble_jacobian(bad, space, cons,
                              space.function(np.zeros(space.n_dofs)))


class TestFunctionalGradient:
    def test_linear_integral_gradient_u_independent(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        J = RegionIntegral()
        quad = gauss(3)
        g1 = J.gradient(space, cons, u, quad)
        g2 = J.gradient(space, cons,
                        space.function(rng.normal(size=space.n_dofs)), quad)
        assert np.allclose(g1, g2)
        # entries are int phi_i over the free hat: 0.25 for the interior node
        assert g1[~cons.constrained] == pytest.approx([0.25], abs=1e-14)

    def test_point_gradient_is_delta(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        g = PointValue((0.5, 0.5)).gradient(space, cons, u, gauss(3))
        expected = np.zeros(space.n_dofs)
        free = np.flatnonzero(~cons.constrained)
        expected[free] = 1.0   # the interior hat equals 1 at its node
        assert np.allclose(g, expected)

    def test_product_gradient_fd(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=1)
        J = Product([RegionIntegral(), PointValue((0.4, 0.6))])
        quad = gauss(3)
        g = J.gradient(space, cons, u, quad)
        d = cons.distribute(rng.normal(size=space.n_dofs))
        h = 1e-6
        fd = (J.value(space.function(u.coeffs + h * d))
              - J.value(space.function(u.coeffs - h * d))) / (2 * h)
        assert g @ d == pytest.approx(fd, abs=1e-7 * (1 + abs(fd)))


def check_transposed_flux(prob, space, rng):
    """The adjoint form with a zero goal is -A'(u)(w, z) = -z.(A w) for
    the assembled Jacobian, and its PU localization sums to it."""
    quad = gauss(space.degree + 2)
    u = space.function(0.5 + 0.2 * rng.normal(size=space.n_dofs))
    A = assemble_jacobian(prob, space, build_constraints(space), u, quad)
    w = rng.normal(size=space.n_dofs)
    z = rng.normal(size=space.n_dofs)
    direct = float(z @ (A @ w))
    nodal, total = adjoint_weighted_form(
        prob, RegionIntegral(weight=0.0), u, space.function(z),
        space.function(w), quad)
    assert -total == pytest.approx(direct, rel=1e-12)
    assert nodal.sum() == pytest.approx(total, rel=1e-12)


class TestWeightedResiduals:
    """The estimator's primal and adjoint weighted forms (global parts)."""

    def test_zero_weight(self):
        problem, _, space, cons, u, _ = poisson_setup(n=2, degree=1)
        z = space.function(np.zeros(space.n_dofs))
        nodal, total = primal_weighted_form(problem, u, z, gauss(3))
        assert total == 0.0
        assert np.all(nodal == 0.0)

    def test_galerkin_orthogonality(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=4, degree=1)
        w = space.function(cons.distribute(rng.normal(size=space.n_dofs)))
        _, total = primal_weighted_form(problem, u, w, gauss(3))
        assert abs(total) <= 1e-11

    def test_linear_identity_with_enriched_adjoint(self):
        # -A(u_h)(z2) equals J(u2) - J(u_h) for a linear goal: the Poisson
        # run provides the oracle values
        problem, mesh, space, cons, u, _ = poisson_setup(n=4, degree=1,
                                                         quad_n=4)
        quad = gauss(4)
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2, quad)
        J = RegionIntegral()
        z2 = solve_enriched_adjoint(problem, J, space2, cons2, u2, quad)
        _, lhs = primal_weighted_form(problem, u, z2, quad)
        rhs = J.value(u2) - J.value(u)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_adjoint_weight_vanishes_on_discrete_adjoint(self, rng):
        problem, mesh, space, cons, u, lu = poisson_setup(n=4, degree=1,
                                                          quad_n=4)
        quad = gauss(4)
        J = RegionIntegral()
        rhs = J.gradient(space, cons, u, quad)
        z = space.function(cons.distribute(lu.solve(rhs, transposed=True)))
        w = space.function(cons.distribute(rng.normal(size=space.n_dofs)))
        _, out = adjoint_weighted_form(problem, J, u, z, w, quad)
        assert abs(out) <= 1e-11

    def test_p2_primal_adjoint_symmetry(self):
        # linear self-adjoint case: rho(u_h)(w) = rho*(u_h, z_h)(w') when
        # the roles mirror; checked through equal halves of the estimator
        problem, mesh, space, cons, u, lu = poisson_setup(n=4, degree=1,
                                                          quad_n=4)
        quad = gauss(4)
        space2 = build_space(mesh, 2)
        cons2 = build_constraints(space2, problem.dirichlet)
        u2, _ = linear_solve(problem, space2, cons2, quad)
        J = RegionIntegral()
        z = space.function(cons.distribute(
            lu.solve(J.gradient(space, cons, u, quad), transposed=True)))
        z2 = solve_enriched_adjoint(problem, J, space2, cons2, u2, quad)
        _, primal = primal_weighted_form(
            problem, u, [(1.0, z2), (-1.0, z)], quad)
        _, adjoint = adjoint_weighted_form(
            problem, J, u, z, [(1.0, u2), (-1.0, u)], quad)
        assert primal == pytest.approx(adjoint, rel=1e-8)

    def test_weight_linearity(self, rng):
        problem, _, space, cons, u, _ = poisson_setup(n=3, degree=2)
        quad = gauss(4)
        ws = [space.function(rng.normal(size=space.n_dofs)) for _ in range(3)]
        single = sum(primal_weighted_form(problem, u, w, quad)[1] for w in ws)
        _, combo = primal_weighted_form(problem, u, [(1.0, w) for w in ws],
                                        quad)
        assert combo == pytest.approx(single, abs=1e-12 * (1 + abs(single)))

    def test_jacobian_weighted_matches_matrix(self, rng):
        # p-Laplacian: the transposed flux of the gg block alone
        check_transposed_flux(build_plaplace(PLaplaceParams(4.0, 1.0)),
                              build_space(build_unit_square(3), 1), rng)

    def test_transposed_flux_vector_system(self, rng):
        # slit system: the vv, gg and gv blocks together
        check_transposed_flux(build_quasilinear(),
                              build_space(build_slit().refine_uniform(1), 1, 3),
                              rng)
