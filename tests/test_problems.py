import numpy as np
import pytest

from goalfem.assembly import assemble_jacobian, assemble_residual
from goalfem.fespace import build_constraints, build_space, gauss
from goalfem.mesh import build_slit, build_unit_square
from goalfem.problems import (PLaplaceParams, _dg1, _dg2, _g1, _g2,
                              build_plaplace, build_quasilinear,
                              manufactured_rhs, plaplace_flux, slit_exact)


def gg_term(g, prm):
    """The coefficients c (..., 2, 2) of the p-Laplace kernel's only
    term at the gradients g (..., 2); c @ d is the derivative of the flux
    along d."""
    g = np.asarray(g, dtype=float)
    [(test_grad, trial_grad, k, m, c)] = build_plaplace(prm).jacobian(
        None, g.reshape(1, 1, -1, 2))
    assert (test_grad, trial_grad, k, m) == (True, True, 0, 0)
    return c.reshape(g.shape + (2,))


def flux_derivative(g, d, prm):
    return np.einsum("...ij,...j->...i", gg_term(g, prm), d)


class TestFlux:
    def test_p2_is_identity(self):
        g = np.array([0.3, -1.2])
        for eps in (1e-10, 0.5, 3.0):
            out = plaplace_flux(g, PLaplaceParams(2.0, eps))
            assert np.allclose(out, g, atol=1e-15)

    def test_zero_gradient(self):
        out = plaplace_flux(np.zeros(2), PLaplaceParams(7.0, 0.3))
        assert np.all(out == 0.0)

    def test_p4_unit_gradient(self):
        out = plaplace_flux(np.array([1.0, 0.0]), PLaplaceParams(4.0, 1.0))
        assert np.allclose(out, [2.0, 0.0])

    def test_jacobian_p2(self):
        d = np.array([0.4, 0.7])
        out = flux_derivative(np.array([5.0, -2.0]), d,
                              PLaplaceParams(2.0, 1.0))
        assert np.allclose(out, d)

    def test_jacobian_zero_gradient(self):
        prm = PLaplaceParams(3.5, 0.25)
        d = np.array([1.0, -2.0])
        out = flux_derivative(np.zeros(2), d, prm)
        assert np.allclose(out, 0.25 ** 1.5 * d)

    def test_jacobian_matches_finite_differences(self):
        # central differences of the flux along the direction
        prm = PLaplaceParams(4.0, 1.0)
        g = np.array([1.0, 0.0])
        d = np.array([1.0, 0.0])
        h = 1e-6
        fd = (plaplace_flux(g + h * d, prm) - plaplace_flux(g - h * d, prm)) / (2 * h)
        out = flux_derivative(g, d, prm)
        assert np.allclose(out, fd, atol=1e-6)
        assert np.allclose(out, [4.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 4.0, 5.0])
    def test_jacobian_fd_random(self, p, rng):
        prm = PLaplaceParams(p, 0.7)
        for _ in range(5):
            g = rng.normal(size=2)
            d = rng.normal(size=2)
            h = 1e-7
            fd = (plaplace_flux(g + h * d, prm)
                  - plaplace_flux(g - h * d, prm)) / (2 * h)
            out = flux_derivative(g, d, prm)
            assert np.allclose(out, fd, atol=1e-5 * (1 + np.abs(fd).max()))

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_kernels_bitwise_equal_to_summed_squares(self, p, rng):
        # |grad u|^2 is written g0*g0 + g1*g1; the kernels must agree
        # bit for bit with the np.sum(g * g, axis=-1) they replaced
        prm = PLaplaceParams(p, 1e-10)
        g = rng.normal(size=(40, 1, 9, 2)) * rng.choice(
            [0.0, 1e-12, 1.0, 1e6], size=(40, 1, 9, 1))
        s = np.sum(g * g, axis=-1)
        base = prm.epsilon ** 2 + s
        a = base ** ((p - 2.0) / 2.0)
        assert np.array_equal(plaplace_flux(g, prm), a[..., None] * g)
        [(_, _, _, _, gg)] = build_plaplace(prm).jacobian(None, g)
        ref = a[:, 0, :, None, None] * np.eye(2)
        if p != 2.0:
            b = (p - 2.0) * base ** ((p - 4.0) / 2.0)
            ref = ref + b[:, 0, :, None, None] * (
                g[:, 0, :, :, None] * g[:, 0, :, None, :])
        assert np.array_equal(gg, ref)


class TestPLaplaceKernels:
    def test_zero_state_zero_rhs(self):
        prob = build_plaplace(PLaplaceParams(3.0, 1.0))
        mesh = build_unit_square(2)
        s = build_space(mesh, 1)
        cons = build_constraints(s, prob.dirichlet)
        r = assemble_residual(prob, cons, s.function(np.zeros(s.n_dofs)))
        assert np.all(r == 0.0)

    def test_p2_linear_in_u_residual(self):
        # p=2, u = x on one cell has residual contribution int grad(u).grad(v)
        prob = build_plaplace(PLaplaceParams(2.0, 1.0))
        mesh = build_unit_square(1)
        s = build_space(mesh, 1)
        cons = build_constraints(s)   # no Dirichlet: raw Galerkin entries
        u = s.function(s.node_coords[:, 0].copy())
        r = assemble_residual(prob, cons, u)
        # test function v = x has the same coefficients; pairing gives 1
        assert float(r @ u.coeffs) == pytest.approx(1.0, abs=1e-13)

    def test_p2_epsilon_independent(self):
        mesh = build_unit_square(3)
        s = build_space(mesh, 1)
        vals = {}
        for eps in (1.0, 1e-3):
            prob = build_plaplace(PLaplaceParams(
                2.0, eps, rhs=lambda x, y: np.ones(np.shape(x))))
            cons = build_constraints(s, prob.dirichlet)
            u = s.function(cons.apply(np.linspace(0, 1, s.n_dofs)))
            vals[eps] = (assemble_residual(prob, cons, u),
                         assemble_jacobian(prob, cons, u).toarray())
        assert np.allclose(vals[1.0][0], vals[1e-3][0], atol=1e-14)
        assert np.allclose(vals[1.0][1], vals[1e-3][1], atol=1e-14)


class TestManufactured:
    def test_p2_gives_laplacian(self):
        def grad(x, y):
            c = 6.0 * np.cos(6 * (x + y))
            return np.stack([c, c], axis=-1)

        def hess(x, y):
            s = -36.0 * np.sin(6 * (x + y))
            return np.stack([np.stack([s, s], axis=-1),
                             np.stack([s, s], axis=-1)], axis=-2)

        f = manufactured_rhs(grad, hess, PLaplaceParams(2.0, 0.3))
        x, y = 0.21, 0.55
        assert f(x, y) == pytest.approx(72.0 * np.sin(6 * (x + y)), rel=1e-12)

    def test_zero_gradient_point(self):
        p, eps = 3.0, 0.5

        def grad(x, y):
            return np.zeros(np.shape(x) + (2,))

        def hess(x, y):
            h = np.zeros(np.shape(x) + (2, 2))
            h[..., 0, 0] = 2.0
            h[..., 1, 1] = 4.0
            return h

        f = manufactured_rhs(grad, hess, PLaplaceParams(p, eps))
        assert f(0.1, 0.9) == pytest.approx(-eps ** (p - 2) * 6.0, rel=1e-12)

    def test_p5_matches_fd_divergence(self):
        # central-difference divergence of the flux of sin(6x+6y)
        prm = PLaplaceParams(5.0, 0.5)

        def grad(x, y):
            c = 6.0 * np.cos(6 * (x + y))
            return np.stack([c, c], axis=-1)

        def hess(x, y):
            s = -36.0 * np.sin(6 * (x + y))
            return np.stack([np.stack([s, s], axis=-1),
                             np.stack([s, s], axis=-1)], axis=-2)

        f = manufactured_rhs(grad, hess, prm)
        x0, y0 = 0.1, 0.2
        h = 1e-6

        def flux(x, y):
            return plaplace_flux(grad(x, y), prm)

        div = ((flux(x0 + h, y0)[0] - flux(x0 - h, y0)[0]) / (2 * h)
               + (flux(x0, y0 + h)[1] - flux(x0, y0 - h)[1]) / (2 * h))
        assert f(x0, y0) == pytest.approx(-div, abs=1e-5)


def interp_exact_nodal(mesh, space):
    """Nodal values of the exact slit solution, resolving the lip side of
    each duplicated vertex from an incident cell's centroid."""
    side = np.ones(mesh.n_points)
    centroids = mesh.corners().mean(axis=1)
    for row, c in enumerate(mesh.active_cells):
        for v in mesh.cell_verts[c]:
            if mesh.points[v][1] == 0.0 and centroids[row][1] < 0.0:
                side[v] = -1.0
    nodes = space.vertex_node
    se = slit_exact(*space.node_coords[nodes].T, side)
    vals = np.zeros(space.n_dofs)
    vals[space.dof(0, nodes)] = se
    vals[space.dof(1, nodes)] = 1.0 - se
    vals[space.dof(2, nodes)] = se
    return vals


class TestQuasilinear:
    def test_derivative_formulas_guarded(self):
        # the hand-written derivatives of the nonlinearities against
        # central differences
        h = 1e-6
        for fn, dfn in ((_g1, _dg1), (_g2, _dg2)):
            for t in (-0.7, 0.0, 0.4, 1.3):
                fd = (fn(t + h) - fn(t - h)) / (2 * h)
                assert abs(fd - dfn(t)) <= 1e-6 * (1.0 + abs(fd))

    def test_constant_state_residual_density(self):
        # u = (0, 1, 0): first equation density u2+u3-1 = 0 and the
        # second density g1(1-u2) - g1(u3) = g1(0) - g1(0) = 0
        prob = build_quasilinear()
        mesh = build_unit_square(2)
        s = build_space(mesh, 1, 3)
        cons = build_constraints(s)   # interior pairing only
        coeffs = np.zeros(s.n_dofs)
        coeffs[s.dof(1, np.arange(s.n_nodes))] = 1.0
        r = assemble_residual(prob, cons, s.function(coeffs))
        assert np.max(np.abs(r)) <= 1e-14

    def test_jacobian_fd(self, rng):
        prob = build_quasilinear()
        mesh = build_slit().refine_uniform(1)
        s = build_space(mesh, 1, 3)
        cons = build_constraints(s, prob.dirichlet)
        for _ in range(3):
            u = s.function(cons.apply(0.4 * rng.normal(size=s.n_dofs)))
            d = cons.distribute(rng.normal(size=s.n_dofs))
            A = assemble_jacobian(prob, cons, u)
            h = 1e-6 * (1 + np.abs(u.coeffs).max())
            rp = assemble_residual(prob, cons, s.function(u.coeffs + h * d))
            rm = assemble_residual(prob, cons, s.function(u.coeffs - h * d))
            fd = (rp - rm) / (2 * h)
            free = ~cons.constrained
            assert np.max(np.abs((A @ d - fd)[free])) \
                <= 1e-6 * (1 + np.abs(fd).max())

    def test_exact_interpolant_residual_decays(self):
        # the interpolated exact solution is asymptotically consistent
        prob = build_quasilinear()
        norms = []
        for refines in (2, 3, 4):
            mesh = build_slit().refine_uniform(refines)
            s = build_space(mesh, 1, 3)
            cons = build_constraints(s, prob.dirichlet)
            u = s.function(cons.apply(interp_exact_nodal(mesh, s)))
            r = assemble_residual(prob, cons, u)
            norms.append(np.max(np.abs(r)))
        # rate >= O(h): each refinement at least halves-ish the residual
        assert norms[1] <= 0.75 * norms[0]
        assert norms[2] <= 0.75 * norms[1]


def apply_terms(terms, dv, dg):
    """The derivatives of the residual densities along (dv, dg): each
    term pairs its trial side of component m with c and lands on the
    test side of component k."""
    val, grd = np.zeros(dv.shape), np.zeros(dg.shape)
    trial = (dv[..., None], dg)                 # (e, m, q, j)
    out = (val[..., None], grd)                 # (e, k, q, i)
    for test_grad, trial_grad, k, m, c in terms:
        out[test_grad][:, k] += np.einsum("eqij,eqj->eqi", c,
                                          trial[trial_grad][:, m])
    return val, grd


class TestJacobianTerms:
    """Both kernels' term lists against central differences of their
    residual densities at random pointwise states."""

    @pytest.mark.parametrize("prob, ncomp", [
        (build_plaplace(PLaplaceParams(
            3.5, 0.3, rhs=lambda x, y: np.cos(x) * y)), 1),
        (build_quasilinear(), 3)], ids=["plaplace", "quasilinear"])
    def test_terms_match_fd_of_densities(self, prob, ncomp, rng):
        ne, nq, h = 4, 9, 1e-6
        u = 0.5 * rng.normal(size=(ne, ncomp, nq))
        g = rng.normal(size=(ne, ncomp, nq, 2))
        dv = rng.normal(size=u.shape)
        dg = rng.normal(size=g.shape)
        terms = prob.jacobian(u, g)
        assert isinstance(terms, list)
        for test_grad, trial_grad, k, m, c in terms:
            assert c.shape == (ne, nq, 1 + test_grad, 1 + trial_grad)
        plus = prob.residual(u + h * dv, g + h * dg)
        minus = prob.residual(u - h * dv, g - h * dg)
        for got, p, q in zip(apply_terms(terms, dv, dg), plus, minus):
            fd = (p - q) / (2 * h)
            assert np.max(np.abs(got - fd)) <= 1e-7 * (1 + np.abs(fd).max())

    def test_quasilinear_term_order(self):
        # by kind (value-value, gradient-gradient, gradient-value), then
        # (k, m) row-major: the order every consumer sums in
        u = np.zeros((2, 3, 4))
        g = np.zeros((2, 3, 4, 2))
        kinds = [(tg, rg, k, m) for tg, rg, k, m, _
                 in build_quasilinear().jacobian(u, g)]
        assert kinds == [
            (False, False, 0, 1), (False, False, 0, 2), (False, False, 1, 1),
            (False, False, 1, 2), (False, False, 2, 0), (False, False, 2, 2),
            (True, True, 0, 0), (True, True, 1, 1), (True, True, 2, 2),
            (True, False, 2, 0), (True, False, 2, 1)]


def test_parameter_validation():
    with pytest.raises(ValueError):
        PLaplaceParams(1.0, 1.0)
    with pytest.raises(ValueError):
        PLaplaceParams(2.0, 0.0)
