"""Property-based checks of the pure numerical kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from goalfem.adaptivity import mark_average
from goalfem.mesh import build_unit_square
from goalfem.problems import PLaplaceParams, build_plaplace, plaplace_flux
from goalfem.solver import L_MAX, acceptance_factor

finite = st.floats(-10.0, 10.0, allow_nan=False)


@given(gx=finite, gy=finite, dx=finite, dy=finite,
       p=st.floats(1.1, 6.0), eps=st.floats(0.1, 2.0))
@settings(max_examples=60, deadline=None)
def test_flux_jacobian_matches_fd(gx, gy, dx, dy, p, eps):
    prm = PLaplaceParams(p, eps)
    g = np.array([gx, gy])
    d = np.array([dx, dy])
    h = 1e-6
    fd = (plaplace_flux(g + h * d, prm) - plaplace_flux(g - h * d, prm)) / (2 * h)
    # the kernel's single gradient-gradient term applied to d
    [(_, _, _, _, c)] = build_plaplace(prm).jacobian(
        None, g.reshape(1, 1, 1, 2))
    out = c[0, 0] @ d
    scale = 1.0 + np.abs(fd).max()
    assert np.all(np.abs(out - fd) <= 2e-4 * scale)


@given(gx=finite, gy=finite, p=st.floats(1.1, 6.0), eps=st.floats(0.1, 2.0))
@settings(max_examples=60, deadline=None)
def test_flux_parallel_to_gradient(gx, gy, p, eps):
    g = np.array([gx, gy])
    out = plaplace_flux(g, PLaplaceParams(p, eps))
    cross = out[0] * g[1] - out[1] * g[0]
    assert abs(cross) <= 1e-12 * (1 + np.abs(out).max() * np.abs(g).max())


@given(st.integers(0, L_MAX - 2))
@settings(max_examples=50, deadline=None)
def test_acceptance_factor_monotone_below_one(L):
    assert acceptance_factor(L) <= acceptance_factor(L + 1)
    assert acceptance_factor(L) < 1.0


@given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40),
       st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_marking_scale_invariance(eta, c):
    eta = np.asarray(eta)
    if eta.sum() == 0.0:
        return
    a = mark_average(eta)
    b = mark_average(c * eta)
    assert np.array_equal(a, b)


@given(st.integers(1, 5))
@settings(max_examples=5, deadline=None)
def test_refine_all_quadruples_cells(n):
    mesh = build_unit_square(n)
    refined = mesh.refine(mesh.active_cells)
    assert len(refined.active_cells) == 4 * n * n
