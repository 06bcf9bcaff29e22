"""Property-based checks of the pure numerical kernels."""

import numpy as np
import pytest
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


# zeros and indicators in [1e-300, 1e6]: c * eta (c >= 0.1), the mean
# of up to 40 of them and 0.85 times that mean all stay normal floats.
# Below the normal range scaling is not exact, so no marker can be
# scale invariant there: 0.4 * [1e-323, 1.5e-323] is two equal numbers.
normal_indicator = st.just(0.0) | st.floats(1e-300, 1e6)


@given(st.lists(normal_indicator, min_size=2, max_size=40),
       st.floats(0.1, 100.0))
@settings(max_examples=60, deadline=None)
def test_marking_scale_invariance(eta, c):
    """Scaling every indicator by c marks the same cells, for indicators
    that are zero or lie in [1e-300, 1e6].  Every level of the three
    benchmark workloads at seed 1 lies inside that range: its smallest
    indicator is 2.8e-16 on square_q3q6, 1.2e-8 on cheese_plaplace and
    1.1e-7 on slit_quasilinear."""
    eta = np.asarray(eta)
    if eta.sum() == 0.0:
        return
    a = mark_average(eta)
    b = mark_average(c * eta)
    assert np.array_equal(a, b)


@pytest.mark.xfail(strict=True, reason="the mean of the subnormal "
                   "[0, 5e-324], 2.5e-324, rounds to 0.0, so both cells "
                   "are marked, while [0, 1e-323] marks the second only")
def test_marking_scale_invariance_fails_below_normal_range():
    eta = np.array([0.0, 5e-324])
    assert np.array_equal(mark_average(eta), mark_average(2.0 * eta))


# the whole nonnegative range: zeros, subnormals and normal numbers
any_indicator = st.floats(0.0, 1e6) | st.floats(0.0, 1e-307)


@given(st.lists(any_indicator, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_marking_marks_the_largest_indicator(eta):
    eta = np.asarray(eta)
    largest = np.flatnonzero(eta == eta.max())
    assert np.all(np.isin(largest, mark_average(eta)))


@given(st.integers(1, 5))
@settings(max_examples=5, deadline=None)
def test_refine_all_quadruples_cells(n):
    mesh = build_unit_square(n)
    refined = mesh.refine(mesh.active_cells)
    assert len(refined.active_cells) == 4 * n * n
