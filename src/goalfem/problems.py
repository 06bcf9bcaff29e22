"""PDE kernels: regularized p-Laplacian and a quasilinear 3-field system.

Kernels are pure functions of the state at the quadrature points:
``residual(u, grad_u)`` and ``jacobian(u, grad_u)``, with u (e, k, q)
and grad_u (e, k, q, 2) on every active cell e.  No kernel sees a
coordinate.  A load is data of the problem (``ProblemDefinition.load``,
f(x, y) on component 0), not of the iterate: ``assembly`` evaluates it
once per mesh and rule and subtracts it from the value density.
Residual kernels return the densities pairing with test values and
test gradients.  Jacobian kernels return the exact linearization as a
list of its structurally nonzero terms
``(test_grad, trial_grad, k, m, c)``,

    A'(u)(du, v) = sum over terms of  s(v_k)^T c s(du_m),

with k the test and m the trial component, and s(w) the value w (a
length-1 side, ``*_grad`` False) or the gradient of w (length 2, True).
``c[e, q, i, j]`` holds the coefficients at quadrature point q of
active-cell row e; i runs over the test side and j over the trial side.
A kernel lists its terms by kind (value-value, gradient-gradient,
gradient-value), each kind in row-major (k, m) order; consumers add the
terms in list order, so the order fixes the summation order.  The list
is built eagerly: the kernel's work happens inside the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import DIRICHLET


@dataclass(frozen=True)
class ProblemDefinition:
    """Weak-form kernels plus boundary data and load for one PDE
    instance."""

    n_components: int
    residual: Callable
    jacobian: Callable
    dirichlet: tuple  # of (boundary tag, component, g(x, y, side))
    load: Optional[Callable] = None  # f(x, y) on component 0, vectorized


# ----------------------------------------------------------------------
# regularized p-Laplacian
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PLaplaceParams:
    p: float
    epsilon: float
    rhs: Optional[Callable] = None           # f(x, y), vectorized
    dirichlet: Optional[Callable] = None     # g(x, y, side); default 0

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


def _norm2(g):
    """|g|^2 over the last axis of length 2; bitwise equal to
    ``np.sum(g * g, axis=-1)`` and about twice as fast."""
    g0, g1 = g[..., 0], g[..., 1]
    return g0 * g0 + g1 * g1


def plaplace_flux(grad_u, params):
    """a(grad u) = (eps^2 + |grad u|^2)^((p-2)/2) grad u."""
    g = np.asarray(grad_u, dtype=float)
    s = _norm2(g)
    a = (params.epsilon ** 2 + s) ** ((params.p - 2.0) / 2.0)
    return a[..., None] * g


def build_plaplace(params):
    """Weak form <a(grad u), grad v> - <f, v> with Dirichlet data; the
    kernels form <a(grad u), grad v>, and f is the problem's load."""
    p, eps = params.p, params.epsilon
    eye = np.eye(2)

    def residual(u, grad_u):
        return np.zeros_like(u), plaplace_flux(grad_u, params)

    def jacobian(u, grad_u):
        g = grad_u[:, 0]                       # (nc, nq, 2)
        s = _norm2(g)
        base = eps ** 2 + s
        a = base ** ((p - 2.0) / 2.0)
        gg = a[..., None, None] * eye
        if p != 2.0:
            b = (p - 2.0) * base ** ((p - 4.0) / 2.0)
            gg = gg + b[..., None, None] * (g[..., :, None] * g[..., None, :])
        return [(True, True, 0, 0, gg)]

    g = params.dirichlet or (lambda x, y, side: 0.0)
    return ProblemDefinition(1, residual, jacobian, ((DIRICHLET, 0, g),),
                             load=params.rhs)


def manufactured_rhs(grad_fn, hess_fn, params):
    """Right-hand side making a given smooth function the exact solution.

    With s = |grad u|^2 and H the Hessian,
        f = -[(eps^2+s)^((p-2)/2) tr(H)
              + (p-2)(eps^2+s)^((p-4)/2) grad(u)^T H grad(u)].
    """
    p, eps = params.p, params.epsilon

    def f(x, y):
        g = grad_fn(x, y)
        H = hess_fn(x, y)
        s = np.sum(g * g, axis=-1)
        base = eps ** 2 + s
        lap = np.trace(H, axis1=-2, axis2=-1)
        gHg = np.einsum("...i,...ij,...j->...", g, H, g)
        return -(base ** ((p - 2.0) / 2.0) * lap
                 + (p - 2.0) * base ** ((p - 4.0) / 2.0) * gHg)

    return f


# ----------------------------------------------------------------------
# quasilinear three-field system on the slit domain
# ----------------------------------------------------------------------
def _g1(t):
    return np.exp(t) - np.sin(t - 1.0)


def _dg1(t):
    return np.exp(t) - np.cos(t - 1.0)


def _g2(t):
    return np.exp(t * t - t)


def _dg2(t):
    return (2.0 * t - 1.0) * np.exp(t * t - t)


def slit_exact(x, y, side=0.0):
    """sign(y) sqrt(sqrt(x^2+y^2) - x); the side hint resolves y == 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sgn = np.sign(y)
    sgn = np.where(y == 0.0, side, sgn)
    root = np.sqrt(x * x + y * y) - x
    return sgn * np.sqrt(np.maximum(root, 0.0))


def build_quasilinear():
    """Coupled system with exact solution u1 = 1 - u2 = u3 = slit_exact.

    Weak forms (all tested componentwise, homogeneous natural conditions
    on the slit lips):
        <grad u1, grad v1> + <u2 + u3 - 1, v1>
        <grad u2, grad v2> + <g1(1-u2) - g1(u3), v2>
        <g2(u1+u2) grad u3, grad v3> + <g1(u3) - g1(u1), v3>
    """
    g1, dg1, g2, dg2 = _g1, _dg1, _g2, _dg2
    eye = np.eye(2)

    def residual(u, grad_u):
        u1, u2, u3 = u[:, 0], u[:, 1], u[:, 2]
        val = np.empty_like(u)
        val[:, 0] = u2 + u3 - 1.0
        val[:, 1] = g1(1.0 - u2) - g1(u3)
        val[:, 2] = g1(u3) - g1(u1)
        grad = np.empty_like(grad_u)
        grad[:, 0] = grad_u[:, 0]
        grad[:, 1] = grad_u[:, 1]
        grad[:, 2] = g2(u1 + u2)[..., None] * grad_u[:, 2]
        return val, grad

    def jacobian(u, grad_u):
        nc, _, nq = u.shape
        u1, u2, u3 = u[:, 0], u[:, 1], u[:, 2]
        ones = np.ones((nc, nq, 1, 1))
        eye2 = np.broadcast_to(eye, (nc, nq, 2, 2))
        coupling = (dg2(u1 + u2)[..., None] * grad_u[:, 2])[..., None]
        return [
            (False, False, 0, 1, ones),
            (False, False, 0, 2, ones),
            (False, False, 1, 1, -dg1(1.0 - u2)[..., None, None]),
            (False, False, 1, 2, -dg1(u3)[..., None, None]),
            (False, False, 2, 0, -dg1(u1)[..., None, None]),
            (False, False, 2, 2, dg1(u3)[..., None, None]),
            (True, True, 0, 0, eye2),
            (True, True, 1, 1, eye2),
            (True, True, 2, 2, g2(u1 + u2)[..., None, None] * eye),
            (True, False, 2, 0, coupling),
            (True, False, 2, 1, coupling),
        ]

    def u1_data(x, y, side):
        return slit_exact(x, y, side)

    def u2_data(x, y, side):
        return 1.0 - slit_exact(x, y, side)

    return ProblemDefinition(3, residual, jacobian,
                             ((DIRICHLET, 0, u1_data),
                              (DIRICHLET, 1, u2_data),
                              (DIRICHLET, 2, u1_data)))
