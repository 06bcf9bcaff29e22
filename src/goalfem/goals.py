"""Goal-functional expression trees with exact directional derivatives.

Leaves are point evaluations and weighted region integrals; composite
nodes (sum, scale, shift, product, integer power) differentiate through
``linearize``, which flattens the chain/product rule into a list of
(coefficient, leaf) pairs at the evaluation state.  Every derivative
flavor (scalar directional, assembled gradient, PU-nodal directional)
reuses that flattening, so they cannot drift apart.
"""

from __future__ import annotations

import numpy as np

from . import assembly
from .errors import FunctionalSingular, UnknownExperiment
from .fespace import locate_point, tensor_basis
from .problems import slit_exact


class Functional:
    """Base class: differentiable scalar quantity of a discrete field."""

    def linearize(self, u):
        raise NotImplementedError

    def value(self, u):
        raise NotImplementedError

    def directional(self, u, v, quad=None):
        return sum(c * leaf.leaf_directional(u, v, quad)
                   for c, leaf in self.linearize(u))

    def gradient(self, space, constraints, u, quad):
        out = np.zeros(space.n_dofs)
        for c, leaf in self.linearize(u):
            out += c * leaf.leaf_gradient(space, constraints, u, quad)
        return out

    def nodal_directional(self, u, v, quad):
        """Directional derivative against v * psi_a for every vertex hat."""
        out = np.zeros(u.space.mesh.n_points)
        for c, leaf in self.linearize(u):
            out += c * leaf.leaf_nodal_directional(u, v, quad)
        return out

    def leaf_gradient(self, space, constraints, u, quad):
        """Condensed gradient of a leaf.  Leaves are linear in u, so it
        is cached on the constraint set it was condensed with; the key
        holds the leaf and the space themselves, never their ids."""
        key = (self, space, quad.n)
        out = constraints.gradient_cache.get(key)
        if out is None:
            out = constraints.condense_rhs(self._raw_gradient(space, quad))
            constraints.gradient_cache[key] = out
        return out

    def __mul__(self, other):
        return Product([self, other])

    def __pow__(self, k):
        return Power(self, k)


class PointValue(Functional):
    """u_component(x0), with a slit-side hint when x0 sits on a lip."""

    def __init__(self, point, component=0, side=0):
        self.point = np.asarray(point, dtype=float)
        self.component = component
        self.side = side

    def linearize(self, u):
        return [(1.0, self)]

    def value(self, u):
        row, ref = locate_point(u.space.mesh, self.point, self.side)
        return self._eval_in_cell(u, row, ref)

    def _eval_in_cell(self, f, row, ref):
        N, _ = tensor_basis(f.space.degree, ref[None, :])
        coeffs = f.space.local_coeffs(f.coeffs, row)[self.component]
        return float(coeffs @ N[:, 0])

    def leaf_directional(self, u, v, quad=None):
        mesh = u.space.mesh
        row, ref = locate_point(mesh, self.point, self.side)
        total = 0.0
        for c, f in assembly._as_combo(v):
            frow = f.space.active_row[int(mesh.active_cells[row])]
            total += c * self._eval_in_cell(f, frow, ref)
        return total

    def _raw_gradient(self, space, quad):
        row, ref = locate_point(space.mesh, self.point, self.side)
        N, _ = tensor_basis(space.degree, ref[None, :])
        raw = np.zeros(space.n_dofs)
        raw[space.cell_dofs[row, self.component]] = N[:, 0]
        return raw

    def leaf_nodal_directional(self, u, v, quad):
        mesh = u.space.mesh
        row, ref = locate_point(mesh, self.point, self.side)
        val = self.leaf_directional(u, v)
        hats, _ = tensor_basis(1, ref[None, :])
        out = np.zeros(mesh.n_points)
        np.add.at(out, mesh.cell_verts[mesh.active_cells[row]], val * hats[:, 0])
        return out


class RegionIntegral(Functional):
    """int_R weight(x) . u(x) dx over the domain or an axis-aligned box.

    ``weight(x, y)`` returns either an array broadcastable against x
    (pairs with component 0) or stacks the component weights on the last
    axis.  Cells partially covered by the box are integrated over the
    overlap through an affine sub-mapping of the reference square.
    """

    def __init__(self, weight=None, box=None):
        self.weight = weight if callable(weight) else (
            lambda x, y, _c=(1.0 if weight is None else float(weight)):
            np.full(np.shape(x), _c))
        self.box = tuple(box) if box is not None else None

    def linearize(self, u):
        return [(1.0, self)]

    def _weights_at(self, x, ncomp):
        w = np.asarray(self.weight(x[..., 0], x[..., 1]), dtype=float)
        if w.ndim == x.ndim - 1:
            full = np.zeros(w.shape + (ncomp,))
            full[..., 0] = w
            return full
        if w.shape != x.shape[:-1] + (ncomp,):
            raise ValueError("weight returned an unexpected shape")
        return w

    def _plan(self, mesh, rule):
        """Split active cells into fully-covered and partial-overlap sets."""
        key = ("boxplan", self.box, rule.n)
        hit = mesh._caches.get(key)
        if hit is not None:
            return hit
        if self.box is None:
            hit = (np.arange(len(mesh.active_cells)), [])
            mesh._caches[key] = hit
            return hit
        bx0, bx1, by0, by1 = self.box
        corners = mesh.corners()
        x0 = corners[:, :, 0].min(axis=1)
        x1 = corners[:, :, 0].max(axis=1)
        y0 = corners[:, :, 1].min(axis=1)
        y1 = corners[:, :, 1].max(axis=1)
        full, partial = [], []
        for row in range(corners.shape[0]):
            ox0, ox1 = max(x0[row], bx0), min(x1[row], bx1)
            oy0, oy1 = max(y0[row], by0), min(y1[row], by1)
            if ox0 >= ox1 or oy0 >= oy1:
                continue
            if ox0 == x0[row] and ox1 == x1[row] and oy0 == y0[row] and oy1 == y1[row]:
                full.append(row)
                continue
            cc = corners[row]
            axis_aligned = (cc[0, 1] == cc[1, 1] and cc[2, 1] == cc[3, 1]
                            and cc[0, 0] == cc[2, 0] and cc[1, 0] == cc[3, 0])
            if not axis_aligned:
                raise ValueError("box integrals need axis-aligned partial cells")
            sx, sy = x1[row] - x0[row], y1[row] - y0[row]
            r0 = np.array([(ox0 - x0[row]) / sx, (oy0 - y0[row]) / sy])
            r1 = np.array([(ox1 - x0[row]) / sx, (oy1 - y0[row]) / sy])
            pts = r0 + rule.points * (r1 - r0)
            wts = rule.weights * np.prod(r1 - r0)
            partial.append((row, pts, wts))
        hit = (np.asarray(full, dtype=np.int64), partial)
        mesh._caches[key] = hit
        return hit

    def _accumulate(self, funcs, quad, per_vertex=False):
        """Integrate weight . (sum of funcs) -- totals or per-vertex-hat."""
        space0 = funcs[0][1].space
        mesh = space0.mesh
        rule = quad or assembly.default_rule(space0)
        ncomp = space0.n_components
        det, _, xq = assembly.cell_geometry(mesh, rule)
        full, partial = self._plan(mesh, rule)
        out = np.zeros(mesh.n_points) if per_vertex else 0.0

        if len(full):
            vals = None
            for c, f in funcs:
                v = np.einsum("ecb,bq->ecq",
                              f.space.local_coeffs(f.coeffs, full),
                              assembly.space_tab(f.space, rule)[0],
                              optimize=True)
                vals = c * v if vals is None else vals + c * v
            w = self._weights_at(xq[full], ncomp)      # (nf, nq, ncomp)
            dens = np.einsum("eqk,ekq->eq", w, vals, optimize=True)
            wdet = rule.weights[None, :] * det[full]
            if per_vertex:
                hats, _ = tensor_basis(1, rule.points)
                contrib = np.einsum("eq,eq,aq->ea", wdet, dens, hats,
                                    optimize=True)
                np.add.at(out, mesh.cell_verts[mesh.active_cells[full]], contrib)
            else:
                out += float(np.einsum("eq,eq->", wdet, dens))

        for row, pts, wts in partial:
            corners = mesh.corners()[row]
            phys = corners[0][None, :] + pts[:, 0:1] * (corners[1] - corners[0]) \
                + pts[:, 1:2] * (corners[2] - corners[0])
            area = (corners[1, 0] - corners[0, 0]) * (corners[2, 1] - corners[0, 1])
            w = self._weights_at(phys, ncomp)
            vals = None
            for c, f in funcs:
                N, _ = f.space.basis_at(pts)
                v = f.space.local_coeffs(f.coeffs, row) @ N
                vals = c * v if vals is None else vals + c * v
            dens = np.einsum("qk,kq->q", w, vals)
            if per_vertex:
                hats, _ = tensor_basis(1, pts)
                np.add.at(out, mesh.cell_verts[mesh.active_cells[row]],
                          area * (hats @ (wts * dens)))
            else:
                out += float(area * np.sum(wts * dens))
        return out

    def value(self, u):
        return self._accumulate([(1.0, u)], None)

    def leaf_directional(self, u, v, quad=None):
        return self._accumulate(assembly._as_combo(v), quad)

    def _raw_gradient(self, space, quad):
        mesh = space.mesh
        rule = quad
        det, _, xq = assembly.cell_geometry(mesh, rule)
        N, _ = assembly.space_tab(space, rule)
        full, partial = self._plan(mesh, rule)
        raw = np.zeros(space.n_dofs)
        ncomp = space.n_components
        if len(full):
            w = self._weights_at(xq[full], ncomp)
            wdet = rule.weights[None, :] * det[full]
            loc = np.einsum("eq,eqk,bq->ekb", wdet, w, N, optimize=True)
            np.add.at(raw, space.cell_dofs[full], loc)
        for row, pts, wts in partial:
            corners = mesh.corners()[row]
            phys = corners[0][None, :] + pts[:, 0:1] * (corners[1] - corners[0]) \
                + pts[:, 1:2] * (corners[2] - corners[0])
            area = (corners[1, 0] - corners[0, 0]) * (corners[2, 1] - corners[0, 1])
            w = self._weights_at(phys, ncomp)
            Np, _ = space.basis_at(pts)
            np.add.at(raw, space.cell_dofs[row],
                      area * (Np @ (wts[:, None] * w)).T)
        return raw

    def leaf_nodal_directional(self, u, v, quad):
        return self._accumulate(assembly._as_combo(v), quad, per_vertex=True)


class Sum(Functional):
    def __init__(self, terms):
        self.terms = list(terms)

    def value(self, u):
        return sum(t.value(u) for t in self.terms)

    def linearize(self, u):
        return [cl for t in self.terms for cl in t.linearize(u)]


class Scale(Functional):
    def __init__(self, factor, inner):
        self.factor = float(factor)
        self.inner = inner

    def value(self, u):
        return self.factor * self.inner.value(u)

    def linearize(self, u):
        return [(self.factor * c, leaf) for c, leaf in self.inner.linearize(u)]


class Shift(Functional):
    """J + constant (derivative unchanged)."""

    def __init__(self, inner, offset):
        self.inner = inner
        self.offset = float(offset)

    def value(self, u):
        return self.inner.value(u) + self.offset

    def linearize(self, u):
        return self.inner.linearize(u)


class Product(Functional):
    def __init__(self, factors):
        self.factors = list(factors)

    def value(self, u):
        out = 1.0
        for f in self.factors:
            out *= f.value(u)
        return out

    def linearize(self, u):
        vals = [f.value(u) for f in self.factors]
        out = []
        for i, f in enumerate(self.factors):
            rest = 1.0
            for j, v in enumerate(vals):
                if j != i:
                    rest *= v
            out.extend((rest * c, leaf) for c, leaf in f.linearize(u))
        return out


class Power(Functional):
    """Integer power J^k, k >= 1."""

    def __init__(self, inner, exponent):
        if int(exponent) != exponent or exponent < 1:
            raise ValueError("exponent must be a positive integer")
        self.inner = inner
        self.exponent = int(exponent)

    def value(self, u):
        return self.inner.value(u) ** self.exponent

    def linearize(self, u):
        k = self.exponent
        c0 = k * self.inner.value(u) ** (k - 1) if k > 1 else 1.0
        return [(c0 * c, leaf) for c, leaf in self.inner.linearize(u)]


# ----------------------------------------------------------------------
# the experiment catalogs
# ----------------------------------------------------------------------
def _chi_c(x, y):
    return np.where(x < y, y - x, 0.0)


def _phi_c(x, y):
    w = np.zeros(np.shape(x) + (3,))
    w[..., 2] = _chi_c(x, y)
    return w


def _phi_d(x, y):
    chi = ((x > 0) & (y > 0)).astype(float)
    w = np.zeros(np.shape(x) + (3,))
    if not np.any(chi):
        return w
    denom = 1.0 - slit_exact(x, y, 1.0)
    bad = (chi > 0) & (np.abs(denom) < 1e-8)
    if np.any(bad):
        raise FunctionalSingular("Phi_D denominator below 1e-8 inside the region")
    w[..., 0] = -4.0 * chi
    w[..., 1] = np.where(chi > 0, 2.0 * chi / np.where(chi > 0, denom, 1.0), 0.0)
    w[..., 2] = 4.0 * chi
    return w


def example2_base():
    """The six building blocks J_A..J_F of the slit-domain system."""
    return {
        "J_A": PointValue((-0.5, 0.01), component=2),
        "J_B": PointValue((-0.01, 0.01), component=0),
        "J_C": RegionIntegral(_phi_c),
        "J_D": RegionIntegral(_phi_d),
        "J_E": PointValue((-0.9, -0.9), component=0),
        "J_F": PointValue((-0.9, -0.1), component=1),
    }


def catalog(name):
    """Goal-functional sets for the four experiment families."""
    if name == "example1a":
        return [RegionIntegral()]
    if name == "example1b":
        return [PointValue((0.6, 0.6))]
    if name == "example1c":
        # (1+u(2.9,2.1))(1+u(2.1,2.9)); (int u - |Omega| u(2.5,2.5))^2 with
        # |Omega| = 8; the box integral; a plain point value
        return [
            Product([Shift(PointValue((2.9, 2.1)), 1.0),
                     Shift(PointValue((2.1, 2.9)), 1.0)]),
            Power(Sum([RegionIntegral(),
                       Scale(-8.0, PointValue((2.5, 2.5)))]), 2),
            RegionIntegral(box=(2.0, 3.0, 2.0, 3.0)),
            PointValue((0.6, 0.6)),
        ]
    if name == "example2":
        b = example2_base()
        return [
            Product([b["J_B"], b["J_D"]]),
            Product([b["J_A"], b["J_C"]]),
            Product([b["J_A"], b["J_C"], b["J_F"]]),
            Product([b["J_B"], b["J_E"]]),
            Product([Power(b["J_B"], 3), b["J_E"]]),
            b["J_C"],
        ]
    raise UnknownExperiment(name)
