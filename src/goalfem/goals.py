"""Goal-functional expression trees with exact directional derivatives.

A leaf is a linear functional given by one weighted sample set,
J(u) = sum_s w_s . u(x_s): a point value is one sample, a region integral
is its quadrature points with the weight, the quadrature weight and the
cell Jacobian multiplied in.  The value, the directional derivative J'(v),
the assembled gradient and the PU-nodal form J'(v psi_a) are four
reductions of that one sum.  What a leaf derives is kept through the
``cached`` of the object it belongs to: its sample set on the mesh, its
value on the function and its condensed gradient on the constraint set.
Composite nodes (sum, scale, shift, product, integer power) define only
``linearize``: one traversal at the evaluation state gives the value and
the chain/product rule flattened into (coefficient, leaf) pairs.  Every
derivative form reads those pairs, so no two forms can drift apart; a
leaf's pair is (1, itself), so its derivatives form no value.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import assembly
from .errors import FunctionalSingular, UnknownExperiment
from .fespace import locate_point, tensor_values
from .mesh import require_int
from .problems import slit_exact


class Functional:
    """Base class: differentiable scalar quantity of a discrete field."""

    def linearize(self, u):
        """(J(u), [(c, leaf), ...]) with J'(u) = sum c leaf'."""
        raise NotImplementedError

    def _pairs(self, u):
        return self.linearize(u)[1]

    def value(self, u):
        return self.linearize(u)[0]

    def directional(self, u, v):
        return sum(c * leaf._directional(u, v) for c, leaf in self._pairs(u))

    def gradient(self, constraints, u):
        """The condensed gradient J'(u)(phi_i) on u's space."""
        out = np.zeros(u.space.n_dofs)
        for c, leaf in self._pairs(u):
            out += c * leaf._gradient(u.space, constraints)
        return out

    def nodal_directional(self, u, v):
        """Directional derivative against v * psi_a for every vertex hat."""
        out = np.zeros(u.space.mesh.n_points)
        for c, leaf in self._pairs(u):
            out += c * leaf._nodal_directional(u, v)
        return out


class LinearLeaf(Functional):
    """A leaf J(u) = sum_s w_s . u(x_s) over a weighted sample set.

    Subclasses supply ``_samples(mesh, rule, ncomp)``: groups
    ``(rows, ref_pts, w)`` where ``w[e, p, k]`` weights component k at
    reference point p of active-cell row ``rows[e]``.  The groups are
    cached on the mesh per leaf (and per rule order unless
    ``rule_free``).  Every space on a mesh numbers its active cells
    alike, so one sample set serves all of them.  Every reduction
    samples with the rule of its function's space, so J(u) = J'(u)(u).
    """

    rule_free = False

    def _pairs(self, u):
        return [(1.0, self)]

    def linearize(self, u):
        return self.value(u), self._pairs(u)

    def _groups(self, mesh, rule, ncomp):
        return mesh.cached(
            ("samples", self, ncomp, None if self.rule_free else rule.n),
            lambda: self._samples(mesh, rule, ncomp))

    def _densities(self, v):
        """(rows, ref_pts, w . v(x)) per group of the function v."""
        space = v.space
        for rows, pts, w in self._groups(space.mesh, space.rule,
                                         space.n_components):
            vals = space.local_coeffs(v.coeffs, rows) @ space.basis_at(pts)
            yield rows, pts, np.einsum("epk,ekp->ep", w, vals)

    def value(self, u):
        """J(u) = J'(u)(u), computed once per function and kept on it."""
        return u.cached(("leaf", self), lambda: self._directional(u, u))

    def _directional(self, u, v):
        return float(sum(d.sum() for _, _, d in self._densities(v)))

    def _nodal_directional(self, u, v):
        mesh = u.space.mesh
        out = np.zeros(mesh.n_points)
        for rows, pts, d in self._densities(v):
            np.add.at(out, mesh.cell_verts[mesh.active_cells[rows]],
                      d @ tensor_values(1, pts).T)
        return out

    def _raw_gradient(self, space):
        groups = self._groups(space.mesh, space.rule, space.n_components)
        local = [np.swapaxes(w, 1, 2) @ space.basis_at(pts).T
                 for _, pts, w in groups]
        return space.scatter(np.concatenate(local),
                             np.concatenate([rows for rows, _, _ in groups]))

    def _gradient(self, space, constraints):
        """Condensed gradient on ``space``, which a linear leaf has at
        every state; kept on the constraint set it was condensed with.
        The key holds the leaf and the space themselves, never their
        ids."""
        return constraints.cached(
            ("gradient", self, space),
            lambda: constraints.condense_rhs(self._raw_gradient(space)))


class PointValue(LinearLeaf):
    """u_component(x0), with a slit-side hint when x0 sits on a lip.

    ``component`` is an integer >= 0 (ValueError otherwise), and below
    the component count of every space it is sampled on."""

    rule_free = True

    def __init__(self, point, component=0, side=0):
        self.point = np.asarray(point, dtype=float)
        self.component = require_int("component", component, least=0)
        self.side = side

    def _samples(self, mesh, rule, ncomp):
        k = require_int("component", self.component, least=0, below=ncomp)
        row, ref = locate_point(mesh, self.point, self.side)
        w = np.zeros((1, 1, ncomp))
        w[0, 0, k] = 1.0
        return [(np.array([row]), ref[None, :], w)]


class RegionIntegral(LinearLeaf):
    """int_R weight(x) . u(x) dx over the domain or an axis-aligned box.

    ``weight(x, y)`` returns either an array broadcastable against x
    (pairs with component 0) or stacks the component weights on the last
    axis.  Cells partially covered by the box are integrated over the
    overlap through an affine sub-mapping of the reference square, one
    sample group per such cell.  A box is (x0, x1, y0, y1), four finite
    numbers with x0 < x1 and y0 < y1 (ValueError otherwise).
    """

    def __init__(self, weight=None, box=None):
        self.weight = weight if callable(weight) else (
            lambda x, y, _c=(1.0 if weight is None else float(weight)):
            np.full(np.shape(x), _c))
        if box is not None:
            box = tuple(box)
            if not (len(box) == 4
                    and all(isinstance(v, numbers.Real) and math.isfinite(v)
                            for v in box)
                    and box[0] < box[1] and box[2] < box[3]):
                raise ValueError(f"box must be four finite numbers "
                                 f"(x0, x1, y0, y1) with x0 < x1 and "
                                 f"y0 < y1, not {box}")
        self.box = box

    def _weights_at(self, x, ncomp):
        w = np.asarray(self.weight(x[..., 0], x[..., 1]), dtype=float)
        if w.ndim == x.ndim - 1:
            full = np.zeros(w.shape + (ncomp,))
            full[..., 0] = w
            return full
        if w.shape != x.shape[:-1] + (ncomp,):
            raise ValueError("weight returned an unexpected shape")
        return w

    def _samples(self, mesh, rule, ncomp):
        wdet, _, xq = assembly.cell_geometry(mesh, rule)
        if self.box is None:
            full = np.arange(len(wdet))
            return [(full, rule.points,
                     self._weights_at(xq, ncomp) * wdet[..., None])]
        corners = mesh.corners()
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        olo = np.maximum(lo, self.box[0::2])
        ohi = np.minimum(hi, self.box[1::2])
        overlap = np.all(olo < ohi, axis=1)
        covered = overlap & np.all((olo == lo) & (ohi == hi), axis=1)
        full = np.flatnonzero(covered)
        groups = [(full, rule.points,
                   self._weights_at(xq[full], ncomp) * wdet[full, :, None])]
        for row in np.flatnonzero(overlap & ~covered):
            cc = corners[row]
            axis_aligned = (cc[0, 1] == cc[1, 1] and cc[2, 1] == cc[3, 1]
                            and cc[0, 0] == cc[2, 0] and cc[1, 0] == cc[3, 0])
            if not axis_aligned:
                raise ValueError("box integrals need axis-aligned partial cells")
            size = hi[row] - lo[row]
            r0 = (olo[row] - lo[row]) / size
            r1 = (ohi[row] - lo[row]) / size
            pts = r0 + rule.points * (r1 - r0)
            wts = rule.weights * np.prod(r1 - r0) * np.prod(size)
            w = self._weights_at(lo[row] + pts * size, ncomp)
            groups.append((np.array([row]), pts, (wts[:, None] * w)[None]))
        return groups


class Sum(Functional):
    def __init__(self, terms):
        self.terms = list(terms)

    def linearize(self, u):
        parts = [t.linearize(u) for t in self.terms]
        return (sum(v for v, _ in parts),
                [cl for _, pairs in parts for cl in pairs])


class Scale(Functional):
    def __init__(self, factor, inner):
        self.factor = float(factor)
        self.inner = inner

    def linearize(self, u):
        v, pairs = self.inner.linearize(u)
        return self.factor * v, [(self.factor * c, leaf) for c, leaf in pairs]


class Shift(Functional):
    """J + constant (derivative unchanged)."""

    def __init__(self, inner, offset):
        self.inner = inner
        self.offset = float(offset)

    def linearize(self, u):
        v, pairs = self.inner.linearize(u)
        return v + self.offset, pairs


class Product(Functional):
    def __init__(self, factors):
        self.factors = list(factors)

    def linearize(self, u):
        vals, pairs = zip(*(f.linearize(u) for f in self.factors))
        out = []
        for i, factor_pairs in enumerate(pairs):
            rest = math.prod(vals[:i] + vals[i + 1:])
            out.extend((rest * c, leaf) for c, leaf in factor_pairs)
        return math.prod(vals), out


class Power(Functional):
    """Integer power J^k, k >= 1."""

    def __init__(self, inner, exponent):
        self.inner = inner
        self.exponent = require_int("exponent", exponent)

    def linearize(self, u):
        k = self.exponent
        v, pairs = self.inner.linearize(u)
        c0 = k * v ** (k - 1) if k > 1 else 1.0
        return v ** k, [(c0 * c, leaf) for c, leaf in pairs]


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
