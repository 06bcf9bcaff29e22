"""The outer adaptive loop: solve, estimate, mark, refine, record.

Each level runs the nested pipeline: enriched primal (warm-started from
the previous level), coarse primal/adjoint with the balance-stopped
Newton, combination of the goal functionals, enriched adjoint,
estimation with PU localization, at-or-above-average marking, and
closure refinement.  Records serialize to CSV and gnuplot tables.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from typing import Literal, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import goals, mesh as meshmod, multigoal
from .assembly import assemble_residual, gauss
from .errors import MalformedCsv
from .estimator import (distribute_to_cells, effectivity, estimate,
                        make_initial_guess, solve_enriched_adjoint)
from .fespace import build_constraints, build_space, transfer_to_refined
from .linalg import max_norm
from .problems import build_plaplace, build_quasilinear, manufactured_rhs, \
    PLaplaceParams
from .solver import adaptive_newton_multigoal, nested_tolerance, newton_solve


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs, reproducibly."""

    experiment: str                    # functional catalog id
    geometry: Literal["unit_square", "cheese", "slit"]
    n_initial: int = 4                 # unit-square cells per side
    initial_refines: int = 0
    distort_factor: float = 0.0
    seed: int = 0
    system: Literal["plaplace", "quasilinear"] = "plaplace"
    p: float = 2.0
    epsilon: float = 1.0
    manufactured: bool = False         # sin(6x+6y) data instead of f=1, g=0
    degree: int = 1
    enriched_degree: Optional[int] = None
    cold_start: Literal["ones", "homotopy"] = "ones"  # p-continuation
    tol_dis: float = 1e-30
    max_levels: int = 10
    max_dofs: int = 200_000
    omegas: Optional[tuple] = None
    combine: Literal["weighted", "raw"] = "weighted"  # raw: single goal
    newton_mode: Literal["adaptive", "fixed"] = "adaptive"
    marking: Literal["estimator", "uniform"] = "estimator"
    marking_threshold: float = 0.85
    reference_values: Optional[tuple] = None
    reference_uncertainties: Optional[tuple] = None
    je_truth: Literal["reference", "surrogate"] = "reference"
    label: str = ""

    def __post_init__(self):
        for name, hint in get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if get_origin(hint) is Literal and value not in get_args(hint):
                raise ValueError(f"{name} must be one of {get_args(hint)}, "
                                 f"not {value!r}")
        if self.tol_dis <= 0:
            raise ValueError("tol_dis must be positive")
        r2 = self.enriched_degree
        if r2 is not None and r2 <= self.degree:
            raise ValueError("enriched degree must exceed the primal degree")

    @property
    def r2(self):
        return self.enriched_degree or self.degree + 1


@dataclass
class ConvergenceRecord:
    level: int
    n_dofs: int
    n_cells: int
    values: tuple
    rel_errors: tuple
    je_error: float
    je_surrogate: float
    eta_h: float
    eta_primal: float            # signed half-parts
    eta_adjoint: float
    i_eff: float
    i_effp: float
    i_effa: float
    newton_steps: int
    enriched_newton_steps: int
    eta_m: float
    wall_ms: float


def build_geometry(config):
    if config.geometry == "unit_square":
        m = meshmod.build_unit_square(config.n_initial)
    elif config.geometry == "cheese":
        m = meshmod.build_cheese()
    elif config.geometry == "slit":
        m = meshmod.build_slit()
    else:
        raise ValueError(f"unknown geometry {config.geometry!r}")
    if config.initial_refines:
        m = m.refine_uniform(config.initial_refines)
    if config.distort_factor:
        m = m.distort(config.distort_factor, config.seed)
    return m


def _sin_exact():
    def value(x, y, side=0.0):
        return np.sin(6.0 * (np.asarray(x) + np.asarray(y)))

    def grad(x, y):
        c = 6.0 * np.cos(6.0 * (np.asarray(x) + np.asarray(y)))
        return np.stack([c, c], axis=-1)

    def hess(x, y):
        s = -36.0 * np.sin(6.0 * (np.asarray(x) + np.asarray(y)))
        return np.stack([np.stack([s, s], axis=-1),
                         np.stack([s, s], axis=-1)], axis=-2)

    return value, grad, hess


def _plaplace_params(config):
    """The sin(6x+6y) manufactured solution, or f = 1 with g = 0."""
    if not config.manufactured:
        return PLaplaceParams(config.p, config.epsilon,
                              rhs=lambda x, y: np.ones(np.shape(x)))
    value, grad, hess = _sin_exact()
    base = PLaplaceParams(config.p, config.epsilon)
    return PLaplaceParams(config.p, config.epsilon,
                          rhs=manufactured_rhs(grad, hess, base),
                          dirichlet=value)


def build_problem(config):
    if config.system == "quasilinear":
        return build_quasilinear()
    return build_plaplace(_plaplace_params(config))


def homotopy_guess(config, space, constraints, quad):
    """Level-1 initial guess by continuation in the p exponent.

    The damping acceptance ladder cannot leave the all-ones state for
    the manufactured high-frequency data (the best contraction along the
    Newton direction there is ~1e-4, far under the required c(L)), so
    the cold start instead solves the p=2 problem with the same data and
    walks p to its target in a few geometric steps.
    """
    params = _plaplace_params(config)
    steps = 3
    path = [2.0] + [2.0 + (config.p - 2.0) * k / steps
                    for k in range(1, steps + 1)]
    u = None
    total = 0
    for p_k in path:
        prob_k = build_plaplace(replace(params, p=p_k))
        if u is None:
            u = make_initial_guess(space, constraints)
        norm0 = max_norm(assemble_residual(prob_k, space, constraints, u,
                                           quad))
        if norm0 == 0.0:
            continue
        u, stats = newton_solve(prob_k, space, constraints, u, 1e-2 * norm0,
                                quad=quad)
        total += stats.iterations
    return u, total


def _initial_guess(config, space, cons, quad, u_prev):
    """Newton start on one level and the Newton steps spent on it: the
    previous level's solution ``u_prev`` transferred to ``space``, or,
    on the first level (``u_prev`` None), the configured cold start."""
    if u_prev is not None:
        return transfer_to_refined(u_prev, space, cons), 0
    if config.cold_start == "homotopy":
        return homotopy_guess(config, space, cons, quad)
    return make_initial_guess(space, cons), 0


def _nested_solve(problem, space, cons, u0, level, quad, log=None):
    """Plain damped Newton to the nested tolerance of ``level``."""
    norm0 = max_norm(assemble_residual(problem, space, cons, u0, quad))
    return newton_solve(problem, space, cons, u0,
                        nested_tolerance(level, norm0), quad=quad, log=log)


def mark_average(cellwise, threshold=0.85):
    """Rows of cells with eta_K at or above the mean indicator.

    ``threshold`` relaxes the comparison to eta_K >= threshold * mean so
    that float-level spreads still count as ties: on near-uniform
    distributions (smooth problems on coarse grids, spreads ~10%) every
    cell is marked, reproducing the global early refinements of the
    reference runs, while strongly skewed distributions are unaffected.
    """
    cellwise = np.asarray(cellwise)
    return np.flatnonzero(cellwise >= threshold * cellwise.mean())


def _relative_errors(values, refs):
    if refs is None:
        return tuple(math.nan for _ in values)
    return tuple(abs(r - v) / abs(r) for v, r in zip(values, refs))


def _je_reference(values, refs, omegas):
    """Combined error with reference values standing in for u_h2."""
    if refs is None:
        return math.nan
    om = omegas or (1.0,) * len(values)
    return float(sum(w * abs(r - v) / abs(v)
                     for w, v, r in zip(om, values, refs)))


def run_uniform(config, log=None, on_level=None):
    return run_adaptive(replace(config, marking="uniform"), log=log,
                        on_level=on_level)


def run_adaptive(config, log=None, on_level=None):
    emit = log or (lambda line: None)
    problem = build_problem(config)
    functionals = goals.catalog(config.experiment)
    if config.combine == "raw" and len(functionals) != 1:
        raise ValueError("raw mode needs exactly one functional")
    quad = gauss(config.r2 + 2)

    mesh = build_geometry(config)
    records = []
    eta_prev = 1e-8
    u_prev = u2_prev = None           # solutions of the previous level
    level = 1
    while True:
        t0 = time.perf_counter()
        space = build_space(mesh, config.degree, problem.n_components)
        if level > 1 and space.n_dofs > config.max_dofs:
            break
        space2 = build_space(mesh, config.r2, problem.n_components)
        cons = build_constraints(space, problem.dirichlet)
        cons2 = build_constraints(space2, problem.dirichlet)

        # enriched primal, warm-started (Newton tolerances nested by level)
        u2_0, boot2 = _initial_guess(config, space2, cons2, quad, u2_prev)
        u2, stats2 = _nested_solve(problem, space2, cons2, u2_0, level, quad,
                                   log)

        # coarse primal + adjoint, stopped by the iteration-error balance
        u0, boot1 = _initial_guess(config, space, cons, quad, u_prev)
        u2_values = multigoal.member_values(functionals, u2)

        def goal_at(u_k):
            """The level's goal, combination weights frozen at (u_k, u2)."""
            if config.combine == "raw":
                return functionals[0]
            return multigoal.CombinedFunctional(
                functionals, multigoal.member_values(functionals, u_k),
                u2_values, config.omegas)

        u_h, z_h, astats = adaptive_newton_multigoal(
            problem, space, cons, u0, eta_prev,
            lambda u_k: goal_at(u_k).gradient(space, cons, u_k, quad),
            quad=quad, mode=config.newton_mode, log=log)

        # combine, enriched adjoint, estimate
        values = multigoal.member_values(functionals, u_h)
        goal = goal_at(u_h)
        if config.combine == "weighted":
            je_surrogate = goal.combined_error_value()
        else:
            je_surrogate = abs(u2_values[0] - values[0])
        z2 = solve_enriched_adjoint(problem, goal, space2, cons2, u2, quad)
        breakdown = estimate(problem, goal, u_h, z_h, u2, z2, quad)

        rel_errors = _relative_errors(values, config.reference_values)
        if config.combine == "weighted":
            je_ref = _je_reference(values, config.reference_values,
                                   config.omegas)
        elif config.reference_values is not None:
            je_ref = abs(config.reference_values[0] - values[0])
        else:
            je_ref = math.nan
        truth = je_surrogate if config.je_truth == "surrogate" else je_ref
        if truth and not math.isnan(truth):
            i_eff, i_effp, i_effa = effectivity(truth, breakdown)
        else:
            i_eff = i_effp = i_effa = math.nan

        wall_ms = 1e3 * (time.perf_counter() - t0)
        records.append(ConvergenceRecord(
            level=level, n_dofs=space.n_dofs, n_cells=len(mesh.active_cells),
            values=tuple(values), rel_errors=rel_errors,
            je_error=truth, je_surrogate=je_surrogate,
            eta_h=breakdown.eta_h, eta_primal=breakdown.eta_primal_signed,
            eta_adjoint=breakdown.eta_adjoint_signed,
            i_eff=i_eff, i_effp=i_effp, i_effa=i_effa,
            newton_steps=astats.iterations + boot1,
            enriched_newton_steps=stats2.iterations + boot2,
            eta_m=astats.eta_m[-1] if astats.eta_m else math.nan,
            wall_ms=wall_ms))
        emit(f"level {level}: dofs={space.n_dofs} eta_h={breakdown.eta_h:.3e} "
             f"J_E_err={truth:.3e} newton={astats.iterations} "
             f"(enriched {stats2.iterations})")
        if on_level is not None:
            on_level(level, mesh, u_h, breakdown)

        if breakdown.eta_h < config.tol_dis or level >= config.max_levels:
            break
        if config.marking == "uniform":
            marked_rows = np.arange(len(mesh.active_cells))
        else:
            marked_rows = mark_average(breakdown.cellwise,
                                       config.marking_threshold)
        mesh = mesh.refine(mesh.active_cells[marked_rows])
        u_prev, u2_prev = u_h, u2
        eta_prev = breakdown.eta_h
        level += 1

    return records


def uniform_reference(config, n_refines, log=None):
    """Goal values from plain nested Newton solves on uniformly refined
    meshes (no estimator); the cheap in-run reference computation."""
    emit = log or (lambda line: None)
    problem = build_problem(config)
    functionals = goals.catalog(config.experiment)
    quad = gauss(config.degree + 2)
    mesh = build_geometry(config)
    u_prev = None
    for level in range(1, n_refines + 2):
        space = build_space(mesh, config.degree, problem.n_components)
        cons = build_constraints(space, problem.dirichlet)
        u0, _ = _initial_guess(config, space, cons, quad, u_prev)
        u_h, _ = _nested_solve(problem, space, cons, u0, level, quad)
        emit(f"reference level {level}: dofs={space.n_dofs}")
        if level == n_refines + 1:
            return multigoal.member_values(functionals, u_h)
        u_prev = u_h
        mesh = mesh.refine_uniform()


# ----------------------------------------------------------------------
# record serialization
# ----------------------------------------------------------------------
def csv_header(n_functionals):
    cols = ["level", "dofs"]
    for i in range(1, n_functionals + 1):
        cols += [f"J_{i}", f"J_{i}_rel_error"]
    cols += ["J_E_error", "eta_h", "eta_primal", "eta_adjoint",
             "I_eff", "I_effp", "I_effa", "newton_steps", "wall_ms"]
    return cols


def record_row(rec):
    row = [rec.level, rec.n_dofs]
    for v, e in zip(rec.values, rec.rel_errors):
        row += [f"{v:.12e}", f"{e:.12e}"]
    row += [f"{rec.je_error:.12e}", f"{rec.eta_h:.12e}",
            f"{rec.eta_primal:.12e}", f"{rec.eta_adjoint:.12e}",
            f"{rec.i_eff:.12e}", f"{rec.i_effp:.12e}", f"{rec.i_effa:.12e}",
            rec.newton_steps, f"{rec.wall_ms:.3f}"]
    return row


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(len(records[0].values)))
        for rec in records:
            writer.writerow(record_row(rec))


def write_gnuplot(records, path):
    """Whitespace table with the same columns as the CSV."""
    with open(path, "w") as fh:
        fh.write("# " + " ".join(csv_header(len(records[0].values))) + "\n")
        for rec in records:
            fh.write(" ".join(str(x) for x in record_row(rec)) + "\n")


def read_csv(path):
    """Rows of floats keyed by header name."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = []
            for raw in reader:
                if len(raw) != len(header):
                    raise MalformedCsv(f"{path}: ragged row {raw}")
                rows.append({k: float(v) for k, v in zip(header, raw)})
    except (OSError, StopIteration, ValueError) as exc:
        raise MalformedCsv(f"{path}: {exc}") from exc
    if not rows:
        raise MalformedCsv(f"{path}: no data rows")
    return header, rows


def fit_rate(dofs, errors, min_levels=4):
    """Least-squares slope of log(error) vs log(DOFs), fitted over the
    last max(min_levels, half) levels with finite positive error."""
    pairs = [(d, e) for d, e in zip(dofs, errors)
             if e > 0 and math.isfinite(e)]
    if len(pairs) < 2:
        return math.nan
    tail = pairs[-max(min_levels, len(pairs) // 2):]
    x = np.log([p[0] for p in tail])
    y = np.log([p[1] for p in tail])
    return float(np.polyfit(x, y, 1)[0])
