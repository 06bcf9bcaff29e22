"""The outer adaptive loop: solve, estimate, mark, refine, record.

A level is two phases, which ``_levels`` alone calls.  ``_open_level``
starts the level's clock, builds the primal and enriched spaces and
constraints and hands on both constraint sets with their warm (on level
1, cold) starts, which carry their spaces.  ``_solve_level`` solves the
enriched primal, the coarse primal and adjoint with the balance-stopped
Newton, combines the goals, solves the enriched adjoint, estimates with
PU localization, records, marks at or above the average and refines with
closure; it returns only the refined mesh, its two solutions and eta_h,
so the rest of the level dies with its frame before the next level
opens.  Records serialize to CSV and gnuplot tables.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from typing import Literal, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import goals, mesh as meshmod, multigoal
# assemble_residual is not called here; it stays bound because the
# benchmark's tracer test (perfbench/test_bench.py) checks that this
# namespace's binding is wrapped
from .assembly import assemble_residual
from .errors import GoalFemError, IterationCap, MalformedCsv
from .estimator import effectivity, estimate, solve_enriched_adjoint
from .fespace import build_constraints, build_space, gauss, \
    transfer_to_refined
from .problems import build_plaplace, build_quasilinear, manufactured_rhs, \
    PLaplaceParams
from .solver import adaptive_newton_multigoal, nested_tolerance, newton_solve


# the integer fields that may be 0; every other one is at least 1
_MAY_BE_ZERO = ("seed", "initial_refines")


def _finite_numbers(values):
    """Whether ``values`` is a tuple of finite real numbers; a bool is no
    number here, as ``require_int`` takes none for an integer."""
    return isinstance(values, tuple) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool)
        and math.isfinite(v) for v in values)


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
    reference_values: Optional[tuple] = None
    reference_uncertainties: Optional[tuple] = None
    je_truth: Literal["reference", "surrogate"] = "reference"
    label: str = ""

    def __post_init__(self):
        for name, hint in CONFIG_TYPES.items():
            value = getattr(self, name)
            if get_origin(hint) is Literal and value not in get_args(hint):
                raise ValueError(f"{name} must be one of {get_args(hint)}, "
                                 f"not {value!r}")
            if hint is int or hint == Optional[int] and value is not None:
                meshmod.require_int(name, value,
                                    least=0 if name in _MAY_BE_ZERO else 1)
            values = {float: (value,), Optional[tuple]: value}.get(hint)
            if values is not None and not _finite_numbers(values):
                kind = "number" if hint is float else "tuple of numbers"
                raise ValueError(f"{name} must be a finite {kind}, "
                                 f"not {value!r}")
        if self.tol_dis <= 0:
            raise ValueError("tol_dis must be positive")
        if self.system == "plaplace":
            PLaplaceParams(self.p, self.epsilon)
        elif self.cold_start == "homotopy":
            raise ValueError("cold_start homotopy continues the p-Laplace "
                             "exponent; it needs system plaplace")
        r2 = self.enriched_degree
        if r2 is not None and r2 <= self.degree:
            raise ValueError("enriched_degree must exceed the primal degree")
        n_goals = len(goals.catalog(self.experiment))
        for name in ("omegas", "reference_values", "reference_uncertainties"):
            value = getattr(self, name)
            if value is not None and len(value) != n_goals:
                raise ValueError(f"{name} has {len(value)} entries, but "
                                 f"{self.experiment} has {n_goals} goals")
        if self.combine == "raw" and n_goals != 1:
            raise ValueError("raw mode needs exactly one functional")
        if self.omegas is not None:
            if self.combine == "raw":
                raise ValueError("raw mode reads no omegas")
            if min(self.omegas) < 0 or max(self.omegas) == 0:
                raise ValueError("omegas must be nonnegative and weigh "
                                 f"some goal, not {self.omegas}")
        if self.reference_values is not None and 0.0 in self.reference_values:
            raise ValueError("reference_values must be nonzero: the "
                             "relative errors divide by them")

    @property
    def r2(self):
        return self.enriched_degree or self.degree + 1


# the resolved annotation of each RunConfig field: what __post_init__
# validates against and what cli.parse_config converts INI values to
CONFIG_TYPES = get_type_hints(RunConfig)


def _column(name, spec=".12e"):
    """A record field written as the file column ``name`` in ``spec``."""
    return field(metadata={"column": name, "spec": spec})


@dataclass
class ConvergenceRecord:
    """One level's results, in file order: level, dofs, the goals' J_i,
    J_i_rel_error pairs, then each ``_column`` field (older files end at
    wall_ms).  eta_primal and eta_adjoint are signed half-parts;
    adjoint_applications counts matrix-free operator applications, and
    adjoint_factorized is 1 when J(u2) was assembled and factored."""

    level: int
    n_dofs: int
    values: tuple
    rel_errors: tuple
    je_error: float = _column("J_E_error")
    eta_h: float = _column("eta_h")
    eta_primal: float = _column("eta_primal")
    eta_adjoint: float = _column("eta_adjoint")
    i_eff: float = _column("I_eff")
    i_effp: float = _column("I_effp")
    i_effa: float = _column("I_effa")
    newton_steps: int = _column("newton_steps", "d")
    wall_ms: float = _column("wall_ms", ".3f")
    n_cells: int = _column("n_cells", "d")
    enriched_newton_steps: int = _column("enriched_newton_steps", "d")
    eta_m: float = _column("eta_m")
    je_surrogate: float = _column("je_surrogate")
    adjoint_applications: int = _column("adjoint_applications", "d")
    adjoint_factorized: int = _column("adjoint_factorized", "d")


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


def homotopy_guess(config, problem, space, constraints):
    """Level-1 initial guess by continuation in the p exponent.

    The damping acceptance ladder cannot leave the all-ones state for
    the manufactured high-frequency data (the best contraction along the
    Newton direction there is ~1e-4, far under the required c(L)), so
    the cold start instead solves the p=2 problem with the same data and
    walks p to its target in a few geometric steps.  Each step is the
    run's ``problem`` (its load and boundary data) with the kernels of
    exponent p_k, so every step reads the mesh's one evaluation of the
    load.
    """
    steps = 3
    path = [2.0] + [2.0 + (config.p - 2.0) * k / steps
                    for k in range(1, steps + 1)]
    u = space.function(np.ones(space.n_dofs))
    total = 0
    for p_k in path:
        kernels = build_plaplace(PLaplaceParams(p_k, config.epsilon))
        prob_k = replace(problem, residual=kernels.residual,
                         jacobian=kernels.jacobian)
        u, _, stats = newton_solve(prob_k, constraints, u, 1e-2)
        total += stats.iterations
    return u, total


def _initial_guess(config, problem, space, cons, u_prev):
    """Newton start on one level and the Newton steps spent on it: the
    previous level's solution ``u_prev`` transferred to ``space``, or,
    on the first level (``u_prev`` None), the configured cold start.
    The Newton drivers project it onto ``cons``."""
    if u_prev is not None:
        return transfer_to_refined(u_prev, space), 0
    if config.cold_start == "homotopy":
        return homotopy_guess(config, problem, space, cons)
    return space.function(np.ones(space.n_dofs)), 0


# mark_average marks eta_K >= MARK_THRESHOLD * mean: float-level spreads
# still count as ties, so on near-uniform distributions (smooth problems
# on coarse grids, spreads ~10%) every cell is marked, reproducing the
# global early refinements of the reference runs, while strongly skewed
# distributions are unaffected
MARK_THRESHOLD = 0.85


def mark_average(cellwise):
    """Rows of cells with eta_K at or above the mean indicator, ties
    relaxed by MARK_THRESHOLD."""
    cellwise = np.asarray(cellwise)
    return np.flatnonzero(cellwise >= MARK_THRESHOLD * cellwise.mean())


def _relative_errors(values, refs):
    if refs is None:
        return tuple(math.nan for _ in values)
    return tuple(abs(r - v) / abs(r) for v, r in zip(values, refs))


def _je(config, values_ref, values_at):
    """The run's J_E with ``values_ref`` standing in for the exact goal
    values: |J(ref) - J(at)| in raw mode, ``multigoal.combined_error``
    in weighted mode."""
    if config.combine == "raw":
        return abs(values_ref[0] - values_at[0])
    return multigoal.combined_error(values_ref, values_at, config.omegas)


def run_uniform(config, log=None, on_level=None):
    return run_adaptive(replace(config, marking="uniform"), log=log,
                        on_level=on_level)


def run_adaptive(config, log=None, on_level=None):
    """The records of the run's levels.  A ``GoalFemError`` raised at
    some level leaves with the records of the levels before it attached
    as ``exc.records``; an ``IterationCap`` on the first level of a
    p-Laplace run started from all ones names the homotopy cold start
    in its message."""
    records = []
    try:
        for record in _levels(config, log, on_level):
            records.append(record)
    except GoalFemError as exc:
        exc.records = records
        if isinstance(exc, IterationCap) and not records \
                and config.system == "plaplace" \
                and config.cold_start == "ones":
            exc.args = (f"{exc} on level 1 from the all-ones start; "
                        "cold_start = homotopy walks p there from 2",)
        raise
    return records


def _levels(config, log, on_level):
    """Run the adaptive loop, yielding each level's record."""
    problem = build_problem(config)
    functionals = goals.catalog(config.experiment)
    # one rule for both spaces of every level, exact for the enriched
    # mass matrix
    rule = gauss(config.r2 + 2)
    # `state` is in turn a level's inputs and the opened level: each phase's
    # result replaces its input, so neither outlives the phase it feeds
    state = (build_geometry(config), 1, 1e-8, None, None)
    while state is not None:
        state = _open_level(config, problem, rule, *state)
        if state is not None:
            state = yield from _solve_level(config, problem, functionals,
                                            state, log, on_level)


def _open_level(config, problem, rule, mesh, level, eta_prev, u_prev,
                u2_prev):
    """The level tuple ``_solve_level`` takes; None past max_dofs."""
    t0 = time.perf_counter()
    space = build_space(mesh, config.degree, problem.n_components, rule)
    if level > 1 and space.n_dofs > config.max_dofs:
        return None
    space2 = build_space(mesh, config.r2, problem.n_components, rule)
    cons = build_constraints(space, problem.dirichlet)
    cons2 = build_constraints(space2, problem.dirichlet)
    u2_0, boot2 = _initial_guess(config, problem, space2, cons2, u2_prev)
    u0, boot1 = _initial_guess(config, problem, space, cons, u_prev)
    return t0, level, eta_prev, mesh, cons, u0, boot1, cons2, u2_0, boot2


def _solve_level(config, problem, functionals, opened, log, on_level):
    """Yield the level's record; return the next level's inputs, or None."""
    t0, level, eta_prev, mesh, cons, u0, boot1, cons2, u2_0, boot2 = opened
    # enriched primal (Newton tolerances nested by level)
    u2, lu2, stats2 = newton_solve(problem, cons2, u2_0,
                                   nested_tolerance(level), log=log)

    # coarse primal + adjoint, stopped by the iteration-error balance
    u2_values = multigoal.member_values(functionals, u2)

    def goal_at(u_k):
        """The level's goal, combination weights frozen at (u_k, u2)."""
        if config.combine == "raw":
            return functionals[0]
        return multigoal.CombinedFunctional(
            functionals, multigoal.member_values(functionals, u_k),
            u2_values, config.omegas)

    u_h, z_h, astats = adaptive_newton_multigoal(
        problem, cons, u0, eta_prev,
        lambda u_k: goal_at(u_k).gradient(cons, u_k),
        mode=config.newton_mode, log=log)

    # combine, enriched adjoint, estimate
    values = multigoal.member_values(functionals, u_h)
    goal = goal_at(u_h)
    je_surrogate = _je(config, u2_values, values)
    z2, zstats = solve_enriched_adjoint(problem, goal, cons2, u2, lu2)
    # the enriched LU, the level's largest object, outlived the coarse
    # solve because the weights need u_h; it goes before the estimate
    del lu2
    breakdown = estimate(problem, goal, cons, u_h, z_h, u2, z2)

    refs = config.reference_values
    je_ref = math.nan if refs is None else _je(config, refs, values)
    truth = je_surrogate if config.je_truth == "surrogate" else je_ref
    if truth and not math.isnan(truth):
        i_eff, i_effp, i_effa = effectivity(truth, breakdown)
    else:
        i_eff = i_effp = i_effa = math.nan

    record = ConvergenceRecord(
        level=level, n_dofs=u_h.space.n_dofs, n_cells=len(mesh.active_cells),
        values=tuple(values), rel_errors=_relative_errors(values, refs),
        je_error=truth, je_surrogate=je_surrogate,
        eta_h=breakdown.eta_h, eta_primal=breakdown.eta_primal_signed,
        eta_adjoint=breakdown.eta_adjoint_signed,
        i_eff=i_eff, i_effp=i_effp, i_effa=i_effa,
        newton_steps=astats.iterations + boot1,
        enriched_newton_steps=stats2.iterations + boot2,
        eta_m=astats.eta_m[-1] if astats.eta_m else math.nan,
        adjoint_applications=zstats.applications,
        adjoint_factorized=int(zstats.factorized),
        wall_ms=1e3 * (time.perf_counter() - t0))
    yield record
    if log:
        log(f"level {level}: dofs={record.n_dofs} eta_h={record.eta_h:.3e} "
            f"J_E_err={record.je_error:.3e} newton={record.newton_steps} "
            f"(enriched {record.enriched_newton_steps})")
    if on_level is not None:
        on_level(level, mesh, u_h, breakdown)

    if breakdown.eta_h < config.tol_dis or level >= config.max_levels:
        return None
    marked = mesh.active_cells
    if config.marking == "estimator":
        marked = marked[mark_average(breakdown.cellwise)]
    return mesh.refine(marked), level + 1, breakdown.eta_h, u_h, u2


# ----------------------------------------------------------------------
# record serialization
# ----------------------------------------------------------------------
def record_columns(rec):
    """The record's (column, text) pairs in file order: the one schema
    of the CSV and the gnuplot table."""
    cols = [("level", f"{rec.level:d}"), ("dofs", f"{rec.n_dofs:d}")]
    for i, (v, e) in enumerate(zip(rec.values, rec.rel_errors), 1):
        cols += [(f"J_{i}", f"{v:.12e}"), (f"J_{i}_rel_error", f"{e:.12e}")]
    return cols + [(f.metadata["column"],
                    format(getattr(rec, f.name), f.metadata["spec"]))
                   for f in fields(rec) if f.metadata]


def _table(records):
    """The header row, then one row of texts per record."""
    rows = [record_columns(rec) for rec in records]
    header = [name for name, _ in rows[0]]
    return [header] + [[text for _, text in row] for row in rows]


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(_table(records))


def write_gnuplot(records, path):
    """Whitespace table with the same columns as the CSV."""
    header, *rows = _table(records)
    with open(path, "w") as fh:
        for line in [["#"] + header] + rows:
            fh.write(" ".join(line) + "\n")


def read_csv(path):
    """Rows of floats keyed by header name; a file lacking a column that
    ``goalfem report`` reads is malformed."""
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
    missing = [col for col in ("dofs", "J_E_error", "eta_h")
               if col not in header]
    if missing:
        raise MalformedCsv(f"{path}: missing columns {', '.join(missing)}")
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
