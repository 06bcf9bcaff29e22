"""Span tracer for the goalfem benchmark.

The tracer wraps the public functions of each goalfem module from the
outside: nothing under ``src/`` is edited.  A function imported with
``from module import name`` is bound in several module namespaces, so
every namespace that holds the original object is rewritten; a call
through any of them then enters the wrapper.

Each wrapped call is a span.  A span's self time is its duration minus
the durations of the spans it directly encloses, so the self times of
all layers plus ``adaptivity.self_s`` (time under no span) add up to the
traced wall time.  A call that re-enters its own group (a composite goal
evaluating its leaves, ``transfer_to_refined`` inside another transfer)
is folded into the enclosing span and not counted again.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute path, span name).  An attribute path "Class.method"
# wraps the method on the class, which covers every instance.
TARGETS = (
    ("goalfem.mesh", "Mesh.refine", "mesh.refine"),
    ("goalfem.fespace", "build_space", "fespace.build_space"),
    ("goalfem.fespace", "build_constraints", "fespace.build_constraints"),
    ("goalfem.fespace", "transfer_to_refined", "fespace.transfer"),
    ("goalfem.fespace", "interpolate_between", "fespace.transfer"),
    ("goalfem.assembly", "assemble_residual", "assembly.residual"),
    ("goalfem.assembly", "assemble_jacobian", "assembly.jacobian"),
    ("goalfem.linalg", "factorize", "linalg.factorize"),
    ("goalfem.linalg", "LuFactorization.solve", "linalg.solve"),
    ("goalfem.solver", "newton_solve", "solver.newton"),
    ("goalfem.solver", "adaptive_newton_multigoal", "solver.newton"),
    ("goalfem.solver", "line_search", "solver.line_search"),
    ("goalfem.estimator", "estimate", "estimator.estimate"),
    ("goalfem.estimator", "solve_enriched_adjoint",
     "estimator.enriched_adjoint"),
)

# problem builders whose returned residual/jacobian closures are wrapped
PROBLEM_BUILDERS = ("build_plaplace", "build_quasilinear")

# goal-functional methods, wrapped on goals.Functional and every subclass
# that overrides them, and on multigoal.CombinedFunctional
GOAL_METHODS = {
    "value": "goals.value",
    "gradient": "goals.gradient",
    "nodal_directional": "goals.nodal",
    "directional": "goals.nodal",
}

# spans whose calls and self time are reported
SPANS = (
    "mesh.refine",
    "fespace.build_space", "fespace.build_constraints", "fespace.transfer",
    "problems.kernel",
    "assembly.residual", "assembly.jacobian",
    "linalg.factorize", "linalg.solve",
    "goals.value", "goals.gradient", "goals.nodal",
    "solver.newton", "solver.line_search",
    "estimator.estimate", "estimator.enriched_adjoint",
)


class Tracer:
    """Accumulates calls, self time and counters of the wrapped spans."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.top_s = 0.0              # summed duration of outermost spans
        self._stack = []              # open spans: [name, group, child_s]

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, fn, name, group=None, on_result=None):
        """``fn`` recorded as span ``name``.  ``on_result(tracer, result)``
        runs after the span has closed, so the span is not charged for
        the bookkeeping."""
        group = group or name
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == group:
                return fn(*args, **kwargs)
            self._enter(name)
            frame = [name, group, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[2]
                if stack:
                    stack[-1][2] += dt
                else:
                    self.top_s += dt
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _enter(self, name):
        """Counters that depend on which span a call happens inside."""
        if name == "assembly.residual" and self._inside("solver.line_search"):
            self.counts["solver.line_search.trials"] += 1
        elif name == "linalg.factorize" and self._inside("solver.newton"):
            self.counts["solver.newton.factorizations"] += 1

    def metrics(self, wall_s):
        """Per-layer figures of one traced run lasting ``wall_s``."""
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        out["assembly.jacobian.nnz"] = c["assembly.jacobian.nnz"]
        out["linalg.factorize.fill_nnz"] = c["linalg.factorize.fill_nnz"]
        out["solver.newton.steps"] = c["solver.newton.steps"]
        out["solver.line_search.trials"] = c["solver.line_search.trials"]
        out["solver.line_search.accept_ratio"] = (
            self.calls["solver.line_search"]
            / max(c["solver.line_search.trials"], 1))
        out["solver.jacobian_reuse"] = (
            c["solver.newton.steps"]
            / max(c["solver.newton.factorizations"], 1))
        out["adaptivity.self_s"] = wall_s - self.top_s
        return out


def _count_nnz(tracer, matrix):
    tracer.counts["assembly.jacobian.nnz"] += matrix.nnz


def _count_fill(tracer, lu):
    # SuperLU reports the nonzeros of L and U together
    tracer.counts["linalg.factorize.fill_nnz"] += lu._lu.nnz


def _count_newton_steps(tracer, result):
    tracer.counts["solver.newton.steps"] += result[-1].iterations


_ON_RESULT = {
    "assembly.jacobian": _count_nnz,
    "linalg.factorize": _count_fill,
    "solver.newton": _count_newton_steps,
}


def _goal_classes():
    goals = importlib.import_module("goalfem.goals")
    multigoal = importlib.import_module("goalfem.multigoal")
    found, todo = [], [goals.Functional]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found + [multigoal.CombinedFunctional]


class Installation:
    """The wrappers of one tracer; ``restore`` puts the originals back."""

    def __init__(self, tracer):
        # cli imports every other goalfem module: all namespaces exist
        # before rebinding, so none binds a wrapper restore() cannot undo
        importlib.import_module("goalfem.cli")
        self.tracer = tracer
        self._undo = []              # (dict or class, key, original)
        for modname, path, name in TARGETS:
            module = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            on_result = _ON_RESULT.get(name)
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    raise LookupError(f"trace target {modname}.{path} is gone")
                self._patch_class(owner, attr, name, on_result=on_result)
            else:
                original = getattr(module, attr, None)
                if original is None:
                    raise LookupError(f"trace target {modname}.{path} is gone")
                self._rebind(original, tracer.wrap(original, name,
                                                   on_result=on_result))

        problems = importlib.import_module("goalfem.problems")
        for attr in PROBLEM_BUILDERS:
            original = getattr(problems, attr, None)
            if original is None:
                raise LookupError(f"trace target goalfem.problems.{attr} is gone")
            self._rebind(original, self._traced_builder(original))

        for cls in _goal_classes():
            for attr, name in GOAL_METHODS.items():
                if attr in vars(cls):
                    self._patch_class(cls, attr, name, group="goals")

    def _traced_builder(self, build):
        tracer = self.tracer

        @functools.wraps(build)
        def builder(*args, **kwargs):
            problem = build(*args, **kwargs)
            return dataclasses.replace(
                problem,
                residual=tracer.wrap(problem.residual, "problems.kernel"),
                jacobian=tracer.wrap(problem.jacobian, "problems.kernel"))

        return builder

    def _patch_class(self, cls, attr, name, group=None, on_result=None):
        original = vars(cls)[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.tracer.wrap(original, name, group, on_result))

    def _rebind(self, original, replacement):
        """Point every goalfem namespace holding ``original`` at
        ``replacement``."""
        for ns in _goalfem_namespaces():
            for key, value in list(ns.items()):
                if value is original:
                    ns[key] = replacement
                    self._undo.append((ns, key, original))

    def stale_bindings(self):
        """goalfem names still bound to a function this installation
        wrapped; a call through one of them would bypass the tracer."""
        originals = {id(orig) for _, _, orig in self._undo}
        return [f"{ns.get('__name__', ns)}.{key}"
                for ns in _goalfem_namespaces()
                for key, value in ns.items() if id(value) in originals]

    def restore(self):
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


def _goalfem_namespaces():
    return [vars(module) for modname, module in list(sys.modules.items())
            if modname == "goalfem" or modname.startswith("goalfem.")]
