"""Newton's method with residual-ratio line search and matrix reuse.

One damped loop serves two stopping rules: a residual tolerance
(``newton_solve``) and the estimator-balanced iteration-error indicator
of the (multi)goal adjoint (``adaptive_newton_multigoal``).

The Jacobian is refreshed only when the residual sup-norm contracted by
less than 0.85 over the last update; the stale factorization is reused
otherwise, including (transposed) for the adjoint solves of the
balanced variant.  Tiny pivots are tolerated here on purpose: the
barely-regularized p-Laplacian produces quasi-singular Jacobians that
the damped updates handle.  A solve that overflows still raises
``SingularMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_jacobian, assemble_residual
from .errors import IterationCap, LineSearchExhausted, MaxIterations
from .linalg import factorize, max_norm

ITERATION_CAP = 100
REBUILD_RATIO = 0.85


@dataclass
class LineSearchConfig:
    gamma: float = 0.9
    l_max: int = 200


def acceptance_factor(L, l_max=200):
    """Required residual contraction c(L, L_max) for damping gamma^L."""
    if L == 0:
        return 0.8
    if L == 1:
        return 0.888
    return 0.888 + 0.112 * np.sqrt((L + 1) / l_max)


@dataclass
class NewtonStats:
    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    rebuilds: list = field(default_factory=list)
    termination: str = ""


@dataclass
class AdaptiveNewtonStats(NewtonStats):
    eta_m: list = field(default_factory=list)


def line_search(problem, space, constraints, u, delta, cfg, quad=None,
                res_norm=None):
    """Smallest L with |A(u + gamma^L du)| < c(L) |A(u)| (sup norms).

    Returns (alpha, L, new_u, new_residual, new_norm); the caller reuses
    the accepted residual.
    """
    if res_norm is None:
        res_norm = max_norm(assemble_residual(problem, space, constraints, u,
                                              quad))
    if res_norm == 0.0:
        raise ValueError("line search requires a nonzero residual")
    for L in range(cfg.l_max):
        alpha = cfg.gamma ** L
        u_try = u.space.function(u.coeffs + alpha * delta)
        res = assemble_residual(problem, space, constraints, u_try, quad)
        norm = max_norm(res)
        if norm < acceptance_factor(L, cfg.l_max) * res_norm:
            return alpha, L, u_try, res, norm
    raise LineSearchExhausted(
        f"no damping in {cfg.l_max} tries from |A| = {res_norm:.3e}")


def nested_tolerance(level, initial_residual_norm):
    """1e-8 |A(u0)| on the first level, 1e-2 |A(u0)| afterwards."""
    if level < 1:
        raise ValueError("levels start at 1")
    factor = 1e-8 if level == 1 else 1e-2
    return factor * initial_residual_norm


def newton_solve(problem, space, constraints, u0, tol_abs, cfg=None,
                 quad=None, log=None):
    """Damped Newton until the residual sup-norm drops to ``tol_abs``.

    ``log`` receives one trace line per iteration (k, |A|, alpha,
    rebuilt flag).
    """
    stats = NewtonStats()

    def stop(norm):
        if not norm > tol_abs:
            return "tolerance"
        if stats.iterations >= ITERATION_CAP:
            raise MaxIterations(f"|A| = {norm:.3e} > {tol_abs:.3e} "
                                f"after {ITERATION_CAP} iterations")
        return None

    u = _newton(problem, space, constraints,
                space.function(constraints.apply(u0.coeffs)), None,
                cfg or LineSearchConfig(gamma=0.9), quad, stats, stop,
                log=log)
    return u, stats


def adaptive_newton_multigoal(problem, space, constraints, u0, eta_prev,
                              adjoint_rhs, cfg=None, quad=None,
                              mode="adaptive", fixed_tol=1e-8, log=None):
    """Newton iteration stopped by the iteration-error indicator.

    Each sweep solves the adjoint with the current (possibly stale)
    factorization transposed and RHS ``adjoint_rhs(u)`` evaluated at the
    new iterate; the loop ends once eta_m = |A(u)(z)| falls to
    1e-2 * eta_prev (``mode='adaptive'``) or once |A(u)| <= fixed_tol
    (``mode='fixed'``, the comparison variant).

    Returns (u, z, stats).
    """
    stats = AdaptiveNewtonStats()
    target = 1e-2 * eta_prev
    u = space.function(constraints.apply(u0.coeffs))
    z = None

    def observe(u_k, res, lu):
        nonlocal z
        z = constraints.distribute(lu.solve(adjoint_rhs(u_k), transposed=True))
        stats.eta_m.append(abs(float(res @ z)))
        return f" eta_m={stats.eta_m[-1]:.3e}"

    def stop(norm):
        if mode == "adaptive":
            if stats.eta_m[-1] <= target:
                return "balanced"
        elif norm <= fixed_tol:
            return "tolerance"
        if norm <= 1e-14 * (1.0 + stats.residual_norms[0]):
            return "residual_floor"
        if stats.iterations >= ITERATION_CAP:
            raise IterationCap(f"eta_m = {stats.eta_m[-1]:.3e} vs target "
                               f"{target:.3e}", stats)
        return None

    def stagnated(norm):
        # float-limit stagnation of an already-converged iterate
        return norm <= 1e-10 * (1.0 + stats.residual_norms[0])

    u = _newton(problem, space, constraints, u,
                _fresh_lu(problem, space, constraints, u, quad),
                cfg or LineSearchConfig(gamma=0.85), quad, stats, stop,
                stagnated, observe, log)
    return u, space.function(z), stats


def _fresh_lu(problem, space, constraints, u, quad):
    return factorize(assemble_jacobian(problem, space, constraints, u, quad),
                     pivot_rtol=0.0)


def _newton(problem, space, constraints, u, lu, cfg, quad, stats, stop,
            stagnated=None, observe=None, log=None):
    """The damped Newton loop behind both solvers; returns the last
    iterate and sets ``stats.termination``.

    ``u`` is the constrained start and ``lu`` a factorization at it, or
    None.  ``stop(norm)`` runs before every step: it returns the
    termination reason or None to go on, and raises at the iteration
    cap.  When not even a fresh Jacobian's direction admits a damping,
    ``stagnated(norm)`` decides whether the loop ends as "stagnation"
    instead of raising.  ``observe(u, res, lu)`` sees the start and
    every accepted iterate and returns a note for the log line.
    """
    res = assemble_residual(problem, space, constraints, u, quad)
    norm = max_norm(res)
    stats.residual_norms.append(norm)
    if observe:
        observe(u, res, lu)

    def damped_step():
        delta = constraints.distribute(lu.solve(-res))
        return line_search(problem, space, constraints, u, delta, cfg, quad,
                           res_norm=norm)

    prev_norm = None
    while (reason := stop(norm)) is None:
        rebuild = lu is None or (prev_norm is not None
                                 and norm / prev_norm > REBUILD_RATIO)
        if rebuild:
            lu = _fresh_lu(problem, space, constraints, u, quad)
        try:
            try:
                alpha, _, u, res, new_norm = damped_step()
            except LineSearchExhausted:
                if rebuild:
                    raise
                # a stale direction may not descend at all; retry fresh
                rebuild = True
                lu = _fresh_lu(problem, space, constraints, u, quad)
                alpha, _, u, res, new_norm = damped_step()
        except LineSearchExhausted:
            if not (stagnated and stagnated(norm)):
                raise
            reason = "stagnation"
            break
        stats.rebuilds.append(rebuild)
        stats.alphas.append(alpha)
        prev_norm = norm
        norm = new_norm
        stats.residual_norms.append(norm)
        stats.iterations += 1
        note = observe(u, res, lu) if observe else ""
        if log:
            log(f"  newton k={stats.iterations} |A|={norm:.6e} "
                f"alpha={alpha:.4g} rebuilt={rebuild}{note}")
    stats.termination = reason
    return u
