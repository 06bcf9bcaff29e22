"""Newton's method with residual-ratio line search and matrix reuse.

One damped loop serves two stopping rules: a residual tolerance
relative to the start, |A(u)| <= rtol |A(u0)| with the first residual
the loop assembles anyway (``newton_solve``), and the estimator-balanced
iteration-error indicator of the (multi)goal adjoint
(``adaptive_newton_multigoal``).

The line search walks the ray u + gamma^L delta.  Each iterate is
evaluated at the quadrature points once (the values are cached on it)
and so is the direction, so every trial is ``assembly.on_ray``: an axpy
of those values, the kernel and the residual contraction and scatter,
with no gather and no basis matmul.  The accepted trial's coefficients
become the next iterate, which is evaluated afresh from them: carrying
the trial's summed values over instead compounds their roundoff from
step to step, and on ``cheese_plaplace`` (p = 4) that changed a level's
Newton count.  No iterate or trial holds a reference to the one before.

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

from .assembly import assemble_jacobian, assemble_residual, on_ray
from .errors import IterationCap, LineSearchExhausted
from .linalg import factorize, max_norm

ITERATION_CAP = 100
REBUILD_RATIO = 0.85


L_MAX = 200          # damping trials per line search


def acceptance_factor(L):
    """Required residual contraction c(L, L_MAX) for damping gamma^L."""
    if L == 0:
        return 0.8
    if L == 1:
        return 0.888
    return 0.888 + 0.112 * np.sqrt((L + 1) / L_MAX)


@dataclass
class NewtonStats:
    """What one Newton solve did; ``eta_m`` stays empty under the
    tolerance stop of ``newton_solve``."""

    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    rebuilds: list = field(default_factory=list)
    termination: str = ""
    eta_m: list = field(default_factory=list)


def line_search(problem, space, constraints, u, delta, gamma, *, res_norm):
    """Smallest L < L_MAX with |A(u + gamma^L du)| < c(L) |A(u)| (sup
    norms), ``res_norm`` being |A(u)|.

    Returns (alpha, L, new_u, new_residual, new_norm); the caller reuses
    the accepted residual.  Each trial is a point on the ray, evaluated
    from the quadrature values of u and of the direction (computed here
    once) by ``assembly.on_ray``.  The accepted point comes back as a
    function of its coefficients alone, so its own quadrature values are
    evaluated from them, once, when the next step asks for them.
    """
    if res_norm == 0.0:
        raise ValueError("line search requires a nonzero residual")
    delta = space.function(delta)
    for L in range(L_MAX):
        alpha = gamma ** L
        u_try = on_ray(u, delta, alpha)
        res = assemble_residual(problem, space, constraints, u_try)
        norm = max_norm(res)
        if norm < acceptance_factor(L) * res_norm:
            return alpha, L, space.function(u_try.coeffs), res, norm
    raise LineSearchExhausted(
        f"no damping in {L_MAX} tries from |A| = {res_norm:.3e}")


def nested_tolerance(level):
    """The relative Newton tolerance of ``level``: 1e-8 on the first
    level, 1e-2 afterwards."""
    if level < 1:
        raise ValueError("levels start at 1")
    return 1e-8 if level == 1 else 1e-2


def newton_solve(problem, space, constraints, u0, rtol, log=None):
    """Damped Newton until the residual sup-norm drops to ``rtol`` times
    that of the constrained start.

    ``log`` receives one trace line per iteration (k, |A|, alpha,
    rebuilt flag).
    """
    stats = NewtonStats()

    def stop(norm):
        tol = rtol * stats.residual_norms[0]
        if not norm > tol:
            return "tolerance"
        if stats.iterations >= ITERATION_CAP:
            raise IterationCap(f"|A| = {norm:.3e} > {tol:.3e} "
                               f"after {ITERATION_CAP} iterations", stats)
        return None

    u = _newton(problem, space, constraints,
                space.function(constraints.apply(u0.coeffs)), None, 0.9,
                stats, stop, log=log)
    return u, stats


def adaptive_newton_multigoal(problem, space, constraints, u0, eta_prev,
                              adjoint_rhs, mode="adaptive", fixed_tol=1e-8,
                              log=None):
    """Newton iteration stopped by the iteration-error indicator.

    Each sweep solves the adjoint with the current (possibly stale)
    factorization transposed and RHS ``adjoint_rhs(u)`` evaluated at the
    new iterate; the loop ends once eta_m = |A(u)(z)| falls to
    1e-2 * eta_prev (``mode='adaptive'``) or once |A(u)| <= fixed_tol
    (``mode='fixed'``, the comparison variant).

    Returns (u, z, stats).
    """
    stats = NewtonStats()
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
                _fresh_lu(problem, space, constraints, u), 0.85,
                stats, stop, stagnated, observe, log)
    return u, space.function(z), stats


def _fresh_lu(problem, space, constraints, u):
    return factorize(assemble_jacobian(problem, space, constraints, u),
                     pivot_rtol=0.0)


def _newton(problem, space, constraints, u, lu, gamma, stats, stop,
            stagnated=None, observe=None, log=None):
    """The damped Newton loop behind both solvers; returns the last
    iterate and sets ``stats.termination``.

    ``u`` is the constrained start and ``lu`` a factorization at it, or
    None; ``gamma`` is the line search's damping base.  ``stop(norm)`` runs before every step: it returns the
    termination reason or None to go on, and raises at the iteration
    cap.  When not even a fresh Jacobian's direction admits a damping,
    ``stagnated(norm)`` decides whether the loop ends as "stagnation"
    instead of raising.  ``observe(u, res, lu)`` sees the start and
    every accepted iterate and returns a note for the log line.
    """
    res = assemble_residual(problem, space, constraints, u)
    norm = max_norm(res)
    stats.residual_norms.append(norm)
    if observe:
        observe(u, res, lu)

    def damped_step():
        delta = constraints.distribute(lu.solve(-res))
        return line_search(problem, space, constraints, u, delta, gamma,
                           res_norm=norm)

    prev_norm = None
    while (reason := stop(norm)) is None:
        rebuild = lu is None or (prev_norm is not None
                                 and norm / prev_norm > REBUILD_RATIO)
        if rebuild:
            lu = _fresh_lu(problem, space, constraints, u)
        try:
            try:
                alpha, _, u, res, new_norm = damped_step()
            except LineSearchExhausted:
                if rebuild:
                    raise
                # a stale direction may not descend at all; retry fresh
                rebuild = True
                lu = _fresh_lu(problem, space, constraints, u)
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
