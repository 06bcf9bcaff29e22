"""Newton's method with residual-ratio line search and matrix reuse.

One damped loop, ``_newton``, serves two drivers, and it owns what they
share: it projects the start onto the constraints, and it owns every
exit but the driver's own target, which each driver states as one
predicate.  ``newton_solve`` stops at a residual tolerance relative to
the start, |A(u)| <= rtol |A(u0)| with the first residual the loop
assembles anyway; ``adaptive_newton_multigoal`` at the estimator-balanced
iteration-error indicator of the (multi)goal adjoint, or at
|A(u)| <= FIXED_TOL in its fixed mode.  After the target the loop stops
at the residual floor |A| <= 1e-14 (1 + |A0|), where an iterate that
starts converged ends with no step, and raises ``IterationCap`` after
``ITERATION_CAP`` steps.  A line search that fails even along a fresh
Jacobian's direction ends the solve as "stagnation" at
|A| <= 1e-10 (1 + |A0|) and raises ``LineSearchExhausted`` above it.

The line search walks the ray u + gamma^L delta.  Each iterate is
evaluated at the quadrature points once (the values are cached on it)
and so is the direction, so every trial is ``assembly.on_ray``: an axpy
of those values, the kernel and the residual contraction and scatter,
with no gather and no basis matmul.  The accepted trial's coefficients
become the next iterate, which is evaluated afresh from them: carrying
the trial's summed values over instead compounds their roundoff from
step to step, and on ``cheese_plaplace`` (p = 4) that changed a level's
Newton count.  No iterate or trial holds a reference to the one before.

The loop factorizes the projected start.  After a step the Jacobian is
refreshed only when the residual sup-norm contracted by less than 0.85
over it; the stale factorization is reused otherwise, including
(transposed) for the adjoint solves of the balanced variant.
``newton_solve`` hands its last factorization back next to the
iterate, whatever its age, so a caller can reuse it and drop it when
done: the enriched adjoint takes it, transposed, as its
preconditioner, where a stale one only costs Krylov iterations.  So
this rule alone decides when a factorization is stale.  Tiny pivots
pass: the barely-regularized p-Laplacian produces quasi-singular
Jacobians that the damped updates handle.  A solve that overflows
raises ``SingularMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import assemble_jacobian, assemble_residual, on_ray
from .errors import IterationCap, LineSearchExhausted
from .linalg import factorize, max_norm

ITERATION_CAP = 100
FIXED_TOL = 1e-8            # |A| target of the fixed-tolerance mode
RESIDUAL_FLOOR = 1e-14      # relative to 1 + |A0|: nothing left to cut
STAGNATION = 1e-10          # relative to 1 + |A0|: converged to roundoff
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
    tolerance stop of ``newton_solve``.  ``rebuilds[k]`` is True when
    step k's LU was factorized at step k's iterate, so ``sum(rebuilds)``
    counts every factorization of a solve that ends on a step taken."""

    iterations: int = 0
    residual_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    rebuilds: list = field(default_factory=list)
    termination: str = ""
    eta_m: list = field(default_factory=list)


def line_search(problem, constraints, u, delta, gamma, *, res_norm):
    """Smallest L < L_MAX with |A(u + gamma^L du)| < c(L) |A(u)| (sup
    norms), ``res_norm`` being |A(u)|.

    ``delta`` holds the coefficients of the direction on u's space.
    Returns (alpha, L, new_u, new_residual, new_norm); the caller reuses
    the accepted residual.  Each trial is a point on the ray, evaluated
    from the quadrature values of u and of the direction (computed here
    once) by ``assembly.on_ray``.  The accepted point comes back as a
    function of its coefficients alone, so its own quadrature values are
    evaluated from them, once, when the next step asks for them.
    """
    if res_norm == 0.0:
        raise ValueError("line search requires a nonzero residual")
    delta = u.space.function(delta)
    for L in range(L_MAX):
        alpha = gamma ** L
        u_try = on_ray(u, delta, alpha)
        res = assemble_residual(problem, constraints, u_try)
        norm = max_norm(res)
        if norm < acceptance_factor(L) * res_norm:
            return alpha, L, u.space.function(u_try.coeffs), res, norm
    raise LineSearchExhausted(
        f"no damping in {L_MAX} tries from |A| = {res_norm:.3e}")


def nested_tolerance(level):
    """The relative Newton tolerance of ``level``: 1e-8 on the first
    level, 1e-2 afterwards."""
    if level < 1:
        raise ValueError("levels start at 1")
    return 1e-8 if level == 1 else 1e-2


def newton_solve(problem, constraints, u0, rtol, log=None):
    """Damped Newton on u0's space until the residual sup-norm drops to
    ``rtol`` times that of the constrained start.

    The shared loop projects ``u0`` and owns the other exits (residual
    floor, stagnation, iteration cap).  ``log`` receives one trace line
    per iteration (k, |A|, alpha, rebuilt flag).

    Returns (u, lu, stats): ``lu`` is the loop's last factorization,
    whatever its age; the start's own when no step was taken.
    """
    stats = NewtonStats()

    def reached(u, res, lu, norm):
        return None if norm > rtol * stats.residual_norms[0] else "tolerance"

    u, lu = _newton(problem, constraints, u0, 0.9, stats, reached, log)
    return u, lu, stats


def adaptive_newton_multigoal(problem, constraints, u0, eta_prev,
                              adjoint_rhs, mode="adaptive", log=None):
    """Newton on u0's space stopped by the iteration-error indicator.

    Each sweep solves the adjoint with the current (possibly stale)
    factorization transposed and RHS ``adjoint_rhs(u)`` evaluated at the
    new iterate; the loop ends once eta_m = |A(u)(z)| falls to
    1e-2 * eta_prev (``mode='adaptive'``) or once |A(u)| <= FIXED_TOL
    (``mode='fixed'``, the comparison variant).  The shared loop
    projects ``u0`` and owns the other exits.

    Returns (u, z, stats).
    """
    stats = NewtonStats()
    target = 1e-2 * eta_prev
    z = None

    def reached(u, res, lu, norm):
        nonlocal z
        z = constraints.distribute(lu.solve(adjoint_rhs(u), transposed=True))
        stats.eta_m.append(abs(float(res @ z)))
        if mode == "adaptive":
            return "balanced" if stats.eta_m[-1] <= target else None
        return "tolerance" if norm <= FIXED_TOL else None

    u, _ = _newton(problem, constraints, u0, 0.85, stats, reached, log)
    return u, u.space.function(z), stats


def _fresh_lu(problem, constraints, u):
    return factorize(assemble_jacobian(problem, constraints, u))


def _newton(problem, constraints, u0, gamma, stats, reached, log=None):
    """The damped Newton loop behind both drivers; returns the last
    iterate and the last factorization, and sets ``stats.termination``.

    It starts on u0's space, from ``u0`` projected onto the constraints,
    which it factorizes, and stops as the module docstring says.
    ``reached(u, res, lu, norm)`` sees the start and every accepted
    iterate with its residual, the current factorization and |A|, and
    returns the driver's termination reason once its target holds, else
    None.  ``gamma`` is the line search's damping base.  ``lu`` is fresh
    while it was factorized at the current iterate; a stale one is
    refactorized when |A| contracted by less than ``REBUILD_RATIO``
    over the last step, and a failed line search is retried along a
    fresh Jacobian only if ``lu`` was stale.
    """
    u = u0.space.function(constraints.apply(u0.coeffs))
    lu, fresh = _fresh_lu(problem, constraints, u), True
    res = assemble_residual(problem, constraints, u)
    norm = max_norm(res)
    stats.residual_norms.append(norm)
    floor = RESIDUAL_FLOOR * (1.0 + norm)
    stagnant = STAGNATION * (1.0 + norm)

    def stop(target):
        if target:
            return target
        if norm <= floor:
            return "residual_floor"
        if stats.iterations >= ITERATION_CAP:
            raise IterationCap(f"|A| = {norm:.3e} after {ITERATION_CAP} "
                               f"iterations", stats)
        return None

    def damped_step():
        delta = constraints.distribute(lu.solve(-res))
        return line_search(problem, constraints, u, delta, gamma,
                           res_norm=norm)

    reason = stop(reached(u, res, lu, norm))
    while reason is None:
        if not fresh and norm / stats.residual_norms[-2] > REBUILD_RATIO:
            lu, fresh = _fresh_lu(problem, constraints, u), True
        try:
            try:
                alpha, _, u, res, norm = damped_step()
            except LineSearchExhausted:
                if fresh:
                    raise
                # a stale direction may not descend at all; retry fresh
                lu, fresh = _fresh_lu(problem, constraints, u), True
                alpha, _, u, res, norm = damped_step()
        except LineSearchExhausted:
            # float-limit stagnation of an already-converged iterate
            if norm > stagnant:
                raise
            reason = "stagnation"
            break
        stats.rebuilds.append(fresh)
        stats.alphas.append(alpha)
        stats.residual_norms.append(norm)
        stats.iterations += 1
        target = reached(u, res, lu, norm)
        if log:
            note = f" eta_m={stats.eta_m[-1]:.3e}" if stats.eta_m else ""
            log(f"  newton k={stats.iterations} |A|={norm:.6e} "
                f"alpha={alpha:.4g} rebuilt={fresh}{note}")
        fresh = False
        reason = stop(target)
    stats.termination = reason
    return u, lu
