"""Exception types shared across the solver stack."""


class GoalFemError(Exception):
    """Base class for all package errors."""


class DistortionInvertsCell(GoalFemError):
    """A random mesh distortion produced a cell with non-positive Jacobian."""


class MeshMismatch(GoalFemError):
    """Two discrete functions/spaces live on different meshes."""


class PointOutsideDomain(GoalFemError):
    """A point evaluation was requested outside the closed domain."""


class ConflictingConstraints(GoalFemError):
    """A DOF received two inconsistent inhomogeneities (tol 1e-12)."""


class SingularMatrix(GoalFemError):
    """Direct factorization hit an (exactly or numerically) singular pivot."""


class QuadratureFailure(GoalFemError):
    """A kernel produced non-finite values at quadrature points."""


class FunctionalSingular(GoalFemError):
    """A goal-functional weight is singular on the integration region."""


class UnknownExperiment(GoalFemError):
    """Requested functional catalog / preset id does not exist."""


class ZeroReferenceFunctional(GoalFemError):
    """A combined-functional member vanished at the weighting state.

    Carries the index of the offending member functional.
    """

    def __init__(self, index: int):
        super().__init__(f"member functional {index} is zero at the weighting state")
        self.index = index


class LineSearchExhausted(GoalFemError):
    """No damping factor satisfied the residual-decrease acceptance rule."""


class IterationCap(GoalFemError):
    """Newton iteration cap (100) hit before its stopping rule held,
    the tolerance or the iteration/discretization balance; carries the
    solve's ``NewtonStats``."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class ZeroTrueError(GoalFemError):
    """Effectivity requested with a vanishing true error."""


class MalformedCsv(GoalFemError):
    """A convergence-record CSV could not be parsed."""
