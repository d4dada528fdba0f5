"""Exceptions and warning categories shared across the library.

Two families matter to callers: input problems (bad expressions, bad scene
files, bad dimensions) and genuine mathematical degeneracies hit during a
computation.  The CLI maps the first family to exit code 2 and the second
to exit code 3.
"""


class InputError(Exception):
    """Malformed input: expressions, scene files, grids, dimensions."""


class ParseError(InputError):
    """Syntax error in an expression, with a character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """An identifier does not resolve to a declared variable."""

    def __init__(self, name, position):
        super().__init__(f"unknown variable '{name}'", position)
        self.name = name


class DimensionError(InputError):
    """An expression references variables outside its declared slot."""


class SceneFormatError(InputError):
    """A scene file does not follow the documented key/value format."""


class EmptyGridError(InputError):
    """A requested evaluation grid has no points or a non-finite span."""


class GeometryError(Exception):
    """Base class for mathematical failures during a computation; ``rows``
    names the failing rows of a batch of points (None for one point)."""

    rows = None


class DomainError(GeometryError):
    """Evaluation outside the domain of an elementary function."""


class ExactModeError(GeometryError):
    """Operation not available in exact rational arithmetic."""


class OrderError(GeometryError):
    """Requested jet order exceeds the configured maximum."""


class ShapeMismatchError(GeometryError):
    """Incompatible jet dimensions or base points."""


class SingularBasisError(GeometryError):
    """A frame matrix is numerically singular."""


class DegenerateError(GeometryError):
    """The second-fundamental-form matrix h2 is degenerate."""

    def __init__(self, message, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class DegenerateHypersurfaceError(GeometryError):
    """The hypersurface Hessian is degenerate (no Blaschke structure)."""


class OsculatingDegenerateError(GeometryError):
    """The osculating plane of the curve lies inside the tangent plane."""


class SigmaZeroError(GeometryError):
    """No regression point: the shape-operator eigenvalue vanishes."""


class NotOnDiscriminantError(GeometryError):
    """The probe point does not lie on the envelope."""


class NotAkPointError(GeometryError):
    """Versality rank test requested at a germ that is not of A_k type."""


class CorankTooHighError(GeometryError):
    """Germ corank is 3 or more; outside the simple range."""

    def __init__(self, corank):
        super().__init__(f"corank {corank} exceeds 2")
        self.corank = corank


class UnresolvedOrderError(GeometryError):
    """Jet order too small to decide the singularity class."""

    def __init__(self, needed_order):
        super().__init__(f"jet order too small; need at least {needed_order}")
        self.needed_order = needed_order


class ReversionFailureError(GeometryError):
    """Series reversion of an implicit section equation failed."""


class NeedMoreSectionsError(GeometryError):
    """A plane fit needs at least three section normals."""


class NonFiniteResultError(GeometryError):
    """A computed result is NaN or infinite and cannot be reported."""


class IndefiniteWarning(UserWarning):
    """The affine metric is indefinite; signature bookkeeping applies."""


class ToleranceWarning(UserWarning):
    """A quantity is near, but not within, a decision tolerance."""


class InconclusiveToleranceWarning(UserWarning):
    """A flatness test landed inside the inconclusive band."""
