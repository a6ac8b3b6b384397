"""Exception taxonomy shared by every module.

All library errors derive from :class:`ToolkitError` so callers can catch
one base class.  The CLI maps parse/validation errors to exit code 2 and
numerical-degeneracy errors to exit code 3.
"""

__all__ = [
    "ToolkitError",
    "ShapeMismatch",
    "IllConditioned",
    "AmbientMismatch",
    "InvalidState",
    "NotCommuting",
    "DomainNotFull",
    "NotCP",
    "NotNonselective",
    "InvalidMeasurement",
    "NoProductIsomorphism",
    "UnknownFamily",
    "ParseError",
    "ValidationError",
]


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(ToolkitError):
    """Operands have incompatible shapes or ambient dimensions."""


class IllConditioned(ToolkitError):
    """A rank / clustering decision has no clear spectral gap."""


class AmbientMismatch(ToolkitError):
    """Two algebras live in different ambient matrix algebras."""


class InvalidState(ToolkitError):
    """Density is not positive semidefinite and trace one."""


class NotCommuting(ToolkitError):
    """An operation requires mutually commuting algebras."""


class DomainNotFull(ToolkitError):
    """Operation requires a map defined on the full matrix algebra."""


class NotCP(ToolkitError):
    """Map expected to be completely positive is not."""


class NotNonselective(ToolkitError):
    """Operation expected to be nonselective (unit preserving) is not."""


class InvalidMeasurement(ToolkitError):
    """Projection family is not an orthogonal resolution of the identity."""


class NoProductIsomorphism(ToolkitError):
    """Joint construction requires the product sense to hold but it fails."""


class UnknownFamily(ToolkitError):
    """Fuzz family name is not one of the built-in generators."""


class ParseError(ToolkitError):
    """Instance or report file could not be parsed."""


class ValidationError(ToolkitError):
    """Parsed object violates a structural invariant."""
