"""Exception types shared across the package."""

__all__ = [
    "SocAccelError",
    "ParameterError",
    "ConfigError",
    "CoverageError",
    "DivergenceError",
    "ResolutionError",
    "AmplitudeTooLargeError",
    "InfeasibleGeometryError",
    "BracketingError",
]


class SocAccelError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(SocAccelError, ValueError):
    """A physical parameter or argument is outside its valid domain."""


class ConfigError(SocAccelError, ValueError):
    """A run-configuration document is malformed or inconsistent."""


class CoverageError(SocAccelError):
    """A tabulated signal was evaluated outside its time grid."""


class DivergenceError(SocAccelError):
    """A numerical integration produced a non-finite state."""


class ResolutionError(SocAccelError):
    """A frequency grid is too coarse to resolve the requested feature."""


class AmplitudeTooLargeError(SocAccelError):
    """A probe amplitude drove the readout outside the linear regime."""


class InfeasibleGeometryError(SocAccelError):
    """The requested apparatus geometry cannot hold the thermal cloud."""


class BracketingError(SocAccelError):
    """An optimizer search range does not bracket an interior minimum."""
