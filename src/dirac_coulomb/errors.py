"""Exception types shared across the package."""


class DiracCoulombError(Exception):
    """Base class for all package errors."""


class DomainError(DiracCoulombError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SupercriticalCoupling(DomainError):
    """kappa^2 <= alpha_v^2 - alpha_s^2: the effective angular parameter is
    not real and positive, so no bound spectrum exists in this framework."""


class SingularTransform(DiracCoulombError, ArithmeticError):
    """The decoupling similarity transform is singular (s = kappa)."""


class NoBoundState(DomainError):
    """The requested level does not correspond to a bound state (|E| >= m
    or the spectrum formula has no real solution)."""


class ConvergenceFailure(DiracCoulombError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class NonNormalizable(DiracCoulombError, ValueError):
    """The requested state has a non-decaying envelope and cannot be
    normalized."""
