"""Exception hierarchy shared by all jamgame modules.

Every class derives from ValueError: each one refuses an input.
"""

__all__ = [
    "JamGameError", "DomainError", "SingularError", "InvalidParams", "InvalidStrategy",
    "ApproxUndefined", "DegenerateUtility", "ConfigError",
]


class JamGameError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(JamGameError, ValueError):
    """Argument outside the mathematical domain of a function."""


class SingularError(JamGameError, ValueError):
    """Evaluation requested at a singular point (derivative blow-up)."""


class InvalidParams(JamGameError, ValueError):
    """A game parameter violates its invariant; the message names the field."""


class InvalidStrategy(JamGameError, ValueError):
    """A strategy profile violates the strategy-space invariants."""


class ApproxUndefined(JamGameError, ValueError):
    """The closed-form leader approximation has no real solution here."""


class DegenerateUtility(JamGameError, ValueError):
    """An efficiency ratio was requested against a non-positive utility."""


class ConfigError(JamGameError, ValueError):
    """A scenario configuration file is missing keys or unparseable."""
