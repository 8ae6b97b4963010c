"""Shared exception types for the simulation package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a scenario configuration is malformed or out of range.

    ``field`` names the offending parameter-object field when the error
    comes from a ``validate()`` method, so callers can map it to their own
    key names.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class ParseError(ConfigError):
    """Raised when a config file cannot be parsed at all."""


class ValidationError(ConfigError):
    """Raised when a parsed config value violates a model constraint."""


class GuardTrip(RuntimeError):
    """Raised inside the integration loop when a numerical guard fires.

    The run loop catches this and reports the run as guard-tripped rather
    than letting a division blow up or NaNs propagate into the log.
    """

    def __init__(self, guard: str, t: float, detail: str = "") -> None:
        self.guard = guard
        msg = f"guard '{guard}' tripped at t={t:.6f} s"
        super().__init__(f"{msg}: {detail}" if detail else msg)
