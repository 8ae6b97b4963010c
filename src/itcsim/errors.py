"""Shared exception types for the simulation package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Raised when a config cannot be read or parsed, or a value is out of range.

    Config objects check their values when built.  ``field`` names the
    offending field when the error comes from building a parameter object,
    so callers can map it to their own key names.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class GuardTrip(RuntimeError):
    """Raised inside the integration loop when a numerical guard fires.

    The run loop catches this and reports the run as guard-tripped rather
    than letting a division blow up or NaNs propagate into the log.
    """

    def __init__(self, guard: str, t: float, detail: str = "") -> None:
        self.guard = guard
        msg = f"guard '{guard}' tripped at t={t:.6f} s"
        super().__init__(f"{msg}: {detail}" if detail else msg)
