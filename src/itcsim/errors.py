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
    than letting a division blow up or NaNs propagate into the log.  It
    carries only the guard's name and its detail, which is ``str(trip)``;
    ``engine.simulate`` writes the run's message, ``guard '<name>' tripped
    at t=<t> s: <detail>``, with t the start of the step the run ended on.
    """

    def __init__(self, guard: str, detail: str) -> None:
        super().__init__(detail)
        self.guard = guard
