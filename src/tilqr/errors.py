"""Exception taxonomy shared by the library and the command line tool.

Every error the toolkit raises on purpose derives from :class:`ToolkitError`,
so callers can distinguish "you asked for something invalid" from "the
computation went bad numerically" without string matching.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .hjbgrid import PicardWindow


class ToolkitError(Exception):
    """Base class for all deliberate toolkit errors."""


class ConfigError(ToolkitError):
    """Invalid parameters, grids, or configuration input.

    Maps to exit code 2 on the command line.
    """


class NumericError(ToolkitError):
    """A computation produced non-finite values or left its stability region.

    Maps to exit code 3 on the command line.
    """


class PicardError(NumericError):
    """Fixed-point iteration failed to converge.

    Carries the ``PicardWindow`` trace so far, the failed window last, so
    callers can inspect whether the iteration was diverging or merely slow.
    """

    def __init__(self, message: str, trace: tuple[PicardWindow, ...] = ()):
        super().__init__(message)
        self.trace = trace


# CLI exit codes: 0 success, 2 config, 3 numeric, 4 validation failure.
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4
