"""Exception types shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
"""

from __future__ import annotations


class DynlayoutError(Exception):
    """Base class for all package errors."""


class DataError(DynlayoutError):
    """Invalid or malformed input data (files, matrices, labels)."""


class DisconnectedGraphError(DataError):
    """A layout that needs a connected graph was given several components."""


class NumericalError(DynlayoutError):
    """A numerical routine failed (singular system, non-convergence, ...)."""

    def __init__(self, message: str, best_iterate=None):
        super().__init__(message)
        self.best_iterate = best_iterate


class NotPositiveDefiniteError(NumericalError):
    """A matrix expected to be symmetric positive definite was not.

    Upstream this usually signals a disconnected or un-anchored system.
    """
