"""Small internal helpers shared across modules."""

from __future__ import annotations

import numpy as np


def readonly(a) -> np.ndarray:
    """Return ``a`` as a float ndarray with the write flag cleared.

    Result containers in this package are frozen dataclasses; marking their
    array fields read-only makes the immutability actually hold.
    """
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr

