"""Small internal helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np


def readonly(a) -> np.ndarray:
    """Return ``a`` as a float ndarray with the write flag cleared.

    Result containers in this package are frozen dataclasses; marking their
    array fields read-only makes the immutability actually hold.
    """
    arr = np.asarray(a, dtype=float)
    arr.setflags(write=False)
    return arr


def rk4(rhs, y, d: float, first, mid, last) -> list:
    """Classical Runge-Kutta steps of signed size ``d`` from the components ``y``.

    Step ``i`` calls ``rhs(first[i], state)``, ``rhs(mid[i], state)`` twice
    and ``rhs(last[i], state)``, each returning one derivative per component.
    Returns the states from ``y`` on, up to and including the first with a
    non-finite component; only that test needs scalar components.
    """
    # Python floats, so a float32 step cannot narrow the stages
    half, sixth, d = float(0.5 * d), float(d / 6.0), float(d)
    states = [y]
    for s1, s2, s4 in zip(first, mid, last):
        k1 = rhs(s1, y)
        k2 = rhs(s2, [v + half * k for v, k in zip(y, k1)])
        k3 = rhs(s2, [v + half * k for v, k in zip(y, k2)])
        k4 = rhs(s4, [v + d * k for v, k in zip(y, k3)])
        y = [v + sixth * (a + 2.0 * b + 2.0 * c + e) for v, a, b, c, e in zip(y, k1, k2, k3, k4)]
        states.append(y)
        if not all(map(math.isfinite, y)):
            break
    return states
