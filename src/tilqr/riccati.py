"""Backward ODE systems for the three feedback laws of the LQR model.

The equilibrium law comes from a coupled quadratic-coefficient system on the
anchored-cost ansatz ``a(t)x^2 + b y^2 + c(t)xy + d x + f y + h(t)``; the
naive and precommitted laws share a scalar Riccati pair ``(p, q)``. All
systems integrate backward from the horizon with fixed-step classical
Runge-Kutta.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._util import readonly, rk4
from .errors import ConfigError, NumericError
from .model import LqrParams


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps + 1`` nodes on ``[0, horizon]``."""

    n_steps: int
    horizon: float

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if self.dt == 0.0:
            raise ConfigError(f"horizon {self.horizon!r} over {self.n_steps} steps "
                              "gives a zero time step")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def rk4_backward(field: Callable, terminal, grid: TimeGrid) -> np.ndarray:
    """Integrate ``y' = field(t, y)`` backward from the horizon.

    Parameters
    ----------
    field : callable
        Right-hand side ``field(t, y)``: ``y`` is a fresh 1-d array, and a
        result with other than one value per component raises ConfigError.
    terminal : array_like
        Value at the last node; stored there bit-exactly.
    grid : TimeGrid

    Returns
    -------
    ndarray of shape (n_steps + 1, len(terminal))
        Values at every node, row ``i`` at time ``nodes[i]``.

    Raises
    ------
    NumericError
        As soon as a step produces a non-finite value, naming the first bad
        node.
    """
    y_T = np.asarray(terminal, dtype=float).ravel()
    n, h, nodes = grid.n_steps, grid.dt, grid.nodes

    def rhs(t, y):
        dy = np.asarray(field(t, np.array(y)), dtype=float).ravel()
        if dy.size != y_T.size:
            raise ConfigError(f"field returned {dy.size} values for {y_T.size} state components")
        return dy.tolist()

    t = nodes[n:0:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        states = rk4(rhs, y_T.tolist(), -h, t, t - 0.5 * h, t - h)
    if not np.all(np.isfinite(states[-1])):
        i = n + 1 - len(states)
        raise NumericError(f"backward integration blew up at node {i} (t = {nodes[i]:.6g})")
    return np.array(states[::-1])


class GainLabel(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    NAIVE = "naive"
    PRECOMMITTED = "precommitted"
    CUSTOM = "custom"


@dataclass(frozen=True)
class GainSchedule:
    """Affine feedback law ``control(t_i, x) = -k_state[i] * x - c_offset[i]``."""

    grid: TimeGrid
    k_state: np.ndarray
    c_offset: np.ndarray
    label: GainLabel
    fit_residual: Optional[np.ndarray] = None  # set by the grid extractor

    def __post_init__(self):
        n = self.grid.n_steps + 1
        object.__setattr__(self, "k_state", readonly(self.k_state))
        object.__setattr__(self, "c_offset", readonly(self.c_offset))
        if self.k_state.shape != (n,) or self.c_offset.shape != (n,):
            raise ConfigError(
                f"gain arrays must have shape ({n},), got {self.k_state.shape} and {self.c_offset.shape}")
        if self.fit_residual is not None:
            object.__setattr__(self, "fit_residual", readonly(self.fit_residual))


@dataclass(frozen=True)
class RiccatiSolution:
    """Quadratic coefficients of the anchored-cost field for the equilibrium law.

    ``a``, ``c``, ``h`` are node arrays (coefficients of x^2, xy, and the
    constant); ``b``, the coefficient of y^2, stays constant. The
    coefficients of x and y are identically zero and are not stored.
    """

    grid: TimeGrid
    a: np.ndarray
    c: np.ndarray
    h: np.ndarray
    b: float

    def __post_init__(self):
        for name in ("a", "c", "h"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


@dataclass(frozen=True)
class NaiveSolution:
    """Scalar Riccati pair shared by the naive and precommitted laws."""

    grid: TimeGrid
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", readonly(self.p))
        object.__setattr__(self, "q", readonly(self.q))


def solve_equilibrium_riccati(params: LqrParams, grid: TimeGrid) -> RiccatiSolution:
    """Solve the coupled coefficient system of the equilibrium law.

    Terminal data ``a = gamma/2``, ``c = -gamma``, ``h = 0``; the y^2
    coefficient stays at ``gamma/2`` and the linear ones at zero, so only
    (a, c, h) evolve:

    - ``a' = -2 a_bar a + 2 b_bar^2 a s - b_bar^2 s^2 / 2``
    - ``c' = -a_bar c + b_bar^2 c s``
    - ``h' = -sigma^2 a``

    with ``s = 2a + c``, which is also the shape of the feedback gain.
    """
    ab, bb, sg = params.a_bar, params.b_bar, params.sigma

    def field(t, v):
        a, c, h = v
        s = 2.0 * a + c
        da = -2.0 * ab * a + 2.0 * bb * bb * a * s - 0.5 * bb * bb * s * s
        dc = -ab * c + bb * bb * c * s
        return da, dc, -sg * sg * a

    sol = rk4_backward(field, [0.5 * params.gamma, -params.gamma, 0.0], grid)
    return RiccatiSolution(grid=grid, a=sol[:, 0], c=sol[:, 1], h=sol[:, 2],
                           b=0.5 * params.gamma)


def equilibrium_gain(sol: RiccatiSolution, params: LqrParams) -> GainSchedule:
    """Feedback gain ``k = b_bar (2a + c)`` of the equilibrium law.

    Vanishes identically at the horizon: the terminal data give
    ``2a + c = gamma - gamma = 0`` exactly.
    """
    k = params.b_bar * (2.0 * sol.a + sol.c)
    return GainSchedule(grid=sol.grid, k_state=k,
                        c_offset=np.zeros_like(k), label=GainLabel.EQUILIBRIUM)


def equilibrium_value(sol: RiccatiSolution, t_index: int, x):
    """Diagonal value ``(a + b + c) x^2 + h`` at node ``t_index``."""
    n = sol.grid.n_steps
    if not 0 <= t_index <= n:
        raise IndexError(f"node index {t_index} outside 0..{n}")
    coef = sol.a[t_index] + sol.b + sol.c[t_index]
    val = coef * np.asarray(x, dtype=float) ** 2 + sol.h[t_index]
    return float(val) if np.ndim(x) == 0 else val


def solve_naive(params: LqrParams, grid: TimeGrid) -> NaiveSolution:
    """Solve the scalar Riccati pair of the time-t frozen problems.

    ``p' = 2 b_bar^2 p^2 - 2 a_bar p`` with ``p(T) = gamma/2`` and the linear
    companion ``q' = -(a_bar - 2 b_bar^2 p) q`` with ``q(T) = -gamma``.
    """
    ab, bb = params.a_bar, params.b_bar

    def field(t, v):
        p, q = v
        dp = 2.0 * bb * bb * p * p - 2.0 * ab * p
        return dp, -(ab - 2.0 * bb * bb * p) * q

    sol = rk4_backward(field, [0.5 * params.gamma, -params.gamma], grid)
    return NaiveSolution(grid=grid, p=sol[:, 0], q=sol[:, 1])


def naive_gain(sol: NaiveSolution, params: LqrParams) -> GainSchedule:
    """Diagonal re-anchored gain ``k = b_bar (2p + q)`` of the naive law."""
    k = params.b_bar * (2.0 * sol.p + sol.q)
    return GainSchedule(grid=sol.grid, k_state=k,
                        c_offset=np.zeros_like(k), label=GainLabel.NAIVE)


def precommitted_policy(sol: NaiveSolution, params: LqrParams) -> GainSchedule:
    """Time-zero committed law ``control = -2 b_bar p x - b_bar q x0``.

    Affine with a state-independent offset anchored at the initial state;
    the offset is negative for positive anchors (q < 0 for gamma > 0).
    Raises NumericError, naming ``x0``, when the offset overflows.
    """
    k = 2.0 * params.b_bar * sol.p
    with np.errstate(over="ignore", invalid="ignore"):
        c = params.b_bar * sol.q * params.x0
    if not np.all(np.isfinite(c)):
        t = sol.grid.nodes[np.argmax(~np.isfinite(c))]
        raise NumericError(f"precommitted offset b_bar * q * x0 overflows at t = {t:.6g} "
                           f"for x0 = {params.x0!r}")
    return GainSchedule(grid=sol.grid, k_state=k, c_offset=c,
                        label=GainLabel.PRECOMMITTED)


STRATEGY_LABELS = (GainLabel.EQUILIBRIUM, GainLabel.NAIVE, GainLabel.PRECOMMITTED)


def strategy_gains(params: LqrParams, grid: TimeGrid, labels=STRATEGY_LABELS) -> dict:
    """The requested feedback laws on ``grid``, keyed by label.

    Keys come back in the order of ``STRATEGY_LABELS`` whatever the order of
    ``labels``. Only the systems the requested laws need are solved (the
    naive and precommitted laws share one), so a blow-up in a system that no
    requested law needs cannot fail the call.
    """
    wanted = set(labels)
    unknown = wanted - set(STRATEGY_LABELS)
    if unknown:
        names = sorted(label.value for label in unknown)
        raise ConfigError(f"no built-in feedback law for {names}")
    gains = {}
    if GainLabel.EQUILIBRIUM in wanted:
        gains[GainLabel.EQUILIBRIUM] = equilibrium_gain(
            solve_equilibrium_riccati(params, grid), params)
    if wanted - {GainLabel.EQUILIBRIUM}:
        sol = solve_naive(params, grid)
        for label, law in ((GainLabel.NAIVE, naive_gain),
                           (GainLabel.PRECOMMITTED, precommitted_policy)):
            if label in wanted:
                gains[label] = law(sol, params)
    return gains


def closed_form_p(params: LqrParams, t):
    """Closed form of the scalar Riccati coefficient ``p``.

    ``p(t) = a_bar / (b_bar^2 + (2 a_bar/gamma - b_bar^2) e^{2 a_bar (t-T)})``
    for ``a_bar != 0`` and ``1 / (2/gamma + 2 b_bar^2 (T-t))`` otherwise.

    Raises
    ------
    ConfigError
        If ``gamma == 0`` (the solution is identically zero; no closed form
        with this normalization).
    NumericError
        If the denominator is zero or of the numerator's opposite sign
        somewhere on the requested times (finite-time blow-up).
    """
    if params.gamma == 0:
        raise ConfigError("closed form requires gamma > 0 (p is identically zero at gamma = 0)")
    ts = np.asarray(t, dtype=float)
    ab, bb, g, T = params.a_bar, params.b_bar, params.gamma, params.horizon
    if ab == 0.0:
        den = 2.0 / g + 2.0 * bb * bb * (T - ts)
        num = 1.0
    else:
        # for a_bar < 0 the exponential may overflow: den is then -inf and p 0
        with np.errstate(over="ignore"):
            den = bb * bb + (2.0 * ab / g - bb * bb) * np.exp(2.0 * ab * (ts - T))
        num = ab
    bad = np.atleast_1d(np.sign(den) != np.sign(num))
    if bad.any():
        raise NumericError(f"riccati coefficient blows up at t = {np.atleast_1d(ts)[bad][0]:.6g}")
    val = num / den
    return float(val) if np.ndim(t) == 0 else val
