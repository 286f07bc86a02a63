"""Exact time-zero cost of affine feedback laws via moment ODEs.

Under ``control = -k(t) x - c(t)`` the state stays Gaussian, so its first two
moments follow linear ODEs and the quadratic cost reduces to a 1-d quadrature
plus a terminal term. No sampling is involved; this is the exact route the
Monte Carlo module is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._util import readonly
from .errors import ConfigError, NumericError
from .model import LqrParams
from .riccati import GainSchedule, TimeGrid, strategy_gains


@dataclass(frozen=True)
class MomentPath:
    """Mean and second moment of the controlled state on the gain's grid."""

    grid: TimeGrid
    mean: np.ndarray
    second_moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", readonly(self.mean))
        object.__setattr__(self, "second_moment", readonly(self.second_moment))
        # the integration rounds second - mean^2 at the second moment's scale
        gap = -self.variance
        if np.any(gap > 1e-10 * np.maximum(1.0, self.second_moment)):
            raise NumericError(f"second moment fell below mean^2 by {np.max(gap):.3g}")

    @property
    def variance(self) -> np.ndarray:
        return self.second_moment - self.mean ** 2


@dataclass(frozen=True)
class CostReport:
    """Exact running/terminal decomposition of the time-zero cost."""

    running_cost: float
    terminal_cost: float
    total: float


def simpson_uniform(values: np.ndarray, h: float) -> float:
    """Composite Simpson rule on a uniform grid with an even interval count."""
    v = np.asarray(values, dtype=float)
    n = v.size - 1
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"Simpson rule needs an even number of intervals >= 2, got {n}")
    return float((h / 3.0) * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum()))


def solve_moments(gain: GainSchedule, params: LqrParams) -> MomentPath:
    """Integrate the moment ODEs of the closed loop forward.

    ``mean' = (a_bar - b_bar k) mean - b_bar c`` and
    ``second' = 2 (a_bar - b_bar k) second - 2 b_bar c mean + sigma^2``,
    started exactly at ``(x0, x0^2)``. Gains are interpolated linearly, so
    the half-step values the integrator needs are plain midpoints. Raises
    NumericError, naming ``x0``, when ``x0^2`` overflows.
    """
    grid = gain.grid
    if abs(grid.horizon - params.horizon) > 1e-12:
        raise ConfigError(
            f"gain horizon {grid.horizon} does not match model horizon {params.horizon}")
    ab, bb, sg = params.a_bar, params.b_bar, params.sigma
    k, c = gain.k_state, gain.c_offset
    k_half = 0.5 * (k[:-1] + k[1:])
    c_half = 0.5 * (c[:-1] + c[1:])
    n, h = grid.n_steps, grid.dt
    m = np.empty(n + 1)
    s = np.empty(n + 1)
    m[0] = params.x0
    try:
        s[0] = params.x0 ** 2
    except OverflowError:
        raise NumericError(f"x0 = {params.x0!r} has a square that overflows") from None

    def rhs(ki, ci, mv, sv):
        lam = ab - bb * ki
        return lam * mv - bb * ci, 2.0 * lam * sv - 2.0 * bb * ci * mv + sg * sg

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            stages = ((k[i], c[i]), (k_half[i], c_half[i]),
                      (k_half[i], c_half[i]), (k[i + 1], c[i + 1]))
            dm1, ds1 = rhs(*stages[0], m[i], s[i])
            dm2, ds2 = rhs(*stages[1], m[i] + 0.5 * h * dm1, s[i] + 0.5 * h * ds1)
            dm3, ds3 = rhs(*stages[2], m[i] + 0.5 * h * dm2, s[i] + 0.5 * h * ds2)
            dm4, ds4 = rhs(*stages[3], m[i] + h * dm3, s[i] + h * ds3)
            m[i + 1] = m[i] + (h / 6.0) * (dm1 + 2.0 * dm2 + 2.0 * dm3 + dm4)
            s[i + 1] = s[i] + (h / 6.0) * (ds1 + 2.0 * ds2 + 2.0 * ds3 + ds4)
            if not (np.isfinite(m[i + 1]) and np.isfinite(s[i + 1])):
                raise NumericError(f"moment integration blew up at node {i + 1}")
    return MomentPath(grid=grid, mean=m, second_moment=s)


def exact_cost(gain: GainSchedule, params: LqrParams) -> CostReport:
    """Exact time-zero cost of an affine feedback law.

    Running part: Simpson quadrature of ``(k^2 s + 2 k c m + c^2) / 2``
    (that is, ``E[control^2]/2`` expanded in the moments). Terminal part:
    ``gamma/2 (s_T - 2 x0 m_T + x0^2)``, the expected quadratic miss of the
    time-zero anchor. Requires an even step count for the quadrature. Raises
    NumericError, naming ``x0``, when the cost is not finite.
    """
    grid = gain.grid
    if grid.n_steps % 2 != 0:
        raise ConfigError(f"exact cost needs an even n_steps, got {grid.n_steps}")
    mom = solve_moments(gain, params)
    k, c = gain.k_state, gain.c_offset
    with np.errstate(over="ignore", invalid="ignore"):
        phi = 0.5 * (k * k * mom.second_moment + 2.0 * k * c * mom.mean + c * c)
        running = simpson_uniform(phi, grid.dt)
        terminal = 0.5 * params.gamma * (
            mom.second_moment[-1] - 2.0 * params.x0 * mom.mean[-1] + params.x0 ** 2)
        total = running + terminal
    if not np.isfinite(total):
        raise NumericError(f"exact cost is not finite with x0 = {params.x0!r}")
    return CostReport(running_cost=running, terminal_cost=terminal, total=total)


@dataclass(frozen=True)
class SweepTable:
    """Costs of the three laws across terminal penalty weights.

    Rows that failed numerically hold NaN and carry a note; clean rows have
    an empty note.
    """

    gammas: np.ndarray
    j_equilibrium: np.ndarray
    j_naive: np.ndarray
    j_precommitted: np.ndarray
    notes: tuple

    def __post_init__(self):
        for name in ("gammas", "j_equilibrium", "j_naive", "j_precommitted"):
            object.__setattr__(self, name, readonly(getattr(self, name)))
        n = self.gammas.size
        for name in ("j_equilibrium", "j_naive", "j_precommitted"):
            if getattr(self, name).shape != (n,):
                raise ConfigError(f"sweep column {name} has wrong length")
        if len(self.notes) != n:
            raise ConfigError("sweep notes must have one entry per gamma")


def gamma_sweep(params: LqrParams, gammas, grid: TimeGrid) -> SweepTable:
    """Exact costs of the three laws for each terminal weight in ``gammas``.

    Rows are computed independently in the given order; a numerical blow-up
    in one row is recorded in its note and does not abort the sweep.
    """
    gs = np.asarray(gammas, dtype=float)
    if gs.ndim != 1 or gs.size == 0:
        raise ConfigError("gammas must be a nonempty 1-d sequence")
    # one row per law, in the equilibrium, naive, precommitted order that
    # strategy_gains returns them in
    costs = np.full((3, gs.size), np.nan)
    notes = []
    for i, g in enumerate(gs):
        row_params = replace(params, gamma=float(g))
        try:
            costs[:, i] = [exact_cost(gain, row_params).total
                           for gain in strategy_gains(row_params, grid).values()]
            notes.append("")
        except NumericError as e:
            notes.append(f"gamma={float(g)!r}: {e}")
    return SweepTable(gammas=gs, j_equilibrium=costs[0], j_naive=costs[1],
                      j_precommitted=costs[2], notes=tuple(notes))
