"""Exact time-zero cost of affine feedback laws via moment ODEs.

Under ``control = -k(t) x - c(t)`` the state stays Gaussian, so its first two
moments follow linear ODEs and the quadratic cost reduces to a 1-d quadrature
plus a terminal term. No sampling is involved; this is the exact route the
Monte Carlo module is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._util import readonly, rk4
from .errors import ConfigError, NumericError
from .model import LqrParams
from .riccati import STRATEGY_LABELS, GainSchedule, TimeGrid, strategy_gains


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
    # Python floats, as the gains are: a float32 parameter would narrow the RHS
    ab, bb, var = float(params.a_bar), float(params.b_bar), float(params.sigma * params.sigma)
    k, c = gain.k_state, gain.c_offset
    try:
        start = [float(params.x0), float(params.x0 ** 2)]
    except OverflowError:
        raise NumericError(f"x0 = {params.x0!r} has a square that overflows") from None

    def rhs(gains, y):
        (ki, ci), (mv, sv) = gains, y
        lam = ab - bb * ki
        return lam * mv - bb * ci, 2.0 * lam * sv - 2.0 * bb * ci * mv + var

    ks, cs = k.tolist(), c.tolist()
    mid = zip((0.5 * (k[:-1] + k[1:])).tolist(), (0.5 * (c[:-1] + c[1:])).tolist())
    states = rk4(rhs, start, grid.dt, zip(ks, cs), mid, zip(ks[1:], cs[1:]))
    if not np.all(np.isfinite(states[-1])):
        raise NumericError(f"moment integration blew up at node {len(states) - 1}")
    return MomentPath(grid, *np.array(states).T)  # mean, second moment


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
    """Costs of the laws across terminal penalty weights.

    ``costs[i, j]`` is the cost of law ``STRATEGY_LABELS[i]`` at
    ``gammas[j]``. A weight whose solve failed numerically holds NaN for
    every law and carries a note; clean weights have an empty note.
    """

    gammas: np.ndarray
    costs: np.ndarray
    notes: tuple

    def __post_init__(self):
        object.__setattr__(self, "gammas", readonly(self.gammas))
        object.__setattr__(self, "costs", readonly(self.costs))
        shape = (len(STRATEGY_LABELS), self.gammas.size)
        if self.costs.shape != shape:
            raise ConfigError(f"sweep costs must have shape {shape}, got {self.costs.shape}")
        if len(self.notes) != self.gammas.size:
            raise ConfigError("sweep notes must have one entry per gamma")


def gamma_sweep(params: LqrParams, gammas, grid: TimeGrid) -> SweepTable:
    """Exact costs of the laws for each terminal weight in ``gammas``.

    Weights are computed independently in the given order; a numerical
    blow-up at one weight is recorded in its note and does not abort the
    sweep.
    """
    gs = np.asarray(gammas, dtype=float)
    if gs.ndim != 1 or gs.size == 0:
        raise ConfigError("gammas must be a nonempty 1-d sequence")
    costs = np.full((len(STRATEGY_LABELS), gs.size), np.nan)
    notes = []
    for i, g in enumerate(gs):
        row_params = replace(params, gamma=float(g))
        try:
            costs[:, i] = [exact_cost(gain, row_params).total
                           for gain in strategy_gains(row_params, grid).values()]
            notes.append("")
        except NumericError as e:
            notes.append(f"gamma={float(g)!r}: {e}")
    return SweepTable(gammas=gs, costs=costs, notes=tuple(notes))
