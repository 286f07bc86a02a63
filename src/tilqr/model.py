"""Model abstractions for time-inconsistent stochastic control.

:class:`ModelSpec`, the one model record, bundles the coefficient functions
of a controlled diffusion with a parameter-indexed cost family: the running
and terminal costs take an extra *parameter* slot (the state value, or the
clock, at which preferences were anchored), and the spec also carries the
cost derivatives in that slot, which is what the equilibrium correction
terms consume.

Two concrete constructions are provided: the linear-quadratic family with a
quadratic move-penalty anchored at the parameter (:func:`lqr_model`), and the
clock augmentation (:func:`augment_time_dependent`), which turns a spec whose
parameter is the issuance time into a state-anchored one on the extended
state (clock, space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class LqrParams:
    """Parameters of the linear-quadratic model.

    State dynamics dX = (a_bar*X + b_bar*u) dt + sigma dW, running cost u^2/2,
    and terminal penalty gamma/2 * (X_T - anchor)^2 anchored at the state
    value seen when the control was committed.

    Parameters
    ----------
    a_bar, b_bar : float
        Drift coefficients (state feedback and control loading).
    sigma : float
        Constant volatility, must be positive with a finite square.
    gamma : float
        Terminal penalty weight, must be nonnegative.
    horizon : float
        Length of the planning interval, must be positive.
    x0 : float
        Initial state.
    """

    a_bar: float = 0.5
    b_bar: float = 1.0
    sigma: float = 0.5
    gamma: float = 5.0
    horizon: float = 1.0
    x0: float = 1.0

    def __post_init__(self):
        for name in ("a_bar", "b_bar", "sigma", "gamma", "horizon", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.sigma <= 0:
            raise ConfigError(f"sigma must be positive, got {self.sigma}")
        # every variance, and the grid solver's stability bound, carries sigma^2
        if self.sigma * self.sigma == math.inf:
            raise ConfigError(f"sigma must have a finite square, got {self.sigma}")
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.gamma < 0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and parameter-indexed costs of a controlled diffusion.

    Evaluator signatures (y is the preference parameter, x the state):

    - ``drift(t, x, a)``, ``vol(t, x)`` with ``vol > 0`` for scalar-state
      models; the clock-augmented construction returns vector/matrix values
      here and is meant for the correction-term algebra, not the grid solver.
    - ``running_cost(t, y, x, a)``, ``terminal_cost(y, x)``.
    - ``dy_running``/``dyy_running`` and ``dy_terminal``/``dyy_terminal``:
      first and second derivatives of the costs in the parameter slot.
    - ``maximizer(g)``: the closed-form optimal action for the effective
      gradient ``g`` (see :func:`extended_hamiltonian`).

    All evaluators must accept numpy arrays and return an array that
    broadcasts against their arguments; the grid solver relies on that.
    """

    drift: Callable
    vol: Callable
    running_cost: Callable
    terminal_cost: Callable
    dy_running: Callable
    dyy_running: Callable
    dy_terminal: Callable
    dyy_terminal: Callable
    maximizer: Callable


def lqr_model(params: LqrParams) -> ModelSpec:
    """Build the linear-quadratic :class:`ModelSpec`.

    The inner optimization has the closed form ``a* = -b_bar * g`` where
    ``g`` is the effective gradient handed to the maximizer.

    Examples
    --------
    >>> spec = lqr_model(LqrParams())
    >>> spec.running_cost(0.0, 0.0, 0.0, 2.0)
    2.0
    >>> spec.dy_terminal(0.0, 2.0)   # gamma * (y - x) at gamma = 5
    -10.0
    """
    p = params

    def drift(t, x, a):
        return p.a_bar * x + p.b_bar * a

    def vol(t, x):
        # constant, but broadcast against x so array callers get arrays back
        return p.sigma + 0.0 * np.asarray(x, dtype=float)

    def running_cost(t, y, x, a):
        return 0.5 * a * a

    def terminal_cost(y, x):
        d = x - y
        return 0.5 * p.gamma * d * d

    def dy_running(t, y, x, a):
        return 0.0 * y + 0.0 * x + 0.0 * a

    def dyy_running(t, y, x, a):
        return 0.0 * y + 0.0 * x + 0.0 * a

    def dy_terminal(y, x):
        return p.gamma * (y - x)

    def dyy_terminal(y, x):
        return p.gamma + 0.0 * y + 0.0 * x

    def argopt(g):
        return -p.b_bar * g

    return ModelSpec(
        drift=drift,
        vol=vol,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        dy_running=dy_running,
        dyy_running=dyy_running,
        dy_terminal=dy_terminal,
        dyy_terminal=dyy_terminal,
        maximizer=argopt,
    )


def _require_finite(**slots):
    for name, v in slots.items():
        if not np.all(np.isfinite(v)):
            raise NumericError(f"non-finite value in Hamiltonian slot '{name}'")


def _require_positive_vol(sigma):
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ConfigError("model volatility must be positive and finite")


def _hamiltonian(model: ModelSpec, t, x, sigma, z, grad_param, hess_param, mixed):
    """The corrected Hamiltonian and its optimal action, given the volatility
    ``sigma`` at ``(t, x)``, with no slot checked; see
    :func:`extended_hamiltonian`."""
    g = z / sigma - grad_param
    a_opt = model.maximizer(g)
    inner = model.running_cost(t, x, x, a_opt) + model.drift(t, x, a_opt) * g
    return inner - 0.5 * sigma * sigma * hess_param - sigma * mixed, a_opt


def extended_hamiltonian(model: ModelSpec, *, t, x, z, grad_param, hess_param,
                         mixed):
    """Evaluate the corrected Hamiltonian and its optimal action.

    The effective gradient is ``g = z / vol - grad_param``; the model's
    maximizer maps it to the action ``a`` that optimizes
    ``running_cost(t, x, x, a) + drift(t, x, a) * g``, and the value is then
    corrected by ``- vol^2/2 * hess_param - vol * mixed``. The construction
    is invariant under the shift
    ``(z, grad_param) -> (z + s, grad_param + s/vol)``.

    Parameters
    ----------
    model : ModelSpec
        Scalar-state model; the vector-valued clock augmentation is not
        accepted here.
    t, x, z, grad_param, hess_param, mixed : scalar or array
        Slots broadcast together: time and state, the volatility-scaled
        value gradient (vol * dV/dx), the first and second parameter
        derivatives of the coupled field on the diagonal, and its
        volatility-scaled mixed second derivative.

    Returns
    -------
    (value, argopt) : tuple
        Hamiltonian value and optimizing action, floats for scalar input and
        arrays otherwise.

    Raises
    ------
    NumericError
        If any slot contains non-finite values.
    ConfigError
        If the model's volatility is not positive at the evaluation points.
    """
    _require_finite(t=t, x=x, z=z, grad_param=grad_param,
                    hess_param=hess_param, mixed=mixed)
    sigma = np.asarray(model.vol(t, x), dtype=float)
    _require_positive_vol(sigma)
    value, a_opt = _hamiltonian(model, t, x, sigma, np.asarray(z, dtype=float),
                                grad_param, hess_param, mixed)

    if np.ndim(value) == 0 and np.ndim(a_opt) == 0:
        return float(value), float(a_opt)
    value, a_opt = np.broadcast_arrays(value, a_opt)
    return np.asarray(value, dtype=float), np.asarray(a_opt, dtype=float)


def inconsistency_adjustment(*, drift_vec, sigma_mat, grad_y, hess_yy,
                             hess_xy) -> float:
    """Drift-and-trace correction separating the coupled PDE from a classical one.

    Computes ``drift_vec . grad_y + Tr[(hess_yy/2 + hess_xy) sigma sigma^T]``.
    This is the exact term by which the parameter-coupled equation for the
    anchored cost differs from the classical backward equation of the frozen
    problem. The grid solver carries it through the diagonal derivatives of
    the indexed field; zeroing those collapses the benchmark gain to zero.

    The keyword slots: ``drift_vec`` is the state drift as it appears in the
    dynamics (length n), ``sigma_mat`` the n-by-d volatility matrix,
    ``grad_y`` the parameter gradient of the coupled field, ``hess_yy`` and
    ``hess_xy`` its parameter/mixed Hessians (n-by-n). Scalars are promoted.

    Raises
    ------
    ConfigError
        On dimension mismatch between the slots.
    NumericError
        If any slot contains non-finite values.
    """
    b, gy = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (drift_vec, grad_y))
    s, hyy, hxy = (np.atleast_2d(np.asarray(v, dtype=float))
                   for v in (sigma_mat, hess_yy, hess_xy))
    n = b.shape[0]
    if b.ndim != 1 or gy.shape != (n,):
        raise ConfigError(f"drift_vec and grad_y must be vectors of equal length, got {b.shape} and {gy.shape}")
    if s.ndim != 2 or s.shape[0] != n:
        raise ConfigError(f"sigma_mat must have {n} rows, got shape {s.shape}")
    if hyy.shape != (n, n) or hxy.shape != (n, n):
        raise ConfigError(f"Hessians must be {n}x{n}, got {hyy.shape} and {hxy.shape}")
    for name, v in (("drift_vec", b), ("sigma_mat", s), ("grad_y", gy),
                    ("hess_yy", hyy), ("hess_xy", hxy)):
        if not np.all(np.isfinite(v)):
            raise NumericError(f"non-finite value in adjustment slot '{name}'")
    cov = s @ s.T
    return float(b @ gy + np.trace((0.5 * hyy + hxy) @ cov))


def augment_time_dependent(td: ModelSpec) -> ModelSpec:
    """Recast time-dependent preferences as state-anchored ones.

    ``td`` is a scalar-state spec whose parameter slot is the issuance time
    ``pref``: ``running_cost(t, pref, x, a)``, ``terminal_cost(pref, x)``, and
    their ``dy*``/``dyy*`` derivatives in ``pref``.

    The state is extended to (clock, space): the clock component has unit
    drift and no noise, so anchoring costs at the extended *state* value seen
    at issuance reproduces the original issuance-time dependence. Costs on
    the extended model read the clock component of the parameter and the
    space component of the state; the spatial component of every parameter
    derivative is exactly zero, and the clock drift is exactly one.

    The returned spec's drift/vol are vector/matrix valued, so it feeds
    :func:`inconsistency_adjustment` but not the scalar-state grid solver.
    """

    def drift(t, xv, a):
        return np.array([1.0, td.drift(t, xv[1], a)], dtype=float)

    def vol(t, xv):
        return np.array([[0.0], [td.vol(t, xv[1])]], dtype=float)

    def running_cost(t, yv, xv, a):
        return td.running_cost(t, yv[0], xv[1], a)

    def terminal_cost(yv, xv):
        return td.terminal_cost(yv[0], xv[1])

    def dy_running(t, yv, xv, a):
        return np.array([td.dy_running(t, yv[0], xv[1], a), 0.0])

    def dyy_running(t, yv, xv, a):
        return np.array([[td.dyy_running(t, yv[0], xv[1], a), 0.0],
                         [0.0, 0.0]])

    def dy_terminal(yv, xv):
        return np.array([td.dy_terminal(yv[0], xv[1]), 0.0])

    def dyy_terminal(yv, xv):
        return np.array([[td.dyy_terminal(yv[0], xv[1]), 0.0],
                         [0.0, 0.0]])

    return ModelSpec(
        drift=drift,
        vol=vol,
        running_cost=running_cost,
        terminal_cost=terminal_cost,
        dy_running=dy_running,
        dyy_running=dyy_running,
        dy_terminal=dy_terminal,
        dyy_terminal=dyy_terminal,
        maximizer=td.maximizer,
    )

