"""Model abstractions for time-inconsistent stochastic control.

A :class:`ModelSpec` bundles the coefficient functions of a controlled
diffusion together with a parameter-indexed cost family: the running and
terminal costs take an extra *parameter* slot (the state value, or the clock,
at which preferences were anchored), and the spec also carries the cost
derivatives in that slot, which is what the equilibrium correction terms
consume.

Two concrete constructions are provided: the linear-quadratic family with a
quadratic move-penalty anchored at the parameter (:func:`lqr_model`), and the
clock augmentation that turns a model with time-dependent preferences into a
state-anchored one on an extended state (:func:`augment_time_dependent`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericError


class Sense(enum.Enum):
    """Optimization sense of the Hamiltonian's inner problem."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


@dataclass(frozen=True)
class ActionGrid:
    """Uniform action grid for models without a closed-form optimizer.

    Ties in the grid search break toward the lowest index, so results are
    reproducible across runs and platforms.
    """

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("action grid endpoints must be finite")
        if self.hi < self.lo:
            raise ConfigError(f"action grid needs lo <= hi, got [{self.lo}, {self.hi}]")
        if self.count < 1:
            raise ConfigError(f"action grid needs count >= 1, got {self.count}")

    @property
    def actions(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


# A maximizer is either a closed-form optimizer mapping the effective gradient
# to the optimal action, or a grid to search over.
Maximizer = Union[Callable, ActionGrid]


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

    All evaluators must accept numpy arrays and broadcast; the grid solver
    relies on that.
    """

    drift: Callable
    vol: Callable
    running_cost: Callable
    terminal_cost: Callable
    dy_running: Callable
    dyy_running: Callable
    dy_terminal: Callable
    dyy_terminal: Callable
    maximizer: Maximizer
    sense: Sense = Sense.MINIMIZE


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
        return 0.5 * a * a + 0.0 * y + 0.0 * x

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
        sense=Sense.MINIMIZE,
    )


@dataclass(frozen=True)
class HamiltonianInputs:
    """Slots consumed by :func:`extended_hamiltonian`.

    ``z`` carries the volatility-scaled value gradient (vol * dV/dx);
    ``grad_param``, ``hess_param`` the first/second parameter derivatives of
    the coupled field on the diagonal; ``mixed`` the volatility-scaled mixed
    second derivative. All slots may be scalars or broadcastable arrays.
    """

    t: object
    x: object
    z: object
    grad_param: object
    hess_param: object
    mixed: object


def _require_finite(**slots):
    for name, v in slots.items():
        if not np.all(np.isfinite(v)):
            raise NumericError(f"non-finite value in Hamiltonian slot '{name}'")


def extended_hamiltonian(model: ModelSpec, inp: HamiltonianInputs):
    """Evaluate the corrected Hamiltonian and its optimal action.

    The effective gradient is ``g = z / vol - grad_param``; the inner problem
    optimizes ``running_cost(t, x, x, a) + drift(t, x, a) * g`` over actions
    in the model's sense, and the value is then corrected by
    ``- vol^2/2 * hess_param - vol * mixed``. The construction is invariant
    under the shift ``(z, grad_param) -> (z + s, grad_param + s/vol)``.

    Parameters
    ----------
    model : ModelSpec
        Scalar-state model; the vector-valued clock augmentation is not
        accepted here.
    inp : HamiltonianInputs
        Scalar or array slots, broadcast together.

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
    t, x = inp.t, inp.x
    _require_finite(t=t, x=x, z=inp.z, grad_param=inp.grad_param,
                    hess_param=inp.hess_param, mixed=inp.mixed)
    sigma = np.asarray(model.vol(t, x), dtype=float)
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ConfigError("model volatility must be positive and finite")

    g = np.asarray(inp.z, dtype=float) / sigma - inp.grad_param

    if isinstance(model.maximizer, ActionGrid):
        actions = model.maximizer.actions
        xb = np.asarray(x, dtype=float)
        a_col = actions.reshape((actions.size,) + (1,) * xb.ndim)
        cand = (model.running_cost(t, xb, xb, a_col)
                + model.drift(t, xb, a_col) * g)
        cand = np.asarray(cand, dtype=float)
        # argmin/argmax take the first occurrence: lowest-index tie-break
        idx = np.argmax(cand, axis=0) if model.sense is Sense.MAXIMIZE \
            else np.argmin(cand, axis=0)
        a_opt = actions[idx]
        inner = np.take_along_axis(cand, idx[None, ...], axis=0)[0]
    else:
        a_opt = model.maximizer(g)
        inner = model.running_cost(t, x, x, a_opt) + model.drift(t, x, a_opt) * g

    value = inner - 0.5 * sigma * sigma * inp.hess_param - sigma * inp.mixed

    if np.ndim(value) == 0 and np.ndim(a_opt) == 0:
        return float(value), float(a_opt)
    value, a_opt = np.broadcast_arrays(value, a_opt)
    return np.asarray(value, dtype=float), np.asarray(a_opt, dtype=float)


@dataclass(frozen=True)
class AdjustmentInputs:
    """Slots of the time-inconsistency correction at one evaluation point.

    ``drift_vec`` is the state drift as it appears in the dynamics (length
    n), ``sigma_mat`` the n-by-d volatility matrix, ``grad_y`` the parameter
    gradient of the coupled field, ``hess_yy`` and ``hess_xy`` its
    parameter/mixed Hessians (n-by-n).
    """

    drift_vec: object
    sigma_mat: object
    grad_y: object
    hess_yy: object
    hess_xy: object

    def __post_init__(self):
        object.__setattr__(self, "drift_vec", np.atleast_1d(np.asarray(self.drift_vec, dtype=float)))
        object.__setattr__(self, "sigma_mat", np.atleast_2d(np.asarray(self.sigma_mat, dtype=float)))
        object.__setattr__(self, "grad_y", np.atleast_1d(np.asarray(self.grad_y, dtype=float)))
        object.__setattr__(self, "hess_yy", np.atleast_2d(np.asarray(self.hess_yy, dtype=float)))
        object.__setattr__(self, "hess_xy", np.atleast_2d(np.asarray(self.hess_xy, dtype=float)))


def inconsistency_adjustment(inp: AdjustmentInputs) -> float:
    """Drift-and-trace correction separating the coupled PDE from a classical one.

    Computes ``drift_vec . grad_y + Tr[(hess_yy/2 + hess_xy) sigma sigma^T]``.
    This is the exact term by which the parameter-coupled equation for the
    anchored cost differs from the classical backward equation of the frozen
    problem. The grid solver carries it through the diagonal derivatives of
    the indexed field; zeroing those collapses the benchmark gain to zero.

    Raises
    ------
    ConfigError
        On dimension mismatch between the slots.
    NumericError
        If any slot contains non-finite values.
    """
    b, s = inp.drift_vec, inp.sigma_mat
    gy, hyy, hxy = inp.grad_y, inp.hess_yy, inp.hess_xy
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


@dataclass(frozen=True)
class TimeDependentModel:
    """Scalar diffusion whose costs depend on the time the control was issued.

    ``running_cost(t, pref, x, a)`` and ``terminal_cost(pref, x)`` take the
    issuance time ``pref`` as their preference slot; the ``dpref*`` evaluators
    are the corresponding first and second derivatives in ``pref``.
    """

    drift: Callable
    vol: Callable
    running_cost: Callable
    terminal_cost: Callable
    dpref_running: Callable
    dpref2_running: Callable
    dpref_terminal: Callable
    dpref2_terminal: Callable
    maximizer: Maximizer
    sense: Sense = Sense.MINIMIZE


def augment_time_dependent(td: TimeDependentModel) -> ModelSpec:
    """Recast time-dependent preferences as state-anchored ones.

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
        return np.array([td.dpref_running(t, yv[0], xv[1], a), 0.0])

    def dyy_running(t, yv, xv, a):
        return np.array([[td.dpref2_running(t, yv[0], xv[1], a), 0.0],
                         [0.0, 0.0]])

    def dy_terminal(yv, xv):
        return np.array([td.dpref_terminal(yv[0], xv[1]), 0.0])

    def dyy_terminal(yv, xv):
        return np.array([[td.dpref2_terminal(yv[0], xv[1]), 0.0],
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
        sense=td.sense,
    )


def check_derivatives(model: ModelSpec, samples: Sequence, step: float = 1e-5,
                      hess_step: float = 1e-4) -> float:
    """Compare the spec's parameter derivatives against central differences.

    Parameters
    ----------
    model : ModelSpec
    samples : sequence of (t, y, x, a) tuples
        Points at which to check; ``y`` may be a scalar or a vector.
    step : float
        Step for first differences.
    hess_step : float
        Step for second differences (larger, to stay above roundoff).

    Returns
    -------
    float
        Largest discrepancy over all samples and components, relative to
        ``max(1, |exact|)``.
    """
    worst = 0.0

    def rel(fd, exact):
        return abs(fd - exact) / max(1.0, abs(exact))

    for (t, y, x, a) in samples:
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        scalar = np.ndim(y) == 0
        m = yv.size

        def wrap(vec):
            return float(vec[0]) if scalar else vec

        for func, dfunc, d2func in (
            (lambda yy: model.running_cost(t, wrap(yy), x, a),
             lambda: model.dy_running(t, y, x, a),
             lambda: model.dyy_running(t, y, x, a)),
            (lambda yy: model.terminal_cost(wrap(yy), x),
             lambda: model.dy_terminal(y, x),
             lambda: model.dyy_terminal(y, x)),
        ):
            grad = np.atleast_1d(np.asarray(dfunc(), dtype=float))
            hess = np.atleast_2d(np.asarray(d2func(), dtype=float))
            for i in range(m):
                e_i = np.zeros(m)
                e_i[i] = 1.0
                fd1 = (func(yv + step * e_i) - func(yv - step * e_i)) / (2 * step)
                worst = max(worst, rel(fd1, grad[i]))
                h = hess_step
                fd2 = (func(yv + h * e_i) - 2.0 * func(yv) + func(yv - h * e_i)) / (h * h)
                worst = max(worst, rel(fd2, hess[i, i]))
                for j in range(i + 1, m):
                    e_j = np.zeros(m)
                    e_j[j] = 1.0
                    fdm = (func(yv + h * (e_i + e_j)) - func(yv + h * (e_i - e_j))
                           - func(yv - h * (e_i - e_j)) + func(yv - h * (e_i + e_j))) / (4 * h * h)
                    worst = max(worst, rel(fdm, hess[i, j]))
    return worst
