"""Explicit finite-difference solver for the coupled value system.

The preference parameter ranges over the state space, so one grid indexes
both: a time slice of the indexed field ``J(t, x, y)`` has ``(n_x+1)^2``
nodes, and the value field is its diagonal ``V(t, x) = J(t, x, x)``.
Backward in time the two fields advance together: each step reads the
parameter-coupling derivatives of the indexed field on the diagonal,
optimizes the control through the corrected Hamiltonian, then updates both
fields with that control. Both modes take the same steps, with the
coupling read from the current iterate (a single sweep) or from the
previous one (Picard fixed-point passes, repeated to a tolerance). Either
way the solve holds one set of fields: a Picard pass overwrites the
previous iterate slice by slice, having taken the little it still needs
from it before the first step.

The scheme is explicit, so a diffusion stability bound on the time step is
enforced up front. Boundaries close with quadratic extrapolation, which is
exact for the quadratic fields of the linear-quadratic benchmark.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import readonly
from .errors import ConfigError, NumericError, PicardError
from .model import LqrParams, ModelSpec
from .riccati import GainLabel, GainSchedule, TimeGrid


@dataclass(frozen=True)
class GridSpec2:
    """Space-time grid for the coupled solve.

    ``n_x`` cells on ``[x_lo, x_hi]`` index both the state and the
    preference parameter, which ranges over the state space; each time slice
    of the indexed field holds ``(n_x+1)^2`` nodes.
    """

    n_t: int
    n_x: int
    x_lo: float
    x_hi: float
    horizon: float

    def __post_init__(self):
        if self.n_t < 1:
            raise ConfigError(f"n_t must be >= 1, got {self.n_t}")
        if self.n_x < 4:
            raise ConfigError("need at least 4 space nodes in each direction")
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi)):
            raise ConfigError(f"x_lo and x_hi must be finite, got [{self.x_lo}, {self.x_hi}]")
        if not self.x_lo < self.x_hi:
            raise ConfigError(f"x grid needs x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        # the stability bound divides by dx^2
        if not 0.0 < self.dx * self.dx < math.inf:
            raise ConfigError(
                f"x grid [{self.x_lo}, {self.x_hi}] with {self.n_x} cells gives a "
                f"spacing whose square is not a positive finite number")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        if self.dt == 0.0:
            raise ConfigError(f"horizon {self.horizon!r} over {self.n_t} time slices "
                              "gives a zero time step")

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.n_x + 1)

    @property
    def n_y(self) -> int:
        """Cells of the parameter grid, which is the state grid."""
        return self.n_x

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.n_x

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t


@dataclass(frozen=True)
class PicardWindow:
    """Distance trace of one converged fixed-point window.

    ``k_lo``/``k_hi`` are time-slice indices (the window owns slices
    ``k_lo .. k_hi - 1``; slice ``k_hi`` is its fixed terminal data) and
    ``distances`` holds the sup-norm distance between successive iterates,
    one entry per pass.
    """

    k_lo: int
    k_hi: int
    distances: tuple


@dataclass(frozen=True)
class SchemeReport:
    """Bookkeeping of one solve: mode, stability margin, iteration trace."""

    mode: str
    sigma_max: float
    stability_ratio: float   # sigma_max^2 dt / dx^2, < 1 by the CFL check
    iterations: int
    trace: tuple = ()        # PicardWindow entries, in order of execution


@dataclass(frozen=True)
class GridSolution:
    """Value field, parameter-indexed field, and control field on the grid."""

    grid: GridSpec2
    v: np.ndarray        # (n_t+1) x (n_x+1)
    j: np.ndarray        # (n_t+1) x (n_x+1)^2, state then parameter
    alpha: np.ndarray    # (n_t+1) x (n_x+1)
    report: SchemeReport

    def __post_init__(self):
        for name in ("v", "j", "alpha"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


def _extrapolate_edges(arr: np.ndarray):
    # quadratic extrapolation in the first axis: second difference constant
    arr[0] = 3.0 * arr[1] - 3.0 * arr[2] + arr[3]
    arr[-1] = 3.0 * arr[-2] - 3.0 * arr[-3] + arr[-4]


def _check_cfl(model: ModelSpec, nodes: np.ndarray, xs: np.ndarray,
               grid: GridSpec2) -> tuple:
    # bound the diffusion coefficient at every time node the solver evaluates
    sigma_max = 0.0
    for t in nodes:
        sigma_max = max(sigma_max, float(np.max(np.asarray(model.vol(t, xs)))))
    # the stability bound divides by sigma_max^2
    if not 0.0 < sigma_max * sigma_max < math.inf:
        raise ConfigError(
            f"model volatility must have a square that is a positive finite number on "
            f"the grid, got a maximum of {sigma_max}")
    dt_max = grid.dx ** 2 / (1.05 * sigma_max ** 2)
    if grid.dt > dt_max:
        # dt_max is zero when the bound underflows or its denominator
        # overflows; then no slice count is enough
        n_min = np.ceil(grid.horizon / dt_max) if dt_max > 0 else math.inf
        raise ConfigError(
            f"explicit scheme unstable: dt = {grid.dt:.6g} exceeds the admissible "
            f"{dt_max:.6g}; use n_t >= {n_min:.0f}")
    return sigma_max, sigma_max ** 2 * grid.dt / grid.dx ** 2


def _diag_fields(jslice: np.ndarray, dx: float):
    """Parameter-coupling derivatives on the diagonal at interior state nodes,
    of one slice or, along the leading axis, of a stack of slices."""
    # diagonals as views: mid[..., i] = jslice[..., i, i]; at interior node i,
    # entry i - 1 of up, down, diag(-2) and diag(2) is jslice[..., i, i + 1],
    # jslice[..., i, i - 1], jslice[..., i + 1, i - 1] and jslice[..., i - 1, i + 1]
    def diag(offset):
        return np.diagonal(jslice, offset, axis1=-2, axis2=-1)

    mid = diag(0)
    up = diag(1)[..., 1:]
    down = diag(-1)[..., :-1]
    d_y = (up - down) / (2.0 * dx)
    d_yy = (up - 2.0 * mid[..., 1:-1] + down) / dx ** 2
    d_xy = (mid[..., 2:] - diag(-2) - diag(2) + mid[..., :-2]) / (4.0 * dx * dx)
    return d_y, d_yy, d_xy


@dataclass(frozen=True)
class _Stepper:
    """Per-solve constants of the explicit step, and its one slice of scratch."""

    model: ModelSpec
    xs: np.ndarray
    xi: np.ndarray       # interior state nodes
    nodes: np.ndarray    # time nodes, n_t + 1
    dt: float
    dx: float
    scratch: np.ndarray  # (n_x+1)^2


def _stepper(model: ModelSpec, grid: GridSpec2) -> tuple:
    """``(stepper, sigma_max, stability_ratio)``; the stability check runs
    before anything sized by the grid squared is allocated."""
    xs = grid.xs
    nodes = grid.horizon * np.linspace(0.0, 1.0, grid.n_t + 1)
    sigma_max, ratio = _check_cfl(model, nodes, xs, grid)
    st = _Stepper(model=model, xs=xs, xi=xs[1:-1], nodes=nodes, dt=grid.dt,
                  dx=grid.dx, scratch=np.empty((xs.size, xs.size)))
    return st, sigma_max, ratio


def _slice_control(st: _Stepper, t: float, v_slice: np.ndarray, derivs: tuple,
                   a_out: np.ndarray):
    """Optimize the control on one time slice and return the update pieces.

    ``derivs`` holds the parameter-coupling derivatives ``(d_y, d_yy, d_xy)``
    at interior nodes, as ``_diag_fields`` gives them. Returns (value_rate,
    a_interior, half_var): the corrected Hamiltonian value at interior
    nodes, the optimizing control there (a view of ``a_out``), and
    ``0.5 * sigma ** 2`` there at ``t``, which the step reads twice. The
    control extended to the boundary by extrapolation is written into
    ``a_out``.

    The maximizer maps the effective gradient ``g = z / sigma - d_y``, with
    ``z = sigma * v_x``, to the action ``a``; the value is
    ``running_cost(t, x, x, a) + drift(t, x, a) * g - sigma^2/2 * d_yy -
    sigma * mixed`` with ``mixed = sigma * d_xy``. The volatility is
    evaluated once. The four slots are scanned for finiteness only where
    the value is not finite, which any non-finite slot makes it: each slot
    enters the value multiplied by the volatility or by the drift. They are
    scanned in the order above, so the error names the first. Then the
    volatility is checked for positivity; ``t`` and the nodes are grid
    constants, finite by construction.
    """
    model, xi = st.model, st.xi
    d_y, d_yy, d_xy = derivs
    v_x = (v_slice[2:] - v_slice[:-2]) / (2.0 * st.dx)
    sigma = np.asarray(model.vol(t, xi), dtype=float)
    z, mixed = sigma * v_x, sigma * d_xy
    g = z / sigma - d_y
    a = model.maximizer(g)
    value_rate = (model.running_cost(t, xi, xi, a) + model.drift(t, xi, a) * g
                  - 0.5 * sigma * sigma * d_yy - sigma * mixed)
    if not np.all(np.isfinite(value_rate)):
        for name, slot in (("z", z), ("grad_param", d_y), ("hess_param", d_yy),
                           ("mixed", mixed)):
            if not np.all(np.isfinite(slot)):
                raise NumericError(f"non-finite value in Hamiltonian slot '{name}'")
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ConfigError("model volatility must be positive and finite")
    a_out[1:-1] = a
    _extrapolate_edges(a_out)
    return value_rate, a_out[1:-1], 0.5 * sigma ** 2


def _advance_slice(st: _Stepper, t_next: float, v_next: np.ndarray,
                   j_next: np.ndarray, value_rate: np.ndarray, a_int: np.ndarray,
                   half_var: np.ndarray, v_out: np.ndarray, j_out: np.ndarray):
    """One explicit backward step of both fields given the slice control and
    ``0.5 * sigma ** 2`` at ``t_next``, written into ``v_out`` and ``j_out``.

    The indexed field is updated in place, on ``j_out`` and the scratch, in
    the operation order of
    ``j_next + dt * (f + mu * j_x + 0.5 * sigma^2 * j_xx)``, so every value
    is bitwise that of the expression.
    """
    model, xs, xi = st.model, st.xs, st.xi
    dt, dx = st.dt, st.dx

    v_xx = (v_next[2:] - 2.0 * v_next[1:-1] + v_next[:-2]) / dx ** 2
    v_out[1:-1] = v_next[1:-1] + dt * (value_rate + half_var * v_xx)
    _extrapolate_edges(v_out)

    mu = np.asarray(model.drift(t_next, xi, a_int), dtype=float)
    f = np.asarray(model.running_cost(t_next, xs[None, :], xi[:, None],
                                      a_int[:, None]), dtype=float)
    up, mid, down = j_next[2:], j_next[1:-1], j_next[:-2]
    acc, j_xx = j_out[1:-1], st.scratch[1:-1]
    np.subtract(up, down, out=acc)
    np.divide(acc, 2.0 * dx, out=acc)                   # j_x
    np.multiply(mu[:, None], acc, out=acc)
    np.add(f, acc, out=acc)                             # f + mu * j_x
    np.multiply(2.0, mid, out=j_xx)
    np.subtract(up, j_xx, out=j_xx)
    np.add(j_xx, down, out=j_xx)
    np.divide(j_xx, dx ** 2, out=j_xx)                  # j_xx
    np.multiply(np.reshape(half_var, (-1, 1)), j_xx, out=j_xx)
    np.add(acc, j_xx, out=acc)
    np.multiply(dt, acc, out=acc)
    np.add(mid, acc, out=acc)
    _extrapolate_edges(j_out)


def _terminal_fields(st: _Stepper, n_t: int) -> tuple:
    """``(v, j, alpha)`` on ``n_t + 1`` time slices, with the terminal data in
    the last slice of ``v`` and ``j``; every other entry is unset. Raises
    NumericError, naming slice ``n_t``, when the terminal data is not finite."""
    xs, n = st.xs, st.xs.size
    v, j, alpha = np.empty((n_t + 1, n)), np.empty((n_t + 1, n, n)), np.empty((n_t + 1, n))
    # an overflow surfaces through the finiteness check, not as a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v[n_t] = st.model.terminal_cost(xs, xs)
        j[n_t] = st.model.terminal_cost(xs[None, :], xs[:, None])
    _check_finite("value field", v[n_t], n_t)
    _check_finite("indexed field", j[n_t], n_t)
    return v, j, alpha


def _check_finite(name: str, arr: np.ndarray, k: Optional[int] = None):
    if not np.all(np.isfinite(arr)):
        flat = int(np.argmax(~np.isfinite(arr)))  # first in C order
        where = tuple(int(i) for i in np.unravel_index(flat, arr.shape))
        if k is None:  # a whole field, whose first axis is the time slice
            k, where = where[0], where[1:]
        raise NumericError(f"{name} blew up at time slice {k}, node {where}")


def _check_iteration_settings(tol: float, max_iter: int):
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    if max_iter < 2:
        raise ConfigError(f"max_iter must be >= 2, got {max_iter}")


def _backward(st: _Stepper, lo: int, hi: int, top: int, fields: tuple) -> tuple:
    """One Picard pass in window ``lo .. hi``: step ``fields = (v, j, alpha)``
    in place from slice ``lo + top``, which already holds the pass's result,
    down to slice ``lo``, setting the control on every slice it steps from
    and on ``lo``.

    Slices ``lo .. lo + top`` of the fields hold the previous iterate, which
    is finite. Before the first step the pass takes that iterate's coupling
    derivatives on all these slices in one ``_diag_fields`` call, and copies
    of their ``v`` and ``alpha`` rows. Each step writes ``v`` in place and
    ``j`` into one extra slice buffer, takes the ``j`` distance against the
    slice it replaces, then copies the new slice in. A pass scans a slice
    for non-finite values only when one of its distances is not finite,
    which a non-finite slice always makes it. Where that scan or a
    Hamiltonian slot fails, the pass stops rather than raises.

    Returns the record ``(dist, valid)``. ``dist[:, i]`` holds the sup
    distances of slice ``lo + i`` of ``v``, ``j`` and ``alpha`` from the
    previous iterate, those of ``v`` and ``j`` taken while the slice is
    hot, and 0 on the slices the pass did not step; ``valid`` is the lowest
    slice that holds the pass's ``v``, ``j`` and ``alpha``: ``lo`` unless
    the pass stopped early.
    """
    v, j, alpha = fields
    dist = np.zeros((3, hi - lo + 1))
    coupling = _diag_fields(j[lo:lo + top + 1], st.dx)
    v_prev, a_prev = v[lo:lo + top].copy(), alpha[lo:lo + top + 1].copy()
    j_new = np.empty_like(j[lo])
    valid = lo + top + 1
    # expected transient blow-ups stop the pass; silence their warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            for k in range(lo + top - 1, lo - 1, -1):
                t1 = st.nodes[k + 1]
                rate, a_int, half_var = _slice_control(
                    st, t1, v[k + 1], tuple(c[k + 1 - lo] for c in coupling), alpha[k + 1])
                valid = k + 1
                _advance_slice(st, t1, v[k + 1], j[k + 1], rate, a_int, half_var, v[k], j_new)
                d = dist[:2, k - lo]
                d[0] = np.max(np.abs(v[k] - v_prev[k - lo]))
                diff = np.subtract(j_new, j[k], out=st.scratch)
                # + 0.0 turns a -0.0 maximum into 0.0, as abs would
                d[1] = max(diff.max(), -diff.min()) + 0.0
                j[k] = j_new
                if not (math.isfinite(d[0]) and math.isfinite(d[1])):
                    _check_finite("value field", v[k], k)
                    _check_finite("indexed field", j[k], k)
            _slice_control(st, st.nodes[lo], v[lo], tuple(c[0] for c in coupling), alpha[lo])
            valid = lo
        except NumericError:
            pass
        i = valid - lo
        dist[2, i:top + 1] = np.max(np.abs(alpha[valid:lo + top + 1] - a_prev[i:]), axis=1)
    return dist, valid


def solve_extended_hjb_sweep(model: ModelSpec, grid: GridSpec2) -> GridSolution:
    """Single backward pass of the coupled system.

    Per step, the coupling derivatives come from the slice just computed, so
    the pass is self-contained. They are read on the diagonal with centered
    differences (``_diag_fields``).

    Raises
    ------
    ConfigError
        A time step above the diffusion stability bound.
    NumericError
        Non-finite field values, controls too, with the slice and node named.
    """
    st, sigma_max, ratio = _stepper(model, grid)
    v, j, alpha = _terminal_fields(st, grid.n_t)
    # a blow-up surfaces through the finiteness check, not as a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(grid.n_t - 1, -1, -1):
            t1 = st.nodes[k + 1]
            rate, a_int, half_var = _slice_control(st, t1, v[k + 1],
                                                   _diag_fields(j[k + 1], st.dx), alpha[k + 1])
            _advance_slice(st, t1, v[k + 1], j[k + 1], rate, a_int, half_var, v[k], j[k])
            _check_finite("value field", v[k], k)
            _check_finite("indexed field", j[k], k)
        _slice_control(st, st.nodes[0], v[0], _diag_fields(j[0], st.dx), alpha[0])
    _check_finite("control field", alpha)  # slice 0's is set after the last field check
    report = SchemeReport(mode="sweep", sigma_max=sigma_max, stability_ratio=ratio,
                          iterations=1)
    return GridSolution(grid=grid, v=v, j=j, alpha=alpha, report=report)


def _distance(dist: np.ndarray, top: int) -> tuple:
    """``(distance, top)`` after a pass that stepped the lowest ``top`` of
    the slices that ``dist`` covers (as ``_backward`` returns it, lowest
    first): the sup distance of the three fields from the previous iterate,
    and the number of slices the next pass steps.

    If the last ``Z`` slices below the window's terminal slice all had
    ``v`` and ``j`` distance exactly 0 in this pass, the next pass would
    step those slices and the one below them from the inputs this pass
    used: the slice above, just reproduced, and the previous iterate's
    indexed field there as coupling, which the zero distance says did not
    move. So the next pass steps only the slices below these ``Z + 1``,
    which already hold its result, with distance exactly 0.
    """
    moved = np.flatnonzero(dist[:2, :top].any(axis=0))
    settled = top - 1 - int(moved[-1]) if moved.size else top
    # the max of the slice maxima is the window's max, NaN included; a pass
    # that steps no slice has v and j distance 0
    distance = max(float(np.max(dist[0, :top], initial=0.0)),
                   float(np.max(dist[1, :top], initial=0.0)),
                   float(np.max(dist[2, :top + 1])))
    return distance, max(top - settled - 1, 0)


def _iterate_window(st: _Stepper, lo: int, hi: int, fields: tuple, tol: float,
                    max_iter: int, passes: list):
    """Fixed-point iteration on slices ``lo .. hi`` of ``fields = (v, j, alpha)``,
    in place, from the terminal data in slice ``hi`` extended constantly.
    Returns ``(status, distances, passes)`` where status is ``"ok"``
    (converged, with the last iterate in ``fields``), ``"grow"`` (distances
    stopped decreasing: the map does not contract at this window length),
    ``"blowup"`` (a pass lost finiteness), or ``"maxiter"``.

    Each pass overwrites the previous iterate slice by slice (``_backward``)
    and leaves in place the slices whose result it already knows
    (``_distance``). No pass writes slice ``hi`` of ``v`` or ``j``.

    ``passes`` holds one ``(dist, valid)`` record per pass already run on
    this window's slices, as ``_backward`` returns it, with the last column
    of ``dist`` on slice ``hi``.
    A failed window's passes are bitwise those of its upper half
    ``(mid, hi)`` on every slice from ``mid`` up, since both start from the
    same terminal data; so the failed window returns its records, and the
    upper half replays them: distances, settled slices, the ok and grow
    checks, and a blowup where a pass stopped above ``mid``. If the half
    needs more passes, it steps on from the fields in place, which hold the
    last record's pass from that record's ``valid`` slice up. It starts
    over only if its replay converges before the last record, because the
    fields then hold a later pass. Other than on ``"ok"``, slices
    ``lo .. hi - 1`` hold no usable data for this window.
    """
    v, j, alpha = fields
    if not passes:
        v[lo:hi], j[lo:hi] = v[hi], j[hi]
        # expected transient blow-ups abort the window; silence their warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _slice_control(st, st.nodes[hi], v[hi], _diag_fields(j[hi], st.dx), alpha[hi])
        alpha[lo:hi] = alpha[hi]

    distances = []
    top = hi - lo  # a pass steps slices lo .. lo + top - 1
    for p in range(max_iter):
        if p == len(passes):
            passes.append(_backward(st, lo, hi, top, fields))
        dist, valid = passes[p]
        if valid > lo:
            return "blowup", distances, passes
        d, top = _distance(dist[:, lo - hi - 1:], top)
        distances.append(d)
        if d <= tol:
            if p + 1 < len(passes):  # the fields hold a later pass
                return _iterate_window(st, lo, hi, fields, tol, max_iter, [])
            return "ok", distances, passes
        # contraction check from the second distance on; the first pass
        # only measures how far the constant extension sits from one solve
        if len(distances) >= 3 and distances[-1] >= distances[-2]:
            return "grow", distances, passes
    return "maxiter", distances, passes


def solve_extended_hjb_picard(model: ModelSpec, grid: GridSpec2,
                              tol: float = 1e-9, max_iter: int = 200) -> GridSolution:
    """Fixed-point iteration of the decoupled solve map.

    The map freezes the parameter-coupling derivatives from the previous
    iterate, re-optimizes the control against the current value field, and
    advances both fields; its fixed point is exactly the sweep solution. It
    is a contraction only over sufficiently short time intervals (backward
    error growth outpaces it on long ones), so the solver proceeds in
    windows from the terminal end: it first attempts the whole horizon,
    starting from the terminal data extended constantly in time, and
    whenever the iterate distances stop decreasing or a pass loses
    finiteness it bisects the window and resumes from the terminal side,
    each window starting from its own terminal slice extended constantly.

    A time-consistent model has no coupling, so the second pass reproduces
    the first bitwise and the iteration stops at two with a single
    full-horizon window. The report's trace holds one ``PicardWindow`` per
    converged window; within each, distances after the first decrease
    strictly.

    A pass skips work whose result it already knows bit for bit. Slices
    below a window's terminal slice that the pass before reproduced exactly
    (``v`` and ``j`` distance 0), and the slice below them, are not
    stepped; a new slice is scanned for non-finite values only when its
    distance is not finite, which any non-finite value in it makes it; and
    the upper half of a failed window replays the failed window's passes,
    which are bitwise its own on its slices, instead of stepping them
    again. Pass counts, distances and fields are those of stepping and
    scanning every slice of every pass.

    Memory: the output fields, in which every window iterates in place,
    plus a few slices' worth per pass: one slice buffer, the previous
    iterate's ``v`` and ``alpha`` rows and its coupling derivatives on the
    diagonal, and the per-slice distances each pass records.

    Raises
    ------
    ConfigError
        A tolerance that is not positive and finite, ``max_iter < 2``, or a
        time step above the diffusion stability bound.
    NumericError
        Non-finite terminal data or controls, with the slice and node named;
        as ``PicardError`` if a single-step window still fails to converge,
        carrying the full distance trace for diagnosis.
    """
    _check_iteration_settings(tol, max_iter)
    st, sigma_max, ratio = _stepper(model, grid)
    fields = _terminal_fields(st, grid.n_t)

    trace, passes = [], []
    pending = [(0, grid.n_t)]
    while pending:
        lo, hi = pending.pop()
        status, distances, passes = _iterate_window(st, lo, hi, fields, tol, max_iter,
                                                    passes)
        if status == "ok":
            trace.append(PicardWindow(k_lo=lo, k_hi=hi, distances=tuple(distances)))
            passes = []  # the next window ends at lo
            continue
        if hi - lo < 2:
            trace.append(PicardWindow(k_lo=lo, k_hi=hi, distances=tuple(distances)))
            raise PicardError(
                f"no convergence on slices [{lo}, {hi}] ({status} after "
                f"{len(distances)} passes, last distances "
                f"{[f'{d:.3g}' for d in distances[-3:]]})",
                trace=tuple(trace))
        mid = (lo + hi) // 2
        pending.append((lo, mid))
        pending.append((mid, hi))  # next, with this window's passes

    # converged everywhere: each window's first control slice was rewritten
    # by the window ending there; slice 0 takes its control from the final
    # fields, as in the sweep
    v, j, alpha = fields
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as in the sweep
        _slice_control(st, st.nodes[0], v[0], _diag_fields(j[0], st.dx), alpha[0])
    _check_finite("control field", alpha)  # as in the sweep
    report = SchemeReport(mode="picard", sigma_max=sigma_max, stability_ratio=ratio,
                          iterations=sum(len(w.distances) for w in trace),
                          trace=tuple(trace))
    return GridSolution(grid=grid, v=v, j=j, alpha=alpha, report=report)


def extract_gain(sol: GridSolution, params: LqrParams) -> GainSchedule:
    """Least-squares affine fit of the control field, slice by slice.

    The fit runs over the central half of the state grid, away from the
    extrapolated boundary; ``k_state = -slope`` and ``c_offset = -intercept``
    per slice, with the sup-norm fit residual recorded. A residual above
    ``1e-3 * (1 + max|control|)`` triggers a non-linearity warning: the model
    under the solve was probably not affine in the state.
    """
    grid = sol.grid
    n_x = grid.n_x
    lo, hi = n_x // 4, n_x - n_x // 4
    xc = grid.xs[lo:hi + 1]
    ac = sol.alpha[:, lo:hi + 1]
    x_bar = xc.mean()
    var = float(np.sum((xc - x_bar) ** 2))
    a_bar = ac.mean(axis=1)
    slope = (ac - a_bar[:, None]) @ (xc - x_bar) / var
    intercept = a_bar - slope * x_bar
    fit = slope[:, None] * xc[None, :] + intercept[:, None]
    residual = np.max(np.abs(ac - fit), axis=1)
    thresh = 1e-3 * (1.0 + float(np.max(np.abs(ac))))
    if float(np.max(residual)) > thresh:
        warnings.warn(
            f"control field is not affine in the state (fit residual "
            f"{float(np.max(residual)):.3g} > {thresh:.3g})")
    return GainSchedule(grid=TimeGrid(n_steps=grid.n_t, horizon=grid.horizon),
                        k_state=-slope, c_offset=-intercept,
                        label=GainLabel.CUSTOM, fit_residual=residual)


def diagonal_residual(sol: GridSolution) -> float:
    """Sup distance between the value field and the indexed field's diagonal.

    Restricted to the central half of the state grid, over every time slice.
    The terminal slice contributes exactly zero (shared terminal data); the
    rest shrinks under refinement if the two fields discretize the same
    diagonal identity.
    """
    n_x = sol.grid.n_x
    lo, hi = n_x // 4, n_x - n_x // 4
    i = np.arange(lo, hi + 1)
    diag = sol.j[:, i, i]
    return float(np.max(np.abs(sol.v[:, i] - diag)))
