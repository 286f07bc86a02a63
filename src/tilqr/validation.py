"""Built-in benchmark checks behind the ``validate`` subcommand.

Each check pins one correctness property of the toolkit at the benchmark
parameter set (a_bar=0.5, b_bar=1, sigma=0.5, gamma=5, horizon=1, x0=1):
closed-form agreement, terminal identities, reduction to the classical
theory when the anchor coupling is absent, oracle equivalence between the
exact-cost route and both the ansatz value and Monte Carlo, qualitative
ordering of the strategies, grid-solver accuracy against the coefficient
ODEs, and bitwise determinism. The checks are self-contained so the test
suite and the command line can share them.

Details are formatted comma-free so they drop into CSV rows unquoted.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .evaluation import exact_cost, gamma_sweep
from .hjbgrid import (
    GridSpec2,
    diagonal_residual,
    extract_gain,
    solve_extended_hjb_picard,
    solve_extended_hjb_sweep,
)
from .model import (
    LqrParams,
    ModelSpec,
    augment_time_dependent,
    inconsistency_adjustment,
    lqr_model,
)
from .montecarlo import (_CHUNK, SimConfig, _reduce_paths, _streaming_estimates,
                         estimate_cost_streaming)
from .riccati import (
    GainLabel,
    GainSchedule,
    TimeGrid,
    closed_form_p,
    equilibrium_gain,
    equilibrium_value,
    naive_gain,
    rk4_backward,
    solve_equilibrium_riccati,
    solve_naive,
    strategy_gains,
)

BENCHMARK = LqrParams()

# refinement ladder of checks 9 and 10: each level has four times the time
# slices and twice the space cells, so dt / dx^2 stays fixed
_LADDER = tuple(GridSpec2(n_t=n_t, n_x=n_x, x_lo=-3.0, x_hi=5.0, horizon=BENCHMARK.horizon)
                for n_t, n_x in ((25, 40), (100, 80), (400, 160)))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one benchmark check."""

    criterion: int
    name: str
    passed: bool
    detail: str


def _e(v: float) -> str:
    return f"{float(v):.3e}"


def _check_riccati_closed_form() -> CheckResult:
    p = BENCHMARK
    errs = []
    for n in (250, 500, 1000):
        grid = TimeGrid(n_steps=n, horizon=p.horizon)
        sol = solve_naive(p, grid)
        errs.append(float(np.max(np.abs(sol.p - closed_form_p(p, grid.nodes)))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    passed = errs[-1] <= 1e-8 and min(orders) >= 3.7
    detail = (f"sup|p - closed form| = {_e(errs[-1])} at 1000 steps; "
              f"orders {orders[0]:.2f} and {orders[1]:.2f}")
    return CheckResult(1, "riccati-closed-form", passed, detail)


def _check_terminal_identities() -> CheckResult:
    p = BENCHMARK
    grid = TimeGrid(n_steps=400, horizon=p.horizon)
    eq = solve_equilibrium_riccati(p, grid)
    nav = solve_naive(p, grid)
    exact = (eq.a[-1] == 0.5 * p.gamma and eq.c[-1] == -p.gamma and eq.h[-1] == 0.0
             and nav.p[-1] == 0.5 * p.gamma and nav.q[-1] == -p.gamma)
    k_eq_T = abs(float(equilibrium_gain(eq, p).k_state[-1]))
    k_nv_T = abs(float(naive_gain(nav, p).k_state[-1]))
    passed = exact and k_eq_T <= 1e-12 and k_nv_T <= 1e-12
    detail = (f"terminal coefficients bit-exact: {exact}; "
              f"|K_eq(T)| = {_e(k_eq_T)}; |K_naive(T)| = {_e(k_nv_T)}")
    return CheckResult(2, "terminal-identities", passed, detail)


def _check_consistency_reduction() -> CheckResult:
    # With a y-independent terminal cost the cross coefficient starts at zero
    # and its homogeneous linear ODE keeps it there, so the coupled system
    # must collapse onto the classical Riccati equation (naive p) at the gain level.
    p = BENCHMARK
    ab, bb = p.a_bar, p.b_bar

    def coupled(t, y):
        a, c = y
        s = 2.0 * a + c
        return np.array([-2.0 * ab * a + 2.0 * bb * bb * a * s - 0.5 * bb * bb * s * s,
                         -ab * c + bb * bb * c * s])

    grid = TimeGrid(n_steps=1000, horizon=p.horizon)
    eq = rk4_backward(coupled, [0.5 * p.gamma, 0.0], grid)
    classical = solve_naive(p, grid).p
    gap = float(np.max(np.abs(bb * (2.0 * eq[:, 0] + eq[:, 1]) - 2.0 * bb * classical)))
    detail = f"sup|K_eq - K_classical| = {_e(gap)} with uncoupled terminal data"
    return CheckResult(3, "consistency-reduction", gap <= 1e-8, detail)


def _zero_control_closed_form(p: LqrParams) -> float:
    # E[X_t^2] = (x0^2 + sigma^2/(2 a_bar)) e^{2 a_bar t} - sigma^2/(2 a_bar)
    # under zero control; integrate the terminal penalty expansion exactly.
    ab, s2, T, x0, g = p.a_bar, p.sigma ** 2, p.horizon, p.x0, p.gamma
    m2 = (x0 ** 2 + s2 / (2 * ab)) * math.exp(2 * ab * T) - s2 / (2 * ab)
    m1 = x0 * math.exp(ab * T)
    return 0.5 * g * (m2 - 2 * x0 * m1 + x0 ** 2)


def _check_zero_control_cost() -> CheckResult:
    p = BENCHMARK
    grid = TimeGrid(n_steps=1000, horizon=p.horizon)
    zeros = np.zeros(grid.n_steps + 1)
    gain = GainSchedule(grid=grid, k_state=zeros, c_offset=zeros, label=GainLabel.CUSTOM)
    total = exact_cost(gain, p).total
    ref = _zero_control_closed_form(p)
    err = abs(total - ref)
    detail = f"quadrature {total:.10f} vs closed form {ref:.10f}; |diff| = {_e(err)}"
    return CheckResult(4, "zero-control-cost", err <= 1e-6, detail)


def _check_ansatz_moment_match() -> CheckResult:
    p = BENCHMARK
    grid = TimeGrid(n_steps=1000, horizon=p.horizon)
    sol = solve_equilibrium_riccati(p, grid)
    via_moments = exact_cost(equilibrium_gain(sol, p), p).total
    via_ansatz = equilibrium_value(sol, p, 0, p.x0)
    err = abs(via_moments - via_ansatz)
    detail = f"moment route {via_moments:.10f} vs ansatz {via_ansatz:.10f}; |diff| = {_e(err)}"
    return CheckResult(5, "ansatz-moment-match", err <= 1e-6, detail)


def _check_monte_carlo_agreement() -> CheckResult:
    p = BENCHMARK
    config = SimConfig(n_paths=100_000, n_steps=1000, seed=42)
    parts, passed = [], True
    gains = strategy_gains(p, TimeGrid(config.n_steps, p.horizon))
    # the three gains share each noise chunk; every estimate equals its own
    # estimate_cost_streaming call bit for bit
    estimates = _streaming_estimates(list(gains.values()), p, config)
    for (label, gain), est in zip(gains.items(), estimates):
        ref = exact_cost(gain, p).total
        gap = abs(est.mean - ref)
        ok = gap <= 3.0 * est.stderr
        passed = passed and ok
        parts.append(f"{label.value}: |mc - exact| = {_e(gap)} vs 3se = {_e(3 * est.stderr)}")
    return CheckResult(6, "monte-carlo-agreement", passed, "; ".join(parts))


def _check_gamma_sweep_dominance() -> CheckResult:
    p = BENCHMARK
    grid = TimeGrid(n_steps=1000, horizon=p.horizon)
    gammas = np.linspace(0.0, 10.0, 20)
    table = gamma_sweep(p, gammas, grid)
    worst = float(np.max(table.j_equilibrium - table.j_naive))
    at_zero = max(abs(table.j_equilibrium[0]), abs(table.j_naive[0]),
                  abs(table.j_precommitted[0]))
    passed = worst <= 1e-9 and at_zero <= 1e-12
    detail = (f"max(J_eq - J_naive) = {_e(worst)} over 20 gammas in [0 10]; "
              f"costs at gamma=0 bounded by {_e(at_zero)}")
    return CheckResult(7, "gamma-sweep-dominance", passed, detail)


def _check_initial_gain_ordering() -> CheckResult:
    # Qualitative claim; a violation is reported as a discrepancy rather
    # than failing the suite, since no printed constant pins these values.
    p = BENCHMARK
    gains = strategy_gains(p, TimeGrid(1000, p.horizon))
    k_nv = abs(float(gains[GainLabel.NAIVE].k_state[0]))
    k_eq = abs(float(gains[GainLabel.EQUILIBRIUM].k_state[0]))
    holds = k_nv > k_eq
    prefix = "holds" if holds else "discrepancy"
    detail = f"{prefix}: |K_naive(0)| = {k_nv:.6f} vs |K_eq(0)| = {k_eq:.6f}"
    return CheckResult(8, "initial-gain-ordering", True, detail)


def _check_grid_vs_riccati() -> CheckResult:
    p = BENCHMARK
    model = lqr_model(p)
    errs = []
    for grid in _LADDER:
        sweep = solve_extended_hjb_sweep(model, grid)
        fitted = extract_gain(sweep, p)
        ref = equilibrium_gain(solve_equilibrium_riccati(p, TimeGrid(grid.n_t, p.horizon)), p)
        errs.append(float(np.max(np.abs(fitted.k_state - ref.k_state))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]

    # the two modes are compared on the finest grid, whose sweep is the last one
    picard = solve_extended_hjb_picard(model, grid)
    mode_gap = max(float(np.max(np.abs(sweep.v - picard.v))),
                   float(np.max(np.abs(sweep.alpha - picard.alpha))),
                   float(np.max(np.abs(sweep.j - picard.j))))
    monotone = all(
        all(w.distances[i + 1] < w.distances[i] for i in range(1, len(w.distances) - 1))
        for w in picard.report.trace)

    passed = (errs[-1] <= 2e-2 and min(orders) >= 1.0
              and mode_gap <= 1e-8 and monotone)
    detail = (f"gain error {_e(errs[-1])} at 160 cells; orders {orders[0]:.2f} "
              f"and {orders[1]:.2f}; |sweep - picard| = {_e(mode_gap)}; "
              f"windows contract monotonically after pass 1: {monotone}")
    return CheckResult(9, "grid-vs-riccati", passed, detail)


def _check_diagonal_identity() -> CheckResult:
    p = BENCHMARK
    model = lqr_model(p)
    residuals, terminal_exact = [], True
    for grid in _LADDER:
        sol = solve_extended_hjb_sweep(model, grid)
        residuals.append(diagonal_residual(sol))
        diag = sol.j[-1][np.arange(grid.n_x + 1), np.arange(grid.n_x + 1)]
        terminal_exact = terminal_exact and bool(np.all(sol.v[-1] == diag))
    if max(residuals) <= 1e-10:
        # quadratic fields make the diagonal update exact; refinement order
        # is measured on a quartic variant in the test suite instead
        passed = terminal_exact
        detail = (f"residuals at machine precision: {' '.join(_e(r) for r in residuals)}; "
                  f"terminal slice exact: {terminal_exact}")
    else:
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        passed = terminal_exact and min(orders) >= 1.0
        detail = (f"residuals {' '.join(_e(r) for r in residuals)}; orders "
                  f"{orders[0]:.2f} and {orders[1]:.2f}; terminal slice exact: {terminal_exact}")
    return CheckResult(10, "diagonal-identity", passed, detail)


def _clock_preference_model(rng: np.random.Generator) -> ModelSpec:
    c = rng.normal(size=8)

    def drift(t, x, a):
        return c[0] * x + c[1] * a

    def vol(t, x):
        return 1.0 + 0.1 * math.tanh(c[2] * x)

    def running_cost(t, pref, x, a):
        return 0.5 * a * a + c[3] * pref * x

    def terminal_cost(pref, x):
        return c[4] * (x - c[5] * pref) ** 2

    return ModelSpec(
        drift=drift, vol=vol,
        running_cost=running_cost, terminal_cost=terminal_cost,
        dy_running=lambda t, pref, x, a: c[3] * x,
        dyy_running=lambda t, pref, x, a: 0.0,
        dy_terminal=lambda pref, x: -2.0 * c[4] * c[5] * (x - c[5] * pref),
        dyy_terminal=lambda pref, x: 2.0 * c[4] * c[5] ** 2,
        maximizer=lambda g: -c[1] * g,
    )


def _check_clock_augmentation() -> CheckResult:
    rng = np.random.default_rng(0)
    worst = 0.0
    spatial_zero = True
    for _ in range(100):
        mu, sig = rng.normal(), rng.lognormal()
        g_clock, h_clock, m_clock = rng.normal(size=3)
        # preferences read only the clock slot, so every anchor-slot
        # derivative is zero while the clock slots stay arbitrary
        adjustment = inconsistency_adjustment(
            drift_vec=[1.0, mu],
            sigma_mat=[[0.0], [sig]],
            grad_y=[g_clock, 0.0],
            hess_yy=[[h_clock, 0.0], [0.0, 0.0]],
            hess_xy=[[m_clock, rng.normal()], [0.0, 0.0]],
        )
        worst = max(worst, abs(adjustment - g_clock))

        aug = augment_time_dependent(_clock_preference_model(rng))
        t, pref, x, a = rng.normal(size=4)
        yv, xv = np.array([pref, rng.normal()]), np.array([t, x])
        spatial_zero = spatial_zero and (
            aug.dy_running(t, yv, xv, a)[1] == 0.0
            and aug.dy_terminal(yv, xv)[1] == 0.0
            and np.all(aug.dyy_running(t, yv, xv, a)[1:, :] == 0.0)
            and np.all(aug.dyy_terminal(yv, xv)[:, 1] == 0.0)
            and aug.drift(t, xv, a)[0] == 1.0
            and aug.vol(t, xv)[0, 0] == 0.0)
    passed = worst <= 1e-12 and spatial_zero
    detail = (f"max|adjustment - clock drift term| = {_e(worst)} over 100 draws; "
              f"spatial parameter slots exactly zero: {spatial_zero}")
    return CheckResult(11, "clock-augmentation", passed, detail)


def _check_determinism() -> CheckResult:
    p = BENCHMARK
    config = SimConfig(n_paths=2000, n_steps=200, seed=42)
    (gain,) = strategy_gains(p, TimeGrid(config.n_steps, p.horizon),
                             [GainLabel.EQUILIBRIUM]).values()
    b1 = _reduce_paths([gain], p, config, config.n_paths)
    b2 = _reduce_paths([gain], p, config, config.n_paths)
    rerun_equal = bool(np.array_equal(b1.states, b2.states)
                       and np.array_equal(b1.controls, b2.controls))
    # the worker half needs more than one chunk, or neither run pools its chunks
    pooled = replace(config, n_paths=2 * _CHUNK + 6)
    e1 = estimate_cost_streaming(gain, p, pooled, workers=1)
    e4 = estimate_cost_streaming(gain, p, pooled, workers=4)
    workers_equal = e1.mean == e4.mean and e1.stderr == e4.stderr
    passed = rerun_equal and workers_equal
    detail = (f"rerun bitwise equal: {rerun_equal}; "
              f"1 vs 4 workers bitwise equal: {workers_equal}")
    return CheckResult(12, "determinism", passed, detail)


_CHECKS = (
    _check_riccati_closed_form,
    _check_terminal_identities,
    _check_consistency_reduction,
    _check_zero_control_cost,
    _check_ansatz_moment_match,
    _check_monte_carlo_agreement,
    _check_gamma_sweep_dominance,
    _check_initial_gain_ordering,
    _check_grid_vs_riccati,
    _check_diagonal_identity,
    _check_clock_augmentation,
    _check_determinism,
)


def run_all() -> tuple:
    """Run every benchmark check in order.

    Returns
    -------
    (results, timings)
        ``results`` is a list of :class:`CheckResult`; ``timings`` maps check
        names to wall-clock seconds. Timings never enter serialized output,
        which must stay byte-identical across runs.
    """
    results, timings = [], {}
    for check in _CHECKS:
        start = time.perf_counter()
        result = check()
        timings[result.name] = time.perf_counter() - start
        results.append(result)
    return results, timings
