"""Tests for the coupled finite-difference solver and its two modes."""

import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilqr import hjbgrid
from tilqr import (
    ConfigError,
    GridSolution,
    GridSpec2,
    LqrParams,
    NumericError,
    PicardError,
    SchemeReport,
    SimConfig,
    TimeGrid,
    diagonal_residual,
    equilibrium_gain,
    equilibrium_value,
    estimate_cost_streaming,
    exact_cost,
    extract_gain,
    lqr_model,
    solve_equilibrium_riccati,
    solve_extended_hjb_picard,
    solve_extended_hjb_sweep,
)
from toolchain import pin_mismatch

PARAMS = LqrParams()
MODEL = lqr_model(PARAMS)


def benchmark_grid(n_t: int, n_x: int) -> GridSpec2:
    return GridSpec2(n_t=n_t, n_x=n_x, x_lo=-3.0, x_hi=5.0, horizon=PARAMS.horizon)


def reference_gain(n_t: int):
    grid = TimeGrid(n_t, PARAMS.horizon)
    return equilibrium_gain(solve_equilibrium_riccati(PARAMS, grid), PARAMS)


def time_consistent_model():
    """Benchmark dynamics with a parameter-free terminal cost."""
    return replace(
        MODEL,
        terminal_cost=lambda y, x: 0.5 * np.asarray(x, dtype=float) ** 2 + 0.0 * y)


def quartic_perturbed_model(eps: float = 0.1):
    """Benchmark terminal cost plus a small quartic term in the anchored miss.

    Quadratic fields advance the diagonal of the indexed field and the value
    field through identical arithmetic, so the diagonal residual of the plain
    benchmark sits at rounding level. The quartic term breaks that exactness
    without destabilizing the explicit scheme, giving the residual a genuine
    discretization error whose decay under refinement can be measured.
    """
    g = PARAMS.gamma
    return replace(
        MODEL,
        terminal_cost=lambda y, x: 0.5 * g * (x - y) ** 2 + 0.25 * eps * (x - y) ** 4)


def hopeless_model():
    # a maximizer this size loses finiteness on the first pass of any window
    return replace(MODEL,
                   maximizer=lambda grad: 1e200 + 0.0 * np.asarray(grad, dtype=float))


def one_sided_diag_fields(jslice, dx):
    """Diagonal coupling derivatives with second-order forward differences in
    the parameter direction where the stencil fits, centered elsewhere."""
    n_x = jslice.shape[0] - 1
    i = np.arange(1, n_x)
    d_y = (jslice[i, i + 1] - jslice[i, i - 1]) / (2.0 * dx)
    d_yy = (jslice[i, i + 1] - 2.0 * jslice[i, i] + jslice[i, i - 1]) / dx ** 2
    d_xy = (jslice[i + 1, i + 1] - jslice[i + 1, i - 1]
            - jslice[i - 1, i + 1] + jslice[i - 1, i - 1]) / (4.0 * dx * dx)
    ok = i <= n_x - 3
    s = i[ok]
    fwd = lambda r: (-3.0 * jslice[r, s] + 4.0 * jslice[r, s + 1] - jslice[r, s + 2]) / (2.0 * dx)
    d_y[ok] = fwd(s)
    d_yy[ok] = (2.0 * jslice[s, s] - 5.0 * jslice[s, s + 1]
                + 4.0 * jslice[s, s + 2] - jslice[s, s + 3]) / dx ** 2
    d_xy[ok] = (fwd(s + 1) - fwd(s - 1)) / (2.0 * dx)
    return d_y, d_yy, d_xy


def lqr_grid_coefficients(params: LqrParams, n_t: int) -> np.ndarray:
    """The grid solve at the LQR as an explicit-Euler recursion of nine numbers.

    The fields stay quadratic, ``j = A x^2 + B xy + C y^2 + D x + E y + F``
    and ``v = P x^2 + Q x + R``, and the centered differences and the
    quadratic edge extrapolation are exact on quadratics. With the effective
    gradient ``g = G1 x + G0`` (``G1 = 2P - B - 2C``, ``G0 = Q - E``), the
    control ``-b_bar g`` and the drift ``m1 x + m0``, each slice step is one
    Euler step of the coefficients, the forward-Euler form of the
    equilibrium Riccati system. Row ``k`` holds slice ``k``'s
    ``(A, B, C, D, E, F, P, Q, R)``.
    """
    ab, bb2, sg2 = params.a_bar, params.b_bar ** 2, params.sigma ** 2
    dt = params.horizon / n_t
    out = np.empty((n_t + 1, 9))
    out[n_t] = 0.5 * params.gamma, -params.gamma, 0.5 * params.gamma, 0, 0, 0, 0, 0, 0
    for k in range(n_t - 1, -1, -1):
        A, B, C, D, E, F, P, Q, R = out[k + 1]
        g1, g0 = 2.0 * P - B - 2.0 * C, Q - E
        m1, m0 = ab - bb2 * g1, -bb2 * g0
        out[k] = (A + dt * (0.5 * bb2 * g1 * g1 + 2.0 * A * m1),
                  B + dt * m1 * B,
                  C,
                  D + dt * (bb2 * g1 * g0 + m1 * D + 2.0 * A * m0),
                  E + dt * m0 * B,
                  F + dt * (0.5 * bb2 * g0 * g0 + m0 * D + sg2 * A),
                  P + dt * (ab - 0.5 * bb2 * g1) * g1,
                  Q + dt * (ab - bb2 * g1) * g0,
                  R + dt * (sg2 * (P - B - C) - 0.5 * bb2 * g0 * g0))
    return out


def assert_solves_the_recursion(sol: GridSolution, params: LqrParams = PARAMS):
    """Gains to 1e-12, fields to 1e-12 of their largest value."""
    A, B, C, D, E, F, P, Q, R = (c[:, None, None] for c in
                                 lqr_grid_coefficients(params, sol.grid.n_t).T)
    x, y = sol.grid.xs[:, None], sol.grid.xs[None, :]
    j = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    v = (P * x * x + Q * x + R)[:, :, 0]
    gain = extract_gain(sol, params)
    assert np.max(np.abs(gain.k_state - params.b_bar * (2.0 * P - B - 2.0 * C).ravel())) < 1e-12
    assert np.max(np.abs(gain.c_offset - params.b_bar * (Q - E).ravel())) < 1e-12
    assert np.max(np.abs(sol.v - v)) < 1e-12 * np.max(np.abs(v))
    assert np.max(np.abs(sol.j - j)) < 1e-12 * np.max(np.abs(j))


class TestGridSpec2:
    def test_parameter_grid_defaults_to_the_state_grid(self):
        grid = GridSpec2(n_t=10, n_x=8, x_lo=-1.0, x_hi=3.0, horizon=1.0)
        assert grid.n_y == 8

    def test_node_arrays_and_spacings(self):
        grid = GridSpec2(n_t=4, n_x=8, x_lo=-1.0, x_hi=3.0, horizon=2.0)
        assert grid.xs[0] == -1.0
        assert grid.xs[-1] == 3.0
        assert grid.xs.size == 9
        assert grid.dx == 0.5
        assert grid.dt == 0.5

    @pytest.mark.parametrize("kwargs, match", [
        (dict(n_t=0), "n_t"),
        (dict(n_x=3), "at least 4"),
        (dict(x_lo=2.0, x_hi=2.0), "x_lo < x_hi"),
        (dict(x_hi=math.inf), "must be finite"),
        (dict(horizon=0.0), "horizon"),
        (dict(x_lo=-math.inf), "must be finite"),
        (dict(x_hi=math.nan), "must be finite"),
        (dict(x_hi=1e308), "not a positive finite number"),
        (dict(x_lo=-1e308, x_hi=1e308), "not a positive finite number"),
        (dict(x_lo=0.0, x_hi=1e-300), "not a positive finite number"),
        (dict(horizon=math.nan), "horizon"),
        (dict(horizon=math.inf), "horizon"),
        (dict(n_t=4, horizon=5e-324), "gives a zero time step"),
    ])
    def test_rejects_bad_settings(self, kwargs, match):
        base = dict(n_t=10, n_x=8, x_lo=-1.0, x_hi=3.0, horizon=1.0)
        base.update(kwargs)
        with pytest.raises(ConfigError, match=match):
            GridSpec2(**base)


class TestStability:
    def test_time_step_above_the_diffusion_bound_rejected(self):
        # dx = 0.05, sigma = 0.5: admissible dt is 0.0025 / (1.05 * 0.25)
        with pytest.raises(ConfigError, match=r"unstable.*n_t >= 105"):
            solve_extended_hjb_sweep(MODEL, benchmark_grid(10, 160))

    def test_report_records_the_stability_margin(self):
        grid = benchmark_grid(25, 40)
        report = solve_extended_hjb_sweep(MODEL, grid).report
        assert report.mode == "sweep"
        assert report.iterations == 1
        assert report.sigma_max == PARAMS.sigma
        assert report.stability_ratio == pytest.approx(
            PARAMS.sigma ** 2 * grid.dt / grid.dx ** 2, rel=1e-12)
        assert report.stability_ratio < 1.0

    @pytest.mark.parametrize("solver", [solve_extended_hjb_sweep, solve_extended_hjb_picard])
    def test_a_volatility_spike_between_coarse_samples_is_bounded(self, solver):
        # vol = 5 only on 0.505 < t < 0.52, which holds time node t = 0.51 of
        # 100 slices but none of 33 evenly spread samples; at dx = 0.1 the
        # spike's diffusion ratio is 25, far above the bound of 1 / 1.05
        model = replace(MODEL, vol=lambda t, x: (5.0 if 0.505 < t < 0.52 else 0.5)
                        + 0.0 * np.asarray(x, dtype=float))
        with pytest.raises(ConfigError, match=r"unstable.*n_t >= 2625$"):
            solver(model, benchmark_grid(100, 80))

    def test_nonpositive_volatility_rejected(self):
        flat = replace(MODEL, vol=lambda t, x: 0.0 * np.asarray(x, dtype=float))
        with pytest.raises(ConfigError, match="volatility"):
            solve_extended_hjb_sweep(flat, benchmark_grid(25, 40))

    @pytest.mark.parametrize("solver", [solve_extended_hjb_sweep, solve_extended_hjb_picard])
    @pytest.mark.parametrize("sigma, match", [
        (1e200, "square that is a positive finite number"),   # it overflows
        (1e-200, "square that is a positive finite number"),  # it underflows to 0
        (1.32e154, r"unstable.*n_t >= inf"),  # 1.05 sigma^2 overflows
    ])
    def test_volatility_square_must_be_a_positive_finite_number(self, solver, sigma, match):
        model = replace(MODEL, vol=lambda t, x: sigma + 0.0 * np.asarray(x, dtype=float))
        with pytest.raises(ConfigError, match=match):
            solver(model, benchmark_grid(25, 40))


class TestCorrectedHamiltonian:
    """The slot and volatility checks of the corrected Hamiltonian, which
    each solve step runs before it optimizes the control."""

    @pytest.mark.parametrize("solve", [solve_extended_hjb_sweep, solve_extended_hjb_picard],
                             ids=["sweep", "picard"])
    def test_a_non_finite_slot_is_named(self, solve):
        # the terminal data are finite, but their difference across the
        # diagonal overflows the parameter gradient
        model = replace(MODEL, terminal_cost=lambda y, x: 1.5e308 * np.tanh(1e6 * (y - x)))
        with pytest.raises(NumericError, match=r"^non-finite value in Hamiltonian "
                                               r"slot 'grad_param'$") as info:
            solve(model, benchmark_grid(25, 40))
        assert not isinstance(info.value, PicardError)

    @pytest.mark.parametrize("solve", [solve_extended_hjb_sweep, solve_extended_hjb_picard],
                             ids=["sweep", "picard"])
    def test_a_volatility_negative_on_part_of_the_grid_is_rejected(self, solve):
        # the stability bound reads only the largest volatility, 0.5
        model = replace(MODEL, vol=lambda t, x: np.where(x < 0, -0.5, 0.5))
        with pytest.raises(ConfigError, match="^model volatility must be positive and finite$"):
            solve(model, benchmark_grid(25, 40))


class TestSweep:
    def test_recovers_the_riccati_gain(self):
        sol = solve_extended_hjb_sweep(MODEL, benchmark_grid(100, 80))
        fitted = extract_gain(sol, PARAMS)
        ref = reference_gain(100)
        assert float(np.max(np.abs(fitted.k_state - ref.k_state))) <= 7e-3
        assert float(np.max(np.abs(fitted.c_offset - ref.c_offset))) <= 1e-12
        assert float(np.max(fitted.fit_residual)) <= 1e-10

    def test_gain_error_shrinks_under_refinement(self):
        errors = []
        for n_t, n_x in ((25, 40), (100, 80)):
            sol = solve_extended_hjb_sweep(MODEL, benchmark_grid(n_t, n_x))
            fitted = extract_gain(sol, PARAMS)
            ref = reference_gain(n_t)
            errors.append(float(np.max(np.abs(fitted.k_state - ref.k_state))))
        assert np.log2(errors[0] / errors[1]) >= 1.5

    def test_dropping_the_coupling_terms_removes_the_gain(self, monkeypatch):
        # the anchored terminal cost vanishes on the diagonal, so without the
        # parameter-coupling correction the optimal control collapses to zero
        def no_coupling(jslice, dx):
            zeros = np.zeros(jslice.shape[0] - 2)
            return zeros, zeros, zeros

        monkeypatch.setattr(hjbgrid, "_diag_fields", no_coupling)
        sol = solve_extended_hjb_sweep(MODEL, benchmark_grid(100, 80))
        fitted = extract_gain(sol, PARAMS)
        assert abs(fitted.k_state[0]) <= 1e-12
        assert abs(reference_gain(100).k_state[0]) > 0.5

    def test_one_sided_diagonal_stencil_agrees_on_quadratic_fields(self, monkeypatch):
        grid = benchmark_grid(100, 80)
        centered = solve_extended_hjb_sweep(MODEL, grid)
        monkeypatch.setattr(hjbgrid, "_diag_fields", one_sided_diag_fields)
        one_sided = solve_extended_hjb_sweep(MODEL, grid)
        assert not np.array_equal(centered.alpha, one_sided.alpha)  # the stencil was used
        assert float(np.max(np.abs(centered.alpha - one_sided.alpha))) <= 1e-10

    def test_zero_penalty_gives_identically_zero_fields(self):
        model = lqr_model(LqrParams(gamma=0.0))
        sol = solve_extended_hjb_sweep(model, benchmark_grid(25, 40))
        assert np.all(sol.v == 0.0)
        assert np.all(sol.j == 0.0)
        assert np.all(sol.alpha == 0.0)

    def test_field_shapes_and_readonly(self):
        grid = benchmark_grid(25, 40)
        sol = solve_extended_hjb_sweep(MODEL, grid)
        assert sol.v.shape == (26, 41)
        assert sol.j.shape == (26, 41, 41)
        assert sol.alpha.shape == (26, 41)
        with pytest.raises(ValueError):
            sol.v[0, 0] = 1.0

    def test_blowup_names_the_slice(self):
        grid = GridSpec2(n_t=2, n_x=8, x_lo=-1.0, x_hi=1.0, horizon=0.1)
        # the value field fails first here, so the node has one index or two;
        # either way it prints as plain ints
        with pytest.raises(NumericError,
                           match=r"blew up at time slice \d+, node \(\d+,( \d+)?\)"):
            solve_extended_hjb_sweep(hopeless_model(), grid)

    @pytest.mark.parametrize("solve", [solve_extended_hjb_sweep, solve_extended_hjb_picard],
                             ids=["sweep", "picard"])
    def test_overflowing_terminal_data_names_the_last_slice(self, solve):
        # the terminal penalty's square overflows at the corners of the
        # indexed field; both modes name it before any step
        grid = GridSpec2(n_t=10, n_x=160, x_lo=-1e154, x_hi=1e154, horizon=PARAMS.horizon)
        with pytest.raises(NumericError,
                           match=r"^indexed field blew up at time slice 10, node \(\d+, \d+\)$") as info:
            solve(MODEL, grid)
        assert not isinstance(info.value, PicardError)

    @pytest.mark.parametrize("solve", [solve_extended_hjb_sweep, solve_extended_hjb_picard],
                             ids=["sweep", "picard"])
    def test_a_non_finite_slice_0_control_names_its_node(self, solve):
        # slice 0's control is set after the last step, so no field check
        # saw its NaN: both modes returned it, and the CLI printed K(0) = nan
        model = lqr_model(LqrParams(b_bar=1.7e308))
        grid = GridSpec2(n_t=1, n_x=5, x_lo=0.0, x_hi=5.0, horizon=1.0)
        with pytest.raises(NumericError,
                           match=r"^control field blew up at time slice 0, node \(0,\)$"):
            solve(model, grid)


# SHA-256 of the 100 x 80 solutions: the float64 bytes of v, j and alpha of
# the sweep, then of Picard, then each Picard window's (k_lo, k_hi) as int64
# and its distances as float64. It pins every bit, so that a rewrite of the
# solver for speed that changes any rounding or any distance fails here.
SOLVED_100X80_SHA256 = "1a56d1170d9062fcabf4c20338ff04dd1517581cf2922d17599bb28d620d163d"


# The same digest for the 25 x 40 solutions under a volatility that depends
# on both t and x, so that it also pins at which time and nodes each step
# evaluates the volatility; the constant benchmark volatility cannot.
SOLVED_VARYING_VOL_25X40_SHA256 = (
    "5e340372a00d1aca3480f8cb186b8bd56fbfb01a903d4508df9ae564dbce7f48")


# The same digest of Picard alone, for solves whose windows take each of the
# paths of the upper half-window's handover: failures nested three deep,
# failed windows whose last pass lost finiteness part way, and a half that
# steps on in place and then fails too (horizon 3 at 300 x 60, and a_bar = -1
# with gamma = 20 at 200 x 60), and an upper half that converges inside the
# failed window's passes (tol 70, max_iter 2 at 100 x 80).
HORIZON_3_300X60_SHA256 = "d1c01161a9fa18a51848f91bf252dc0a7090e54b472f304a566e2d6528a2f5a2"
STABLE_DRIFT_200X60_SHA256 = "34b621203b61e761e4e887f86be1444bbb25ce6eeef7abd59672703511e03443"
LOOSE_TOL_100X80_SHA256 = "9375ca4695dc84248a404dd16123255f7f0da2d26a462b711bcb42d49ad15974"
# The digest of the trace of a PicardError reached through a chain of failed
# upper halves (tol 0.1, max_iter 2 at 100 x 80).
ONE_SLICE_FAILURE_TRACE_SHA256 = (
    "692a3aba9df8f54f6a3aaa1fd90e7c52b29aadba943dc7de858264613fa4f4cf")


def solutions_sha256(*solutions, trace=None) -> str:
    """The fields of each solution, then the trace: by default the last
    solution's."""
    h = hashlib.sha256()
    for sol in solutions:
        for field in (sol.v, sol.j, sol.alpha):
            h.update(np.ascontiguousarray(field, dtype=np.float64).tobytes())
    for window in solutions[-1].report.trace if trace is None else trace:
        h.update(np.array([window.k_lo, window.k_hi], dtype=np.int64).tobytes())
        h.update(np.array(window.distances, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def solved_100x80():
    """Sweep and Picard solutions of the benchmark on one 100 x 80 grid."""
    grid = benchmark_grid(100, 80)
    return solve_extended_hjb_sweep(MODEL, grid), solve_extended_hjb_picard(MODEL, grid)


class TestPicard:
    def test_fixed_point_matches_the_sweep(self, solved_100x80):
        sweep, picard = solved_100x80
        gap = max(float(np.max(np.abs(sweep.v - picard.v))),
                  float(np.max(np.abs(sweep.j - picard.j))),
                  float(np.max(np.abs(sweep.alpha - picard.alpha))))
        assert gap <= 1e-8
        assert picard.report.mode == "picard"

    def test_windows_partition_the_horizon_from_the_terminal_end(self, solved_100x80):
        _, picard = solved_100x80
        trace = picard.report.trace
        assert trace[0].k_hi == 100
        assert trace[-1].k_lo == 0
        for earlier, later in zip(trace, trace[1:]):
            assert later.k_hi == earlier.k_lo
        assert picard.report.iterations == sum(len(w.distances) for w in trace)

    def test_distances_decrease_after_the_first_pass(self, solved_100x80):
        _, picard = solved_100x80
        for window in picard.report.trace:
            d = window.distances
            assert len(d) >= 2
            assert all(d[i + 1] < d[i] for i in range(1, len(d) - 1))

    def test_fields_and_distances_are_bitwise_the_recorded_ones(self, solved_100x80):
        assert solutions_sha256(*solved_100x80) == SOLVED_100X80_SHA256, \
            pin_mismatch("SOLVED_100X80_SHA256")

    def test_state_and_time_dependent_volatility_is_bitwise_the_recorded_one(self):
        model = replace(MODEL, vol=lambda t, x: 0.5 * (1.0 + 0.2 * t) * (1.0 + 0.1 * np.tanh(x)))
        grid = benchmark_grid(25, 40)
        sweep = solve_extended_hjb_sweep(model, grid)
        picard = solve_extended_hjb_picard(model, grid)
        assert solutions_sha256(sweep, picard) == SOLVED_VARYING_VOL_25X40_SHA256, \
            pin_mismatch("SOLVED_VARYING_VOL_25X40_SHA256")

    @pytest.mark.parametrize("params, grid, kwargs, digest", [
        (replace(PARAMS, horizon=3.0), GridSpec2(n_t=300, n_x=60, x_lo=-3.0, x_hi=5.0,
                                                 horizon=3.0), {}, HORIZON_3_300X60_SHA256),
        (replace(PARAMS, a_bar=-1.0, gamma=20.0), benchmark_grid(200, 60), {},
         STABLE_DRIFT_200X60_SHA256),
        (PARAMS, benchmark_grid(100, 80), {"tol": 70.0, "max_iter": 2},
         LOOSE_TOL_100X80_SHA256),
    ], ids=["horizon-3", "stable-drift", "upper-half-starts-over"])
    def test_handed_over_passes_are_bitwise_the_recorded_ones(self, params, grid, kwargs,
                                                              digest):
        # recorded when every window ran all its passes itself
        picard = solve_extended_hjb_picard(lqr_model(params), grid, **kwargs)
        assert solutions_sha256(picard) == digest, pin_mismatch(f"the digest {digest}")

    def test_a_failure_after_handed_over_passes_keeps_its_trace_and_message(self):
        # every window from [0, 100] down to [99, 100] fails at max_iter, and
        # each upper half replays the passes of the window above it
        with pytest.raises(PicardError) as info:
            solve_extended_hjb_picard(MODEL, benchmark_grid(100, 80), tol=0.1, max_iter=2)
        assert str(info.value) == ("no convergence on slices [99, 100] (maxiter after 2 "
                                   "passes, last distances ['1.01', '0.125'])")
        assert solutions_sha256(trace=info.value.trace) == ONE_SLICE_FAILURE_TRACE_SHA256, \
            pin_mismatch("ONE_SLICE_FAILURE_TRACE_SHA256")

    def test_settled_slices_are_copied_not_stepped(self, monkeypatch):
        # 2150 slice steps when every pass steps every slice of its window,
        # 1834 when a pass copies only the slices that had distance 0 in the
        # pass before, 1797 when it also copies the one below them, and 1650
        # when the upper half [50, 100] of the failed window [0, 100] replays
        # that window's three passes instead of stepping slices 50-99 again
        steps = 0
        advance = hjbgrid._advance_slice

        def counted(*args):
            nonlocal steps
            steps += 1
            return advance(*args)

        monkeypatch.setattr(hjbgrid, "_advance_slice", counted)
        solve_extended_hjb_picard(MODEL, benchmark_grid(100, 80))
        assert steps == 1650

    def test_no_distance_is_a_negative_zero(self, solved_100x80):
        _, picard = solved_100x80
        for window in picard.report.trace:
            assert all(math.copysign(1.0, d) == 1.0 for d in window.distances)

    def test_volatility_is_evaluated_once_per_slice_control(self, monkeypatch):
        vol_calls = controls = 0
        grid = benchmark_grid(25, 40)

        def vol(t, x):
            nonlocal vol_calls
            vol_calls += 1
            return MODEL.vol(t, x)

        slice_control = hjbgrid._slice_control

        def counted(*args):
            nonlocal controls
            controls += 1
            return slice_control(*args)

        monkeypatch.setattr(hjbgrid, "_slice_control", counted)
        solve_extended_hjb_picard(replace(MODEL, vol=vol), grid)
        assert vol_calls == controls + grid.n_t + 1  # plus the stability bound's

    def test_scalar_volatility_gives_the_broadcast_one_bitwise(self):
        grid = benchmark_grid(25, 40)
        scalar = replace(MODEL, vol=lambda t, x: PARAMS.sigma)
        for solve in (solve_extended_hjb_sweep, solve_extended_hjb_picard):
            ref, sol = solve(MODEL, grid), solve(scalar, grid)
            for name in ("v", "j", "alpha"):
                assert np.array_equal(getattr(ref, name), getattr(sol, name))
            assert sol.report == ref.report

    def test_time_consistent_model_stops_after_two_passes(self):
        # without coupling the second pass reproduces the first bitwise
        grid = GridSpec2(n_t=50, n_x=40, x_lo=-3.0, x_hi=5.0, horizon=1.0)
        picard = solve_extended_hjb_picard(time_consistent_model(), grid)
        trace = picard.report.trace
        assert len(trace) == 1
        assert (trace[0].k_lo, trace[0].k_hi) == (0, 50)
        assert len(trace[0].distances) == 2
        assert trace[0].distances[1] == 0.0
        assert math.copysign(1.0, trace[0].distances[1]) == 1.0
        sweep = solve_extended_hjb_sweep(time_consistent_model(), grid)
        assert np.array_equal(sweep.v, picard.v)
        assert np.array_equal(sweep.alpha, picard.alpha)

    def test_rejects_bad_iteration_settings(self):
        grid = benchmark_grid(25, 40)
        with pytest.raises(ConfigError, match="tol"):
            solve_extended_hjb_picard(MODEL, grid, tol=0.0)
        with pytest.raises(ConfigError, match="max_iter"):
            solve_extended_hjb_picard(MODEL, grid, max_iter=1)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_a_tolerance_that_is_not_finite(self, tol):
        # an infinite tolerance would accept the first pass of every window,
        # and a NaN one would never accept any
        with pytest.raises(ConfigError, match="tol must be positive and finite"):
            solve_extended_hjb_picard(MODEL, benchmark_grid(25, 40), tol=tol)

    def test_an_overflowing_last_slice_control_leaks_no_warning(self):
        # the drift overflows in the Hamiltonian of slice 0, whose value is
        # dropped; the sweep computes that slice control under errstate too
        model = lqr_model(LqrParams(a_bar=1e300))
        grid = GridSpec2(n_t=1, n_x=5, x_lo=-3.0, x_hi=5.0, horizon=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            picard = solve_extended_hjb_picard(model, grid, tol=1e300, max_iter=11)
            sweep = solve_extended_hjb_sweep(model, grid)
        assert np.array_equal(picard.alpha, sweep.alpha)

    def test_persistent_blowup_raises_with_the_window_trace(self):
        grid = GridSpec2(n_t=2, n_x=8, x_lo=-1.0, x_hi=1.0, horizon=0.1)
        with pytest.raises(PicardError, match="no convergence on slices") as exc:
            solve_extended_hjb_picard(hopeless_model(), grid)
        assert len(exc.value.trace) >= 1

    def test_blowup_away_from_the_diagonal_aborts_the_window(self):
        # an infinite running cost three cells or more off the diagonal is
        # beyond the diagonal stencils' reach, so no Hamiltonian slot sees
        # it, only the scan of the indexed field; a Picard pass runs that
        # scan on the infinite distance the slice gives
        model = replace(MODEL, running_cost=lambda t, y, x, a: (
            0.5 * a * a + np.where(np.abs(y - x) > 0.6, np.inf, 0.0)))
        grid = GridSpec2(n_t=2, n_x=8, x_lo=-1.0, x_hi=1.0, horizon=0.1)
        with pytest.raises(NumericError, match=r"^indexed field blew up at time slice 1, "):
            solve_extended_hjb_sweep(model, grid)
        with pytest.raises(PicardError, match=r"^no convergence on slices \[1, 2\] "
                                              r"\(blowup after 0 passes"):
            solve_extended_hjb_picard(model, grid)


class TestCoefficientOracle:
    """At the LQR the grid solve is a nine-coefficient recursion, so it is
    pinned to rounding on any grid, not only to its order of accuracy."""

    @pytest.mark.parametrize("n_t, n_x", [(25, 40), (100, 80), (400, 160)])
    def test_sweep_is_the_recursion(self, n_t, n_x):
        assert_solves_the_recursion(solve_extended_hjb_sweep(MODEL, benchmark_grid(n_t, n_x)))

    @pytest.mark.parametrize("n_t, n_x", [(25, 40), (100, 80)])
    def test_converged_picard_is_the_recursion(self, n_t, n_x):
        # at the default tol of 1e-9 Picard stops ~5e-12 off in the gain
        sol = solve_extended_hjb_picard(MODEL, benchmark_grid(n_t, n_x), tol=1e-12)
        assert_solves_the_recursion(sol)

    def test_the_recursion_tracks_the_riccati_gain(self):
        # the grid's gain error against Riccati is the Euler error in time,
        # whatever the state grid: first order in the time step
        errors = []
        for n in (100, 200, 400):
            _, B, C, _, _, _, P, _, _ = lqr_grid_coefficients(PARAMS, n).T
            k = PARAMS.b_bar * (2.0 * P - B - 2.0 * C)
            errors.append(np.max(np.abs(k - reference_gain(n).k_state)))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((orders > 0.95) & (orders < 1.05)), orders


def euler_expected_cost(gain, params: LqrParams, n_steps: int) -> float:
    """Exact expectation of the Monte Carlo cost: the Euler scheme's mean and
    second moment stepped forward, with left-endpoint gains every
    ``gain.grid.n_steps // n_steps`` nodes."""
    dt, stride = params.horizon / n_steps, gain.grid.n_steps // n_steps
    m, s, running = params.x0, params.x0 ** 2, 0.0
    for k, c in zip(gain.k_state[:-1:stride], gain.c_offset[:-1:stride]):
        running += 0.5 * (k * k * s + 2.0 * k * c * m + c * c) * dt
        g, h = 1.0 + (params.a_bar - params.b_bar * k) * dt, -params.b_bar * c * dt
        m, s = g * m + h, g * g * s + 2.0 * g * h * m + h * h + params.sigma ** 2 * dt
    return running + 0.5 * params.gamma * (s - 2.0 * params.x0 * m + params.x0 ** 2)


# the box of test_riccati's structural property, x0 = 1 as there
@settings(max_examples=30)
@given(a_bar=st.floats(-2, 2), b_bar=st.floats(0.2, 2), sigma=st.floats(0.1, 1),
       gamma=st.floats(0, 10), horizon=st.floats(0.2, 2))
def test_the_three_routes_agree_off_the_benchmark(a_bar, b_bar, sigma, gamma, horizon):
    params = LqrParams(a_bar=a_bar, b_bar=b_bar, sigma=sigma, gamma=gamma,
                       horizon=horizon, x0=1.0)
    # every bound below is relative, so each allows the smallest normal float
    # too: a tiny gamma puts fields and costs in the subnormal range
    tiny = np.finfo(float).tiny
    # grid vs recursion. Each slice step is also a forward-Euler step of the
    # Riccati system, so n_t resolves its rate b_bar^2 gamma + |a_bar| as well
    # as the diffusion bound; 8 nodes keep the centered drift stencil from
    # amplifying rounding (the 40-node grid loses up to 1e-4 in this box)
    n_t = max(25, math.ceil(1.1 * 1.05 * sigma ** 2 * horizon),
              math.ceil(horizon * (b_bar ** 2 * gamma + abs(a_bar))))
    grid = GridSpec2(n_t=n_t, n_x=8, x_lo=-3.0, x_hi=5.0, horizon=horizon)  # dx = 1
    sol = solve_extended_hjb_sweep(lqr_model(params), grid)
    if 32.0 * gamma >= tiny:  # the terminal |j| peaks at 32 gamma
        assert_solves_the_recursion(sol, params)
    else:
        assert max(np.max(np.abs(sol.j)), np.max(np.abs(sol.v))) < tiny
    # moments vs ansatz, check 5's identity. Its 1e-6 holds at the benchmark
    # point; the moment route's linear gain interpolation is second order, up
    # to 4.2e-5 off, relative, at 1000 steps in this box
    sol = solve_equilibrium_riccati(params, TimeGrid(1000, horizon))
    gain = equilibrium_gain(sol, params)
    exact = exact_cost(gain, params).total
    assert abs(exact - equilibrium_value(sol, 0, params.x0)) <= 1e-4 * exact + tiny
    # Monte Carlo vs exact. At 100 steps the Euler bias alone reaches 11
    # standard errors (sigma = 0.1), so the estimate is held to 5 standard
    # errors of its scheme's exact expectation, and that expectation to the
    # exact cost: its first-order bias reaches 1.6% at 1000 steps in this box
    # (a_bar = 2, horizon = 2, gamma near 0)
    est = estimate_cost_streaming(gain, params, SimConfig(n_paths=2000, n_steps=100, seed=7))
    assert abs(est.mean - euler_expected_cost(gain, params, 100)) <= 5.0 * est.stderr + tiny
    assert abs(euler_expected_cost(gain, params, 1000) - exact) <= 0.05 * exact + tiny


def peak_traced_bytes(solve) -> int:
    """Peak bytes traced by tracemalloc while ``solve()`` runs, over what was
    traced before; the solution stays alive until the peak is read."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        sol = solve()  # noqa: F841 -- held so that the peak includes the result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return peak - before


class TestMemory:
    # the unit is one indexed field j, (n_t+1) x (n_x+1)^2 floats
    GRID = benchmark_grid(25, 40)
    FIELD_BYTES = 26 * 41 * 41 * 8

    def test_sweep_holds_about_one_field(self):
        peak = peak_traced_bytes(lambda: solve_extended_hjb_sweep(MODEL, self.GRID))
        assert peak <= 1.5 * self.FIELD_BYTES

    def test_picard_holds_the_fields_and_one_scratch_copy(self):
        # the windows here are [12 25] and [0 12] after an aborted full-horizon
        # attempt; all three iterate in place in the output (1.33 here: on 26
        # slices the few slices each pass holds weigh more than on 101)
        peak = peak_traced_bytes(lambda: solve_extended_hjb_picard(MODEL, self.GRID))
        assert peak <= 2.5 * self.FIELD_BYTES

    def test_picard_holds_one_field_set(self):
        # each pass overwrites the previous iterate slice by slice, so beside
        # the output there are only a few slices per pass (1.14 here; 2.09
        # with an output-sized scratch set)
        grid = benchmark_grid(100, 80)
        peak = peak_traced_bytes(lambda: solve_extended_hjb_picard(MODEL, grid))
        assert peak <= 1.3 * 101 * 81 * 81 * 8

    @pytest.mark.parametrize("solver", [solve_extended_hjb_sweep, solve_extended_hjb_picard])
    def test_an_unstable_grid_is_refused_before_a_slice_is_allocated(self, solver):
        # one (n_x+1)^2 slice of this grid is 128 MB, which the solvers
        # allocated before the stability check refused the time step
        grid = GridSpec2(n_t=400, n_x=4000, x_lo=-3.0, x_hi=5.0, horizon=1.0)

        def solve():
            with pytest.raises(ConfigError, match=r"unstable.*n_t >= 65625$"):
                solver(MODEL, grid)
        assert peak_traced_bytes(solve) < 8e6


class TestDiagonalIdentity:
    def test_quadratic_fields_make_the_residual_vanish(self):
        sol = solve_extended_hjb_sweep(MODEL, benchmark_grid(100, 80))
        assert diagonal_residual(sol) <= 1e-12

    def test_terminal_slice_is_shared_exactly(self):
        grid = benchmark_grid(25, 40)
        sol = solve_extended_hjb_sweep(quartic_perturbed_model(), grid)
        idx = np.arange(grid.n_x + 1)
        assert np.array_equal(sol.v[-1], sol.j[-1][idx, idx])

    def test_residual_refines_at_first_order_or_better(self):
        model = quartic_perturbed_model()
        residuals = []
        for n_t, n_x in ((25, 40), (100, 80), (400, 160)):
            sol = solve_extended_hjb_sweep(model, benchmark_grid(n_t, n_x))
            residuals.append(diagonal_residual(sol))
        assert residuals[0] > 1e-6  # the perturbation really breaks exactness
        orders = np.log2(np.array(residuals[:-1]) / residuals[1:])
        assert np.all(orders >= 1.5)
        assert residuals[-1] <= 2e-4


class TestExtractGain:
    def test_reads_off_an_affine_control_field(self):
        grid = GridSpec2(n_t=3, n_x=16, x_lo=-2.0, x_hi=2.0, horizon=1.0)
        alpha = -(0.7 * grid.xs[None, :] + 0.2) * np.ones((4, 1))
        sol = GridSolution(
            grid=grid, v=np.zeros((4, 17)), j=np.zeros((4, 17, 17)), alpha=alpha,
            report=SchemeReport(mode="sweep", sigma_max=1.0, stability_ratio=0.5,
                                iterations=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gain = extract_gain(sol, PARAMS)
        assert np.allclose(gain.k_state, 0.7, atol=1e-12)
        assert np.allclose(gain.c_offset, 0.2, atol=1e-12)
        assert float(np.max(gain.fit_residual)) <= 1e-12
        assert gain.grid.n_steps == 3

    def test_warns_when_the_control_is_not_affine(self):
        grid = GridSpec2(n_t=3, n_x=16, x_lo=-2.0, x_hi=2.0, horizon=1.0)
        alpha = (grid.xs[None, :] ** 2) * np.ones((4, 1))
        sol = GridSolution(
            grid=grid, v=np.zeros((4, 17)), j=np.zeros((4, 17, 17)), alpha=alpha,
            report=SchemeReport(mode="sweep", sigma_max=1.0, stability_ratio=0.5,
                                iterations=1))
        with pytest.warns(UserWarning, match="not affine"):
            extract_gain(sol, PARAMS)
