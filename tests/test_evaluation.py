import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tilqr.evaluation as evaluation
from tilqr import (
    ConfigError,
    GainLabel,
    GainSchedule,
    LqrParams,
    NumericError,
    SweepTable,
    TimeGrid,
    equilibrium_gain,
    equilibrium_value,
    exact_cost,
    gamma_sweep,
    simpson_uniform,
    solve_equilibrium_riccati,
    solve_moments,
    strategy_gains,
)

# Zero-control cost at the benchmark parameters, in closed form: under
# a = 0 the moments are m(t) = x0 e^{ab t} and
# s(t) = (x0^2 + sg^2/(2 ab)) e^{2 ab t} - sg^2/(2 ab), so the terminal
# penalty gamma/2 (s_T - 2 x0 m_T + x0^2) evaluates to
# 3.125 e - 5 sqrt(e) + 1.875 with ab=0.5, sg=0.5, gamma=5, x0=1, T=1.
ZERO_CONTROL_COST = 3.125 * math.e - 5.0 * math.sqrt(math.e) + 1.875


def zero_gain(n=1000, horizon=1.0) -> GainSchedule:
    grid = TimeGrid(n_steps=n, horizon=horizon)
    z = np.zeros(n + 1)
    return GainSchedule(grid=grid, k_state=z, c_offset=z, label=GainLabel.CUSTOM)


class TestSimpson:
    def test_exact_on_cubics(self):
        xs = np.linspace(0.0, 2.0, 11)
        h = xs[1] - xs[0]
        vals = 3.0 * xs ** 3 - xs ** 2 + 4.0 * xs - 7.0
        exact = (0.75 * 16) - 8.0 / 3.0 + 8.0 - 14.0
        assert simpson_uniform(vals, h) == pytest.approx(exact, rel=1e-14)

    def test_fourth_order_on_smooth_integrand(self):
        errs = []
        for n in (8, 16, 32):
            xs = np.linspace(0.0, 1.0, n + 1)
            errs.append(abs(simpson_uniform(np.sin(xs), xs[1]) - (1 - math.cos(1.0))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.8

    def test_odd_interval_count_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            simpson_uniform(np.zeros(4), 0.1)


class TestMoments:
    def test_zero_control_closed_form(self, benchmark_params):
        p = benchmark_params
        mom = solve_moments(zero_gain(), p)
        t = mom.grid.nodes
        m_exact = p.x0 * np.exp(p.a_bar * t)
        s_exact = ((p.x0 ** 2 + p.sigma ** 2 / (2 * p.a_bar)) * np.exp(2 * p.a_bar * t)
                   - p.sigma ** 2 / (2 * p.a_bar))
        np.testing.assert_allclose(mom.mean, m_exact, rtol=1e-10)
        np.testing.assert_allclose(mom.second_moment, s_exact, rtol=1e-10)

    def test_variance_nonnegative(self, benchmark_params):
        gain = equilibrium_gain(
            solve_equilibrium_riccati(benchmark_params, TimeGrid(1000, 1.0)),
            benchmark_params)
        mom = solve_moments(gain, benchmark_params)
        assert np.all(mom.variance >= -1e-12)
        assert mom.variance[0] == 0.0

    def test_horizon_mismatch_rejected(self, benchmark_params):
        gain = zero_gain(horizon=2.0)
        with pytest.raises(ConfigError, match="horizon"):
            solve_moments(gain, benchmark_params)

    def test_explosive_gain_raises(self, benchmark_params):
        n = 100
        grid = TimeGrid(n_steps=n, horizon=1.0)
        huge = GainSchedule(grid=grid, k_state=np.full(n + 1, -1e12),
                            c_offset=np.zeros(n + 1), label=GainLabel.CUSTOM)
        with pytest.raises(NumericError, match="blew up"):
            solve_moments(huge, benchmark_params)

    @pytest.mark.parametrize("x0", [1.0, 1e8])
    def test_a_second_moment_half_the_squared_mean_raises(self, x0):
        # the check scales with the second moment, yet a real gap still fails
        mean = np.full(3, x0)
        with pytest.raises(NumericError, match="^second moment fell below mean"):
            evaluation.MomentPath(grid=TimeGrid(2, 1.0), mean=mean,
                                  second_moment=0.5 * mean ** 2)

    def test_initial_state_with_an_overflowing_square_raises(self):
        params = LqrParams(x0=1e300)
        with pytest.raises(NumericError, match=r"^x0 = 1e\+300 has a square that overflows$"):
            solve_moments(zero_gain(), params)

    def test_an_integer_initial_state_with_an_overflowing_square_raises(self):
        with pytest.raises(NumericError, match=r"^x0 = 10{200} has a square that overflows$"):
            solve_moments(zero_gain(), LqrParams(x0=10 ** 200))

    def test_an_integer_initial_state_starts_at_its_rounded_square(self):
        # (2^53 + 1)^2 rounds to 2^106 + 2^54; the square of the rounded
        # x0, 2^106, would not
        x0 = 2 ** 53 + 1
        mom = solve_moments(zero_gain(), LqrParams(x0=x0))
        assert mom.mean.dtype == mom.second_moment.dtype == np.float64
        assert (mom.mean[0], mom.second_moment[0]) == (2.0 ** 53, 2.0 ** 106 + 2.0 ** 54)

    def test_float32_parameters_are_stepped_in_double_precision(self):
        # 0.5 squares exactly in float32, so both parameter sets share the RHS
        narrow = LqrParams(a_bar=np.float32(0.3), b_bar=np.float32(1.1), sigma=np.float32(0.5))
        wide = LqrParams(a_bar=float(narrow.a_bar), b_bar=float(narrow.b_bar), sigma=0.5)
        for gain in strategy_gains(wide, TimeGrid(n_steps=100, horizon=1.0)).values():
            a, b = solve_moments(gain, narrow), solve_moments(gain, wide)
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.second_moment, b.second_moment)

    def test_a_blow_up_on_the_last_step_raises(self, benchmark_params):
        k = np.zeros(5)
        k[-1] = -1e300
        gain = GainSchedule(grid=TimeGrid(n_steps=4, horizon=1.0), k_state=k,
                            c_offset=np.zeros(5), label=GainLabel.CUSTOM)
        with pytest.raises(NumericError, match="^moment integration blew up at node 4$"):
            solve_moments(gain, benchmark_params)


class TestExactCost:
    def test_zero_control_matches_closed_form(self, benchmark_params):
        report = exact_cost(zero_gain(), benchmark_params)
        assert report.running_cost == 0.0
        assert report.total == pytest.approx(ZERO_CONTROL_COST, abs=1e-9)

    def test_equilibrium_cost_matches_ansatz_value(self, benchmark_params):
        sol = solve_equilibrium_riccati(benchmark_params, TimeGrid(1000, 1.0))
        gain = equilibrium_gain(sol, benchmark_params)
        total = exact_cost(gain, benchmark_params).total
        ansatz = equilibrium_value(sol, 0, benchmark_params.x0)
        assert total == pytest.approx(ansatz, abs=1e-6)

    def test_decomposition_sums(self, benchmark_params):
        report = exact_cost(
            equilibrium_gain(solve_equilibrium_riccati(benchmark_params,
                                                       TimeGrid(200, 1.0)),
                             benchmark_params),
            benchmark_params)
        assert report.total == report.running_cost + report.terminal_cost
        assert report.running_cost > 0 and report.terminal_cost > 0

    def test_odd_step_count_rejected(self, benchmark_params):
        with pytest.raises(ConfigError, match="even"):
            exact_cost(zero_gain(n=999), benchmark_params)

    def test_gamma_zero_total_is_pure_running(self):
        params = LqrParams(gamma=0.0)
        grid = TimeGrid(200, 1.0)
        k = np.full(201, 0.3)
        gain = GainSchedule(grid=grid, k_state=k, c_offset=np.zeros(201),
                            label=GainLabel.CUSTOM)
        report = exact_cost(gain, params)
        assert report.terminal_cost == 0.0
        assert report.total == report.running_cost > 0

    def test_large_initial_states_cost_as_x0_squared(self):
        # second - mean^2 is rounded at the scale of x0^2, which an absolute
        # floor on the variance refused from x0 ~ 2e6 on
        per_x0_squared = {}
        for x0 in (1e7, 1e8, 1e12):
            params = LqrParams(x0=x0)
            gains = strategy_gains(params, TimeGrid(1000, 1.0))
            totals = [exact_cost(gain, params).total for gain in gains.values()]
            assert np.all(np.isfinite(totals))
            per_x0_squared[x0] = np.array(totals) / x0 ** 2
        np.testing.assert_allclose(per_x0_squared[1e7], per_x0_squared[1e12], rtol=1e-10)
        np.testing.assert_allclose(per_x0_squared[1e8], per_x0_squared[1e12], rtol=1e-10)

    def test_non_finite_cost_raises_naming_x0_without_a_warning(self):
        # x0^2 is finite, but the terminal term's 2 x0 m_T overflows and the
        # cost came out as -inf
        params = LqrParams(a_bar=0.0, gamma=1e-10, x0=1e154)
        gain = strategy_gains(params, TimeGrid(20, 1.0), [GainLabel.EQUILIBRIUM])[
            GainLabel.EQUILIBRIUM]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=r"^exact cost is not finite with x0 = 1e\+154$"):
                exact_cost(gain, params)


class TestStrategyCosts:
    def test_keys_and_ordering(self, benchmark_params):
        costs = {label: exact_cost(g, benchmark_params) for label, g
                 in strategy_gains(benchmark_params, TimeGrid(1000, 1.0)).items()}
        assert set(costs) == {GainLabel.EQUILIBRIUM, GainLabel.NAIVE,
                              GainLabel.PRECOMMITTED}
        assert costs[GainLabel.EQUILIBRIUM].total <= costs[GainLabel.NAIVE].total + 1e-9

    def test_precommitted_beats_equilibrium_here(self, benchmark_params):
        # the precommitted law optimizes the time-zero criterion outright,
        # so no admissible feedback law can undercut it
        costs = {label: exact_cost(g, benchmark_params) for label, g
                 in strategy_gains(benchmark_params, TimeGrid(1000, 1.0)).items()}
        assert costs[GainLabel.PRECOMMITTED].total <= \
            costs[GainLabel.EQUILIBRIUM].total + 1e-9


class TestGammaSweep:
    def test_dominance_and_zero_row(self, benchmark_params):
        table = gamma_sweep(benchmark_params, np.linspace(0.0, 10.0, 20),
                            TimeGrid(1000, 1.0))
        j_eq, j_naive, j_pre = table.costs
        assert np.all(j_eq <= j_naive + 1e-9)
        assert j_eq[0] == 0.0
        assert j_naive[0] == 0.0
        assert j_pre[0] == 0.0
        assert all(n == "" for n in table.notes)

    def test_costs_increase_with_penalty(self, benchmark_params):
        table = gamma_sweep(benchmark_params, np.linspace(0.0, 10.0, 10),
                            TimeGrid(500, 1.0))
        j_eq, j_naive, _ = table.costs
        assert np.all(np.diff(j_eq) > 0)
        assert np.all(np.diff(j_naive) > 0)

    def test_failed_row_gets_nan_and_note(self, benchmark_params, monkeypatch):
        real = evaluation.strategy_gains

        def flaky(params, grid):
            if abs(params.gamma - 5.0) < 1e-12:
                raise NumericError("synthetic blow-up")
            return real(params, grid)

        monkeypatch.setattr(evaluation, "strategy_gains", flaky)
        table = gamma_sweep(benchmark_params, np.array([1.0, 5.0, 9.0]),
                            TimeGrid(200, 1.0))
        j_eq = table.costs[0]
        assert math.isnan(j_eq[1])
        assert table.notes[1].startswith("gamma=5.0: ")
        assert "synthetic blow-up" in table.notes[1]
        assert table.notes[0] == "" and table.notes[2] == ""
        assert np.isfinite(j_eq[[0, 2]]).all()

    def test_empty_gammas_rejected(self, benchmark_params):
        with pytest.raises(ConfigError):
            gamma_sweep(benchmark_params, np.array([]), TimeGrid(100, 1.0))

    def test_one_cost_row_per_law(self):
        # row i is the law STRATEGY_LABELS[i]
        with pytest.raises(ConfigError, match=r"must have shape \(3, 2\), got \(2, 2\)"):
            SweepTable(gammas=[0.0, 1.0], costs=np.zeros((2, 2)), notes=("", ""))
        with pytest.raises(ConfigError, match=r"must have shape \(3, 2\), got \(3, 3\)"):
            SweepTable(gammas=[0.0, 1.0], costs=np.zeros((3, 3)), notes=("", ""))

    def test_one_note_per_gamma(self):
        with pytest.raises(ConfigError, match="one entry per gamma"):
            SweepTable(gammas=[0.0, 1.0], costs=np.zeros((3, 2)), notes=("",))


@given(k=st.floats(-1.0, 2.0), c=st.floats(-1.0, 1.0))
def test_constant_law_cost_matches_direct_quadrature(k, c):
    # for constant gains the moment ODEs have smooth solutions and the
    # reported running cost must equal the quadrature of E[a^2]/2 along them
    params = LqrParams()
    n = 400
    grid = TimeGrid(n_steps=n, horizon=1.0)
    gain = GainSchedule(grid=grid, k_state=np.full(n + 1, k),
                        c_offset=np.full(n + 1, c), label=GainLabel.CUSTOM)
    report = exact_cost(gain, params)
    mom = solve_moments(gain, params)
    integrand = 0.5 * (k * k * mom.second_moment + 2 * k * c * mom.mean + c * c)
    assert report.running_cost == pytest.approx(
        simpson_uniform(integrand, grid.dt), rel=1e-12, abs=1e-12)
    assert np.all(integrand >= -1e-12)
