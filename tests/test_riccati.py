import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tilqr import riccati
from tilqr import (
    ConfigError,
    GainLabel,
    LqrParams,
    NumericError,
    TimeGrid,
    closed_form_p,
    equilibrium_gain,
    equilibrium_value,
    naive_gain,
    precommitted_policy,
    rk4_backward,
    solve_equilibrium_riccati,
    solve_naive,
    strategy_gains,
)

# Oracle constants at the benchmark parameters (a_bar=0.5, b_bar=1,
# sigma=0.5, gamma=5, horizon=1), computed with an independent adaptive
# integrator (scipy.integrate.solve_ivp, RK45, rtol=1e-12, atol=1e-14)
# over the same coefficient systems:
#   equilibrium: a' = -2*ab*a + 2*bb^2*a*s - bb^2*s^2/2, s = 2a + c
#                c' = -ab*c + bb^2*c*s,  h' = -sigma^2*a
#                terminal (gamma/2, -gamma, 0)
#   frozen pair: p' = 2*bb^2*p^2 - 2*ab*p, q' = -(ab - 2*bb^2*p)*q
#                terminal (gamma/2, -gamma)
K_EQ_0 = 0.5436622872727925
K_NAIVE_0 = 0.5575617419146818
K_PRE_STATE_0 = 1.4170398677253846
C_PRE_OFFSET_0 = -0.8594781258107028
EQ_VALUE_0 = 0.8352952283380903   # (a + b + c) x0^2 + h at t=0


def grid(n=1000) -> TimeGrid:
    return TimeGrid(n_steps=n, horizon=1.0)


def naive_q_quadrature(params: LqrParams, g: TimeGrid) -> np.ndarray:
    """Linear companion ``q`` by exponential of a cumulative integral, the
    reference for ``solve_naive``'s ``q``.

    ``q(t) = -gamma * exp(int_t^T (a_bar - 2 b_bar^2 p) du)`` with ``p`` in
    closed form, which keeps this route independent of the backward
    integrator. The integral is accumulated right-to-left by Simpson pairs;
    the odd leftover interval next to the horizon uses the three-point
    half-interval rule. Needs at least two steps.
    """
    n = g.n_steps
    assert n >= 2
    psi = params.a_bar - 2.0 * params.b_bar ** 2 * closed_form_p(params, g.nodes)
    h = g.dt
    cum = np.empty(n + 1)
    cum[n] = 0.0
    cum[n - 1] = (h / 12.0) * (-psi[n - 2] + 8.0 * psi[n - 1] + 5.0 * psi[n])
    for i in range(n - 2, -1, -1):
        cum[i] = cum[i + 2] + (h / 3.0) * (psi[i] + 4.0 * psi[i + 1] + psi[i + 2])
    return -params.gamma * np.exp(cum)


class TestTimeGrid:
    def test_nodes_endpoints_exact(self):
        g = TimeGrid(n_steps=7, horizon=2.5)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 2.5
        assert g.nodes.size == 8
        assert g.dt == 2.5 / 7

    @pytest.mark.parametrize("kwargs", [
        {"n_steps": 0, "horizon": 1.0},
        {"n_steps": 10, "horizon": 0.0},
        {"n_steps": 10, "horizon": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TimeGrid(**kwargs)

    def test_a_horizon_too_small_for_its_steps_is_rejected(self):
        # the nodes would not increase, and a plot of them had no scale
        with pytest.raises(ConfigError, match="gives a zero time step"):
            TimeGrid(n_steps=7, horizon=5e-324)
        assert TimeGrid(n_steps=1, horizon=5e-324).dt == 5e-324


class TestRk4Backward:
    def test_linear_field_exact_solution(self):
        # y' = lam*y backward from y(T): y(t) = y_T * exp(lam*(t - T))
        lam = -1.3
        g = TimeGrid(n_steps=200, horizon=2.0)
        ys = rk4_backward(lambda t, y: lam * y, [3.0], g)
        exact = 3.0 * np.exp(lam * (g.nodes - 2.0))
        np.testing.assert_allclose(ys[:, 0], exact, rtol=1e-9)

    def test_terminal_stored_bit_exact(self):
        ys = rk4_backward(lambda t, y: np.sin(y), [0.123456789], grid(10))
        assert ys[-1, 0] == 0.123456789

    def test_fourth_order_convergence(self):
        lam = 1.7
        errs = []
        for n in (20, 40, 80):
            g = TimeGrid(n_steps=n, horizon=1.0)
            ys = rk4_backward(lambda t, y: lam * y, [1.0], g)
            errs.append(abs(ys[0, 0] - math.exp(-lam)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.7

    def test_blowup_raises_numeric_error(self):
        # y' = -y^2 backward is y' = +y^2 in reverse time: finite-time blowup
        with pytest.raises(NumericError, match="node"):
            rk4_backward(lambda t, y: -y * y, [5.0], TimeGrid(n_steps=50, horizon=10.0))

    def test_stage_times_are_the_node_its_midpoint_and_the_next_node(self):
        g = TimeGrid(n_steps=7, horizon=1.3)
        h, calls = g.dt, []

        def field(t, y):
            calls.append(t)
            return np.array([math.cos(t) * y[1], -t * y[0]])

        rk4_backward(field, [0.4, -1.1], g)
        assert len(calls) == 4 * g.n_steps
        for step, i in enumerate(range(g.n_steps, 0, -1)):
            t = g.nodes[i]
            assert calls[4 * step:4 * step + 4] == [t, t - 0.5 * h, t - 0.5 * h, t - h]

    def test_the_field_gets_a_fresh_one_dimensional_array(self):
        # a field that writes into its argument cannot touch the stored states
        def scribbling(t, y):
            assert y.shape == (2,)
            dy = np.array([y[1], -y[0]])
            y[:] = np.nan
            return dy

        clean = rk4_backward(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.5], grid(20))
        np.testing.assert_array_equal(rk4_backward(scribbling, [1.0, 0.5], grid(20)), clean)

    @pytest.mark.parametrize("field, count", [(lambda t, y: -y[:1], 1),
                                              (lambda t, y: np.concatenate([y, y]), 4),
                                              (lambda t, y: 2.0, 1)],
                             ids=["too few", "too many", "a scalar"])
    def test_a_field_with_the_wrong_number_of_values_is_refused(self, field, count):
        with pytest.raises(ConfigError,
                           match=f"^field returned {count} values for 2 state components$"):
            rk4_backward(field, [1.0, 2.0], TimeGrid(n_steps=4, horizon=1.0))

    def test_a_scalar_field_for_one_component_is_accepted(self):
        ys = rk4_backward(lambda t, y: 2.0, [1.0], TimeGrid(n_steps=4, horizon=1.0))
        np.testing.assert_allclose(ys[:, 0], 1.0 - 2.0 * (1.0 - np.linspace(0.0, 1.0, 5)),
                                   rtol=0, atol=1e-15)

    def test_a_float32_horizon_is_stepped_in_double_precision(self):
        # 0.75 / 4, its half and its sixth are exact in float32, so only a
        # stage narrowed to float32 could tell the two grids apart
        def field(t, y):
            return np.array([y[1], -t * y[0]])

        wide = rk4_backward(field, [1.0, 0.3], TimeGrid(n_steps=4, horizon=0.75))
        narrow = rk4_backward(field, [1.0, 0.3], TimeGrid(n_steps=4, horizon=np.float32(0.75)))
        np.testing.assert_array_equal(narrow, wide)


class TestEquilibriumSystem:
    def test_terminal_identities_bit_exact(self, benchmark_params):
        sol = solve_equilibrium_riccati(benchmark_params, grid(400))
        assert sol.a[-1] == 2.5
        assert sol.c[-1] == -5.0
        assert sol.h[-1] == 0.0
        assert sol.b == 2.5

    def test_time_zero_gain_matches_oracle(self, benchmark_params):
        gain = equilibrium_gain(solve_equilibrium_riccati(benchmark_params, grid()),
                                benchmark_params)
        assert gain.k_state[0] == pytest.approx(K_EQ_0, abs=1e-9)
        assert gain.label is GainLabel.EQUILIBRIUM
        assert np.all(gain.c_offset == 0.0)

    def test_terminal_gain_vanishes(self, benchmark_params):
        gain = equilibrium_gain(solve_equilibrium_riccati(benchmark_params, grid()),
                                benchmark_params)
        assert abs(gain.k_state[-1]) <= 1e-12

    def test_gain_is_weighted_coefficient_sum(self, benchmark_params):
        sol = solve_equilibrium_riccati(benchmark_params, grid(100))
        gain = equilibrium_gain(sol, benchmark_params)
        np.testing.assert_array_equal(
            gain.k_state, benchmark_params.b_bar * (2.0 * sol.a + sol.c))

    def test_value_at_time_zero_matches_oracle(self, benchmark_params):
        sol = solve_equilibrium_riccati(benchmark_params, grid())
        assert equilibrium_value(sol, 0, 1.0) == \
            pytest.approx(EQ_VALUE_0, abs=1e-9)

    def test_value_index_out_of_range(self, benchmark_params):
        sol = solve_equilibrium_riccati(benchmark_params, grid(10))
        with pytest.raises(IndexError):
            equilibrium_value(sol, 11, 1.0)

    def test_constant_term_nonnegative(self, benchmark_params):
        # h(t) integrates sigma^2 * a over [t, T] and a stays positive
        sol = solve_equilibrium_riccati(benchmark_params, grid(200))
        assert np.all(sol.h >= 0.0)
        assert np.all(sol.a > 0.0)

    def test_uncoupled_terminal_reduces_to_classical_gain(self, benchmark_params):
        # with no anchor coupling in the terminal data the cross coefficient
        # stays zero and the equilibrium gain must equal the classical one
        p = benchmark_params
        ab, bb = p.a_bar, p.b_bar

        def coupled(t, y):
            a, c = y
            s = 2.0 * a + c
            return np.array([-2.0 * ab * a + 2.0 * bb * bb * a * s - 0.5 * bb * bb * s * s,
                             -ab * c + bb * bb * c * s])

        g = grid()
        eq = rk4_backward(coupled, [0.5 * p.gamma, 0.0], g)
        k_eq = bb * (2.0 * eq[:, 0] + eq[:, 1])
        k_classical = 2.0 * bb * closed_form_p(p, g.nodes)
        assert np.all(eq[:, 1] == 0.0)
        np.testing.assert_allclose(k_eq, k_classical, atol=1e-8)


class TestNaiveSystem:
    def test_p_matches_closed_form(self, benchmark_params):
        g = grid()
        sol = solve_naive(benchmark_params, g)
        np.testing.assert_allclose(sol.p, closed_form_p(benchmark_params, g.nodes),
                                   rtol=0, atol=1e-10)

    def test_closed_form_is_refused_at_zero_penalty(self):
        # p is identically zero there, which the normalization cannot express
        with pytest.raises(ConfigError, match="closed form requires gamma > 0"):
            closed_form_p(LqrParams(gamma=0.0), grid().nodes)

    def test_q_matches_closed_form(self, benchmark_params):
        # q(t) = -2 p(t) exp(a_bar (t - T)) solves the linear companion ODE
        p = benchmark_params
        g = grid()
        sol = solve_naive(p, g)
        q_exact = -2.0 * closed_form_p(p, g.nodes) * np.exp(p.a_bar * (g.nodes - p.horizon))
        np.testing.assert_allclose(sol.q, q_exact, rtol=0, atol=1e-10)

    def test_q_quadrature_cross_check(self, benchmark_params):
        g = grid()
        sol = solve_naive(benchmark_params, g)
        q_quad = naive_q_quadrature(benchmark_params, g)
        np.testing.assert_allclose(sol.q, q_quad, rtol=0, atol=1e-8)

    def test_rk4_order_against_closed_form(self, benchmark_params):
        errs = []
        for n in (250, 500, 1000):
            g = TimeGrid(n_steps=n, horizon=1.0)
            sol = solve_naive(benchmark_params, g)
            errs.append(np.max(np.abs(sol.p - closed_form_p(benchmark_params, g.nodes))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 3.7
        assert errs[-1] <= 1e-8

    def test_a_blow_up_on_the_last_step_raises(self):
        # the first of four steps is fine; the pair overflows only on the
        # step into t = 0
        with pytest.raises(NumericError,
                           match=r"^backward integration blew up at node 0 \(t = 0\)$"):
            solve_naive(LqrParams(gamma=10.0), TimeGrid(n_steps=4, horizon=1.0))

    def test_terminal_identities_bit_exact(self, benchmark_params):
        sol = solve_naive(benchmark_params, grid(100))
        assert sol.p[-1] == 2.5
        assert sol.q[-1] == -5.0

    def test_naive_gain_oracle_and_terminal(self, benchmark_params):
        gain = naive_gain(solve_naive(benchmark_params, grid()), benchmark_params)
        assert gain.k_state[0] == pytest.approx(K_NAIVE_0, abs=1e-9)
        assert abs(gain.k_state[-1]) <= 1e-12
        assert gain.label is GainLabel.NAIVE

    def test_precommitted_policy_oracle(self, benchmark_params):
        gain = precommitted_policy(solve_naive(benchmark_params, grid()),
                                   benchmark_params)
        assert gain.k_state[0] == pytest.approx(K_PRE_STATE_0, abs=1e-9)
        assert gain.c_offset[0] == pytest.approx(C_PRE_OFFSET_0, abs=1e-9)
        assert gain.label is GainLabel.PRECOMMITTED

    def test_precommitted_offset_overflow_raises_without_a_warning(self, benchmark_params):
        params = LqrParams(x0=1.7e308)
        sol = solve_naive(params, grid(50))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"precommitted offset .* x0 = 1\.7e\+308$"):
                precommitted_policy(sol, params)

    def test_precommitted_terminal_row(self, benchmark_params):
        # k(T) = 2 b p(T) = gamma and c(T) = b q(T) x0 = -gamma
        gain = precommitted_policy(solve_naive(benchmark_params, grid(50)),
                                   benchmark_params)
        assert gain.k_state[-1] == pytest.approx(5.0, rel=1e-14)
        assert gain.c_offset[-1] == pytest.approx(-5.0, rel=1e-14)

    def test_closed_form_p_zero_drift_branch(self):
        p = LqrParams(a_bar=0.0)
        g = grid(500)
        sol = solve_naive(p, g)
        np.testing.assert_allclose(sol.p, closed_form_p(p, g.nodes), atol=1e-10)

    @pytest.mark.parametrize("a_bar", [-0.5, -1.0])
    def test_closed_form_p_negative_drift_branch(self, a_bar):
        # numerator and denominator are both negative: p is positive and bounded
        p = LqrParams(a_bar=a_bar)
        g = grid(1000)
        np.testing.assert_allclose(solve_naive(p, g).p, closed_form_p(p, g.nodes),
                                   rtol=0, atol=1e-8)

    def test_closed_form_p_raises_where_its_denominator_changes_sign(self):
        # at a_bar = -0.5 the denominator 1 - 1.2 e^{-(t - T)} is zero at
        # t = T + ln 1.2, past the horizon
        p = LqrParams(a_bar=-0.5)
        assert closed_form_p(p, 1.1) > 0
        with pytest.raises(NumericError, match=r"blows up at t = 1\.5$"):
            closed_form_p(p, np.array([0.0, 1.0, 1.5, 2.0]))

    def test_closed_form_p_with_a_strong_negative_drift_warns_nothing(self):
        # e^{2 a_bar (t - T)} overflows early on; p is then 0 there
        p = LqrParams(a_bar=-400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = closed_form_p(p, grid(1000).nodes)
        assert np.all(np.isfinite(values)) and values.min() == 0.0
        assert values[-1] == pytest.approx(2.5, rel=1e-14)


@given(a_bar=st.floats(-2, 2), b_bar=st.floats(0.2, 2), sigma=st.floats(0.1, 1),
       gamma=st.floats(0, 10), horizon=st.floats(0.2, 2))
def test_structural_properties_across_parameters(a_bar, b_bar, sigma, gamma, horizon):
    params = LqrParams(a_bar=a_bar, b_bar=b_bar, sigma=sigma, gamma=gamma,
                       horizon=horizon, x0=1.0)
    g = TimeGrid(n_steps=200, horizon=horizon)
    eq = solve_equilibrium_riccati(params, g)
    nv = solve_naive(params, g)
    assert eq.a[-1] == gamma / 2 and eq.c[-1] == -gamma and eq.h[-1] == 0.0
    assert nv.p[-1] == gamma / 2 and nv.q[-1] == -gamma
    # terminal gains vanish because 2a + c and 2p + q cancel at T
    assert abs(equilibrium_gain(eq, params).k_state[-1]) <= 1e-12
    assert abs(naive_gain(nv, params).k_state[-1]) <= 1e-12
    assert np.all(nv.p >= 0.0)
    assert np.all(eq.h >= -1e-15)


def test_gamma_zero_gains_are_exactly_zero():
    params = LqrParams(gamma=0.0)
    g = grid(100)
    eq = equilibrium_gain(solve_equilibrium_riccati(params, g), params)
    nv_sol = solve_naive(params, g)
    assert np.all(eq.k_state == 0.0)
    assert np.all(naive_gain(nv_sol, params).k_state == 0.0)
    pre = precommitted_policy(nv_sol, params)
    assert np.all(pre.k_state == 0.0) and np.all(pre.c_offset == 0.0)


def test_gain_schedule_shape_validation():
    from tilqr import GainSchedule
    g = grid(10)
    with pytest.raises(ConfigError, match="shape"):
        GainSchedule(grid=g, k_state=np.zeros(5), c_offset=np.zeros(11),
                     label=GainLabel.CUSTOM)


# at these parameters (others at the defaults) the equilibrium system
# integrates over 1000 steps while the naive Riccati pair blows up
SPLIT_PARAMS = LqrParams(a_bar=6.154640442735776, b_bar=-0.6877325122259386,
                         gamma=1599.2745782950801, horizon=3.1974620757508188)
LAWS = [GainLabel.EQUILIBRIUM, GainLabel.NAIVE, GainLabel.PRECOMMITTED]


class TestStrategyGains:
    def test_canonical_order_and_bitwise_equal_to_direct_calls(self, benchmark_params):
        p, g = benchmark_params, grid(200)
        gains = strategy_gains(p, g, labels=LAWS[::-1])
        assert list(gains) == LAWS
        nv = solve_naive(p, g)
        direct = [equilibrium_gain(solve_equilibrium_riccati(p, g), p),
                  naive_gain(nv, p), precommitted_policy(nv, p)]
        for (label, got), want in zip(gains.items(), direct):
            assert got.label is label is want.label
            assert got.grid == g
            assert np.array_equal(got.k_state, want.k_state)
            assert np.array_equal(got.c_offset, want.c_offset)
        assert list(strategy_gains(p, g)) == LAWS

    @pytest.mark.parametrize("label, eq_calls, naive_calls", [
        (GainLabel.EQUILIBRIUM, 1, 0),
        (GainLabel.NAIVE, 0, 1),
        (GainLabel.PRECOMMITTED, 0, 1),
    ])
    def test_one_label_solves_only_its_own_system(self, benchmark_params, monkeypatch,
                                                  label, eq_calls, naive_calls):
        calls = {"eq": 0, "naive": 0}

        def counted(name, solver):
            def wrapper(*args):
                calls[name] += 1
                return solver(*args)
            return wrapper

        monkeypatch.setattr(riccati, "solve_equilibrium_riccati",
                            counted("eq", riccati.solve_equilibrium_riccati))
        monkeypatch.setattr(riccati, "solve_naive", counted("naive", riccati.solve_naive))
        gains = strategy_gains(benchmark_params, grid(50), [label])
        assert list(gains) == [label]
        assert calls == {"eq": eq_calls, "naive": naive_calls}
        calls.update(eq=0, naive=0)
        strategy_gains(benchmark_params, grid(50))
        assert calls == {"eq": 1, "naive": 1}   # naive and precommitted share one

    def test_rejects_labels_without_a_built_in_law(self, benchmark_params):
        with pytest.raises(ConfigError, match="custom"):
            strategy_gains(benchmark_params, grid(50), [GainLabel.CUSTOM])

    def test_a_failing_system_the_request_does_not_need_is_not_solved(self):
        g = TimeGrid(n_steps=1000, horizon=SPLIT_PARAMS.horizon)
        gains = strategy_gains(SPLIT_PARAMS, g, [GainLabel.EQUILIBRIUM])
        assert np.all(np.isfinite(gains[GainLabel.EQUILIBRIUM].k_state))
        with pytest.raises(NumericError, match="blew up"):
            strategy_gains(SPLIT_PARAMS, g)
