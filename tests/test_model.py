import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tilqr import (
    ActionGrid,
    AdjustmentInputs,
    ConfigError,
    HamiltonianInputs,
    LqrParams,
    ModelSpec,
    NumericError,
    Sense,
    TimeDependentModel,
    augment_time_dependent,
    check_derivatives,
    extended_hamiltonian,
    inconsistency_adjustment,
    lqr_model,
)


def clock_model(c1=0.7, c3=0.4, c4=1.3, c5=0.6):
    """Time-dependent-preference model with hand-written pref derivatives."""
    return TimeDependentModel(
        drift=lambda t, x, a: 0.2 * x + c1 * a,
        vol=lambda t, x: 1.0 + 0.1 * math.tanh(x),
        running_cost=lambda t, pref, x, a: 0.5 * a * a + c3 * pref * x,
        terminal_cost=lambda pref, x: c4 * (x - c5 * pref) ** 2,
        dpref_running=lambda t, pref, x, a: c3 * x,
        dpref2_running=lambda t, pref, x, a: 0.0,
        dpref_terminal=lambda pref, x: -2.0 * c4 * c5 * (x - c5 * pref),
        dpref2_terminal=lambda pref, x: 2.0 * c4 * c5 * c5,
        maximizer=lambda g: -c1 * g,
    )


class TestLqrParams:
    def test_defaults_are_benchmark_set(self):
        p = LqrParams()
        assert (p.a_bar, p.b_bar, p.sigma, p.gamma, p.horizon, p.x0) == \
            (0.5, 1.0, 0.5, 5.0, 1.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0},
        {"sigma": -1.0},
        {"gamma": -0.5},
        {"horizon": 0.0},
        {"a_bar": math.inf},
        {"x0": math.nan},
        {"sigma": 1e200},
    ])
    def test_domain_errors(self, kwargs):
        with pytest.raises(ConfigError):
            LqrParams(**kwargs)


class TestLqrModel:
    def test_cost_evaluators(self, benchmark_params):
        spec = lqr_model(benchmark_params)
        assert spec.running_cost(0.0, 3.0, -2.0, 2.0) == 2.0
        assert spec.terminal_cost(1.0, 3.0) == 0.5 * 5.0 * 4.0
        assert spec.dy_terminal(0.0, 2.0) == -10.0
        assert spec.dyy_terminal(0.0, 2.0) == 5.0
        assert spec.drift(0.0, 2.0, 1.0) == 0.5 * 2.0 + 1.0

    def test_evaluators_broadcast(self, benchmark_params):
        spec = lqr_model(benchmark_params)
        x = np.linspace(-1, 1, 5)
        y = np.linspace(0, 2, 5)
        assert spec.vol(0.0, x).shape == (5,)
        assert spec.terminal_cost(y[:, None], x[None, :]).shape == (5, 5)
        assert spec.dy_terminal(y[:, None], x[None, :]).shape == (5, 5)

    def test_parameter_derivatives_match_finite_differences(self, benchmark_params):
        spec = lqr_model(benchmark_params)
        samples = [(0.3, 0.7, -1.2, 0.4), (0.9, -2.0, 3.0, -1.5), (0.0, 0.0, 0.0, 0.0)]
        assert check_derivatives(spec, samples) < 1e-6


class TestExtendedHamiltonian:
    def test_lqr_closed_form(self, benchmark_params):
        # optimal action -b*g turns the inner problem into a*x*g - b^2 g^2/2,
        # then the two second-order corrections subtract off
        p = benchmark_params
        spec = lqr_model(p)
        rng = np.random.default_rng(3)
        t, x, z, gy, hyy, mx = rng.normal(size=(6, 7))
        value, action = extended_hamiltonian(
            spec, HamiltonianInputs(t=t, x=x, z=z, grad_param=gy,
                                    hess_param=hyy, mixed=mx))
        g = z / p.sigma - gy
        expect_a = -p.b_bar * g
        expect_v = (0.5 * expect_a ** 2 + (p.a_bar * x + p.b_bar * expect_a) * g
                    - 0.5 * p.sigma ** 2 * hyy - p.sigma * mx)
        np.testing.assert_allclose(action, expect_a, rtol=1e-14)
        np.testing.assert_allclose(value, expect_v, rtol=1e-13, atol=1e-14)

    def test_scalar_in_float_out(self, benchmark_params):
        value, action = extended_hamiltonian(
            lqr_model(benchmark_params),
            HamiltonianInputs(t=0.0, x=1.0, z=0.5, grad_param=0.1,
                              hess_param=0.2, mixed=0.3))
        assert isinstance(value, float) and isinstance(action, float)

    @given(z=st.floats(-10, 10), gy=st.floats(-10, 10), s=st.floats(-5, 5),
           x=st.floats(-3, 3))
    def test_shift_invariance(self, z, gy, s, x):
        # moving mass between the z slot and the parameter gradient must not
        # change the Hamiltonian: g depends only on z/vol - grad_param
        spec = lqr_model(LqrParams())
        base = HamiltonianInputs(t=0.0, x=x, z=z, grad_param=gy,
                                 hess_param=0.0, mixed=0.0)
        shifted = HamiltonianInputs(t=0.0, x=x, z=z + s, grad_param=gy + s / 0.5,
                                    hess_param=0.0, mixed=0.0)
        v0, a0 = extended_hamiltonian(spec, base)
        v1, a1 = extended_hamiltonian(spec, shifted)
        assert math.isclose(v0, v1, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(a0, a1, rel_tol=1e-9, abs_tol=1e-9)

    def test_grid_search_matches_closed_form(self, benchmark_params):
        p = benchmark_params
        closed = lqr_model(p)
        gridded = ModelSpec(
            drift=closed.drift, vol=closed.vol,
            running_cost=closed.running_cost, terminal_cost=closed.terminal_cost,
            dy_running=closed.dy_running, dyy_running=closed.dyy_running,
            dy_terminal=closed.dy_terminal, dyy_terminal=closed.dyy_terminal,
            maximizer=ActionGrid(lo=-4.0, hi=4.0, count=8001),
            sense=Sense.MINIMIZE)
        inp = HamiltonianInputs(t=0.2, x=np.array([-1.0, 0.5, 2.0]),
                                z=np.array([0.3, -0.2, 1.0]),
                                grad_param=np.array([0.1, 0.0, -0.4]),
                                hess_param=0.0, mixed=0.0)
        v_closed, a_closed = extended_hamiltonian(closed, inp)
        v_grid, a_grid = extended_hamiltonian(gridded, inp)
        # value error is quadratic in the action spacing, action error linear
        da = 8.0 / 8000
        np.testing.assert_allclose(a_grid, a_closed, atol=da)
        np.testing.assert_allclose(v_grid, v_closed, atol=da * da)

    def test_grid_tie_breaks_to_lowest_index(self):
        # with b_bar = 0 the action has no effect on drift, and a flat
        # running cost makes every action optimal: the first must win
        spec = ModelSpec(
            drift=lambda t, x, a: 0.0 * a + x,
            vol=lambda t, x: 1.0 + 0.0 * np.asarray(x),
            running_cost=lambda t, y, x, a: 0.0 * a,
            terminal_cost=lambda y, x: 0.0 * x,
            dy_running=lambda t, y, x, a: 0.0 * y,
            dyy_running=lambda t, y, x, a: 0.0 * y,
            dy_terminal=lambda y, x: 0.0 * y,
            dyy_terminal=lambda y, x: 0.0 * y,
            maximizer=ActionGrid(lo=-2.0, hi=2.0, count=5))
        _, action = extended_hamiltonian(
            spec, HamiltonianInputs(t=0.0, x=1.0, z=0.0, grad_param=0.0,
                                    hess_param=0.0, mixed=0.0))
        assert action == -2.0

    def test_maximize_sense_grid(self):
        # concave reward in the action: grid argmax must find the peak
        spec = ModelSpec(
            drift=lambda t, x, a: x + 0.0 * a,
            vol=lambda t, x: 1.0 + 0.0 * np.asarray(x),
            running_cost=lambda t, y, x, a: -(a - 1.0) ** 2,
            terminal_cost=lambda y, x: 0.0 * x,
            dy_running=lambda t, y, x, a: 0.0 * y,
            dyy_running=lambda t, y, x, a: 0.0 * y,
            dy_terminal=lambda y, x: 0.0 * y,
            dyy_terminal=lambda y, x: 0.0 * y,
            maximizer=ActionGrid(lo=-2.0, hi=2.0, count=41),
            sense=Sense.MAXIMIZE)
        value, action = extended_hamiltonian(
            spec, HamiltonianInputs(t=0.0, x=0.5, z=0.0, grad_param=0.0,
                                    hess_param=0.0, mixed=0.0))
        assert action == 1.0
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_non_finite_slot_raises(self, benchmark_params):
        spec = lqr_model(benchmark_params)
        with pytest.raises(NumericError, match="slot 'z'"):
            extended_hamiltonian(
                spec, HamiltonianInputs(t=0.0, x=1.0, z=math.nan, grad_param=0.0,
                                        hess_param=0.0, mixed=0.0))

    def test_nonpositive_vol_raises(self):
        spec = lqr_model(LqrParams())
        broken = ModelSpec(**{**spec.__dict__, "vol": lambda t, x: 0.0 * np.asarray(x)})
        with pytest.raises(ConfigError, match="volatility"):
            extended_hamiltonian(
                broken, HamiltonianInputs(t=0.0, x=1.0, z=0.0, grad_param=0.0,
                                          hess_param=0.0, mixed=0.0))


class TestActionGrid:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ActionGrid(lo=1.0, hi=0.0, count=5)
        with pytest.raises(ConfigError):
            ActionGrid(lo=0.0, hi=1.0, count=0)
        with pytest.raises(ConfigError):
            ActionGrid(lo=-math.inf, hi=1.0, count=5)

    def test_actions_endpoints(self):
        grid = ActionGrid(lo=-1.0, hi=3.0, count=9)
        assert grid.actions[0] == -1.0 and grid.actions[-1] == 3.0
        assert grid.actions.size == 9


class TestInconsistencyAdjustment:
    def test_matches_hand_formula(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=3)
        s = rng.normal(size=(3, 2))
        gy = rng.normal(size=3)
        hyy = rng.normal(size=(3, 3))
        hxy = rng.normal(size=(3, 3))
        got = inconsistency_adjustment(AdjustmentInputs(b, s, gy, hyy, hxy))
        cov = s @ s.T
        want = float(b @ gy + np.trace((0.5 * hyy + hxy) @ cov))
        assert got == pytest.approx(want, rel=1e-14)

    def test_scalar_instance(self):
        # 1-d: b*gy + (hyy/2 + hxy) * s^2
        got = inconsistency_adjustment(
            AdjustmentInputs(drift_vec=2.0, sigma_mat=0.5, grad_y=3.0,
                             hess_yy=4.0, hess_xy=1.0))
        assert got == pytest.approx(2.0 * 3.0 + (2.0 + 1.0) * 0.25, rel=1e-14)

    @given(scale=st.floats(-3, 3))
    def test_linearity_in_field_slots(self, scale):
        b = np.array([1.0, -0.5])
        s = np.array([[0.3], [0.8]])
        gy = np.array([0.2, 1.1])
        hyy = np.array([[1.0, 0.2], [0.2, -0.5]])
        hxy = np.array([[0.4, 0.0], [0.7, 0.1]])
        base = inconsistency_adjustment(AdjustmentInputs(b, s, gy, hyy, hxy))
        scaled = inconsistency_adjustment(
            AdjustmentInputs(b, s, scale * gy, scale * hyy, scale * hxy))
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)

    def test_dimension_errors(self):
        with pytest.raises(ConfigError):
            inconsistency_adjustment(AdjustmentInputs(
                [1.0, 2.0], [[1.0], [1.0]], [1.0], np.eye(2), np.eye(2)))
        with pytest.raises(ConfigError):
            inconsistency_adjustment(AdjustmentInputs(
                [1.0, 2.0], [[1.0]], [1.0, 2.0], np.eye(2), np.eye(2)))
        with pytest.raises(ConfigError):
            inconsistency_adjustment(AdjustmentInputs(
                [1.0, 2.0], [[1.0], [1.0]], [1.0, 2.0], np.eye(3), np.eye(2)))

    def test_non_finite_raises(self):
        with pytest.raises(NumericError, match="grad_y"):
            inconsistency_adjustment(AdjustmentInputs(
                [1.0], [[1.0]], [math.inf], [[0.0]], [[0.0]]))


class TestClockAugmentation:
    def test_structural_zeros(self):
        aug = augment_time_dependent(clock_model())
        xv, yv = np.array([0.3, 1.5]), np.array([0.2, -0.7])
        assert aug.drift(0.3, xv, 0.4)[0] == 1.0
        assert aug.vol(0.3, xv).shape == (2, 1)
        assert aug.vol(0.3, xv)[0, 0] == 0.0
        assert aug.dy_running(0.3, yv, xv, 0.4)[1] == 0.0
        assert aug.dy_terminal(yv, xv)[1] == 0.0
        assert np.all(aug.dyy_running(0.3, yv, xv, 0.4)[1:, :] == 0.0)
        assert np.all(aug.dyy_terminal(yv, xv)[:, 1] == 0.0)

    def test_costs_read_clock_and_space_slots(self):
        td = clock_model()
        aug = augment_time_dependent(td)
        xv, yv = np.array([0.3, 1.5]), np.array([0.2, -0.7])
        assert aug.running_cost(0.3, yv, xv, 0.4) == td.running_cost(0.3, 0.2, 1.5, 0.4)
        assert aug.terminal_cost(yv, xv) == td.terminal_cost(0.2, 1.5)

    def test_augmented_derivatives_match_finite_differences(self):
        aug = augment_time_dependent(clock_model())
        samples = [(0.1, np.array([0.4, 0.9]), np.array([0.1, -1.3]), 0.7),
                   (0.8, np.array([-0.2, 0.0]), np.array([0.8, 2.0]), -0.3)]
        assert check_derivatives(aug, samples) < 1e-5

    def test_adjustment_reduces_to_clock_drift_term(self):
        # the clock has unit drift and no noise, and clock-anchored costs
        # have no anchor-slot derivatives, so the correction collapses to
        # the pure time derivative of the coupled field
        aug = augment_time_dependent(clock_model())
        xv = np.array([0.4, 1.1])
        mu = aug.drift(0.4, xv, 0.2)
        sig = aug.vol(0.4, xv)
        g_clock = 0.83
        got = inconsistency_adjustment(AdjustmentInputs(
            drift_vec=mu, sigma_mat=sig, grad_y=[g_clock, 0.0],
            hess_yy=[[0.31, 0.0], [0.0, 0.0]], hess_xy=[[-0.2, 0.5], [0.0, 0.0]]))
        assert got == g_clock
