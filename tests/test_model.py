import math
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tilqr import (
    ConfigError,
    LqrParams,
    ModelSpec,
    NumericError,
    augment_time_dependent,
    inconsistency_adjustment,
    lqr_model,
)


def _check_derivatives(model, samples: Sequence, step: float = 1e-5,
                       hess_step: float = 1e-4) -> float:
    """Compare a clock augmentation's parameter derivatives against central
    differences.

    Parameters
    ----------
    model : the record :func:`augment_time_dependent` returns
    samples : sequence of (t, y, x, a) tuples
        Points at which to check; ``y`` is an extended parameter vector.
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
        yv = np.asarray(y, dtype=float)
        m = yv.size
        for func, dfunc, d2func in (
            (lambda yy: model.running_cost(t, yy, x, a),
             lambda: model.dy_running(t, y, x, a),
             lambda: model.dyy_running(t, y, x, a)),
            (lambda yy: model.terminal_cost(yy, x),
             lambda: model.dy_terminal(y, x),
             lambda: model.dyy_terminal(y, x)),
        ):
            grad, hess = dfunc(), d2func()
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


C1, C3, C4, C5 = 0.7, 0.4, 1.3, 0.6


def clock_model():
    """Time-dependent-preference model: the parameter slot is the issuance
    time ``pref``."""
    return ModelSpec(
        drift=lambda t, x, a: 0.2 * x + C1 * a,
        vol=lambda t, x: 1.0 + 0.1 * math.tanh(x),
        running_cost=lambda t, pref, x, a: 0.5 * a * a + C3 * pref * x,
        terminal_cost=lambda pref, x: C4 * (x - C5 * pref) ** 2,
        maximizer=lambda g: -C1 * g,
    )


def augmented_clock_model():
    """:func:`clock_model` augmented with hand-written derivatives in ``pref``."""
    return augment_time_dependent(
        clock_model(),
        dy_running=lambda t, pref, x, a: C3 * x,
        dyy_running=lambda t, pref, x, a: 0.0,
        dy_terminal=lambda pref, x: -2.0 * C4 * C5 * (x - C5 * pref),
        dyy_terminal=lambda pref, x: 2.0 * C4 * C5 * C5,
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
        assert spec.drift(0.0, 2.0, 1.0) == 0.5 * 2.0 + 1.0

    def test_evaluators_broadcast(self, benchmark_params):
        spec = lqr_model(benchmark_params)
        x = np.linspace(-1, 1, 5)
        y = np.linspace(0, 2, 5)
        assert spec.vol(0.0, x).shape == (5,)
        assert spec.terminal_cost(y[:, None], x[None, :]).shape == (5, 5)


class TestInconsistencyAdjustment:
    def test_matches_hand_formula(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=3)
        s = rng.normal(size=(3, 2))
        gy = rng.normal(size=3)
        hyy = rng.normal(size=(3, 3))
        hxy = rng.normal(size=(3, 3))
        got = inconsistency_adjustment(drift_vec=b, sigma_mat=s, grad_y=gy,
                                       hess_yy=hyy, hess_xy=hxy)
        cov = s @ s.T
        want = float(b @ gy + np.trace((0.5 * hyy + hxy) @ cov))
        assert got == pytest.approx(want, rel=1e-14)

    def test_scalar_instance(self):
        # 1-d: b*gy + (hyy/2 + hxy) * s^2
        got = inconsistency_adjustment(drift_vec=2.0, sigma_mat=0.5, grad_y=3.0,
                                       hess_yy=4.0, hess_xy=1.0)
        assert got == pytest.approx(2.0 * 3.0 + (2.0 + 1.0) * 0.25, rel=1e-14)

    @given(scale=st.floats(-3, 3))
    def test_linearity_in_field_slots(self, scale):
        b = np.array([1.0, -0.5])
        s = np.array([[0.3], [0.8]])
        gy = np.array([0.2, 1.1])
        hyy = np.array([[1.0, 0.2], [0.2, -0.5]])
        hxy = np.array([[0.4, 0.0], [0.7, 0.1]])
        base = inconsistency_adjustment(drift_vec=b, sigma_mat=s, grad_y=gy,
                                        hess_yy=hyy, hess_xy=hxy)
        scaled = inconsistency_adjustment(drift_vec=b, sigma_mat=s, grad_y=scale * gy,
                                          hess_yy=scale * hyy, hess_xy=scale * hxy)
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)

    def test_dimension_errors(self):
        with pytest.raises(ConfigError):
            inconsistency_adjustment(
                drift_vec=[1.0, 2.0], sigma_mat=[[1.0], [1.0]], grad_y=[1.0],
                hess_yy=np.eye(2), hess_xy=np.eye(2))
        with pytest.raises(ConfigError):
            inconsistency_adjustment(
                drift_vec=[1.0, 2.0], sigma_mat=[[1.0]], grad_y=[1.0, 2.0],
                hess_yy=np.eye(2), hess_xy=np.eye(2))
        with pytest.raises(ConfigError):
            inconsistency_adjustment(
                drift_vec=[1.0, 2.0], sigma_mat=[[1.0], [1.0]], grad_y=[1.0, 2.0],
                hess_yy=np.eye(3), hess_xy=np.eye(2))

    def test_non_finite_raises(self):
        with pytest.raises(NumericError, match="grad_y"):
            inconsistency_adjustment(
                drift_vec=[1.0], sigma_mat=[[1.0]], grad_y=[math.inf],
                hess_yy=[[0.0]], hess_xy=[[0.0]])

    def test_slots_are_keyword_only(self):
        with pytest.raises(TypeError):
            inconsistency_adjustment([1.0], [[1.0]], [1.0], [[0.0]], [[0.0]])


class TestClockAugmentation:
    def test_structural_zeros(self):
        aug = augmented_clock_model()
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
        aug = augmented_clock_model()
        xv, yv = np.array([0.3, 1.5]), np.array([0.2, -0.7])
        assert aug.running_cost(0.3, yv, xv, 0.4) == td.running_cost(0.3, 0.2, 1.5, 0.4)
        assert aug.terminal_cost(yv, xv) == td.terminal_cost(0.2, 1.5)

    def test_augmented_derivatives_match_finite_differences(self):
        aug = augmented_clock_model()
        samples = [(0.1, np.array([0.4, 0.9]), np.array([0.1, -1.3]), 0.7),
                   (0.8, np.array([-0.2, 0.0]), np.array([0.8, 2.0]), -0.3)]
        assert _check_derivatives(aug, samples) < 1e-5

    def test_adjustment_reduces_to_clock_drift_term(self):
        # the clock has unit drift and no noise, and clock-anchored costs
        # have no anchor-slot derivatives, so the correction collapses to
        # the pure time derivative of the coupled field
        aug = augmented_clock_model()
        xv = np.array([0.4, 1.1])
        mu = aug.drift(0.4, xv, 0.2)
        sig = aug.vol(0.4, xv)
        g_clock = 0.83
        got = inconsistency_adjustment(
            drift_vec=mu, sigma_mat=sig, grad_y=[g_clock, 0.0],
            hess_yy=[[0.31, 0.0], [0.0, 0.0]], hess_xy=[[-0.2, 0.5], [0.0, 0.0]])
        assert got == g_clock
