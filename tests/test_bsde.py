"""The paper's BSDE, solved by least-squares regression, as an oracle for the
equilibrium gain that shares no code with the Riccati or grid routes."""

import numpy as np

from tilqr import GainLabel, LqrParams, TimeGrid, strategy_gains

PARAMS = LqrParams()


def bsde_gain(params: LqrParams, n_steps: int, n_points: int = 4000, seed: int = 1):
    """Equilibrium gain at each node from a regression scheme for the BSDE of
    the anchored cost ``J(t, x, y) = A(t, x) + B(t, x) y + gamma/2 y^2``.

    One Euler step per node, backward from ``J(T, x, y) = gamma/2 (x - y)^2``:
    on regression points ``x ~ N(x0, (1 + sigma sqrt(t))^2)``, each taken
    twice with antithetic noise, the control of the step above,
    ``a = -b_bar d/dx J(t + dt, x, x)``, moves ``x`` to ``x'``; ``A`` is
    regressed from ``A(x') + a^2 dt / 2`` on ``{1, x, x^2}`` and ``B`` from
    ``B(x')`` on ``{1, x}``. The gain is ``b_bar (2 A_2 + B_1)``.
    """
    p, rng = params, np.random.default_rng(seed)
    dt = p.horizon / n_steps
    A, B = np.array([0.0, 0.0, 0.5 * p.gamma]), np.array([0.0, -p.gamma])  # 1, x, x^2
    k = np.empty(n_steps + 1)
    k[n_steps] = p.b_bar * (2.0 * A[2] + B[1])
    for i in range(n_steps - 1, -1, -1):
        spread = 1.0 + p.sigma * np.sqrt(i * dt)
        x = np.tile(p.x0 + spread * rng.standard_normal(n_points // 2), 2)
        noise = rng.standard_normal(n_points // 2)
        a = -p.b_bar * (A[1] + (2.0 * A[2] + B[1]) * x)
        x_next = (x + (p.a_bar * x + p.b_bar * a) * dt
                  + p.sigma * np.sqrt(dt) * np.concatenate([noise, -noise]))
        basis = np.vander(x, 3, increasing=True)
        A = np.linalg.lstsq(basis, np.polyval(A[::-1], x_next) + 0.5 * a * a * dt,
                            rcond=None)[0]
        B = np.linalg.lstsq(basis[:, :2], np.polyval(B[::-1], x_next), rcond=None)[0]
        k[i] = p.b_bar * (2.0 * A[2] + B[1])
    return k


def test_the_bsde_gain_converges_to_the_riccati_equilibrium_gain():
    # one Euler step per node makes the error first order in dt; the
    # sampling error of 4000 points is well below it at 400 steps
    errors = []
    for n in (100, 200, 400):
        gains = strategy_gains(PARAMS, TimeGrid(n, PARAMS.horizon))
        errors.append(np.max(np.abs(bsde_gain(PARAMS, n)
                                    - gains[GainLabel.EQUILIBRIUM].k_state)))
    ratios = np.array(errors[:-1]) / errors[1:]
    assert np.all((ratios > 1.5) & (ratios < 2.5)), (errors, ratios)
    # and it tells the equilibrium law from the naive one, 1.39e-2 apart at t = 0
    gap = abs(gains[GainLabel.EQUILIBRIUM].k_state[0] - gains[GainLabel.NAIVE].k_state[0])
    assert gap > 0.01
    assert errors[-1] < gap / 5.0
