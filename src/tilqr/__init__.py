"""Time-inconsistent LQR toolkit.

Equilibrium, naive, and precommitted feedback laws for the linear-quadratic
model with state-anchored terminal penalty, plus exact and Monte Carlo cost
evaluation and a coupled-field grid solver for cross-checking.
"""

__version__ = "0.1.0"

from .errors import ConfigError, NumericError, PicardError, ToolkitError
from .model import (
    LqrParams,
    ModelSpec,
    augment_time_dependent,
    inconsistency_adjustment,
    lqr_model,
)
from .riccati import (
    GainLabel,
    GainSchedule,
    NaiveSolution,
    RiccatiSolution,
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
from .evaluation import (
    CostReport,
    MomentPath,
    SweepTable,
    exact_cost,
    gamma_sweep,
    simpson_uniform,
    solve_moments,
)
from .montecarlo import (
    CostEstimate,
    SimConfig,
    StrategyComparison,
    compare_strategies,
    estimate_cost_streaming,
)
from .hjbgrid import (
    GridSolution,
    GridSpec2,
    PicardWindow,
    SchemeReport,
    diagonal_residual,
    extract_gain,
    solve_extended_hjb_picard,
    solve_extended_hjb_sweep,
)
from .svgplot import PlotStyle, Series, render_svg
from .validation import CheckResult, run_all

__all__ = [
    "CheckResult",
    "ConfigError",
    "CostEstimate",
    "CostReport",
    "GainLabel",
    "GainSchedule",
    "GridSolution",
    "GridSpec2",
    "LqrParams",
    "ModelSpec",
    "MomentPath",
    "NaiveSolution",
    "NumericError",
    "PicardError",
    "PicardWindow",
    "PlotStyle",
    "RiccatiSolution",
    "SchemeReport",
    "Series",
    "SimConfig",
    "StrategyComparison",
    "SweepTable",
    "TimeGrid",
    "ToolkitError",
    "augment_time_dependent",
    "closed_form_p",
    "compare_strategies",
    "diagonal_residual",
    "equilibrium_gain",
    "equilibrium_value",
    "estimate_cost_streaming",
    "exact_cost",
    "extract_gain",
    "gamma_sweep",
    "inconsistency_adjustment",
    "lqr_model",
    "naive_gain",
    "precommitted_policy",
    "render_svg",
    "rk4_backward",
    "run_all",
    "simpson_uniform",
    "solve_equilibrium_riccati",
    "solve_extended_hjb_picard",
    "solve_extended_hjb_sweep",
    "solve_moments",
    "solve_naive",
    "strategy_gains",
]
