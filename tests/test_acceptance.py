# Acceptance gate: one test per numbered benchmark check, each asserting the
# check passed at its contracted tolerance. The suite runs once per module,
# through `tilqr validate`, so this file and the CLI cannot drift apart.
# Wall-clock budgets are asserted where a check carries one.

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from tilqr import montecarlo, validation
from tilqr.cli import main

# seconds allowed per check, measured around the library call
BUDGET = {1: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 60.0, 7: 5.0, 9: 60.0}


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def first_validate(tmp_path_factory):
    """One CLI `validate` run: its argv, output directory, exit code and
    output tree, with the results and timings of the `run_all` call in it."""
    root = tmp_path_factory.mktemp("validate")
    config = root / "bench.ini"
    config.write_text("[output]\nformats = csv,json\n", encoding="utf-8")
    out = root / "bench"
    argv = ["validate", "--config", str(config), "--out", str(out)]
    calls = []
    real = validation.run_all

    def recording():
        calls.append(real())
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "run_all", recording)
        rc = main(argv)
    ((results, timings),) = calls
    return SimpleNamespace(argv=argv, out=out, rc=rc, tree=_tree(out),
                           results=results, timings=timings)


@pytest.fixture(scope="module")
def suite(first_validate):
    return {r.criterion: r for r in first_validate.results}, first_validate.timings


def check(suite, criterion: int):
    by_criterion, timings = suite
    result = by_criterion[criterion]
    assert result.passed, result.detail
    budget = BUDGET.get(criterion)
    if budget is not None:
        elapsed = timings[result.name]
        assert elapsed < budget, (
            f"{result.name} took {elapsed:.2f} s, budget {budget:.0f} s")
    return result


def test_criterion_01_riccati_closed_form(suite):
    # fixed-step RK4 tracks the closed-form row to 1e-8 at 1000 steps,
    # empirical order >= 3.7
    check(suite, 1)


def test_criterion_02_terminal_identities(suite):
    # terminal rows hit their boundary data bit-exactly; both feedback
    # gains vanish at the horizon to 1e-12
    check(suite, 2)


def test_criterion_03_consistency_reduction(suite):
    # without the moving anchor the equilibrium and naive gains coincide
    # pointwise to 1e-8
    check(suite, 3)


def test_criterion_04_zero_control_cost(suite):
    # exact-cost evaluator reproduces the zero-control closed form
    # 3.125e - 5*sqrt(e) + 1.875 to 1e-6
    check(suite, 4)


def test_criterion_05_ansatz_moment_match(suite):
    # moment-ODE cost of the equilibrium gain equals the equilibrium value
    # function at (0, x0) to 1e-6
    check(suite, 5)


def test_criterion_06_monte_carlo_agreement(suite):
    # 1e5 paths, 1000 steps, seed 42: simulated mean cost lands within
    # three standard errors of the exact cost for all three strategies
    check(suite, 6)


def test_criterion_07_gamma_sweep_dominance(suite):
    # equilibrium cost never exceeds naive cost across 20 penalty values
    # in [0, 10]; all costs vanish at gamma = 0
    check(suite, 7)


def test_criterion_08_initial_gain_ordering(suite):
    # qualitative: the naive law applies more control at time zero; a
    # violation is reported in the detail, not failed
    result = check(suite, 8)
    assert result.detail.startswith(("holds", "discrepancy"))


def test_criterion_09_grid_vs_riccati(suite):
    # grid-extracted gain within 2e-2 of the closed-form gain at 160 cells
    # with refinement order >= 1; sweep and Picard agree to 1e-8; Picard
    # windows contract monotonically after their first pass
    check(suite, 9)


def test_criterion_10_diagonal_identity(suite):
    # value field equals the parametric field's diagonal: bit-exact at the
    # terminal slice, residual at rounding level under refinement
    check(suite, 10)


def test_criterion_11_clock_augmentation(suite):
    # clock-only preferences reduce the adjustment to its pure
    # time-derivative term to 1e-12; spatial parameter slots exactly zero
    check(suite, 11)


def test_criterion_11_detail_is_pinned():
    # the validate tree's row 11, called directly so it runs in milliseconds
    result = validation._check_clock_augmentation()
    assert result.detail == (
        "max|adjustment - clock drift term| = 0.000e+00 over 100 draws; "
        "spatial parameter slots exactly zero: True")


def test_criterion_12_determinism(suite):
    # rerunning a simulation and changing the worker count both leave the
    # results bitwise unchanged
    check(suite, 12)


def test_criterion_12_worker_comparison_starts_a_pool(monkeypatch):
    # one chunk runs serially whatever the worker count, so the 4-worker
    # half of the check compares pooled against serial only on >1 chunk.
    # Every Monte Carlo call also owns one one-worker lane, opened before
    # its pool: the two retaining runs, then the two streaming runs
    pools = []
    real = montecarlo.ThreadPoolExecutor

    def counting(*args, **kwargs):
        pools.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", counting)
    result = validation._check_determinism()
    assert result.passed, result.detail
    lane = {"max_workers": 1}
    assert pools == [lane] * 4 + [{"max_workers": 4}]


def test_every_verdict_is_a_bool_that_json_can_write(first_validate):
    # checks 4, 5, 6, 7 and 11 reach their verdicts through numpy comparisons
    results = first_validate.results
    assert [type(r.passed) for r in results] == [bool] * len(results)
    json.dumps([dataclasses.asdict(r) for r in results])


def test_criterion_12_repeat_validate_byte_identical(first_validate):
    # the other half of the determinism contract: two `validate` runs into
    # the same directory write byte-identical output trees
    assert first_validate.rc == 0
    first = first_validate.tree
    assert main(first_validate.argv) == 0
    second = _tree(first_validate.out)
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
