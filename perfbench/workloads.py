"""The benchmark workloads: inputs, body and output checks.

Each workload drives tilqr only through ``tilqr.cli.main`` and the names the
``tilqr`` package exports, looked up at call time so the tracer's wrappers
see them. The seed sets the Monte Carlo seed and nothing else.

An operation is one public call the workload makes (an estimate, a CLI
command or a solve). It fails if it raises, exits nonzero or
fails its output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import tilqr
import tilqr.cli

DEFAULT_SEED = 42
SIM_STEPS = 1000
STREAM_PATHS = 8192
# A Monte Carlo estimate passes within MC_BAND standard errors of the exact
# cost. Check 6's 3-standard-error band misses by chance 0.27% of the time,
# which over hundreds of benchmark estimates at arbitrary seeds would fail
# correct code; 5 standard errors misses with probability 5.7e-7. Misses of
# the 3-se band are still counted, as ``checks.mc_outside_3se``.
MC_BAND = 5.0
CHECK6_BAND = 3.0
GAIN_TOL = 2e-2
FIELD_TOL = 1e-8


class Iteration:
    """Operations and side counts of one workload iteration."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.ops: list[tuple[str, str | None]] = []
        self.extra = {"checks.mc_outside_3se": 0, "cli.bytes_written": 0,
                      "cli.files_written": 0}

    def op(self, name: str, fn):
        """Run one operation; ``fn`` returns None when its outputs check out."""
        try:
            problem = fn()
        except Exception as exc:  # an operation that raises counts as failed
            problem = f"{type(exc).__name__}: {exc}"
        self.ops.append((name, problem))

    def count_3se(self, mean: float, stderr: float, exact: float):
        if abs(mean - exact) > CHECK6_BAND * stderr:
            self.extra["checks.mc_outside_3se"] += 1


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def benchmark_gains(params, n_steps: int) -> list:
    """The three gain schedules on an ``n_steps`` grid, in label order."""
    grid = tilqr.TimeGrid(n_steps=n_steps, horizon=params.horizon)
    naive = tilqr.solve_naive(params, grid)
    return [tilqr.equilibrium_gain(tilqr.solve_equilibrium_riccati(params, grid), params),
            tilqr.naive_gain(naive, params),
            tilqr.precommitted_policy(naive, params)]


# ----------------------------------------------------------------- checks

def check_estimate(mean: float, stderr: float, exact: float) -> str | None:
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0):
        return f"estimate not finite or zero stderr: mean {mean!r}, stderr {stderr!r}"
    gap = abs(mean - exact)
    if gap > MC_BAND * stderr:
        return f"|mc - exact| = {gap:.4g} exceeds {MC_BAND:g} se = {MC_BAND * stderr:.4g}"
    return None


def check_simulate_row(row: dict, exact: float, n_paths: int) -> str | None:
    """One ``simulate.csv`` row against the exact cost of its strategy."""
    if row["n_paths"] != n_paths:
        return f"n_paths {row['n_paths']} != {n_paths}"
    if not math.isclose(row["exact_total"], exact, rel_tol=1e-9, abs_tol=1e-12):
        return f"exact_total {row['exact_total']!r} != library exact cost {exact!r}"
    gap = abs(row["mc_mean"] - row["exact_total"])
    if not math.isclose(row["abs_error"], gap, rel_tol=1e-9, abs_tol=1e-15):
        return f"abs_error {row['abs_error']!r} != |mc_mean - exact_total| = {gap!r}"
    if row["within_three_stderr"] != (gap <= CHECK6_BAND * row["mc_stderr"]):
        return "within_three_stderr disagrees with the row's own numbers"
    return check_estimate(row["mc_mean"], row["mc_stderr"], exact)


def check_compare_table(columns, rows, labels, exact_moments, n_paths: int,
                        x0: float, horizon: float) -> str | None:
    """``compare.csv`` against the exact mean and variance of X_T per strategy.

    ``exact_moments`` maps a label to ``(mean_T, var_T)`` from the moment ODEs.
    """
    table = np.asarray(rows, dtype=float)
    n_steps = table.shape[0] - 1
    if n_steps != SIM_STEPS or table.shape[1] != 1 + 2 * len(labels):
        return f"compare table has shape {table.shape}"
    if not np.all(np.isfinite(table)):
        return "compare table holds non-finite values"
    if np.max(np.abs(table[:, 0] - np.linspace(0.0, horizon, n_steps + 1))) > 1e-12:
        return "time column is not the simulation grid"
    for j, label in enumerate(labels):
        state = table[:, columns.index(f"mean_state_{label}")]
        control = table[:, columns.index(f"mean_abs_control_{label}")]
        if state[0] != x0:
            return f"mean_state_{label} starts at {state[0]!r}, not x0 = {x0!r}"
        if np.any(control < 0):
            return f"mean_abs_control_{label} is negative"
        mean_t, var_t = exact_moments[label]
        band = MC_BAND * math.sqrt(var_t / n_paths)
        if abs(state[-1] - mean_t) > band:
            return (f"mean_state_{label}(T) = {state[-1]:.6g} is {abs(state[-1] - mean_t):.3g} "
                    f"from the exact mean {mean_t:.6g} (band {band:.3g})")
    return None


def check_grid_gain(k_fit, k_ref) -> str | None:
    k_fit, k_ref = np.asarray(k_fit), np.asarray(k_ref)
    if k_fit.shape != k_ref.shape:
        return f"gain shapes differ: {k_fit.shape} vs {k_ref.shape}"
    err = float(np.max(np.abs(k_fit - k_ref)))
    if not err <= GAIN_TOL:
        return f"grid gain is {err:.4g} from the Riccati gain (tolerance {GAIN_TOL:g})"
    return None


def check_fields_agree(a, b) -> str | None:
    gap = max(float(np.max(np.abs(a.v - b.v))), float(np.max(np.abs(a.alpha - b.alpha))),
              float(np.max(np.abs(a.j - b.j))))
    if not gap <= FIELD_TOL:
        return f"|sweep - picard| = {gap:.4g} exceeds {FIELD_TOL:g}"
    return None


# -------------------------------------------------------------- workloads

class McStream:
    """The three gains through ``estimate_cost_streaming`` (check 6's shape)."""

    seeded = True

    def __init__(self, seed: int):
        self.params = tilqr.LqrParams()
        self.config = tilqr.SimConfig(n_paths=STREAM_PATHS, n_steps=SIM_STEPS, seed=seed)
        self.gains = benchmark_gains(self.params, SIM_STEPS)
        self.work = len(self.gains) * STREAM_PATHS * SIM_STEPS  # path-steps
        self.estimates = []

    def run(self, it: Iteration):
        for gain in self.gains:
            def estimate(gain=gain):
                est = tilqr.estimate_cost_streaming(gain, self.params, self.config)
                self.estimates.append(est)
                exact = tilqr.exact_cost(gain, self.params).total
                it.count_3se(est.mean, est.stderr, exact)
                return check_estimate(est.mean, est.stderr, exact)
            it.op(f"estimate {gain.label.value}", estimate)

    def digest(self) -> str:
        return _hash_arrays([(e.mean, e.stderr) for e in self.estimates])


def _read_csv(path: Path):
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]], lines


def _json_rows(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


class McPaths:
    """``tilqr simulate --strategy naive`` then ``tilqr compare`` at the
    default configuration, with a JSON mirror of every table."""

    seeded = True
    n_paths = 10_000  # the CLI default, checked against the output

    def __init__(self, seed: int):
        self.seed = seed
        self.params = tilqr.LqrParams()
        self.work = 4 * self.n_paths * SIM_STEPS  # path-steps: 1 + 3 gains
        self.data_lines = []

    def _cli(self, it: Iteration, out: Path, *argv) -> int:
        config = it.work_dir / "bench.ini"
        before = {p: p.stat().st_size for p in out.glob("*")} if out.exists() else {}
        with contextlib.redirect_stdout(io.StringIO()):
            code = tilqr.cli.main([*argv, "--config", str(config), "--out", str(out),
                                   "--seed", str(self.seed)])
        after = {p: p.stat().st_size for p in out.glob("*")}
        it.extra["cli.files_written"] += sum(1 for p in after if p not in before)
        it.extra["cli.bytes_written"] += sum(s for p, s in after.items() if p not in before)
        return code

    def run(self, it: Iteration):
        out = it.work_dir / "out"
        (it.work_dir / "bench.ini").write_text("[output]\nformats = csv,json\n",
                                               encoding="utf-8")
        refs = {}

        def reference() -> dict:
            # the CLI builds its own gains; these serve only the checks
            if not refs:
                refs.update((g.label.value, g)
                            for g in benchmark_gains(self.params, SIM_STEPS))
            return refs

        def simulate():
            code = self._cli(it, out, "simulate", "--strategy", "naive")
            if code != 0:
                return f"simulate exited {code}"
            columns, rows, lines = _read_csv(out / "simulate.csv")
            self.data_lines += lines
            if _json_rows(out / "simulate.json") != [_typed(v) for v in rows]:
                return "simulate.json rows differ from simulate.csv"
            row = dict(zip(columns, _typed(rows[0])))
            total = tilqr.exact_cost(reference()["naive"], self.params).total
            it.count_3se(row["mc_mean"], row["mc_stderr"], total)
            _, paths_rows, paths_lines = _read_csv(out / "simulate_paths.csv")
            self.data_lines += paths_lines
            if len(paths_rows) != 8 * (SIM_STEPS + 1):
                return f"simulate_paths.csv has {len(paths_rows)} rows"
            return check_simulate_row(row, total, self.n_paths)

        def compare():
            code = self._cli(it, out, "compare")
            if code != 0:
                return f"compare exited {code}"
            columns, rows, lines = _read_csv(out / "compare.csv")
            self.data_lines += lines
            table = [[float(v) for v in r] for r in rows]
            if _json_rows(out / "compare.json") != table:
                return "compare.json rows differ from compare.csv"
            svg = (out / "compare.svg").read_text(encoding="utf-8")
            if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
                return "compare.svg is not a complete SVG document"
            moments = {}
            for label, gain in reference().items():
                m = tilqr.solve_moments(gain, self.params)
                moments[label] = (float(m.mean[-1]), float(m.variance[-1]))
            return check_compare_table(columns, table, list(moments), moments, self.n_paths,
                                       self.params.x0, self.params.horizon)

        it.op("cli simulate", simulate)
        it.op("cli compare", compare)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.data_lines).encode()).hexdigest()


def _typed(fields):
    out = []
    for v in fields:
        if v in ("true", "false"):
            out.append(v == "true")
            continue
        try:
            out.append(int(v))
        except ValueError:
            try:
                out.append(float(v))
            except ValueError:
                out.append(v)
    return out


class Pde:
    """Sweep and Picard solves on a 170 x 200 grid, n_t x n_x (check 9's
    second half).

    The default 400 x 160 grid takes about 14 s per iteration, too long for
    a run to hold enough iterations for a steady median. This grid takes
    about 5 s, a quarter of it system time from minor page faults as at the
    default grid. In interleaved timings on a shared host, solves with 200
    space nodes followed the host's speed swings less than solves with 160,
    and 170 slices is just above the explicit scheme's limit for 200 nodes.
    """

    seeded = False

    def __init__(self, seed: int):
        self.params = tilqr.LqrParams()
        self.model = tilqr.lqr_model(self.params)
        self.grid = tilqr.GridSpec2(n_t=170, n_x=200, x_lo=-3.0, x_hi=5.0,
                                    horizon=self.params.horizon)
        g = self.grid
        self.work = 2 * g.n_t * (g.n_x + 1) * (g.n_y + 1)  # grid cell-slices
        self.solutions = {}

    def run(self, it: Iteration):
        p = self.params
        ref = tilqr.equilibrium_gain(
            tilqr.solve_equilibrium_riccati(p, tilqr.TimeGrid(self.grid.n_t, p.horizon)), p)

        def solve(mode, solver):
            sol = solver(self.model, self.grid)
            self.solutions[mode] = sol
            problem = check_grid_gain(tilqr.extract_gain(sol, p).k_state, ref.k_state)
            if problem is None and mode == "picard" and "sweep" in self.solutions:
                problem = check_fields_agree(self.solutions["sweep"], sol)
            return problem

        it.op("solve sweep", lambda: solve("sweep", tilqr.solve_extended_hjb_sweep))
        it.op("solve picard", lambda: solve("picard", tilqr.solve_extended_hjb_picard))

    def digest(self) -> str:
        return _hash_arrays(*(a for mode in sorted(self.solutions)
                              for a in (self.solutions[mode].v, self.solutions[mode].j,
                                        self.solutions[mode].alpha)))


WORKLOADS = {"mc_stream": McStream, "mc_paths": McPaths, "pde": Pde}


def mc_seed(seed: int, iteration: int) -> int:
    """Monte Carlo seed of one iteration; iteration 0 uses the run's seed."""
    return seed + iteration * 2 ** 32
