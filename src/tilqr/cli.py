"""Command line front end: configuration, orchestration, and file emission.

Configuration is an INI-style ``key = value`` file with ``[section]``
headers, parsed strictly: unknown sections or keys are errors, so a typo
cannot silently fall back to a default. Every missing key takes the
documented default, and the fully resolved configuration is echoed into a
comment header at the top of every output file, in a form this module can
re-parse (the round-trip is covered by the test suite).

Tables are written as CSV with ``repr`` floats (shortest round-trip), LF
line endings, and ``#``-prefixed comments; a JSON mirror of each table is
written when ``formats = csv,json``. Plots are deterministic standalone
SVG. Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 validation failure. Errors print one JSON record to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, validation
from .errors import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    NumericError,
)
from .evaluation import exact_cost, gamma_sweep
from .hjbgrid import (
    GridSpec2,
    _check_iteration_settings,
    diagonal_residual,
    extract_gain,
    solve_extended_hjb_picard,
    solve_extended_hjb_sweep,
)
from .model import LqrParams, lqr_model
from .montecarlo import SimConfig, compare_strategies
from .riccati import STRATEGY_LABELS, GainLabel, TimeGrid, strategy_gains
from .svgplot import PlotStyle, Series, render_svg

_STRATEGIES = tuple(label.value for label in STRATEGY_LABELS)


@dataclass(frozen=True)
class NumericsSection:
    """Grid and sampling sizes; toolkit choices, not model content."""

    ode_steps: int = 1000
    sim_steps: int = 1000
    n_paths: int = 10_000
    seed: int = 42
    antithetic: bool = False


@dataclass(frozen=True)
class PdeSection:
    n_t: int = 400
    n_x: int = 160
    n_y: int = 160
    x_lo: float = -3.0
    x_hi: float = 5.0
    tol: float = 1e-9
    max_iter: int = 200


@dataclass(frozen=True)
class SweepSection:
    gamma_min: float = 0.0
    gamma_max: float = 10.0
    gamma_steps: int = 20


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    formats: tuple = ("csv",)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one invocation."""

    model: LqrParams = LqrParams()
    numerics: NumericsSection = NumericsSection()
    pde: PdeSection = PdeSection()
    sweep: SweepSection = SweepSection()
    output: OutputSection = OutputSection()

    def sim_config(self) -> SimConfig:
        n = self.numerics
        return SimConfig(n_paths=n.n_paths, n_steps=n.sim_steps, seed=n.seed,
                         antithetic=n.antithetic)

    def ode_grid(self) -> TimeGrid:
        return TimeGrid(n_steps=self.numerics.ode_steps, horizon=self.model.horizon)

    def sim_grid(self) -> TimeGrid:
        return TimeGrid(n_steps=self.numerics.sim_steps, horizon=self.model.horizon)

    def pde_grid(self) -> GridSpec2:
        p = self.pde
        return GridSpec2(n_t=p.n_t, n_x=p.n_x, x_lo=p.x_lo, x_hi=p.x_hi,
                         horizon=self.model.horizon)

    def gamma_values(self) -> np.ndarray:
        s = self.sweep
        return np.linspace(s.gamma_min, s.gamma_max, s.gamma_steps)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _parse_formats(text: str) -> tuple:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    if not parts:
        raise ValueError("formats must name at least one of csv/json")
    for p in parts:
        if p not in ("csv", "json"):
            raise ValueError(f"unknown format {p!r} (choose from csv and json)")
    return tuple(f for f in ("csv", "json") if f in parts)


def _parse_str(text: str) -> str:
    if not text:
        raise ValueError("value must be nonempty")
    return text


_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: _parse_str,
            tuple: _parse_formats}

# section -> key -> parser, read off the RunConfig sections' fields; their
# declaration order is the echo order
_SCHEMA = {section: {key: _PARSERS[kind] for key, kind in get_type_hints(cls).items()}
           for section, cls in get_type_hints(RunConfig).items()}


def _validated(config: RunConfig) -> RunConfig:
    # the model section checks itself when built; constructing the derived
    # objects runs the other domain checks, so a bad value fails at parse
    # time instead of deep inside a subcommand
    config.sim_config()
    config.ode_grid()
    config.pde_grid()
    _check_iteration_settings(config.pde.tol, config.pde.max_iter)
    # the echoed header holds the directory on one line, stripped when re-read
    directory = config.output.directory
    if directory.strip().splitlines() != [directory]:
        raise ConfigError(f"output directory must be one nonempty line without "
                          f"surrounding whitespace, got {directory!r}")
    if "\0" in directory:  # no file system path holds one
        raise ConfigError(f"output directory must not contain a NUL byte, got {directory!r}")
    sw = config.sweep
    if sw.gamma_steps < 1:
        raise ConfigError(f"gamma_steps must be >= 1, got {sw.gamma_steps}")
    if not (math.isfinite(sw.gamma_min) and math.isfinite(sw.gamma_max)):
        raise ConfigError("gamma_min and gamma_max must be finite")
    if sw.gamma_min < 0 or sw.gamma_max < sw.gamma_min:
        raise ConfigError(
            "sweep range must satisfy 0 <= gamma_min <= gamma_max, got "
            f"[{sw.gamma_min}, {sw.gamma_max}]")
    return config


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    """Parse INI-style configuration text; see :func:`parse_config`."""
    values = {name: {} for name in _SCHEMA}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"{source}:{lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section {name!r} "
                    f"(expected one of {' '.join(_SCHEMA)})")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [{section}]")
        if key in values[section]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in [{section}]")
        try:
            values[section][key] = _SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
    defaults = RunConfig()
    return _validated(RunConfig(**{
        name: dataclasses.replace(getattr(defaults, name), **given)
        for name, given in values.items()}))


def parse_config(path) -> RunConfig:
    """Read and validate a configuration file.

    Unknown sections or keys, duplicate keys, malformed lines, and values
    outside their domain all raise :class:`ConfigError` naming the file and
    line. An empty file yields the all-defaults configuration.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def config_echo(config: RunConfig) -> list:
    """Header lines recording the toolkit version and resolved config."""
    lines = [f"tilqr {__version__}"]
    for name in _SCHEMA:
        lines.append(f"[{name}]")
        section = getattr(config, name)
        for key in _SCHEMA[name]:
            lines.append(f"{key} = {_format_cell(getattr(section, key))}")
    return lines


def parse_header_config(path) -> RunConfig:
    """Recover the RunConfig echoed into an output file's comment header."""
    lines = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if not raw.startswith("#"):
                break
            lines.append(raw[1:].strip())
    if not lines or not lines[0].startswith("tilqr "):
        raise ConfigError(f"{path}: missing toolkit header")
    body = [l for l in lines[1:] if not l.startswith(("note:", "report:"))]
    return parse_config_text("\n".join(body), source=str(path))


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, tuple):
        return ",".join(v)
    return str(v)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None  # JSON has no NaN or Infinity
    return str(v)


def _emit_table(config: RunConfig, out_dir: Path, name: str,
                columns, rows, comments=(), plot=None) -> list:
    """Write ``name.csv``, when requested ``name.json``, and with ``plot``,
    a ``(series, title, x_label, y_label)`` tuple, ``name.svg``.

    ``comments`` are extra header lines (already prefixed ``note:`` or
    ``report:``) so the config echo stays re-parsable around them. Every
    text, the plot's included, is made before any file is written, so a
    plot that cannot be drawn leaves no file. Returns the paths in that
    order.
    """
    rows = [list(row) for row in rows]
    texts = {}
    if "csv" in config.output.formats:
        lines = [f"# {line}" for line in config_echo(config)]
        lines += [f"# {line}" for line in comments]
        lines.append(",".join(columns))
        lines += [",".join(_format_cell(v) for v in row) for row in rows]
        texts["csv"] = "\n".join(lines) + "\n"
    if "json" in config.output.formats:
        doc = {
            "version": __version__,
            "config": {name_: dataclasses.asdict(getattr(config, name_))
                       for name_ in _SCHEMA},
            "comments": list(comments),
            "columns": list(columns),
            "rows": [[_json_cell(v) for v in row] for row in rows],
        }
        texts["json"] = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if plot is not None:
        series, title, x_label, y_label = plot
        texts["svg"] = render_svg(series, PlotStyle(
            title=title, x_label=x_label, y_label=y_label,
            header="\n".join(config_echo(config))))
    paths = [out_dir / f"{name}.{ext}" for ext in texts]
    for path, text in zip(paths, texts.values()):
        path.write_text(text, encoding="utf-8", newline="\n")
    return paths


def _report_written(paths):
    for path in paths:
        print(f"wrote {path}")


def _cmd_gains(config: RunConfig, args, out_dir: Path) -> int:
    grid = config.ode_grid()
    eq, nav, pre = strategy_gains(config.model, grid).values()
    rows = zip(grid.nodes, eq.k_state, nav.k_state, pre.k_state, pre.c_offset)
    paths = _emit_table(config, out_dir, "gains",
                        ("t", "k_equilibrium", "k_naive", "k_pre_state", "c_pre_offset"),
                        rows)
    print(f"gain schedules on {grid.n_steps + 1} nodes: "
          f"K_eq(0) = {eq.k_state[0]:.6f}, K_naive(0) = {nav.k_state[0]:.6f}")
    _report_written(paths)
    return EXIT_OK


def _cmd_cost(config: RunConfig, args, out_dir: Path) -> int:
    label = GainLabel(args.strategy)
    (gain,) = strategy_gains(config.model, config.ode_grid(), [label]).values()
    report = exact_cost(gain, config.model)
    rows = [(args.strategy, report.running_cost, report.terminal_cost, report.total)]
    paths = _emit_table(config, out_dir, "cost",
                        ("strategy", "running_cost", "terminal_cost", "total"), rows)
    print(f"exact {args.strategy} cost: {report.total:.10f} "
          f"(running {report.running_cost:.10f} + terminal {report.terminal_cost:.10f})")
    _report_written(paths)
    return EXIT_OK


def _cmd_sweep(config: RunConfig, args, out_dir: Path) -> int:
    table = gamma_sweep(config.model, config.gamma_values(), config.ode_grid())
    if all(table.notes):
        # nothing to tabulate or plot; fail before writing a partial tree
        raise NumericError(f"all {len(table.notes)} sweep rows failed numerically; "
                           f"first: {table.notes[0]}")
    series = [Series(label, table.gammas[mask], ys[mask])
              for label, ys, mask in zip(_STRATEGIES, table.costs, np.isfinite(table.costs))
              if mask.any()]
    comments = [f"note: {n}" for n in table.notes if n]
    paths = _emit_table(config, out_dir, "sweep",
                        ("gamma", *(f"j_{label}" for label in _STRATEGIES)),
                        zip(table.gammas, *table.costs), comments,
                        plot=(series, "Time-zero cost against the terminal penalty weight",
                              "gamma", "expected cost"))
    print(f"swept {table.gammas.size} penalty weights in "
          f"[{table.gammas[0]:g}, {table.gammas[-1]:g}]"
          + (f" ({len(comments)} rows failed numerically)" if comments else ""))
    _report_written(paths)
    return EXIT_OK


def _cmd_simulate(config: RunConfig, args, out_dir: Path) -> int:
    params = config.model
    sim = config.sim_config()
    label = GainLabel(args.strategy)
    (gain,) = strategy_gains(params, config.sim_grid(), [label]).values()
    # one chunk of paths in memory at a time; only the first few are kept
    shown = min(8, sim.n_paths)
    run = compare_strategies(params, sim, [gain], keep=shown)
    est = run.estimate()
    # reference cost on the ODE grid, so an odd sim step count stays usable
    if config.ode_grid() != config.sim_grid():
        (gain,) = strategy_gains(params, config.ode_grid(), [label]).values()
    exact = exact_cost(gain, params)
    gap = abs(est.mean - exact.total)
    rows = [(args.strategy, est.mean, est.stderr, est.n_paths,
             exact.total, gap, gap <= 3.0 * est.stderr)]
    paths = _emit_table(config, out_dir, "simulate",
                        ("strategy", "mc_mean", "mc_stderr", "n_paths",
                         "exact_total", "abs_error", "within_three_stderr"), rows)
    path_rows = []
    for i in range(shown):
        for k in range(sim.n_steps + 1):
            path_rows.append((i, run.times[k], run.states[0, i, k],
                              run.controls[0, i, min(k, sim.n_steps - 1)]))
    comments = (f"note: first {shown} of {sim.n_paths} paths",
                "note: the control column repeats its last sample on the terminal row")
    paths += _emit_table(config, out_dir, "simulate_paths",
                         ("path", "t", "state", "control"), path_rows, comments)
    print(f"{args.strategy}: MC mean {est.mean:.6f} +- {est.stderr:.6f} "
          f"({est.n_paths} paths), exact {exact.total:.6f}, |error| = {gap:.2e}")
    _report_written(paths)
    return EXIT_OK


def _cmd_compare(config: RunConfig, args, out_dir: Path) -> int:
    params = config.model
    sim = config.sim_config()
    strategies = list(strategy_gains(params, config.sim_grid()).values())
    comp = compare_strategies(params, sim, strategies)
    n = sim.n_steps
    columns = (["t"] + [f"mean_state_{lab}" for lab in comp.labels]
               + [f"mean_abs_control_{lab}" for lab in comp.labels])
    rows = []
    for k in range(n + 1):
        row = [comp.times[k]]
        row += [comp.mean_state[j, k] for j in range(len(comp.labels))]
        row += [comp.mean_abs_control[j, min(k, n - 1)] for j in range(len(comp.labels))]
        rows.append(row)
    series = [Series(f"mean state {lab}", comp.times, comp.mean_state[j])
              for j, lab in enumerate(comp.labels)]
    series += [Series(f"mean |control| {lab}", comp.times[:-1], comp.mean_abs_control[j])
               for j, lab in enumerate(comp.labels)]
    comments = ("note: strategies share one noise stream (common random numbers)",
                "note: mean_abs_control columns repeat their last sample on the terminal row")
    paths = _emit_table(config, out_dir, "compare", columns, rows, comments,
                        plot=(series, "Sample averages under common random numbers",
                              "t", "sample average"))
    print(f"compared {len(comp.labels)} strategies over {sim.n_paths} shared paths")
    _report_written(paths)
    return EXIT_OK


def _cmd_pde(config: RunConfig, args, out_dir: Path) -> int:
    params = config.model
    model = lqr_model(params)
    grid = config.pde_grid()
    # the parameter grid is the state grid
    if config.pde.n_y != grid.n_x:
        raise ConfigError("diagonal sampling needs identical x and y grids "
                          f"(got n_x = {grid.n_x}, n_y = {config.pde.n_y})")
    if args.mode == "picard":
        sol = solve_extended_hjb_picard(model, grid, tol=config.pde.tol,
                                        max_iter=config.pde.max_iter)
    else:
        sol = solve_extended_hjb_sweep(model, grid)
    gain = extract_gain(sol, params)
    residual = diagonal_residual(sol)
    rep = sol.report
    comments = [f"report: mode = {rep.mode}",
                f"report: dt = {grid.dt!r}",
                f"report: dx = {grid.dx!r}",
                f"report: sigma_max = {rep.sigma_max!r}",
                f"report: stability_ratio = {rep.stability_ratio!r}",
                f"report: iterations = {rep.iterations}",
                f"report: diagonal_residual = {residual!r}"]
    if rep.trace:
        comments.append("report: windows = " + " ".join(
            f"[{w.k_lo} {w.k_hi}]x{len(w.distances)}" for w in rep.trace))
    rows = zip(gain.grid.nodes, gain.k_state, gain.c_offset, gain.fit_residual)
    paths = _emit_table(config, out_dir, "pde",
                        ("t", "k_state", "c_offset", "fit_residual"), rows, comments)
    print(f"{rep.mode} solve on a {grid.n_t}x{grid.n_x} grid: "
          f"K(0) = {gain.k_state[0]:.6f}, diagonal residual {residual:.3e}")
    _report_written(paths)
    return EXIT_OK


def _cmd_validate(config: RunConfig, args, out_dir: Path) -> int:
    results, _ = validation.run_all()
    rows = [(r.criterion, r.name, r.passed, r.detail) for r in results]
    paths = _emit_table(config, out_dir, "validation",
                        ("criterion", "name", "passed", "detail"), rows)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.criterion:2d} {r.name}: {r.detail}")
    _report_written(paths)
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return EXIT_VALIDATION
    print(f"all {len(results)} checks passed")
    return EXIT_OK


_DISPATCH = {
    "gains": _cmd_gains,
    "cost": _cmd_cost,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "pde": _cmd_pde,
    "validate": _cmd_validate,
}


class _ArgumentParser(argparse.ArgumentParser):
    # argparse prints usage and exits on its own; route its complaints
    # through the shared taxonomy so they land on exit code 2 like every
    # other configuration problem
    def error(self, message):
        raise ConfigError(message)


def _add_common_flags(parser, after_subcommand: bool):
    # the flags are accepted before or after the subcommand; the subparser
    # copies suppress their defaults so they never clobber a value parsed
    # from the front position
    extra = {"default": argparse.SUPPRESS} if after_subcommand else {}
    parser.add_argument("--config", metavar="PATH",
                        help="INI-style configuration file (missing keys take defaults)",
                        **extra)
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config)", **extra)
    parser.add_argument("--seed", metavar="N", type=int,
                        help="Monte Carlo seed (overrides the config)", **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tilqr",
        description="Equilibrium, naive, and precommitted feedback laws for a "
                    "time-inconsistent LQR: exact costs, Monte Carlo, and a "
                    "coupled grid solver.")
    _add_common_flags(parser, after_subcommand=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, after_subcommand=True)
        return p

    add("gains", "tabulate the three gain schedules")
    cost = add("cost", "exact time-zero cost of one strategy")
    cost.add_argument("--strategy", required=True, choices=_STRATEGIES)
    add("sweep", "exact costs across a range of penalty weights")
    simulate = add("simulate", "Monte Carlo cost estimate for one strategy")
    simulate.add_argument("--strategy", required=True, choices=_STRATEGIES)
    add("compare", "simulate all strategies on one noise stream")
    pde = add("pde", "solve the coupled grid equations and extract the gain")
    pde.add_argument("--mode", required=True, choices=("sweep", "picard"))
    add("validate", "run the benchmark checks (fixed parameter set); "
                    "nonzero exit on any failure")
    return parser


def _emit_error(kind: str, exc: Exception | str):
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)},
                                sort_keys=True) + "\n")


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
        config = parse_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            config = dataclasses.replace(
                config, numerics=dataclasses.replace(config.numerics, seed=args.seed))
        if args.out is not None:
            config = dataclasses.replace(
                config, output=dataclasses.replace(config.output, directory=args.out))
        config = _validated(config)
        out_dir = Path(config.output.directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](config, args, out_dir)
    except ConfigError as exc:
        _emit_error("config", exc)
        return EXIT_CONFIG
    except NumericError as exc:
        _emit_error("numeric", exc)
        return EXIT_NUMERIC
    except OSError as exc:
        _emit_error("io", exc)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a run sized past this machine's memory is a configuration problem
        _emit_error("config", f"not enough memory: {exc}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
