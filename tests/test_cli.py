"""Tests for configuration parsing, file emission, and the command line."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tilqr.validation
from tilqr import cli
from tilqr import ConfigError, LqrParams, TimeGrid, equilibrium_gain, exact_cost, solve_equilibrium_riccati
from tilqr.cli import (
    NumericsSection,
    OutputSection,
    PdeSection,
    RunConfig,
    SweepSection,
    config_echo,
    main,
    parse_config,
    parse_config_text,
    parse_header_config,
)
from tilqr.errors import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION
from tilqr.validation import CheckResult
from toolchain import pin_mismatch

SMALL_CONFIG = """\
[numerics]
ode_steps = 50
sim_steps = 50
n_paths = 200

[pde]
n_t = 25
n_x = 40
n_y = 40

[sweep]
gamma_steps = 5
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return path


def run_cli(args, config, out):
    return main([*args, "--config", str(config), "--out", str(out)])


def run_module(*args):
    """``python -m tilqr`` in a child interpreter that imports the package
    under test, whether or not it is installed."""
    path = [str(Path(tilqr.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run([sys.executable, "-m", "tilqr", *args],
                          capture_output=True, text=True, env=env)


def read_csv(path):
    comments, columns, rows = [], None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, columns, rows


class TestParseConfig:
    def test_empty_text_yields_the_defaults(self):
        assert parse_config_text("") == RunConfig()

    def test_comments_and_blank_lines_are_skipped(self):
        text = "\n# comment\n; other comment\n[model]\n\nsigma = 0.25\n"
        assert parse_config_text(text).model.sigma == 0.25

    def test_values_are_typed_per_key(self):
        text = ("[model]\ngamma = 2.5\n[numerics]\nantithetic = yes\n"
                "n_paths = 4\n[output]\nformats = json , csv\n")
        config = parse_config_text(text)
        assert config.model.gamma == 2.5
        assert config.numerics.antithetic is True
        assert config.numerics.n_paths == 4
        # formats come back in canonical order whatever the input order
        assert config.output.formats == ("csv", "json")

    @pytest.mark.parametrize("text, match", [
        ("[bogus]\n", r"cfg:1: unknown section 'bogus'"),
        ("[model\n", r"cfg:1: malformed section header"),
        ("sigma = 1\n", r"cfg:1: key outside any \[section\]"),
        ("[model]\nzap = 1\n", r"cfg:2: unknown key 'zap'"),
        ("[model]\nsigma = 1\nsigma = 2\n", r"cfg:3: duplicate key 'sigma'"),
        ("[model]\nnonsense\n", r"cfg:2: expected 'key = value'"),
        ("[numerics]\nseed = pi\n", r"cfg:2: bad value for 'seed': expected an integer"),
        ("[numerics]\nantithetic = maybe\n", r"expected a boolean"),
        ("[output]\nformats = xml\n", r"unknown format 'xml'"),
        ("[output]\ndirectory =\n", r"nonempty"),
    ])
    def test_parse_errors_name_the_file_and_line(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text, source="cfg")

    @pytest.mark.parametrize("text, match", [
        ("[model]\nsigma = -1\n", "sigma must be positive"),
        ("[model]\nhorizon = 0\n", "horizon must be positive"),
        ("[pde]\ntol = 0\n", "tol must be positive"),
        ("[pde]\nmax_iter = 1\n", "max_iter"),
        ("[sweep]\ngamma_min = 2\ngamma_max = 1\n", "sweep range"),
        ("[sweep]\ngamma_steps = 0\n", "gamma_steps"),
        ("[numerics]\nn_paths = 3\nantithetic = true\n", "even"),
        ("[pde]\nx_hi = 1e308\n", "not a positive finite number"),
        ("[pde]\nx_hi = inf\n", "must be finite"),
        ("[pde]\nx_lo = nan\n", "must be finite"),
    ])
    def test_domain_errors_surface_at_parse_time(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_text(text)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "absent.ini")


def section_strategies():
    models = st.builds(
        LqrParams,
        a_bar=st.floats(-5, 5), b_bar=st.floats(-5, 5),
        sigma=st.floats(1e-3, 5), gamma=st.floats(0, 20),
        horizon=st.floats(0.1, 5), x0=st.floats(-5, 5))
    numerics = st.builds(
        NumericsSection,
        ode_steps=st.integers(1, 10 ** 6), sim_steps=st.integers(1, 10 ** 6),
        n_paths=st.integers(1, 10 ** 8).map(lambda n: 2 * n),
        seed=st.integers(0, 2 ** 64 - 1), antithetic=st.booleans())
    pdes = st.builds(
        lambda n_t, n_x, n_y, x_lo, width, tol, max_iter: PdeSection(
            n_t=n_t, n_x=n_x, n_y=n_y, x_lo=x_lo, x_hi=x_lo + width,
            tol=tol, max_iter=max_iter),
        n_t=st.integers(1, 10 ** 5), n_x=st.integers(4, 512),
        n_y=st.integers(4, 512), x_lo=st.floats(-10, 10),
        width=st.floats(0.5, 10), tol=st.floats(1e-14, 1.0),
        max_iter=st.integers(2, 10 ** 4))
    sweeps = st.builds(
        lambda lo, extra, steps: SweepSection(
            gamma_min=lo, gamma_max=lo + extra, gamma_steps=steps),
        lo=st.floats(0, 10), extra=st.floats(0, 10), steps=st.integers(1, 10 ** 4))
    outputs = st.builds(
        OutputSection,
        directory=st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=20),
        formats=st.sampled_from([("csv",), ("json",), ("csv", "json")]))
    return st.builds(RunConfig, model=models, numerics=numerics, pde=pdes,
                     sweep=sweeps, output=outputs)


class TestConfigEcho:
    def test_header_states_tool_and_version_then_all_sections(self):
        lines = config_echo(RunConfig())
        assert lines[0] == "tilqr 0.1.0"
        assert lines[1] == "[model]"
        assert "a_bar = 0.5" in lines
        assert "formats = csv" in lines
        assert "antithetic = false" in lines

    def test_default_config_round_trips(self):
        lines = config_echo(RunConfig())
        assert parse_config_text("\n".join(lines[1:])) == RunConfig()

    @given(section_strategies())
    def test_every_valid_config_round_trips_exactly(self, config):
        lines = config_echo(config)
        assert parse_config_text("\n".join(lines[1:])) == config


class TestOutputFiles:
    def test_gains_table_reaches_the_terminal_conditions(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["gains"], small_config, out) == EXIT_OK
        comments, columns, rows = read_csv(out / "gains.csv")
        assert columns == ["t", "k_equilibrium", "k_naive", "k_pre_state", "c_pre_offset"]
        assert len(rows) == 51
        assert comments[0] == "tilqr 0.1.0"
        assert "ode_steps = 50" in comments
        last = [float(v) for v in rows[-1]]
        assert last[0] == 1.0
        assert last[1] == 0.0   # equilibrium and naive gains vanish at T
        assert last[2] == 0.0
        assert last[3] == 5.0   # precommitted terminal gain 2*b_bar*gamma/2
        assert last[4] == -5.0

    def test_cost_table_matches_the_library_bit_for_bit(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["cost", "--strategy", "equilibrium"], small_config, out) == EXIT_OK
        _, columns, rows = read_csv(out / "cost.csv")
        assert columns == ["strategy", "running_cost", "terminal_cost", "total"]
        params = LqrParams()
        grid = TimeGrid(50, params.horizon)
        gain = equilibrium_gain(solve_equilibrium_riccati(params, grid), params)
        report = exact_cost(gain, params)
        assert rows[0][0] == "equilibrium"
        assert rows[0][3] == repr(float(report.total))

    def test_sweep_emits_dominance_ordered_rows_and_a_plot(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["sweep"], small_config, out) == EXIT_OK
        _, columns, rows = read_csv(out / "sweep.csv")
        assert columns == ["gamma", "j_equilibrium", "j_naive", "j_precommitted"]
        assert len(rows) == 5
        for row in rows:
            gamma, j_eq, j_nav, j_pre = (float(v) for v in row)
            assert j_eq <= j_nav + 1e-12
            assert j_pre <= j_eq + 1e-12
        svg = (out / "sweep.svg").read_text(encoding="utf-8")
        ET.fromstring(svg)
        assert "tilqr 0.1.0" in svg

    def test_simulate_thins_paths_and_flags_agreement(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["simulate", "--strategy", "naive"], small_config, out) == EXIT_OK
        _, columns, rows = read_csv(out / "simulate.csv")
        assert columns == ["strategy", "mc_mean", "mc_stderr", "n_paths",
                           "exact_total", "abs_error", "within_three_stderr"]
        assert rows[0][3] == "200"
        assert rows[0][6] == "true"
        comments, pcols, prows = read_csv(out / "simulate_paths.csv")
        assert pcols == ["path", "t", "state", "control"]
        assert len(prows) == 8 * 51
        assert "note: first 8 of 200 paths" in comments
        # the terminal row repeats the last control sample
        assert prows[50][3] == prows[49][3]

    def test_compare_labels_all_three_strategies(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["compare"], small_config, out) == EXIT_OK
        comments, columns, rows = read_csv(out / "compare.csv")
        assert columns == ["t",
                           "mean_state_equilibrium", "mean_state_naive",
                           "mean_state_precommitted",
                           "mean_abs_control_equilibrium", "mean_abs_control_naive",
                           "mean_abs_control_precommitted"]
        assert len(rows) == 51
        assert any("common random numbers" in c for c in comments)
        ET.fromstring((out / "compare.svg").read_text(encoding="utf-8"))

    def test_pde_reports_scheme_diagnostics(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["pde", "--mode", "sweep"], small_config, out) == EXIT_OK
        comments, columns, rows = read_csv(out / "pde.csv")
        assert columns == ["t", "k_state", "c_offset", "fit_residual"]
        assert "report: mode = sweep" in comments
        assert any(c.startswith("report: stability_ratio = ") for c in comments)
        k0 = float(rows[0][1])
        assert abs(k0 - 0.5437) < 0.03

    def test_pde_picard_reports_its_windows(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["pde", "--mode", "picard"], small_config, out) == EXIT_OK
        comments, _, _ = read_csv(out / "pde.csv")
        assert "report: mode = picard" in comments
        assert any(c.startswith("report: windows = [") for c in comments)

    def test_json_mirror_carries_the_same_table(self, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(SMALL_CONFIG + "\n[output]\nformats = csv,json\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["cost", "--strategy", "naive"], config, out) == EXIT_OK
        doc = json.loads((out / "cost.json").read_text(encoding="utf-8"))
        assert doc["version"] == "0.1.0"
        assert doc["columns"] == ["strategy", "running_cost", "terminal_cost", "total"]
        assert doc["config"]["numerics"]["n_paths"] == 200
        _, _, rows = read_csv(out / "cost.csv")
        assert doc["rows"][0][3] == float(rows[0][3])

    def test_reruns_are_byte_identical(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["sweep"], small_config, out) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert run_cli(["sweep"], small_config, out) == EXIT_OK
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second
        assert set(first) == {"sweep.csv", "sweep.svg"}

    def test_emitted_header_recovers_the_config(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["pde", "--mode", "sweep"], small_config, out) == EXIT_OK
        recovered = parse_header_config(out / "pde.csv")
        expected = dataclasses.replace(
            parse_config(small_config),
            output=dataclasses.replace(parse_config(small_config).output,
                                       directory=str(out)))
        assert recovered == expected

    def test_header_recovery_requires_the_tool_line(self, tmp_path):
        path = tmp_path / "stray.csv"
        path.write_text("# [model]\n# sigma = 1.0\ncol\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing toolkit header"):
            parse_header_config(path)


GOLDEN_CONFIG = SMALL_CONFIG + "\n[output]\nformats = csv,json\n"

# SHA-256 of every file each subcommand writes and of its stdout, run with
# GOLDEN_CONFIG and ``--out out`` from the working directory; a refactor
# that claims to change no output must leave all of them as they are
GOLDEN_SHA256 = {
    "gains": {
        "gains.csv": "59ed932670bfb87a86e2ac2b36c442e84cd90d1091ee7d5d289feddc7cb7163d",
        "gains.json": "fa8d3fff7daeac32b56f291d06d9082953096932d2a8220c8918bea96936f425",
        "stdout": "acb5d0ffbaf9f872d7b4c34e9d7864985333543c2d16da125b8d8d12a675edc2",
    },
    "cost --strategy equilibrium": {
        "cost.csv": "a728a6bdccbf647f4798c7b6fe67ee10c0c67c220bcd58fc14f916ff32aa45ec",
        "cost.json": "1f1cf0e9c68a661fa7dbf23538f6cae44612e4ea09299a5559e6bd9ff5a17dc0",
        "stdout": "94e23efef99ba7457a13f1ca554afecade52fb0a7b9b94a99eb21b468ff03911",
    },
    "sweep": {
        "sweep.csv": "7e851d9215b4bcc6a0efed0b3fafd14473d08e336cf3a93a1384655ccc016870",
        "sweep.json": "4e022d87f297834e7bf8c49e83e0d9be8014a0157ddb84e480117e41ad186777",
        "sweep.svg": "548f3c47a4df4083c8c469a85748e1bf3ede269476ad945a25beca5915ed7355",
        "stdout": "9987c5ce51852a4b461e0ed91f236ec19581b5e89886fdc5b72a412864c9775b",
    },
    "simulate --strategy naive": {
        "simulate.csv": "cfaf68a6bbe3182f9a074eea9ca73d2b0c7c73bd24d9ae84f7ef333ed15131b9",
        "simulate.json": "c7171f339d1a8d79ad7356b6cdd5dc270040c465068cd4dcbbda9dac475f240f",
        "simulate_paths.csv": "f92326ba5feea4e4126eab4cf7da7c005384c2f989fd4ed4b16f4977fc254fb5",
        "simulate_paths.json": "15549cd9139c2a54a1c8478915321c32dc7177086399537b187e843373bcd726",
        "stdout": "6d16cf78f86de122f475cb5d2930733a4bb47e6e6a65ea7699d65088a039a5cf",
    },
    "compare": {
        "compare.csv": "d70224c280859091ec90cf4c7d2817a335d8444bcab28a3e15152d65c7de5a24",
        "compare.json": "f175aa5c71039f59ef4cde51c502292c0480bb754a626d3070fb79e2942dd30d",
        "compare.svg": "ff739e3967374d28fc99798185902a4566d73d1d688ed514abb7c46308f572df",
        "stdout": "b2f63f666e8189fa67c6f317e158494ff01d4679749cf82bd2d957c025308385",
    },
    "pde --mode sweep": {
        "pde.csv": "3fce42551eeb3d66cf3f6f4d17b6e596521dc4cbd1535c0be26dfa85c768338f",
        "pde.json": "6687a53180f7329d28c248f1f75c09c134576ad4b0d1a69dd5dee740816fd94e",
        "stdout": "853cd71a25d877ed455b83731de2b52f02084c72f632fe41a7f26a3d350a15e8",
    },
    # windows [12 25]x15 [0 12]x13 after an aborted full-horizon attempt
    "pde --mode picard": {
        "pde.csv": "2998afaac1386808f24db7889c6151e22ef0ca2c33b9141cd8fc3ec37e1aaf2d",
        "pde.json": "87b59d79854b3e37b7dbb19061a5773a6aebc8fe4cd260d8c17981bf7b881a9d",
        "stdout": "9a641f58ea84b0e5d431d549451335aa707f8fcacfe5a5ff369cab4241b01d51",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN_SHA256))
def test_output_tree_matches_the_recorded_digests(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "run.ini").write_text(GOLDEN_CONFIG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([*command.split(), "--config", "run.ini", "--out", "out"]) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in Path("out").iterdir()}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == GOLDEN_SHA256[command], pin_mismatch(f"GOLDEN_SHA256[{command!r}]")


MULTI_CHUNK_CONFIG = """\
[numerics]
ode_steps = 50
sim_steps = 50
n_paths = 2500
"""

# as GOLDEN_SHA256, at 2500 paths: three chunks of the retaining Monte Carlo
# routes (1024, 1024 and a ragged 452), so the chunk-by-chunk reduction of
# simulate and compare is pinned across chunk boundaries
MULTI_CHUNK_SHA256 = {
    ("plain", "simulate --strategy naive"): {
        "simulate.csv": "5718e403696038cd902bf0a7ddd93686e2f5716daba85ffcafd4faa1c1564c19",
        "simulate.json": "c8ab748bf138c487180a06770033aeddfdd043a24daf55c158114fb2752b0c56",
        "simulate_paths.csv": "3309373cb83964d2fab01fd0b5c89eaa60738752534b4e31601015a048752ffd",
        "simulate_paths.json": "19bfdd05243a74024f01cec7c43b503ce7abf130a811e9957a013afd51f29e95",
        "stdout": "1b68e61d93d4d498f83feeaceee88935df2df025334ea5a673abe78af54bf585",
    },
    ("antithetic", "simulate --strategy naive"): {
        "simulate.csv": "5b3157e5827d69fac42311feeb163a5369b924b38dfb0dfa632a8f6747f2f9e1",
        "simulate.json": "cd1e61af1f53c71d68412b0e22fce3c3d8c9eb1f8b5ecbf0b495a40a4a52c4d8",
        "simulate_paths.csv": "dc623a1b218d0af199f802067616baf7eb4f533eb4d0a3ff545ec7afb92af060",
        "simulate_paths.json": "17693cad996d459e8ea256c2fd1ebec31926e1df769ef3535caba0288d24d77b",
        "stdout": "f0bc865cbce223c76160bff1be9ba9cdcaa57dfa3f42a369441cd361b54dbfc3",
    },
    ("plain", "compare"): {
        "compare.csv": "37ed8b2d16eb13796aaf4f53e74216ddf272624767b1cdf735df0b2da9af8830",
        "compare.json": "2e053fa209cc37a77db107c8fec2699e2a006bb3538939a19f1ee6355a47946c",
        "compare.svg": "d91e9f4a2dad0ae916d1bb67b10657a465665279b3292985d1a1d4b6d4d58618",
        "stdout": "ae514ef5c6805738ad0490184dfab9525e9289c20242215ea3deb5b9cfe628ac",
    },
    ("antithetic", "compare"): {
        "compare.csv": "9a5a6e4ea168c85623bd53d9ccd607f00d691ad4c1fee3cbbe2cbadcc4b43550",
        "compare.json": "e9e67775f10a73edc1cb190d204b23c9e91b020b532b61c762dfd860ba75e06a",
        "compare.svg": "3eea1d80487449c0c670e4c646c80f53d87fe2c9fe92b5e18c07fa7a1ac18ab3",
        "stdout": "ae514ef5c6805738ad0490184dfab9525e9289c20242215ea3deb5b9cfe628ac",
    },
}


@pytest.mark.parametrize("mode, command", list(MULTI_CHUNK_SHA256))
def test_multi_chunk_output_tree_matches_the_recorded_digests(mode, command, tmp_path,
                                                             monkeypatch, capsys):
    extra = "antithetic = true\n" if mode == "antithetic" else ""
    text = MULTI_CHUNK_CONFIG + extra + "\n[output]\nformats = csv,json\n"
    (tmp_path / "run.ini").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main([*command.split(), "--config", "run.ini", "--out", "out"]) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in Path("out").iterdir()}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == MULTI_CHUNK_SHA256[mode, command], pin_mismatch(
        f"MULTI_CHUNK_SHA256[{mode!r}, {command!r}]")


class TestMainEntry:
    def test_seed_override_works_in_both_flag_positions(self, small_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", "7", "gains", "--config", str(small_config),
                     "--out", str(out_a)]) == EXIT_OK
        assert main(["gains", "--seed", "7", "--config", str(small_config),
                     "--out", str(out_b)]) == EXIT_OK
        comments_a, _, _ = read_csv(out_a / "gains.csv")
        comments_b, _, _ = read_csv(out_b / "gains.csv")
        assert "seed = 7" in comments_a
        assert [c for c in comments_a if not c.startswith("directory")] == \
               [c for c in comments_b if not c.startswith("directory")]

    def test_unknown_subcommand_exits_config(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "config"

    def test_missing_required_flag_exits_config(self, capsys):
        assert main(["cost"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_no_arguments_exits_config(self, capsys):
        assert main([]) == EXIT_CONFIG
        capsys.readouterr()

    def test_missing_config_file_exits_config(self, capsys, tmp_path):
        assert main(["gains", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        record = json.loads(capsys.readouterr().err)
        assert "cannot read" in record["message"]

    def test_numeric_failure_exits_three(self, capsys, tmp_path):
        # a strongly unstable drift from a state near the float ceiling sends
        # every path to infinity within one step
        config = tmp_path / "run.ini"
        config.write_text("[model]\na_bar = 10\nx0 = 1e308\n[numerics]\n"
                          "ode_steps = 4\nsim_steps = 4\nn_paths = 10\n",
                          encoding="utf-8")
        rc = main(["simulate", "--strategy", "naive", "--config", str(config),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_NUMERIC
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_sweep_with_every_row_failed_exits_three_before_any_output(self, capsys,
                                                                       tmp_path):
        # penalty weights near the float ceiling overflow every row
        config = tmp_path / "run.ini"
        config.write_text("[sweep]\ngamma_min = 1e307\ngamma_max = 1.7e308\n"
                          "gamma_steps = 3\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["sweep", "--config", str(config), "--out", str(out)])
        assert rc == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "numeric"
        assert record["message"].startswith("all 3 sweep rows failed numerically; "
                                            "first: gamma=1e+307: ")
        assert not list(out.glob("sweep.*"))

    def test_sweep_with_some_rows_failed_writes_every_file(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[sweep]\ngamma_min = 0\ngamma_max = 1.7e308\n"
                          "gamma_steps = 3\n", encoding="utf-8")
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == EXIT_OK
        assert "(2 rows failed numerically)" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv", "sweep.svg"]
        assert (out / "sweep.csv").read_text(encoding="utf-8").count("# note: gamma=") == 2

    @pytest.mark.parametrize("command", [["cost", "--strategy", "equilibrium"], ["sweep"]],
                             ids=["cost", "sweep"])
    def test_a_large_initial_state_exits_cleanly(self, capsys, tmp_path, command):
        # the moments' rounding at the scale of x0^2 is no numeric failure
        config = tmp_path / "run.ini"
        config.write_text("[model]\nx0 = 1e8\n[numerics]\node_steps = 100\n"
                          "[sweep]\ngamma_steps = 3\n", encoding="utf-8")
        assert main([*command, "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "failed" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["cost", "--strategy", "equilibrium"],
                                         ["simulate", "--strategy", "naive"], ["sweep"]],
                             ids=["cost", "simulate", "sweep"])
    def test_initial_state_with_an_overflowing_square_exits_three(self, capsys, tmp_path,
                                                                  command):
        config = tmp_path / "run.ini"
        config.write_text("[model]\nx0 = 1e300\n[numerics]\node_steps = 4\n"
                          "sim_steps = 4\nn_paths = 10\n[sweep]\ngamma_steps = 3\n",
                          encoding="utf-8")
        out = tmp_path / "o"
        assert main([*command, "--config", str(config), "--out", str(out)]) == EXIT_NUMERIC
        record = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert record["error"] == "numeric"
        assert record["message"].endswith("x0 = 1e+300 has a square that overflows")
        if command == ["sweep"]:
            assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("command", ["gains", "compare"])
    def test_overflowing_precommitted_offset_exits_three_with_one_record(self, tmp_path,
                                                                         command):
        # a child interpreter, so that a numpy warning would reach stderr
        config = tmp_path / "run.ini"
        config.write_text("[model]\nx0 = 1.7e308\n[numerics]\node_steps = 4\n"
                          "sim_steps = 4\nn_paths = 10\n", encoding="utf-8")
        proc = run_module(command, "--config", str(config), "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_NUMERIC
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "numeric"
        assert record["message"].startswith("precommitted offset b_bar * q * x0 overflows")

    def test_overflowing_path_costs_exit_three_without_a_warning(self, tmp_path):
        # a child interpreter, so that a numpy warning would reach stderr: the
        # finite path costs near the float ceiling overflow the estimate's sums
        config = tmp_path / "run.ini"
        config.write_text("[model]\nx0 = 1e300\n[numerics]\node_steps = 4\n"
                          "sim_steps = 4\nn_paths = 10\n", encoding="utf-8")
        proc = run_module("simulate", "--strategy", "naive", "--config", str(config),
                          "--out", str(tmp_path / "o"))
        assert proc.returncode == EXIT_NUMERIC
        assert "RuntimeWarning" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "numeric"
        assert record["message"].endswith("x0 = 1e+300 has a square that overflows")

    @pytest.mark.parametrize("command", [["cost", "--strategy", "equilibrium"],
                                         ["simulate", "--strategy", "equilibrium"], ["sweep"]],
                             ids=["cost", "simulate", "sweep"])
    def test_a_non_finite_exact_cost_exits_three_with_one_record(self, command):
        # x0^2 is finite but 2 x0 m_T overflows: the exact cost was -inf,
        # printed with exit 0, and a sweep of such rows wrote sweep.csv and
        # then exited 2 with nothing to plot
        text = ("[model]\na_bar = 0.0\ngamma = 1e-10\nx0 = 1e154\n[numerics]\n"
                "ode_steps = 4\nsim_steps = 4\nn_paths = 10\n[sweep]\ngamma_steps = 3\n")
        rc, stderr, caught, files = run_in_process(command, text)
        assert rc == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        assert files == []
        lines = stderr.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "numeric"
        assert record["message"].endswith("exact cost is not finite with x0 = 1e+154")

    def test_overflowing_sample_means_exit_three_before_any_output(self):
        # every path stays near the float ceiling: the mean paths overflowed
        # with a numpy warning, and compare.csv was written before the plot
        # rejected them
        text = ("[model]\na_bar = 0.0\nb_bar = 1e-10\nsigma = 1e-300\nx0 = 1e308\n"
                "[numerics]\node_steps = 4\nsim_steps = 4\nn_paths = 10\n")
        rc, stderr, caught, files = run_in_process(["compare"], text)
        assert rc == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        assert files == []
        assert json.loads(stderr) == {
            "error": "numeric",
            "message": "series 'mean state equilibrium' has non-finite values at indices "
                       "[0, 1, 2, 3, 4]"}

    @pytest.mark.parametrize("mode", ["sweep", "picard"])
    def test_a_non_finite_grid_control_exits_three_with_one_record(self, mode):
        # slice 0's control field was NaN: pde printed K(0) = nan, wrote a
        # nan row and exited 0, and the gain fit leaked a RuntimeWarning
        rc, stderr, caught, files = run_in_process(["pde", "--mode", mode], PDE_NAN_CONTROL[0])
        assert rc == EXIT_NUMERIC
        assert [str(w.message) for w in caught] == []
        assert files == []
        assert json.loads(stderr) == {
            "error": "numeric", "message": "control field blew up at time slice 0, node (0,)"}

    def test_a_zero_time_step_exits_config_before_any_output(self):
        # 5e-324 over 4 steps: the plot of the zero-width time axis crashed
        # with a traceback after compare.csv was written
        text = "[model]\nhorizon = 5e-324\n[numerics]\node_steps = 4\nsim_steps = 4\n"
        rc, stderr, caught, files = run_in_process(["compare"], text)
        assert rc == EXIT_CONFIG
        assert files == []
        assert "gives a zero time step" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("directory", ["", "a\nb", " x"],
                             ids=["empty", "two-lines", "leading-space"])
    def test_an_output_directory_the_header_cannot_echo_exits_config(
            self, capsys, tmp_path, monkeypatch, directory):
        # the header echoes it as "directory = <value>", which re-parses as
        # a nonempty value stripped, on one line
        monkeypatch.chdir(tmp_path)
        assert main(["gains", "--out", directory]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "config",
            "message": "output directory must be one nonempty line without "
                       f"surrounding whitespace, got {directory!r}"}
        assert list(tmp_path.iterdir()) == []

    def test_an_output_directory_with_a_nul_byte_exits_config(self, capsys, tmp_path,
                                                               monkeypatch):
        # mkdir raised ValueError("embedded null byte"): a traceback and exit 1
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "nul.ini"
        cfg.write_text("[output]\ndirectory = a\0b\n", encoding="utf-8")
        assert main(["gains", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "config",
            "message": "output directory must not contain a NUL byte, got 'a\\x00b'"}
        assert list(tmp_path.iterdir()) == [cfg]

    def test_a_gamma_range_too_narrow_to_plot_exits_three_before_any_output(self):
        # the tick ladder of [0, 5e-324] has no nonzero step: the plot
        # crashed with a traceback after sweep.csv was written
        text = "[numerics]\node_steps = 4\n[sweep]\ngamma_max = 5e-324\ngamma_steps = 3\n"
        rc, stderr, caught, files = run_in_process(["sweep"], text)
        assert rc == EXIT_NUMERIC
        assert files == []
        assert json.loads(stderr)["message"] == (
            "no tick step fits the axis range [0.0, 5e-324]")

    @pytest.mark.parametrize("x_hi", ["1e308", "inf"])
    def test_unusable_pde_bounds_exit_config_with_one_record(self, capsys, tmp_path, x_hi):
        config = tmp_path / "run.ini"
        config.write_text(f"[pde]\nx_hi = {x_hi}\n", encoding="utf-8")
        rc = main(["pde", "--mode", "sweep", "--config", str(config),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"

    @pytest.mark.parametrize("mode", ["sweep", "picard"])
    def test_misaligned_pde_grids_exit_config_with_one_record(self, capsys, tmp_path, mode):
        # the parameter grid is the state grid, so [pde] n_y must equal n_x
        config = tmp_path / "run.ini"
        config.write_text("[pde]\nn_x = 8\nn_y = 16\n", encoding="utf-8")
        rc = main(["pde", "--mode", mode, "--config", str(config),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "config",
            "message": "diagonal sampling needs identical x and y grids "
                       "(got n_x = 8, n_y = 16)"}

    @pytest.mark.parametrize("mode", ["sweep", "picard"])
    def test_overflowing_volatility_square_exits_config_before_any_output(
            self, capsys, tmp_path, mode):
        config = tmp_path / "run.ini"
        config.write_text("[model]\nsigma = 1e200\n", encoding="utf-8")
        out = tmp_path / "o"
        rc = main(["pde", "--mode", mode, "--config", str(config), "--out", str(out)])
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["error"] == "config"
        assert "finite square" in record["message"]
        assert not out.exists()

    def test_equilibrium_cost_does_not_need_the_naive_system(self, capsys, tmp_path):
        # the naive Riccati pair blows up at these parameters; the
        # equilibrium cost must not depend on it
        config = tmp_path / "run.ini"
        config.write_text("[model]\na_bar = 6.154640442735776\nb_bar = -0.6877325122259386\n"
                          "gamma = 1599.2745782950801\nhorizon = 3.1974620757508188\n",
                          encoding="utf-8")
        argv = ["--config", str(config), "--out", str(tmp_path / "o")]
        assert main(["cost", "--strategy", "equilibrium", *argv]) == EXIT_OK
        assert "exact equilibrium cost: 755.5537047475" in capsys.readouterr().out
        assert main(["cost", "--strategy", "naive", *argv]) == EXIT_NUMERIC
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_unwritable_output_directory_exits_config(self, capsys, small_config, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        rc = run_cli(["gains"], small_config, blocker)
        assert rc == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_a_failed_allocation_exits_config_with_one_record(self, monkeypatch):
        # n_paths = 1e9 made compare exit 1 with numpy's "Unable to allocate
        # 22.4 GiB" traceback; the stand-in raises without allocating
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 22.4 GiB")
        monkeypatch.setattr(cli, "compare_strategies", too_big)
        rc, stderr, caught, files = run_in_process(["compare"], SMALL_CONFIG)
        assert rc == EXIT_CONFIG
        assert files == []
        assert json.loads(stderr) == {
            "error": "config", "message": "not enough memory: Unable to allocate 22.4 GiB"}

    def test_validation_failure_exits_four(self, monkeypatch, tmp_path, capsys):
        fake = [CheckResult(1, "fake-check", False, "synthetic failure")]
        monkeypatch.setattr(tilqr.validation, "run_all", lambda: (fake, {"fake-check": 0.0}))
        rc = main(["validate", "--out", str(tmp_path / "o")])
        assert rc == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL  1 fake-check: synthetic failure" in out
        _, _, rows = read_csv(tmp_path / "o" / "validation.csv")
        assert rows[0][2] == "false"

    def test_validation_success_exits_zero(self, monkeypatch, tmp_path, capsys):
        fake = [CheckResult(1, "fake-check", True, "fine")]
        monkeypatch.setattr(tilqr.validation, "run_all", lambda: (fake, {"fake-check": 0.0}))
        assert main(["validate", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert "all 1 checks passed" in capsys.readouterr().out

    def test_module_invocation_prints_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "SUBCOMMAND" in proc.stdout

    def test_module_invocation_without_arguments_fails_cleanly(self):
        proc = run_module()
        assert proc.returncode == EXIT_CONFIG
        assert json.loads(proc.stderr)["error"] == "config"



# configs on which pde returned a NaN control on slice 0 and exited 0; the
# fuzzer's random draws found them, its 300 derandomized draws do not
PDE_NAN_CONTROL = (
    "[model]\nb_bar = 1.7e308\n[pde]\nn_t = 1\nn_x = 5\nn_y = 5\nx_lo = 0.0\n",
    "[model]\nb_bar = 1e154\nx0 = 0.0\n[pde]\nn_t = 1\nn_x = 5\nn_y = 5\nx_hi = 0.0\n",
)

# a config on which the exact cost's quadrature overflowed and numpy warned
# on stderr beside the one JSON record (or, for sweep, beside a clean exit)
HUGE_X0 = "[model]\nx0 = 1e153\n[numerics]\nn_paths = 10\n"

# the default model on this grid fails its first Picard window, [0, 25], so
# its upper half replays the failed window's passes
PDE_HANDOVER = "[pde]\nn_t = 25\nn_x = 40\nn_y = 40\n"

# floats at the edges of the double range, and plain ones between them
EXTREME_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-10, 0.5, 1.0, -1.0, 3.0, 1e154, -1e154,
                  1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan)
# tiny sizes, so each draw runs in milliseconds; a size key missing here
# fails the fuzzer, since its default would be far too large. Step counts
# are mostly even and refinement-compatible, so most draws get past parsing
STEP_COUNTS = st.sampled_from([4, 8, 16, 20, 1, 7])
FUZZ_SIZES = {"ode_steps": STEP_COUNTS, "sim_steps": STEP_COUNTS,
              "n_paths": st.sampled_from([2, 10, 50, 7]), "seed": st.integers(0, 2 ** 64 - 1),
              "n_t": st.integers(1, 20), "n_x": st.integers(3, 8),
              "max_iter": st.integers(1, 20), "gamma_steps": st.integers(1, 5)}
FUZZ_COMMANDS = ([["gains"], ["sweep"], ["compare"]]
                 + [[cmd, "--strategy", s] for cmd in ("cost", "simulate")
                    for s in ("equilibrium", "naive", "precommitted")]
                 + [["pde", "--mode", mode] for mode in ("sweep", "picard")])


@st.composite
def fuzzed_config_text(draw):
    """Config text setting every key of ``cli._SCHEMA`` but the output directory."""
    lines, drawn = [], {}
    for section, keys in cli._SCHEMA.items():
        lines.append(f"[{section}]")
        for key, parse in keys.items():
            if parse is cli._parse_float:
                # one float in six takes an extreme and the rest keep their
                # defaults, so that most draws get past the domain checks
                extreme = draw(st.integers(0, 5)) == 0
                value = draw(st.sampled_from(EXTREME_FLOATS)) if extreme else None
            elif key == "n_y":  # mostly the state grid, as pde requires
                value = draw(st.sampled_from([drawn["n_x"], 4, 8]))
            elif parse is cli._parse_int:
                value = draw(FUZZ_SIZES[key])
            elif parse is cli._parse_bool:
                value = draw(st.booleans())
            elif parse is cli._parse_formats:
                value = draw(st.sampled_from([("csv",), ("csv", "json")]))
            else:  # the output directory; --out overrides it
                value = None
            if value is not None:
                drawn[key] = value
                lines.append(f"{key} = {cli._format_cell(value)}")
    return "\n".join(lines) + "\n"


def run_in_process(command, text):
    """``main`` on one config text, in a fresh directory; returns the exit
    code, stderr, the warnings raised, and the names of the files under --out."""
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.ini", Path(tmp) / "o"
        config.write_text(text, encoding="utf-8")
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            rc = main([*command, "--config", str(config), "--out", str(out)])
        files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    return rc, stderr.getvalue(), caught, files


@example(["pde", "--mode", "sweep"], PDE_NAN_CONTROL[0])
@example(["pde", "--mode", "picard"], PDE_NAN_CONTROL[0])
@example(["pde", "--mode", "sweep"], PDE_NAN_CONTROL[1])
@example(["pde", "--mode", "picard"], PDE_NAN_CONTROL[1])
@example(["pde", "--mode", "picard"], PDE_HANDOVER)
@example(["cost", "--strategy", "naive"], HUGE_X0)
@example(["sweep"], HUGE_X0)
@example(["simulate", "--strategy", "naive"], HUGE_X0)
@settings(max_examples=300)
@given(st.sampled_from(FUZZ_COMMANDS), fuzzed_config_text())
def test_any_config_exits_cleanly_with_at_most_one_record(command, text):
    rc, stderr, caught, files = run_in_process(command, text)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_VALIDATION)
    if rc in (EXIT_CONFIG, EXIT_NUMERIC):
        lines = stderr.splitlines()
        assert len(lines) == 1, stderr
        assert set(json.loads(lines[0])) == {"error", "message"}
        assert files == []
    else:
        assert stderr == ""
    # extract_gain's non-affine warning is a deliberate diagnostic of the
    # grid fit; any other warning, numpy's RuntimeWarning above all, is a leak
    leaked = [w for w in caught
              if not (w.category is UserWarning and str(w.message).startswith(
                  "control field is not affine in the state"))]
    assert leaked == [], [f"{w.category.__name__}: {w.message}" for w in leaked]
