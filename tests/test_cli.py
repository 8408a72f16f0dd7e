"""CLI subcommands: outputs, manifests, exit codes, determinism."""

import importlib.util
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moving_string
from moving_string import (InitialDataSpec, _csvfmt, certify, cross_validate, load_config,
                           oracle, solve)
from moving_string.cli import _build_parser, fmt, main, write_csv
from moving_string.series import sample_moving_grid


def write_cfg(tmp_path, name="cfg.json", v=0.3, preset=None, n_max=24):
    preset = preset or {"name": "sine_mode", "params": {"amplitude": 0.1, "mode": 1}}
    doc = {
        "L": math.pi,
        "v": v,
        "n_max": n_max,
        "initial": {"preset": preset},
        "quadrature": {"panels_per_unit": 256},   # accepted, no effect
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_raw_cfg(tmp_path, key, text, preset=None):
    """A valid config whose top-level or dotted ``key`` holds the JSON
    ``text`` verbatim (which ``json.dumps`` could not write, e.g. 1e400)."""
    doc = json.loads(Path(write_cfg(tmp_path, n_max=6, preset=preset)).read_text())
    *parents, leaf = key.split(".")
    node = doc
    for name in parents:
        node = node[name]
    node[leaf] = "@PLACEHOLDER@"
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc).replace('"@PLACEHOLDER@"', text))
    return str(path)


BUMP = {"name": "bump", "params": {"center": 1.2, "width": 1.0, "amplitude": 0.1}}
ROOT = Path(__file__).resolve().parents[1]


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def certify_records(cfg):
    """The library's check records for ``cfg`` as validate.json entries."""
    return [{k: val for k, val in asdict(c).items() if not (k == "note" and val is None)}
            for c in certify(solve(load_config(cfg)), 1e-6, 0)]


# One short run of every subcommand, for the usage-error cases
SHORT_RUNS = {
    "validate": ["validate"],
    "energy": ["energy", "--times", "4"],
    "observe": ["observe", "--endpoint", "both"],
    "observe-horizon": ["observe", "--endpoint", "right", "--horizon", "1.5"],
    "constants": ["constants"],
    "coeffs": ["coeffs"],
    "simulate": ["simulate", "--nx", "4", "--nt", "4"],
    "oracle": ["oracle", "--samples", "4", "--nx", "32"],
}
EVERY_SUBCOMMAND = pytest.mark.parametrize("argv", list(SHORT_RUNS.values()),
                                           ids=list(SHORT_RUNS))
# the runs whose subcommand checks an identity, and so takes --tol
TOL_RUNS = ["validate", "energy", "observe", "observe-horizon"]
TOL_SUBCOMMANDS = pytest.mark.parametrize("argv", [SHORT_RUNS[k] for k in TOL_RUNS],
                                          ids=TOL_RUNS)


class TestConstants:
    def test_writes_constants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "constants.json").read_text())
        assert doc["T_v"] == pytest.approx(2 * math.pi / 0.91, rel=1e-12)
        assert doc["gamma_v"] == pytest.approx(13 / 7, rel=1e-12)

    def test_requires_config(self, tmp_path, capsys):
        # a usage error of argparse, like every other flag error
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rejects_ill_posed_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, v=1.2)
        rc = main(["constants", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "ill-posed" in capsys.readouterr().err

    def test_rejects_misspelled_preset_parameter(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, preset={"name": "sine_mode", "params": {"amplitud": 0.1}})
        rc = main(["coeffs", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bad parameters for preset 'sine_mode'" in capsys.readouterr().err


class TestBadInputExitsTwo:
    """Bad input is a usage error (exit 2 with a message), not a traceback
    and not a numeric failure."""

    def test_config_is_a_directory(self, tmp_path, capsys):
        rc = main(["constants", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon(self, tmp_path, capsys, horizon):
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main(["observe", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--endpoint", "left", "--horizon", horizon])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("t_final", ["nan", "inf"])
    def test_non_finite_simulate_horizon(self, tmp_path, capsys, t_final):
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--nx", "4", "--nt", "4", "--t-final", t_final])
        assert rc == 2
        assert (f"--t-final must be finite and nonnegative, got {t_final}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["energy", "--times", "4", "--t-final", "-1"],
         "--t-final must be finite and nonnegative, got -1.0"),
        (["simulate", "--nx", "4", "--nt", "4", "--t-final", "-1"],
         "--t-final must be finite and nonnegative, got -1.0"),
        (["simulate", "--nx", "4", "--nt", "4", "--t-final", "nan"],
         "--t-final must be finite and nonnegative, got nan"),
        (["oracle", "--samples", "0"], "--samples must be at least 1, got 0"),
        (["oracle", "--samples", "-5"], "--samples must be at least 1, got -5"),
        (["oracle", "--samples", "4", "--seed", "-1"],
         "--seed must be a nonnegative integer, got -1"),
        (["validate", "--seed", "-1"], "--seed must be a nonnegative integer, got -1"),
        (["oracle", "--samples", "4", "--nx", "16"], "--nx must be >= 32, got 16"),
        (["oracle", "--samples", "4", "--cfl", "0.8"], "--cfl must lie in (0, 0.5], got 0.8"),
        (["oracle", "--samples", "4", "--cfl", "nan"], "--cfl must lie in (0, 0.5], got nan"),
        (["simulate", "--nx", "1"], "--nx must be at least 2, got 1"),
        (["simulate", "--nt", "0"], "--nt must be at least 2, got 0"),
        (["simulate", "--nx", "10000000", "--nt", "10000000"],
         "physical memory; lower --nx or --nt"),
        (["observe", "--endpoint", "left", "--periods", "0"],
         "--periods must be at least 1, got 0"),
        (["observe", "--endpoint", "left", "--horizon", "-1"],
         "--horizon must be positive and finite, got -1.0"),
    ], ids=["energy-t-final-minus-1", "simulate-t-final-minus-1", "simulate-t-final-nan",
            "oracle-samples-0", "oracle-samples-minus-5", "oracle-seed-minus-1",
            "validate-seed-minus-1", "oracle-nx-16", "oracle-cfl-0.8", "oracle-cfl-nan",
            "simulate-nx-1", "simulate-nt-0", "simulate-grid-too-large",
            "observe-periods-0",
            "observe-horizon-minus-1"])
    def test_bad_horizon_or_sample_count_names_flag(self, tmp_path, capsys, argv, message):
        # refused before any work: no --out directory is made
        cfg = write_cfg(tmp_path, n_max=6)
        out = tmp_path / "o"
        rc = main([*argv, "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @TOL_SUBCOMMANDS
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_invalid_tolerance(self, tmp_path, capsys, argv, tol):
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o"), "--tol", tol])
        assert rc == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err

    @EVERY_SUBCOMMAND
    @pytest.mark.parametrize("out", ["file", "under-file"])
    def test_out_not_a_directory(self, tmp_path, capsys, argv, out):
        cfg = write_cfg(tmp_path, n_max=6)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        target = blocker if out == "file" else blocker / "x"
        rc = main([*argv, "--config", cfg, "--out", str(target)])
        assert rc == 2
        assert "error: cannot write to --out" in capsys.readouterr().err
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize("flags", [
        ["--endpoint", "both", "--periods", "2"],
        ["--endpoint", "both", "--horizon", "3"],
        ["--endpoint", "left", "--periods", "3", "--horizon", "2"],
    ], ids=["both-periods", "both-horizon", "periods-horizon"])
    def test_conflicting_observe_flags(self, tmp_path, capsys, flags):
        cfg = write_cfg(tmp_path, n_max=6)
        out = tmp_path / "o"
        rc = main(["observe", "--config", cfg, "--out", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--periods" in err and "--horizon" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--horizon", "1e300"],
        ["--horizon", "1e7"],
        ["--periods", "1000000"],
    ], ids=["horizon-1e300", "horizon-1e7", "periods-1e6"])
    def test_oversized_observation_horizon(self, tmp_path, capsys, flags):
        # refused by the quadrature layout's node bound, before allocating,
        # naming the flag that set the interval
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main(["observe", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--endpoint", "left", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nodes, more than" in err
        assert err.rstrip().endswith(f"; lower {flags[0]}"), err

    @pytest.mark.parametrize("argv, n_max, size", [
        (["simulate", "--nx", "1000000", "--nt", "1000000"], 6,
         "five fields on the 1000000 x 1000000 grid"),
        (["energy", "--times", "1000000000000"], 6, "an energy sweep of 1000000000000 times"),
        (["oracle", "--samples", "1000000000000", "--method", "characteristics"], 6,
         "x, t and the series at 1000000000000 samples"),
        (["coeffs"], 10**10, "a phasor table of 20000000000 modes"),
        # more bytes than a float holds: the message must still be formatted
        (["coeffs"], 10**400, f"a phasor table of {2 * 10**400} modes: inf GiB"),
    ], ids=["simulate", "energy", "oracle", "coeffs", "coeffs-10^400"])
    def test_impossible_size(self, tmp_path, capsys, argv, n_max, size):
        # each request is terabytes, refused by the physical-memory guard
        # before its arrays are allocated
        cfg = write_cfg(tmp_path, n_max=n_max)
        tracemalloc.start()
        try:
            rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        err = capsys.readouterr().err
        assert size in err and "GiB of physical memory" in err
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("run, flag", [
        *[(run, "--tol") for run in ("constants", "coeffs", "simulate", "oracle")],
        *[(run, "--seed") for run in ("constants", "coeffs", "simulate", "energy", "observe")],
    ], ids=lambda x: x.lstrip("-"))
    def test_unread_flag_refused(self, tmp_path, capsys, run, flag):
        # a subcommand takes only the options it reads
        cfg = write_cfg(tmp_path, n_max=6)
        value = {"--tol": "1e-6", "--seed": "0"}[flag]
        argv = [*SHORT_RUNS[run], "--config", cfg, "--out", str(tmp_path / "o"), flag, value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["observe", "--endpoint", "left", "--periods", str(10**400)],
         "period count M is too large"),
        # the trace integrals' panels follow the band 4 pi n_max / T_v
        (["observe", "--endpoint", "right", "--periods", str(10**306)],
         "needs 1.21e+308 nodes, more than the 10000000 allowed"),
        (["observe", "--endpoint", "right", "--horizon", "1e306"],
         "needs 1.75e+307 nodes, more than the 10000000 allowed"),
        (["oracle", "--samples", "4", "--nx", str(10**400)],
         f"one FD level of {10**400 + 1} nodes: inf GiB"),
        (["oracle", "--samples", "4", "--nx", str(10**200)],
         f"one FD level of {10**200 + 1} nodes: 7.45e+191 GiB"),
        # the FD step count t_final / (cfl (1 - v) deta) overflows, or its
        # divisor underflows to 0; or it is finite and the work bound
        # prints it to three digits
        (["oracle", "--samples", "4", "--method", "fd", "--cfl", "1e-320"],
         "cfl=1e-320 is too small: the FD step count t_final / (cfl (1 - v) deta) "
         "is past float range; raise cfl"),
        (["oracle", "--samples", "4", "--method", "fd", "--cfl", "5e-324"],
         "cfl=5e-324 is too small"),
        (["oracle", "--samples", "4", "--method", "fd", "--cfl", "1e-300"],
         "needs 1.61e+303 time steps x 513 nodes = 8.25e+305 node-steps, above the bound "
         "of 1e+10; lower nx, raise --cfl or use --method characteristics"),
        (["oracle", "--samples", "4", "--method", "fd", "--cfl", "1e-304"],
         "needs 1.61e+307 time steps x 513 nodes = inf node-steps, above the bound"),
        (["energy", "--times", "0"], "--times must be at least 1, got 0"),
        (["energy", "--times", "-3"], "--times must be at least 1, got -3"),
    ], ids=["periods-10^400", "periods-10^306", "horizon-1e306", "nx-10^400", "nx-10^200",
            "cfl-1e-320", "cfl-5e-324", "cfl-1e-300", "cfl-1e-304", "times-0", "times-minus-3"])
    def test_past_float_range(self, tmp_path, capsys, argv, message):
        # sizes whose float arithmetic overflows, and a sweep of no times,
        # are refused by name
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, text, message", [
        ("quadrature.panels_per_unit", "null", "'quadrature.panels_per_unit' must be an integer"),
        ("quadrature.panels_per_unit", "[]", "'quadrature.panels_per_unit' must be an integer"),
        ("quadrature.panels_per_unit", "1e400",
         "'quadrature.panels_per_unit' must be an integer"),
        ("quadrature.panels_per_unit", "300.7",
         "'quadrature.panels_per_unit' must be an integer"),
        ("quadrature.panels_per_unit", '"256"',
         "'quadrature.panels_per_unit' must be an integer"),
        ("L", "1" + "0" * 400, "'L' is too large for a float"),
        ("initial", '{"table": 5}', "'initial.table' must be a path string"),
        ("initial", '{"table": "missing.csv"}', "cannot read initial.table"),
        # a param called "name" reaches the builder, not the spec's own name
        ("initial", '{"preset": {"name": "bump", "params": '
                    '{"center": 1.0, "width": 0.5, "name": "x"}}}',
         "bad parameters for preset 'bump'"),
    ], ids=["ppu-null", "ppu-list", "ppu-1e400", "ppu-fraction", "ppu-string", "L-10^400",
            "table-number", "table-missing", "preset-param-name"])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, key, text, message):
        cfg = write_raw_cfg(tmp_path, key, text)
        rc = main(["coeffs", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "--out" not in err

    @pytest.mark.parametrize("config, table, message", [
        (b"\xff{", None, "cfg.json: 'utf-8' codec can't decode byte 0xff"),
        (b'{"L": 3, "v": 0.3, "n_max": ' + b"1" * 5000 + b"}", None,
         "cfg.json: Exceeds the limit (4300 digits)"),
        (b"[" * 100000 + b"]" * 100000, None, "cfg.json: maximum recursion depth exceeded"),
        (None, b"x,phi0,phi1\n0,0,0\n1,\xff,0\n2,0,0\n3,0,0\n",
         "table.csv: 'utf-8' codec can't decode byte 0xff"),
        (None, b"x,phi0,phi1\n0," + b"1" * 200000 + b",0\n",
         "table.csv: field larger than field limit"),
        (None, None, "embedded null byte"),
    ], ids=["config-not-utf8", "config-5000-digits", "config-nested", "table-not-utf8",
            "table-huge-field", "table-path-nul"])
    def test_unreadable_file_names_it(self, tmp_path, capsys, config, table, message):
        # text the JSON or CSV reader cannot take is a refusal, not a traceback
        path = tmp_path / "cfg.json"
        table_name = "table.csv" if table is not None else "a\x00b.csv"
        doc = {"L": 3.0, "v": 0.3, "n_max": 6, "initial": {"table": table_name}}
        path.write_bytes(config if config is not None else json.dumps(doc).encode())
        if table is not None:
            (tmp_path / "table.csv").write_bytes(table)
        out = tmp_path / "o"
        rc = main(["coeffs", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["sine_mode", "sine_velocity", "traveling_sine"])
    @pytest.mark.parametrize("mode", ["1.5", "1e400"])
    def test_preset_mode_not_an_integer(self, tmp_path, capsys, preset, mode):
        text = f'{{"preset": {{"name": "{preset}", "params": {{"mode": {mode}}}}}}}'
        cfg = write_raw_cfg(tmp_path, "initial", text)
        out = tmp_path / "o"
        rc = main(["coeffs", "--config", cfg, "--out", str(out)])
        assert rc == 2
        assert f"{preset} mode must be an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_bump_width_names_width(self, tmp_path, capsys):
        # width / 4 underflows to 0, which the bump's evaluators divide by
        path = tmp_path / "bump.json"
        path.write_text(json.dumps({"L": 3.5, "v": 0.3, "n_max": 8, "initial": {"preset": {
            "name": "bump", "params": {"center": 1.0, "width": 5e-324}}}}))
        out = tmp_path / "o"
        rc = main(["observe", "--endpoint", "both", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert "bump width must be positive with width/4 a normal float" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_energy_horizon(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # rejected before any arithmetic warns
            rc = main(["energy", "--config", cfg, "--out", str(tmp_path / "o"),
                       "--times", "4", "--t-final", "inf"])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


class TestCoeffs:
    def test_csv_layout(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=6)
        out = tmp_path / "out"
        assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
        lines = [l for l in (out / "coeffs.csv").read_text().splitlines() if l]
        assert lines[0] == "n,re_plus,im_plus,re_minus,im_minus,abs_diff"
        ns = [int(l.split(",")[0]) for l in lines[1:]]
        assert ns == sorted(ns)
        assert len(ns) == 12 and 0 not in ns

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=6)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["coeffs", "--config", cfg, "--out", str(out1)])
        main(["coeffs", "--config", cfg, "--out", str(out2)])
        assert (out1 / "coeffs.csv").read_bytes() == (out2 / "coeffs.csv").read_bytes()


class TestSimulate:
    def test_field_csv_and_plot_script(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=8)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--nx", "12", "--nt", "9", "--t-final", "2.0"])
        assert rc == 0
        text = (out / "field.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "x,t,phi,phi_x,phi_t"
        rows = [l for l in lines[1:] if l]
        assert len(rows) == 12 * 9
        # one blank separator per x-scan block (gnuplot grid layout)
        assert sum(1 for l in lines if not l) == 12 - 1
        assert (out / "field.gp").exists()
        # row-major: first block shares the left-edge abscissa fraction
        first = rows[0].split(",")
        assert float(first[0]) == pytest.approx(0.3 * float(first[1]), abs=1e-12)

    def test_field_csv_lines_are_fmt_of_grid(self, tmp_path, capsys):
        # every row is the fmt rendering of the grid values, i-major
        cfg = write_cfg(tmp_path, n_max=8)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--nx", "7", "--nt", "5", "--t-final", "2.0"])
        assert rc == 0
        grids = sample_moving_grid(solve(load_config(cfg)), 7, 5, 2.0)
        expected = ["x,t,phi,phi_x,phi_t"]
        for i in range(7):
            if i:
                expected.append("")
            expected += [",".join(fmt(g[i, j]) for g in grids) for j in range(5)]
        assert (out / "field.csv").read_text() == "\n".join(expected) + "\n"

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # the bump slope scales by amplitude / (width/4), which overflows
        # for a near-max-double amplitude -> non-finite integrand -> exit 3
        cfg = write_cfg(tmp_path, preset={
            "name": "bump",
            "params": {"center": math.pi / 2, "width": math.pi / 4,
                       "amplitude": 1e308}})
        with np.errstate(invalid="ignore", over="ignore"):
            rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err


class TestNumericFailure:
    """A run that overflows exits 3 with its one ``numeric failure`` line:
    numpy's floating-point warnings, which carry source lines and read like
    a traceback, are not printed."""

    @pytest.mark.parametrize("argv, amplitude", [
        (["validate"], 1e308),
        (["coeffs"], 1e308),
        (["simulate", "--nx", "4", "--nt", "4", "--t-final", "1e308"], 0.1),
        (["energy", "--times", "4", "--t-final", "1e308"], 0.1),
    ], ids=["validate-amplitude", "coeffs-amplitude", "simulate-t-final", "energy-t-final"])
    def test_exit_three_prints_one_line(self, tmp_path, argv, amplitude):
        cfg = write_cfg(tmp_path, preset={"name": "sine_mode",
                                          "params": {"amplitude": amplitude, "mode": 1}})
        src = str(Path(moving_string.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "moving_string.cli", *argv, "--config", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numeric failure: "), proc.stderr


class TestReproduceFigures:
    """``scripts/reproduce_figures.py`` maps each paper figure to a shipped
    config: the sine data on L = pi at n_max = 40, one speed per figure."""

    def test_figures_are_the_shipped_sine_configs(self):
        spec = importlib.util.spec_from_file_location(
            "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        speeds = {}
        for fig, name in script.FIGURES.items():
            cfg = load_config(ROOT / "configs" / name)
            assert (cfg.L, cfg.n_max) == (math.pi, 40)
            assert cfg.initial == InitialDataSpec.preset("sine_mode", amplitude=0.1, mode=1)
            speeds[fig] = cfg.v
        assert speeds == {4: 0.3, 5: 0.7, 6: 0.9}


class TestWriteCsv:
    ROWS = [(3, 0.1, -0.0, 1e-320, -2.5e300),
            (-7, 1.0 / 3.0, math.pi, 5e-324, 123456789.0),
            (0, -1e-17, 2.0 ** 60, float("inf"), float("nan"))]

    @staticmethod
    def reference(header, rows, block_size=0):
        lines = [",".join(header)]
        for i, row in enumerate(rows):
            if block_size and i and i % block_size == 0:
                lines.append("")
            lines.append(",".join(fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("block_size", [0, 1, 2, 3])
    def test_mixed_rows_match_fmt(self, tmp_path, block_size):
        rows = self.ROWS + [(np.int64(11), np.float64(0.7), 2.0, -1.5, 1e-5)]
        path = tmp_path / "t.csv"
        write_csv(path, list("abcde"), rows, block_size)
        assert path.read_text() == self.reference(list("abcde"), rows, block_size)

    def test_ndarray_rows_match_fmt(self, tmp_path):
        rows = np.array([r[1:] for r in self.ROWS] * 3)
        path = tmp_path / "t.csv"
        write_csv(path, list("abcd"), rows, block_size=2)
        assert path.read_text() == self.reference(list("abcd"), rows.tolist(), 2)

    def test_no_rows_writes_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [], block_size=3)
        assert path.read_text() == "a,b\n"

    @staticmethod
    def per_row(header, rows, block_size=0):
        """The writer's earlier form: one ``%`` per row."""
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        lines = [",".join(header)]
        if len(rows):
            row_fmt = ",".join("%d" if isinstance(v, (int, np.integer)) else "%.17g"
                               for v in rows[0])
            body = [row_fmt % tuple(row) for row in rows]
            step = block_size or len(body)
            for i in range(0, len(body), step):
                if i:
                    lines.append("")
                lines.extend(body[i:i + step])
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("block_size", [0, 3, 4, 7, 12])
    @pytest.mark.parametrize("kind", ["ndarray", "int column", "none"])
    def test_block_format_matches_per_row(self, tmp_path, kind, block_size):
        # 12 rows: block sizes that divide the count, that do not, and one
        # block larger than the count
        rng = np.random.default_rng(4)
        if kind == "ndarray":
            rows = rng.standard_normal((12, 4)) * 10.0 ** rng.integers(-300, 300, (12, 4))
        elif kind == "int column":
            rows = [(i, *np.float64(rng.standard_normal(3)).tolist(), np.float64(0.1 * i))
                    for i in range(12)]
        else:
            rows = np.empty((0, 4))
        header = list("abcde")[:len(rows[0]) if len(rows) else 4]
        path = tmp_path / "t.csv"
        write_csv(path, header, rows, block_size)
        assert path.read_bytes() == self.per_row(header, rows, block_size).encode()


def _is_tie(v):
    """v lies exactly halfway between two 17-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 800
        d = abs(Decimal(v))
        return d.scaleb(16 - d.adjusted()) % 1 == Decimal("0.5")


def _csv(path, rows, block_size=0):
    write_csv(path, list("abcdefgh")[:len(rows[0])], rows, block_size)
    return path.read_bytes()


def _fmt_csv(rows, block_size=0):
    header = list("abcdefgh")[:len(rows[0])]
    return TestWriteCsv.reference(header, rows, block_size).encode()


@pytest.fixture(scope="module")
def field_bump_rows():
    """The rows of field-bump's field.csv: simulate 300 x 300 on
    perfbench/configs/bump_v07_n80.json."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "perfbench" / "configs"
                      / "bump_v07_n80.json")
    sol = solve(cfg)
    grid = sample_moving_grid(sol, 300, 300, sol.consts.T_v)
    return np.stack(grid, axis=-1).reshape(300 * 300, 5)


# The exponent classes of the kernel's layouts: fixed notation at each E from
# -4 to 16, and scientific with a 2- or 3-digit exponent of either sign, each
# of those tried at a few exponents (1e-5, for one, has no 1-digit double)
LAYOUT_CLASSES = {**{("fixed", e): [e] for e in range(-4, 17)},
                  ("scientific", "-", 2): [-5, -6, -50, -99],
                  ("scientific", "+", 2): [17, 18, 50, 99],
                  ("scientific", "-", 3): [-100, -150, -190],
                  ("scientific", "+", 3): [100, 150, 189]}


def _layout_cell(text):
    """(exponent class, significant digits, negative) of a ``%.17g`` field."""
    d = Decimal(text)
    if not d:
        return "zero", 0, d.is_signed()
    if "e" in text:
        exponent = text.split("e")[1]
        cls = ("scientific", exponent[0], len(exponent) - 1)
    else:
        cls = ("fixed", d.adjusted())
    return cls, len(d.normalize().as_tuple().digits), d.is_signed()


def _layout_values():
    """For each exponent class and 1 to 17 significant digits, the first of
    a deterministic run of decimals whose ``fmt`` lands in that cell and
    that is no exact tie (the kernel hands those back); each also negated,
    and 0 and -0."""
    values = [0.0, -0.0]
    for cls, exponents in LAYOUT_CLASSES.items():
        for nd in range(1, 18):
            draw = random.Random(nd)
            for _ in range(1000):
                digits = "".join(str(draw.randint(1, 9)) for _ in range(nd))
                x = float(f"{digits[0]}.{digits[1:]}e{draw.choice(exponents)}")
                if _layout_cell(fmt(x)) == (cls, nd, False) and not _is_tie(x):
                    values += [x, -x]
                    break
            else:
                raise AssertionError(f"no value in {cls} with {nd} digits")
    return values


class TestCsvKernel:
    """The numpy ``%.17g`` kernel behind ``write_csv`` gives the bytes of
    ``fmt``, value for value, including the values it hands back."""

    PINNED = [(1e-4, "0.0001"), (1e-05, "1.0000000000000001e-05"),
              (1e16, "10000000000000000"), (1e17, "1e+17"),
              (99999999999999984.0, "99999999999999984"),
              (2.0 ** 60, "1.152921504606847e+18"), (5e-324, "4.9406564584124654e-324"),
              (-0.0, "-0"), (0.0, "0"), (123456789012345.625, "123456789012345.62"),
              (-1.5, "-1.5"), (1e-190, "1e-190"), (1e190, "1.0000000000000001e+190"),
              (1.7976931348623157e308, "1.7976931348623157e+308")]

    def test_every_layout(self, tmp_path):
        # each value three times in a row, written with a blank line after
        # every row and without: every layout with each separator (a last
        # row of zeros, which no blank line follows, closes the table)
        rows = np.repeat([*_layout_values(), 0.0], 3).reshape(-1, 3)
        cells = set()
        for block_size in (0, 1):
            expected = _fmt_csv(rows.tolist(), block_size)
            assert _csv(tmp_path / "k.csv", rows, block_size) == expected
            body = expected.decode().split("\n", 1)[1]
            cells |= {(_layout_cell(field), sep)
                      for field, sep in re.findall(r"([^,\n]+)(,|\n\n|\n)", body)}
        layouts = {(cls, nd, negative) for cls in LAYOUT_CLASSES for nd in range(1, 18)
                   for negative in (False, True)}
        layouts |= {("zero", 0, False), ("zero", 0, True)}
        assert cells == {(cell, sep) for cell in layouts for sep in (",", "\n", "\n\n")}
        # the kernel wrote every one of them itself: none was handed back
        _, slots, _ = _csvfmt.Encoder([False] * 3, len(rows)).encode(
            rows, np.ones(len(rows), bool))
        assert slots.size == 0

    def test_pinned_cases(self, tmp_path):
        values = [v for v, _ in self.PINNED]
        assert _csv(tmp_path / "k.csv", np.array(values)[:, None]) == \
            ("a\n" + "".join(text + "\n" for _, text in self.PINNED)).encode()
        assert [fmt(v) for v in values] == [text for _, text in self.PINNED]

    @given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 4),
           st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_floats(self, tmp_path_factory, values, cols, block_size):
        rows = np.resize(values, (-(-len(values) // cols), cols))
        path = tmp_path_factory.getbasetemp() / "hypothesis.csv"
        assert _csv(path, rows, block_size) == _fmt_csv(rows.tolist(), block_size)

    def test_random_bit_patterns(self, tmp_path):
        # every exponent field, so values out of range and non-finite ones
        # are handed back, and the rest go through the kernel
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 2 ** 64, (250_000, 4), dtype=np.uint64).view(np.float64)
        assert _csv(tmp_path / "k.csv", rows, 7) == _fmt_csv(rows.tolist(), 7)

    def test_scaled_normals_with_ties(self, tmp_path):
        # dyadic values with few fractional bits hit exact rounding ties
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((40_000, 5)) * 10.0 ** rng.integers(-30, 30, (40_000, 5))
        rows[::50, 0] = np.round(rows[::50, 0] * 8.0) / 8.0 + 1e14
        assert _csv(tmp_path / "k.csv", rows) == _fmt_csv(rows.tolist())

    def test_just_below_powers_of_ten(self, tmp_path):
        # float("1e-14") lies just below 10**-14 and prints as 1e-14 only
        # because its 17-digit mantissa carries into the next decade
        powers = np.array([float(f"1e{k}") for k in range(-192, 193)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
        values = np.concatenate([values, -values])
        # the log10 estimate of the exponent is one decade off for some
        exact = np.array([Decimal(v).adjusted() for v in values.tolist()])
        assert np.any(np.floor(np.log10(np.abs(values))) != exact)
        assert _csv(tmp_path / "k.csv", values[:, None]) == _fmt_csv(values[:, None].tolist())
        # inside its range the kernel hands back exact ties only
        inside = values[(np.abs(values) >= 1e-190) & (np.abs(values) < 1e190)]
        _, slots, _ = _csvfmt.Encoder([False], inside.size).encode(
            inside[:, None], np.zeros(inside.size, bool))
        assert [v for v in inside.tolist() if _is_tie(v)] == inside[slots].tolist()

    def test_int_column(self, tmp_path):
        ints = [0, 7, -5, 2 ** 53 - 1, -(2 ** 53 - 1), 2 ** 53, 2 ** 53 + 1, -(2 ** 60),
                10 ** 30, np.int64(-(2 ** 62))]
        rows = [(n, 0.1 * i, float(n)) for i, n in enumerate(ints)]
        assert _csv(tmp_path / "k.csv", rows, 3) == _fmt_csv(rows, 3)

    def test_field_bump_grid_needs_no_fallback(self, tmp_path, field_bump_rows):
        rows = field_bump_rows
        encoder = _csvfmt.Encoder([False] * 5, len(rows) // 90)
        blank = np.zeros(len(rows) // 90, bool)
        for chunk in np.split(rows, 90):
            _, slots, _ = encoder.encode(chunk, blank)
            assert slots.size == 0
        assert _csv(tmp_path / "field.csv", rows, 300) == _fmt_csv(rows.tolist(), 300)

    def test_field_bump_write_memory(self, tmp_path, field_bump_rows):
        # the chunked writer holds about 1,000 rows of work at a time
        write_csv(tmp_path / "warm.csv", ["a"], [(1.0,)])
        tracemalloc.start()
        try:
            write_csv(tmp_path / "field.csv", list("abcde"), field_bump_rows, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


class TestImportPath:
    def test_cli_import_and_tabulated_solve_leave_out_scipy(self):
        # tables are the package's own natural splines, so neither the import
        # nor building and solving tabulated data loads any scipy module
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import moving_string.cli",
            "def scipy_modules():",
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "assert not scipy_modules(), scipy_modules()",
            "from moving_string import InitialDataSpec, StringConfig, solve",
            "x = np.linspace(0.0, np.pi, 41)",
            "spec = InitialDataSpec.tabulated(x, 0.1 * np.sin(x), 0.05 * np.sin(2 * x))",
            "sol = solve(StringConfig(L=np.pi, v=0.3, initial=spec, n_max=8))",
            "assert np.all(np.isfinite(sol.c)) and np.any(sol.c != 0)",
            "assert not scipy_modules(), scipy_modules()",
        ])
        src = str(Path(moving_string.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_and_fd_oracle_leave_out_scipy(self):
        # the FD oracle marches in numpy, so no scipy module is loaded by the
        # import or by an FD cross-validation
        code = "\n".join([
            "import sys",
            "import math",
            "import moving_string.cli",
            "def scipy_modules():",
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "assert not scipy_modules(), scipy_modules()",
            "from moving_string import (InitialDataSpec, StringConfig, cross_validate,",
            "                           solve)",
            "spec = InitialDataSpec.preset('sine_mode', amplitude=0.1, mode=1)",
            "cfg = StringConfig(L=math.pi, v=0.3, n_max=16, initial=spec)",
            "res = cross_validate(solve(cfg), sample_count=20, nx=64, methods=('fd',))",
            "assert 0.0 < res.max_fd < 1e-2, res",
            "assert not scipy_modules(), scipy_modules()",
        ])
        src = str(Path(moving_string.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_seeded_runs_leave_out_numpy_random_and_openssl(self, tmp_path):
        # the sample points come from the package's own PCG64 stream, so the
        # import, a validate run and both oracles load neither numpy.random
        # nor, through its secrets import, hashlib's OpenSSL binding
        root = Path(moving_string.__file__).resolve().parents[2]
        code = "\n".join([
            "import sys",
            "import math",
            "def loaded():",
            "    return sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules))",
            "import moving_string.cli",
            "assert not loaded(), loaded()",
            f"rc = moving_string.cli.main(['validate', '--config', "
            f"{str(root / 'configs' / 'sine_v03.json')!r}, '--out', {str(tmp_path)!r}])",
            "assert rc == 0, rc",
            "assert not loaded(), loaded()",
            "from moving_string import (InitialDataSpec, StringConfig, cross_validate,",
            "                           solve)",
            "spec = InitialDataSpec.preset('sine_mode', amplitude=0.1, mode=1)",
            "cfg = StringConfig(L=math.pi, v=0.3, n_max=16, initial=spec)",
            "res = cross_validate(solve(cfg), sample_count=20, nx=64,",
            "                     methods=('characteristics', 'fd'))",
            "assert res.max_characteristics < 1e-2 and res.max_fd < 1e-2, res",
            "assert not loaded(), loaded()",
        ])
        src = str(root / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_builds_no_formatter_table(self):
        # the CSV kernel is loaded by the first write and builds its tables
        # then; the import loads no exact-arithmetic module
        code = "\n".join([
            "import sys",
            "import moving_string.cli",
            "loaded = {'fractions', 'decimal', 'moving_string._csvfmt'} & set(sys.modules)",
            "assert not loaded, loaded",
            "from moving_string import _csvfmt",
            "assert _csvfmt._tables.cache_info().currsize == 0, 'built at import'",
        ])
        src = str(Path(moving_string.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestBlasThreadDeterminism:
    """The blocked sums and the energy sweep run in BLAS; outputs must not
    depend on how many threads it uses."""

    @staticmethod
    def _outputs(tmp_path, threads):
        src = str(Path(moving_string.__file__).resolve().parents[1])
        root = Path(moving_string.__file__).resolve().parents[2]
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads),
               "OMP_NUM_THREADS": str(threads)}
        runs = {
            "validate": ["validate", "--config", str(root / "configs" / "sine_v03.json")],
            "simulate": ["simulate", "--config", str(root / "configs" / "sine_v07.json"),
                         "--nx", "30", "--nt", "20"],
        }
        found = {}
        for name, argv in runs.items():
            out = tmp_path / f"{name}-{threads}"
            proc = subprocess.run([sys.executable, "-m", "moving_string.cli", *argv,
                                   "--out", str(out)], capture_output=True, env=env,
                                  timeout=120)
            found[f"{name}/stdout"] = proc.stdout
            found[f"{name}/exit"] = proc.returncode
            for path in sorted(out.iterdir()):
                doc = path.read_bytes()
                if path.name == "manifest.json":
                    doc = json.loads(doc)
                    del doc["duration_seconds"], doc["out_dir"]
                found[f"{name}/{path.name}"] = doc
        return found

    def test_one_and_two_threads_agree(self, tmp_path):
        one = self._outputs(tmp_path, 1)
        assert one["validate/exit"] == one["simulate/exit"] == 0
        assert "validate/validate.json" in one and "simulate/field.csv" in one
        assert one == self._outputs(tmp_path, 2)


class TestEnergyCmd:
    def test_csv_and_checks(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=12)
        out = tmp_path / "out"
        rc = main(["energy", "--config", cfg, "--out", str(out), "--times", "9"])
        assert rc == 0
        lines = (out / "energy.csv").read_text().splitlines()
        assert lines[0] == "t,calE,E,spectral,resid"
        assert len(lines) == 10
        man = read_manifest(out)
        names = {c["name"] for c in man["checks"]}
        assert {"energy_conservation", "energy_bounds"} <= names


class TestObserveCmd:
    def test_json_report_fields(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=12)
        out = tmp_path / "out"
        rc = main(["observe", "--config", cfg, "--out", str(out),
                   "--endpoint", "both"])
        assert rc == 0
        doc = json.loads((out / "observe.json").read_text())
        for key in ("endpoint_mode", "T", "M", "integral", "identity_residual",
                    "inverse_constant_check", "direct_constant", "energy0"):
            assert key in doc
        assert doc["endpoint_mode"] == "both"
        assert doc["identity_residual"] < 1e-6

    def test_fractional_horizon(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=12)
        out = tmp_path / "out"
        rc = main(["observe", "--config", cfg, "--out", str(out),
                   "--endpoint", "left", "--horizon", "1.5"])
        assert rc == 0
        doc = json.loads((out / "observe.json").read_text())
        assert doc["identity_residual"] is None


class TestOracleCmd:
    def test_characteristics_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=12)
        out = tmp_path / "out"
        rc = main(["oracle", "--config", cfg, "--out", str(out),
                   "--method", "characteristics", "--samples", "25"])
        assert rc == 0
        doc = json.loads((out / "oracle.json").read_text())
        assert doc["max_abs_series_vs_characteristics"] < 1e-2
        assert doc["max_abs_series_vs_fd"] is None
        assert doc["seed"] == 0

    def test_fd_run_reports_steps_and_tail(self, tmp_path, capsys):
        # the manifest records the FD march; oracle.json keeps exactly the
        # keys the oracle gate reads
        cfg = write_cfg(tmp_path, n_max=12)
        out = tmp_path / "out"
        rc = main(["oracle", "--config", cfg, "--out", str(out),
                   "--method", "both", "--samples", "20", "--nx", "64"])
        assert rc == 0
        fd = read_manifest(out)["parameters"]["fd"]
        assert fd["n_steps"] == oracle._scheme(load_config(cfg), 64, 0.4, None).n_steps == 503
        assert 0.0 < fd["dropped_tail"] < 2.0 ** -62
        doc = json.loads((out / "oracle.json").read_text())
        assert list(doc) == ["samples", "seed", "nx", "cfl",
                             "max_abs_series_vs_characteristics", "max_abs_series_vs_fd"]
        chars = tmp_path / "chars"
        main(["oracle", "--config", cfg, "--out", str(chars),
              "--method", "characteristics", "--samples", "20"])
        assert "fd" not in read_manifest(chars)["parameters"]

    def test_fd_defaults_are_the_librarys(self):
        args = _build_parser().parse_args(["oracle", "--config", "cfg.json"])
        params = inspect.signature(cross_validate).parameters
        assert (args.nx, args.cfl) == (params["nx"].default, params["cfl"].default)

    def test_fd_history_beyond_memory_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, v=0.99, n_max=8)
        rc = main(["oracle", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--method", "fd", "--samples", "5", "--nx", "4096"])
        assert rc == 2
        assert "--method characteristics" in capsys.readouterr().err


class TestManifest:
    def test_listing_matches_disk(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=6)
        out = tmp_path / "out"
        main(["coeffs", "--config", cfg, "--out", str(out)])
        man = read_manifest(out)
        on_disk = sorted(p.name for p in out.iterdir())
        assert sorted(man["files"]) == on_disk
        assert man["files"][-1] == "manifest.json"  # written last
        assert man["version"]
        assert man["duration_seconds"] >= 0


    @pytest.mark.parametrize("argv", [SHORT_RUNS[k] for k in SHORT_RUNS if k != "constants"],
                             ids=[k for k in SHORT_RUNS if k != "constants"])
    @pytest.mark.parametrize("preset, rule", [(None, "gauss-legendre"), (BUMP, "simpson")],
                             ids=["sine", "bump"])
    def test_records_table_rule(self, tmp_path, capsys, argv, preset, rule):
        cfg = write_cfg(tmp_path, preset=preset, n_max=8)
        out = tmp_path / "out"
        main([*argv, "--config", cfg, "--out", str(out)])
        parameters = read_manifest(out)["parameters"]
        tables = parameters["coefficient_tables"]
        assert tables == solve(load_config(cfg)).table_layout()
        assert tables["rule"] == rule
        assert tables["nodes"]["plus"] > 0 and tables["nodes"]["minus"] > 0
        # recorded after the subcommand's own parameters; oracle records
        # its FD march after them
        assert list(parameters)[-1] == ("fd" if argv[0] == "oracle" else "coefficient_tables")


class TestZeroConfig:
    """configs/zero.json declares rate 0: its squared integrands have band
    0, one Gauss-Legendre panel per segment."""

    def test_coeffs_are_zero(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["coeffs", "--config", str(ROOT / "configs" / "zero.json"),
                   "--out", str(out)])
        assert rc == 0
        rows = np.loadtxt(out / "coeffs.csv", delimiter=",", skiprows=1)
        assert rows.shape == (80, 6) and np.all(rows[:, 1:] == 0.0)
        assert "cross-check residual 0" in capsys.readouterr().out

    def test_validate_passes_vacuously(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(ROOT / "configs" / "zero.json"),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "validate.json").read_text())
        assert doc["summary"]["checks_failed"] == 0
        # every residual of the data reads 0; the constants' own does not
        measured = [c["residual"] for c in doc["checks"]
                    if c["residual"] is not None and c["name"] != "constants_identities"]
        assert measured and all(r == 0.0 for r in measured)
        assert read_manifest(out)["parameters"]["coefficient_tables"]["rule"] == "gauss-legendre"


class TestValidateCmd:
    def test_full_suite_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=24)
        out = tmp_path / "out"
        rc = main(["validate", "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0, captured
        doc = json.loads((out / "validate.json").read_text())
        assert doc["summary"]["checks_total"] >= 14
        assert doc["summary"]["checks_failed"] == 0
        assert doc["checks"] == certify_records(cfg)

    def test_ill_posed_config_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, v=1.2)
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_zero_data_vacuous(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, preset={"name": "zero", "params": {}}, n_max=8)
        out = tmp_path / "out"
        rc = main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "validate.json").read_text())
        assert any(c["vacuous"] for c in doc["checks"])
        assert doc["checks"] == certify_records(cfg)

    @pytest.mark.parametrize("subcommand", ["coeffs", "validate"])
    def test_non_finite_table_sample_usage_error(self, tmp_path, capsys, subcommand):
        x = np.linspace(0, math.pi, 21)
        rows = [f"{a!r},{0.1 * math.sin(a)!r},0.0" for a in x.tolist()]
        rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "data.csv").write_text("x,phi0,phi1\n" + "\n".join(rows) + "\n")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "L": math.pi, "v": 0.4, "n_max": 8, "initial": {"table": "data.csv"}}))
        out = tmp_path / "out"
        # the data are built before --out is made
        rc = main([subcommand, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
        assert rc == 2
        assert "table column phi1 holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    def test_tabulated_data_with_velocity_full_suite(self, tmp_path, capsys):
        # CSV -> natural splines -> extensions with phi1 != 0 ->
        # coefficients -> every identity, all through the public surface
        x = np.linspace(0, math.pi, 201)
        phi0 = 0.05 * np.sin(x) ** 2
        phi1 = 0.02 * np.sin(x)
        rows = "\n".join(
            f"{float(a)!r},{float(b)!r},{float(c)!r}"
            for a, b, c in zip(x, phi0, phi1)
        )
        (tmp_path / "data.csv").write_text("x,phi0,phi1\n" + rows + "\n")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "L": math.pi, "v": 0.4, "n_max": 16,
            "initial": {"table": "data.csv"},
        }))
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().out
        doc = json.loads((out / "validate.json").read_text())
        assert doc["summary"]["checks_failed"] == 0
