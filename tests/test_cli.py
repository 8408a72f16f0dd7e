"""CLI subcommands: outputs, manifests, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import moving_string
from moving_string import certify, load_config, solve
from moving_string.cli import fmt, main, write_csv
from moving_string.series import sample_moving_grid


def write_cfg(tmp_path, name="cfg.json", v=0.3, preset=None, n_max=24, ppu=128):
    preset = preset or {"name": "sine_mode", "params": {"amplitude": 0.1, "mode": 1}}
    doc = {
        "L": math.pi,
        "v": v,
        "n_max": n_max,
        "initial": {"preset": preset},
        "quadrature": {"panels_per_unit": ppu},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def certify_records(cfg):
    """The library's check records for ``cfg`` as validate.json entries."""
    return [{k: val for k, val in asdict(c).items() if not (k == "note" and val is None)}
            for c in certify(solve(load_config(cfg)), 1e-6, 0)]


class TestConstants:
    def test_writes_constants(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "constants.json").read_text())
        assert doc["T_v"] == pytest.approx(2 * math.pi / 0.91, rel=1e-12)
        assert doc["gamma_v"] == pytest.approx(13 / 7, rel=1e-12)

    def test_requires_config(self, tmp_path, capsys):
        assert main(["constants", "--out", str(tmp_path / "o")]) == 2

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
        assert "t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["energy", "--times", "4"],
        ["observe", "--endpoint", "both"],
        ["observe", "--endpoint", "right", "--horizon", "1.5"],
    ], ids=["validate", "energy", "observe", "observe-horizon"])
    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_invalid_tolerance(self, tmp_path, capsys, argv, tol):
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o"), "--tol", tol])
        assert rc == 2
        assert "tolerance must be finite and positive" in capsys.readouterr().err

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
        # refused by the quadrature layout's node bound, before allocating
        cfg = write_cfg(tmp_path, n_max=6)
        rc = main(["observe", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--endpoint", "left", *flags])
        assert rc == 2
        assert "nodes, more than" in capsys.readouterr().err

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


class TestImportPath:
    def test_cli_import_leaves_out_scipy_interpolate(self):
        # only tabulated data need scipy.interpolate; they import it when
        # they are built, and still solve
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import moving_string.cli",
            "assert 'scipy.interpolate' not in sys.modules, 'imported eagerly'",
            "from moving_string import InitialDataSpec, QuadratureSpec, StringConfig, solve",
            "x = np.linspace(0.0, np.pi, 41)",
            "spec = InitialDataSpec.tabulated(x, 0.1 * np.sin(x), 0.05 * np.sin(2 * x))",
            "sol = solve(StringConfig(L=np.pi, v=0.3, initial=spec, n_max=8,",
            "                         quadrature=QuadratureSpec(panels_per_unit=64)))",
            "assert 'scipy.interpolate' in sys.modules",
            "assert np.all(np.isfinite(sol.c_plus)) and np.any(sol.c_plus != 0)",
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

    def test_fd_history_beyond_memory_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, v=0.99, n_max=8)
        rc = main(["oracle", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--method", "fd", "--samples", "5", "--nx", "4096"])
        assert rc == 2
        assert "--method characteristics" in capsys.readouterr().err


class TestFiguresCmd:
    def test_demo_surface_data(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["figures", "--figure", "4", "--out", str(out),
                   "--nx", "16", "--nt", "16"])
        assert rc == 0
        man = read_manifest(out)
        assert man["parameters"]["v"] == 0.3
        assert man["parameters"]["T_v"] == pytest.approx(6.9052, abs=1e-3)
        assert (out / "fig4_field.csv").exists()
        assert (out / "fig4_field.gp").exists()


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


class TestValidateCmd:
    def test_full_suite_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, n_max=24, ppu=256)
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
            "quadrature": {"panels_per_unit": 128},
        }))
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(tmp_path / "cfg.json"),
                   "--out", str(out)])
        assert rc == 0, capsys.readouterr().out
        doc = json.loads((out / "validate.json").read_text())
        assert doc["summary"]["checks_failed"] == 0
