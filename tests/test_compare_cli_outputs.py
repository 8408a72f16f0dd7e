"""``scripts/compare_cli_outputs.py``: the report on one differing file."""

import difflib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from moving_string import load_config

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_cli_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_cli_outputs", SCRIPT)
compare_cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_cli_outputs)
describe_difference = compare_cli_outputs.describe_difference


def test_removed_line_does_not_hide_a_later_move():
    # a manifest that lost one line and, two lines later, moved one value
    old = (b'{\n  "n_max": 24,\n  "panels_per_unit": 256,\n  "tol": 1e-06,\n'
           b'  "residual": 2.5e-15,\n  "passed": true\n}\n')
    new = (b'{\n  "n_max": 24,\n  "tol": 1e-06,\n'
           b'  "residual": 3.5e-15,\n  "passed": true\n}\n')
    assert describe_difference(old, new) == (
        "1 lines differ, first line 4: '\"residual\": 2.5e-15,' -> '\"residual\": 3.5e-15,'; "
        "1 lines removed, first '\"panels_per_unit\": 256,'; 7 lines -> 6 lines; "
        "largest abs diff 1e-15 at line 4 field 2 ('\"residual\": 3.5e-15,')")


def test_added_line_is_named():
    old = b"a\nb 1\nc\n"
    new = b"a\nb 1\nnew line\nc\n"
    assert describe_difference(old, new) == (
        "1 lines added, first line 3: 'new line'; 3 lines -> 4 lines")


def test_same_line_count_reads_as_before():
    # no line added or removed: the lines pair by index, as they did before
    # the files were aligned
    old = b"n,re,im\n1,0.5,0.25\n2,0.125,-1\n3,7,8\nsummary: ok\n"
    new = b"n,re,im\n1,0.5,0.2500000001\n2,0.126,-1\n3,7,8\nsummary: fail\n"
    assert describe_difference(old, new) == (
        "3 lines differ, first line 2: '1,0.5,0.25' -> '1,0.5,0.2500000001'; "
        "largest abs diff 0.001 at line 3 field 2 ('2,0.126,-1'); "
        "1 differing lines not numeric field by field")


def test_same_line_count_pairs_without_alignment(monkeypatch):
    # equal-length files pair by index; the alignment, quadratic on long
    # files with many changed lines, is never built
    def refuse(*args, **kwargs):
        raise AssertionError("aligned an equal-length pair")

    monkeypatch.setattr(difflib, "SequenceMatcher", refuse)
    old = b"".join(b"%d,1.0\n" % k for k in range(30))
    new = b"".join(b"%d,%s\n" % (k, b"1.5" if k % 3 == 0 else b"1.0") for k in range(30))
    assert describe_difference(old, new) == (
        "10 lines differ, first line 1: '0,1.0' -> '0,1.5'; "
        "largest abs diff 0.5 at line 1 field 2 ('0,1.5')")
    with pytest.raises(AssertionError, match="aligned"):
        describe_difference(old, new + b"extra\n")


def _validate_json(failed, residual):
    """A validate.json of ten checks, ``failed`` listed, check_3's residual."""
    checks = [{"name": f"check_{k}", "passed": f"check_{k}" not in failed,
               "residual": residual if k == 3 else 1e-15} for k in range(10)]
    return json.dumps({"summary": {"checks_failed": len(failed), "failed_names": failed},
                       "checks": checks}, indent=2).encode()


def test_same_line_count_aligns_a_shifted_stretch():
    # check_1 leaves the failed list and check_6 joins it further down: the
    # line count stays, and the names between shift by one line
    old = _validate_json([f"check_{k}" for k in (1, 2, 3, 4, 5, 8)], 2.5e-6)
    new = _validate_json([f"check_{k}" for k in (2, 3, 4, 5, 6, 8)], 3.5e-6)
    assert describe_difference(old, new) == (
        "3 lines differ, first line 21: '\"passed\": false,' -> '\"passed\": true,'; "
        "1 lines removed, first '\"check_1\",'; 1 lines added, first line 9: '\"check_6\",'; "
        "largest abs diff 1e-06 at line 32 field 2 ('\"residual\": 3.5e-06'); "
        "2 differing lines not numeric field by field")


def test_jobs_are_configs_times_subcommands(tmp_path):
    # every subcommand runs once per shipped config, the refused command
    # lines once, on configs/sine_v03.json, and each generated config its
    # own runs: coeffs and simulate on the two tiny-amplitude copies, every
    # subcommand on the other 12 but the default FD oracle runs at v = 0.99
    root = Path(__file__).resolve().parents[1]
    jobs = compare_cli_outputs.jobs(root, tmp_path)
    assert jobs[7 * 16:7 * 16 + 66] == [(root / "configs" / "sine_v03.json", s)
                                       for s in compare_cli_outputs.REFUSALS]
    assert jobs[7 * 16 + 66:] == [(tmp_path / f"{row.name}.json", s)
                                  for row in compare_cli_outputs.generated(root) for s in row.runs]
    assert len(jobs) == 7 * 16 + 66 + 2 * 2 + 6 * 16 + 6 * 14 == 362


def test_generated_configs_load(tmp_path):
    # each generated config loads, so the gate runs it; the table rows
    # carry a table, so the gate reaches the table path
    root = Path(__file__).resolve().parents[1]
    configs = {config for config, _ in compare_cli_outputs.jobs(root, tmp_path)
               if config.parent == tmp_path}
    tables = 0
    for row in compare_cli_outputs.generated(root):
        config = tmp_path / f"{row.name}.json"
        assert config in configs
        spec = load_config(config).initial
        if "table" in row.doc["initial"]:
            assert spec.table is not None and len(spec.table[0]) in (201, 2001, 301)
            tables += 1
        else:
            assert spec.table is None and spec.name == row.doc["initial"]["preset"]["name"]
    assert tables == 6


def test_tiny_amplitude_csvs_hold_the_rare_layouts(tmp_path):
    # the tiny-amplitude runs write 3-digit exponents and values below
    # 1e-190, which the CSV kernel hands back to fmt
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    tiny = [row for row in compare_cli_outputs.generated(root) if "amplitude" in row.name]
    assert len(tiny) == 2
    texts = []
    for row in tiny:
        config = tmp_path / f"{row.name}.json"
        config.write_text(json.dumps(row.doc))
        for run in row.runs:
            out = tmp_path / f"{row.name}-{run}"
            args = compare_cli_outputs.SUBCOMMANDS[run]
            proc = subprocess.run([sys.executable, "-m", "moving_string.cli", *args,
                                   "--config", str(config), "--out", str(out)],
                                  capture_output=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            texts += [p.read_text() for p in out.glob("*.csv")]
    values = [float(v) for text in texts for line in text.splitlines()[1:] if line
              for v in line.split(",")]
    assert any(0 < abs(v) < 1e-190 for v in values)
    assert any(1e-190 <= abs(v) < 1e-99 for v in values)
