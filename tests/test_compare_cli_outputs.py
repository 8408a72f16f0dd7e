"""``scripts/compare_cli_outputs.py``: the report on one differing file."""

import difflib
import importlib.util
from pathlib import Path

import pytest

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


def test_figures_runs_once():
    # figures reads no config, so it runs once per tree, not once per config
    configs = [Path(f"configs/c{k}.json") for k in range(7)]
    jobs = compare_cli_outputs.jobs(configs)
    assert [job for job in jobs if job[1] == "figures"] == [(None, "figures")]
    per_config = [s for s in compare_cli_outputs.SUBCOMMANDS if s != "figures"]
    assert jobs[:-1] == [(c, s) for c in configs for s in per_config]
    assert len(jobs) == 7 * 14 + 1 == 99
