#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two source trees.

Runs every subcommand below on every ``configs/*.json`` and
``perfbench/configs/*.json`` of NEW_ROOT, every refused command line of
``tests/cli_inputs.py`` on ``configs/sine_v03.json``, and the configs of
``generated`` (written to the temp dir, with their tables) on their runs,
once with OLD_ROOT/src and once with NEW_ROOT/src on PYTHONPATH, and
compares the exit codes, stdout, stderr and every written file byte for
byte.  Two runs go at once, each child with one BLAS thread.  Only the
manifest's ``duration_seconds`` and ``out_dir`` are ignored, and stderr
reads each tree's root as ``<root>`` and each run's output directory as
``<out>``.  Two versions of a file with equal line counts pair line by
line by index, and only the stretch from the first to the last pair that
is not numeric field by field is aligned (``difflib.SequenceMatcher``);
files of unequal line counts are aligned whole.  So a line added or
removed does not shift the comparison of the lines after it.  For each differing file it prints how many aligned lines differ
and the first of them, how many lines were removed and added and the
first of each and, over all differing aligned lines whose fields parse as
numbers pair by pair, the largest absolute difference and the line and
field where it occurs.  Line numbers are those of the new file.  For
``validate.json`` it also names the checks whose ``passed`` flipped, or
says there is no pass/fail change; the summary line counts the flips.

Exit status: 1 if any output from ``configs/`` or a generated config
differs, else 0 (differences on ``perfbench/configs`` are reported only).
On a 2-core host its 362 jobs take about 90 s.

Usage: python scripts/compare_cli_outputs.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import difflib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

# the command lines that tests/test_cli.py shares with this script
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from cli_inputs import REFUSAL_CONFIG, REFUSED  # noqa: E402

SUBCOMMANDS = {
    "constants": ["constants"],
    "coeffs": ["coeffs"],
    "simulate": ["simulate", "--nx", "40", "--nt", "30"],
    # the benchmark's grid: 90,000 rows with a blank line every 300
    "simulate-grid": ["simulate", "--nx", "300", "--nt", "300"],
    "energy": ["energy"],
    "observe-left": ["observe", "--endpoint", "left"],
    "observe-right": ["observe", "--endpoint", "right"],
    "observe-both": ["observe", "--endpoint", "both"],
    "observe-horizon": ["observe", "--endpoint", "left", "--horizon", "2.5"],
    "oracle": ["oracle", "--samples", "50", "--nx", "256"],
    # the benchmark's oracle-bump command line: the FD march at nx = 1024
    "oracle-bench": ["oracle", "--method", "both", "--samples", "4000", "--nx", "1024"],
    "validate": ["validate"],
    # a second sample set for the FD sampler's reads and the seeded checks
    "oracle-bench-seed7": ["oracle", "--method", "both", "--samples", "4000", "--nx", "1024",
                           "--seed", "7"],
    "validate-seed7": ["validate", "--seed", "7"],
    # 2^64 + 1: a three-word seed, so the seeding's multi-word mixing is compared too
    "oracle-seed-2p64": ["oracle", "--samples", "50", "--nx", "256",
                         "--seed", "18446744073709551617"],
    "validate-seed-2p64": ["validate", "--seed", "18446744073709551617"],
}
# the refused command lines of tests/test_cli.py::TestBadInputExitsTwo
REFUSALS = {f"refused-{group}-{name}": argv
            for group, cases in REFUSED.items() for name, (argv, _) in cases.items()}
RUNS = {**SUBCOMMANDS, **REFUSALS}

# Both sides run at once; one BLAS thread each keeps them from
# oversubscribing the cores, as perfbench's children do.
_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_VOLATILE = re.compile(r'^\s*"(duration_seconds|out_dir)": .*$', re.MULTILINE)

# the FD oracle does not converge at v = 0.99 and reads the data as it
# does at v = 0.3, so the generated v = 0.99 configs skip its default runs
_V099_SKIPS = ("oracle", "oracle-seed-2p64")


class Generated(NamedTuple):
    """A config written as ``<name>.json``, the tables it reads, its runs."""

    name: str
    doc: dict
    runs: tuple
    tables: dict   # file name -> CSV text


def _table_csv(xs: list[float]) -> str:
    """``x,phi0,phi1`` rows of phi0 = 0.1 sin x (1 + 0.3 cos 3x) and
    phi1 = 0.05 sin 2x e^-x at the samples ``xs``."""
    return "x,phi0,phi1\n" + "".join(
        f"{x!r},{0.1 * math.sin(x) * (1 + 0.3 * math.cos(3 * x))!r},"
        f"{0.05 * math.sin(2 * x) * math.exp(-x)!r}\n" for x in xs)


def generated(root: Path) -> list[Generated]:
    """The configs no shipped file holds.  ``configs/sine_v03.json`` of
    ``root`` at an amplitude of 1e-150 and 1e-200 writes 3-digit exponents
    and values below 1e-190, which the CSV kernel hands back to ``fmt``.
    The rest run every subcommand on L = pi and n_max = 40, at v = 0.3 and
    0.99: tables of 201 and 2,001 uniform samples and of the 301
    Chebyshev-Lobatto points, ``sine_velocity``, and ``traveling_sine`` of
    both signs."""
    rows = []
    for amplitude in (1e-150, 1e-200):
        doc = json.loads((root / REFUSAL_CONFIG).read_text())
        doc["initial"]["preset"]["params"]["amplitude"] = amplitude
        rows.append(Generated(f"sine_v03-amplitude-{amplitude}", doc, ("coeffs", "simulate"), {}))
    samples = {f"table-{n}": [k / (n - 1) * math.pi for k in range(n)] for n in (201, 2001)}
    samples["table-chebyshev-301"] = [(1 - math.cos(k / 300 * math.pi)) / 2 * math.pi
                                      for k in range(301)]
    initials = {name: {"table": f"{name}.csv"} for name in samples}
    initials["sine_velocity"] = {"preset": {"name": "sine_velocity", "params": {"amplitude": 0.1}}}
    for sign in (1, -1):
        initials[f"traveling_sine{sign:+d}"] = {"preset": {
            "name": "traveling_sine", "params": {"amplitude": 0.1, "sign": sign}}}
    for v in (0.3, 0.99):
        runs = tuple(s for s in SUBCOMMANDS if v < 0.99 or s not in _V099_SKIPS)
        for name, initial in initials.items():
            tables = {f"{name}.csv": _table_csv(samples[name])} if name in samples else {}
            doc = {"L": math.pi, "v": v, "n_max": 40, "initial": initial}
            rows.append(Generated(f"{name}-v{v}", doc, runs, tables))
    return rows


def jobs(new: Path, directory: Path) -> list[tuple[Path, str]]:
    """(config, run name) pairs: every subcommand on every shipped config of
    ``new``, every refused command line on ``REFUSAL_CONFIG``, and the runs
    of each ``generated`` config, written with its tables to ``directory``."""
    configs = sorted((new / "configs").glob("*.json")) + sorted(
        (new / "perfbench" / "configs").glob("*.json"))
    todo = [(c, s) for c in configs for s in SUBCOMMANDS]
    todo += [(new / REFUSAL_CONFIG, s) for s in REFUSALS]
    directory.mkdir(exist_ok=True)
    for row in generated(new):
        for name, text in {**row.tables, f"{row.name}.json": json.dumps(row.doc)}.items():
            (directory / name).write_text(text)
        todo += [(directory / f"{row.name}.json", s) for s in row.runs]
    return todo


def run(root: Path, config: Path, args: list[str], out: Path) -> dict[str, bytes]:
    """Outputs of one CLI run, keyed by file name (plus exit code, stdout and
    stderr)."""
    env = {**os.environ, **_THREAD_ENV, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "moving_string.cli", *args, "--config", str(config),
         "--out", str(out)],
        capture_output=True, env=env,
    )
    stderr = proc.stderr.replace(str(root).encode(), b"<root>")
    files = {"<exit code>": str(proc.returncode).encode(), "<stdout>": proc.stdout,
             "<stderr>": stderr.replace(str(out).encode(), b"<out>")}
    for path in sorted(out.glob("*")) if out.is_dir() else ():
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _VOLATILE.sub("", data.decode()).encode()
        files[path.name] = data
    return files


def describe_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    # aligned pairs (new line number, old line, new line); replace blocks of
    # equal length pair line by line, all other changes are removals and
    # additions
    pairs, removed, added = [], [], []
    lo, old, new = 0, la, lb    # the stretch to align, from line lo + 1
    if len(la) == len(lb):
        # pair by index, and align only from the first to the last pair that
        # is not numeric field by field: a line removed there and one added
        # further down shift the lines between
        pairs = [(i, x, y) for i, (x, y) in enumerate(zip(la, lb), 1) if x != y]
        opaque = [i for i, x, y in pairs if _abs_diff(x, y) is None]
        lo, hi = (opaque[0] - 1, opaque[-1]) if opaque else (0, 0)
        pairs = [pair for pair in pairs if not lo < pair[0] <= hi]
        old, new = la[lo:hi], lb[lo:hi]
    if old or new:
        matcher = difflib.SequenceMatcher(None, old, new, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "replace" and i2 - i1 == j2 - j1:
                pairs += [(lo + j1 + k + 1, old[i1 + k], new[j1 + k]) for k in range(i2 - i1)]
            elif tag != "equal":
                removed += old[i1:i2]
                added += [(lo + j + 1, new[j]) for j in range(j1, j2)]
        pairs.sort(key=lambda pair: pair[0])
    parts = []
    if pairs:
        i, x, y = pairs[0]
        parts.append(f"{len(pairs)} lines differ, first line {i}: {x.strip()!r} -> {y.strip()!r}")
    if removed:
        parts.append(f"{len(removed)} lines removed, first {removed[0].strip()!r}")
    if added:
        i, y = added[0]
        parts.append(f"{len(added)} lines added, first line {i}: {y.strip()!r}")
    if len(la) != len(lb):
        parts.append(f"{len(la)} lines -> {len(lb)} lines")
    worst, opaque = None, 0
    for i, x, y in pairs:
        d = _abs_diff(x, y)
        if d is None:
            opaque += 1
        elif worst is None or d[0] > worst[0]:
            worst = (d[0], i, d[1], y.strip())
    if worst is not None:
        diff, i, field, line = worst
        parts.append(f"largest abs diff {diff:.3g} at line {i} field {field} ({line[:60]!r})")
    if opaque:
        parts.append(f"{opaque} differing lines not numeric field by field")
    return "; ".join(parts)


def _abs_diff(x: str, y: str) -> tuple[float, int] | None:
    """(largest |p - q|, 1-based field) over the fields of two lines, or None
    unless both split into the same number of fields that are equal or
    both numeric."""
    fx, fy = re.split(r"[,:;=\s]+", x.strip()), re.split(r"[,:;=\s]+", y.strip())
    if len(fx) != len(fy):
        return None
    best = None
    for k, (p, q) in enumerate(zip(fx, fy), 1):
        try:
            d = abs(float(p) - float(q))
        except ValueError:
            if p != q:
                return None
            continue
        if best is None or d > best[0]:
            best = (d, k)
    return best


def pass_flips(a: bytes, b: bytes) -> list[str]:
    """Names of the checks whose ``passed`` differs between two validate.json."""
    old, new = ({c["name"]: c["passed"] for c in json.loads(x)["checks"]} for x in (a, b))
    return sorted(n for n in old.keys() | new.keys() if old.get(n) != new.get(n))


def compare(old: Path, new: Path, config: Path, name: str,
            scratch: Path) -> tuple[list[str], int]:
    """(one line per differing output, number of pass/fail flips)."""
    args = RUNS[name]
    tag = (config.relative_to(new) if config.is_relative_to(new)
           else Path("generated") / config.name).with_suffix("").as_posix()
    out = scratch / f"{tag.replace('/', '-')}-{name}"
    a, b = run(old, config, args, out / "old"), run(new, config, args, out / "new")
    lines, flips = [], 0
    for f in sorted(a.keys() | b.keys()):
        if a.get(f) == b.get(f):
            continue
        if f not in a or f not in b:
            lines.append(f"{tag} {name} {f}: missing on one side")
            continue
        line = f"{tag} {name} {f}: " + describe_difference(a[f], b[f])
        if f == "validate.json":
            flipped = pass_flips(a[f], b[f])
            flips += len(flipped)
            line += ("; passed flipped: " + ", ".join(flipped) if flipped
                     else "; no pass/fail change")
        lines.append(line)
    return lines, flips


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    old, new = (Path(p).resolve() for p in argv)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        todo = jobs(new, Path(tmp) / "generated")
        results = list(pool.map(lambda job: compare(old, new, *job, Path(tmp)), todo))
    gating = 0
    for (config, name), (diffs, _) in zip(todo, results):
        for line in diffs:
            print("DIFF", line)
        gating += bool(diffs) and config.parent != new / "perfbench" / "configs"
    differing = sum(bool(d) for d, _ in results)
    flips = sum(f for _, f in results)
    configs = len({config for config, _ in todo})
    print(f"{len(todo)} runs on {configs} configs: {len(todo) - differing} identical, "
          f"{differing} differing ({gating} of them gating), "
          f"{flips} pass/fail flips")
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
