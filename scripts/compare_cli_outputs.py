#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two source trees.

Runs every subcommand below on every ``configs/*.json`` and
``perfbench/configs/*.json`` of NEW_ROOT (``figures``, which reads no
config, runs once), once with OLD_ROOT/src and once with NEW_ROOT/src on
PYTHONPATH, and compares the exit codes, stdout and every written file
byte for byte.  Two runs go at once, each child with
one BLAS thread.  Only the manifest's ``duration_seconds`` and
``out_dir`` are ignored.  Two versions of a file with equal line counts
pair line by line by index; otherwise they are aligned
(``difflib.SequenceMatcher``), so a line added or removed does not shift
the comparison of the lines after it.  For each differing file it prints
how many aligned lines differ and the first of them, how many lines were
removed and added and the first of each and, over all differing aligned
lines whose fields parse as numbers pair by pair, the largest absolute
difference and the line and field where it occurs.  Line numbers are
those of the new file.  For ``validate.json`` it also names
the checks whose ``passed`` flipped, or says there is no pass/fail change;
the summary line counts the flips.

Exit status: 1 if any output from ``configs/`` or from ``figures``
differs, else 0 (differences on ``perfbench/configs`` are reported only).

Usage: python scripts/compare_cli_outputs.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    "figures": ["figures", "--figure", "6"],
}
# Both sides run at once; one BLAS thread each keeps them from
# oversubscribing the cores, as perfbench's children do.
_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_VOLATILE = re.compile(r'^\s*"(duration_seconds|out_dir)": .*$', re.MULTILINE)


def jobs(configs: list[Path]) -> list[tuple[Path | None, str]]:
    """(config, subcommand) pairs: every subcommand on every config, except
    ``figures``, which draws its own fixed problems and takes no --config:
    it runs once, with config None."""
    return [(c, s) for c in configs for s in SUBCOMMANDS if s != "figures"] + [(None, "figures")]


def run(root: Path, config: Path | None, args: list[str], out: Path) -> dict[str, bytes]:
    """Outputs of one CLI run, keyed by file name (plus exit code and stdout)."""
    env = {**os.environ, **_THREAD_ENV, "PYTHONPATH": str(root / "src")}
    config_args = [] if config is None else ["--config", str(config)]
    proc = subprocess.run(
        [sys.executable, "-m", "moving_string.cli", *args, *config_args, "--out", str(out)],
        capture_output=True, env=env,
    )
    files = {"<exit code>": str(proc.returncode).encode(), "<stdout>": proc.stdout}
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
    if len(la) == len(lb):  # no line added or removed: pair by index
        pairs = [(i, x, y) for i, (x, y) in enumerate(zip(la, lb), 1) if x != y]
    else:
        matcher = difflib.SequenceMatcher(None, la, lb, autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "replace" and i2 - i1 == j2 - j1:
                pairs += [(j1 + k + 1, la[i1 + k], lb[j1 + k]) for k in range(i2 - i1)]
            elif tag != "equal":
                removed += la[i1:i2]
                added += [(j + 1, lb[j]) for j in range(j1, j2)]
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


def compare(old: Path, new: Path, config: Path | None, name: str,
            scratch: Path) -> tuple[list[str], int]:
    """(one line per differing output, number of pass/fail flips)."""
    args = SUBCOMMANDS[name]
    tag = "no-config" if config is None else config.relative_to(new).with_suffix("").as_posix()
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
    configs = sorted((new / "configs").glob("*.json")) + sorted(
        (new / "perfbench" / "configs").glob("*.json"))
    todo = jobs(configs)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda job: compare(old, new, *job, Path(tmp)), todo))
    gating = 0
    for (config, name), (diffs, _) in zip(todo, results):
        for line in diffs:
            print("DIFF", line)
        gating += bool(diffs) and (config is None or config.parent == new / "configs")
    differing = sum(bool(d) for d, _ in results)
    flips = sum(f for _, f in results)
    print(f"{len(todo)} runs on {len(configs)} configs: {len(todo) - differing} identical, "
          f"{differing} differing ({gating} of them on configs/), "
          f"{flips} pass/fail flips")
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
