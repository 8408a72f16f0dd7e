#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two source trees.

Runs every subcommand below on every ``configs/*.json`` and
``perfbench/configs/*.json`` of NEW_ROOT (``figures``, which reads no
config, runs once per config all the same), once with OLD_ROOT/src and once
with NEW_ROOT/src on PYTHONPATH, and compares the exit codes, stdout and
every written file byte for byte.  Two runs go at once, each child with
one BLAS thread.  Only the manifest's ``duration_seconds`` and
``out_dir`` are ignored.  For each differing file it prints how many
lines differ, the first differing line and, over all differing lines whose
fields parse as numbers pair by pair, the largest absolute difference and
the line and field where it occurs.  For ``validate.json`` it also names
the checks whose ``passed`` flipped, or says there is no pass/fail change;
the summary line counts the flips.

Exit status: 1 if any output from ``configs/`` differs, else 0 (differences
on ``perfbench/configs`` are reported only).

Usage: python scripts/compare_cli_outputs.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

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
    "validate": ["validate"],
    "figures": ["figures", "--figure", "6"],
}
# Both sides run at once; one BLAS thread each keeps them from
# oversubscribing the cores, as perfbench's children do.
_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
_VOLATILE = re.compile(r'^\s*"(duration_seconds|out_dir)": .*$', re.MULTILINE)


def run(root: Path, config: Path, args: list[str], out: Path) -> dict[str, bytes]:
    """Outputs of one CLI run, keyed by file name (plus exit code and stdout)."""
    env = {**os.environ, **_THREAD_ENV, "PYTHONPATH": str(root / "src")}
    # figures draws its own fixed problems and takes no --config
    config_args = [] if args[0] == "figures" else ["--config", str(config)]
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
    pairs = [(i, x, y) for i, (x, y) in enumerate(zip(la, lb), 1) if x != y]
    parts = []
    if pairs:
        i, x, y = pairs[0]
        parts.append(f"{len(pairs)} lines differ, first line {i}: {x.strip()!r} -> {y.strip()!r}")
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
    args = SUBCOMMANDS[name]
    tag = config.relative_to(new).with_suffix("").as_posix()
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
    jobs = [(c, s) for c in configs for s in SUBCOMMANDS]
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        results = list(pool.map(lambda job: compare(old, new, *job, Path(tmp)), jobs))
    gating = 0
    for (config, name), (diffs, _) in zip(jobs, results):
        for line in diffs:
            print("DIFF", line)
        gating += bool(diffs) and config.parent == new / "configs"
    differing = sum(bool(d) for d, _ in results)
    flips = sum(f for _, f in results)
    print(f"{len(jobs)} runs on {len(configs)} configs: {len(jobs) - differing} identical, "
          f"{differing} differing ({gating} of them on configs/), "
          f"{flips} pass/fail flips")
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
