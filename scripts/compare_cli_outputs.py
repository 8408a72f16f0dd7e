#!/usr/bin/env python3
"""Byte-compare the CLI outputs of two source trees.

Runs every subcommand below on every ``configs/*.json`` and
``perfbench/configs/*.json`` of NEW_ROOT, once with OLD_ROOT/src and once
with NEW_ROOT/src on PYTHONPATH, and compares the exit codes, stdout and
every written file byte for byte.  Only the manifest's ``duration_seconds``
and ``out_dir`` are ignored.  For each differing file it prints the first
differing line and, where both lines parse as numbers field by field, the
largest absolute difference on that line.

Exit status: 1 if any output from ``configs/`` differs, else 0 (differences
on ``perfbench/configs`` are reported only).

Usage: python scripts/compare_cli_outputs.py OLD_ROOT NEW_ROOT
"""

from __future__ import annotations

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
    "energy": ["energy"],
    "observe-left": ["observe", "--endpoint", "left"],
    "observe-right": ["observe", "--endpoint", "right"],
    "observe-both": ["observe", "--endpoint", "both"],
    "observe-horizon": ["observe", "--endpoint", "left", "--horizon", "2.5"],
    "oracle": ["oracle", "--samples", "50", "--nx", "256"],
    "validate": ["validate"],
    "figures": ["figures", "--figure", "6"],
}
_VOLATILE = re.compile(r'^\s*"(duration_seconds|out_dir)": .*$', re.MULTILINE)


def run(root: Path, config: Path, args: list[str], out: Path) -> dict[str, bytes]:
    """Outputs of one CLI run, keyed by file name (plus exit code and stdout)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "moving_string.cli", *args,
         "--config", str(config), "--out", str(out)],
        capture_output=True, env=env,
    )
    files = {"<exit code>": str(proc.returncode).encode(), "<stdout>": proc.stdout}
    for path in sorted(out.glob("*")) if out.is_dir() else ():
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _VOLATILE.sub("", data.decode()).encode()
        files[path.name] = data
    return files


def first_difference(a: bytes, b: bytes) -> str:
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for i, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            return f"line {i}: {x.strip()!r} -> {y.strip()!r}{_abs_diff(x, y)}"
    return f"line {min(len(la), len(lb)) + 1}: {len(la)} lines -> {len(lb)} lines"


def _abs_diff(x: str, y: str) -> str:
    fx, fy = re.split(r"[,:\s]+", x.strip()), re.split(r"[,:\s]+", y.strip())
    diffs = []
    for p, q in zip(fx, fy):
        try:
            diffs.append(abs(float(p) - float(q)))
        except ValueError:
            if p != q:
                return ""
    return f" (abs diff {max(diffs):.3g})" if diffs and len(fx) == len(fy) else ""


def compare(old: Path, new: Path, config: Path, name: str, scratch: Path) -> list[str]:
    args = SUBCOMMANDS[name]
    tag = config.relative_to(new).with_suffix("").as_posix()
    out = scratch / f"{tag.replace('/', '-')}-{name}"
    a, b = run(old, config, args, out / "old"), run(new, config, args, out / "new")
    return [f"{tag} {name} {f}: " + ("missing on one side" if f not in a or f not in b
                                      else first_difference(a[f], b[f]))
            for f in sorted(a.keys() | b.keys()) if a.get(f) != b.get(f)]


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
    for (config, name), diffs in zip(jobs, results):
        for line in diffs:
            print("DIFF", line)
        gating += bool(diffs) and config.parent == new / "configs"
    differing = sum(bool(d) for d in results)
    print(f"{len(jobs)} runs on {len(configs)} configs: {len(jobs) - differing} identical, "
          f"{differing} differing ({gating} of them on configs/)")
    return 1 if gating else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
