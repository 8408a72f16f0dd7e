"""Correctness gates: is one repetition's output still the program's output?

A repetition fails when the CLI crashed, exited with a code the workload
does not allow (2 usage/config error, 3 non-finite values), wrote
non-finite numbers, or drifted from the reference recorded from the program
at the benchmark's first commit (``reference/*.json``, rebuilt by
``make_reference.py``):

* certify workloads: the check names are not the same 20 names, or a check
  that passed at the reference commit now fails.  ``validate`` exiting 1 is
  not a failure; its failed checks are counted in ``checks_failed``.
* oracle-bump: a series-vs-oracle discrepancy is above a fixed ceiling set
  well above the reference values over 64 seeds.
* field-bump: a stored row deviates from the reference by more than
  ``FIELD_RTOL`` of its column scale, or a column norm does.

Each gate also reports the largest deviation from the reference it could
measure, so a faster path shows how far it moved the numbers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIELD_RTOL = 1e-9


@dataclass
class Verdict:
    reasons: list[str] = field(default_factory=list)
    checks_failed: int | None = None
    max_deviation: float | None = None

    @property
    def ok(self) -> bool:
        return not self.reasons

    def deviation(self, value: float) -> None:
        self.max_deviation = max(self.max_deviation or 0.0, value)


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def check_certify(out_dir: Path, seed: int, ref: dict) -> Verdict:
    v = Verdict()
    doc = json.loads((out_dir / "validate.json").read_text(encoding="utf-8"))
    checks = doc["checks"]
    names = [c["name"] for c in checks]
    if names != ref["names"]:
        v.reasons.append(f"check names changed: {names}")
        return v
    failed = [c["name"] for c in checks if not c["passed"] and not c["vacuous"]]
    v.checks_failed = len(failed)
    newly = sorted(set(failed) - set(ref["failed"]))
    if newly:
        v.reasons.append(f"checks that passed at the reference now fail: {newly}")
    for c in checks:
        r = c["residual"]
        if r is not None and not math.isfinite(r):
            v.reasons.append(f"non-finite residual in {c['name']}")
        elif c["name"] in ref["seed_independent"]:
            v.deviation(abs(r - ref["seed_independent"][c["name"]]))
    return v


def check_oracle(out_dir: Path, seed: int, ref: dict) -> Verdict:
    v = Verdict()
    doc = json.loads((out_dir / "oracle.json").read_text(encoding="utf-8"))
    if (doc["samples"], doc["nx"], doc["seed"]) != (ref["samples"], ref["nx"], seed):
        v.reasons.append("oracle run parameters changed")
        return v
    per_seed = ref["per_seed"].get(str(seed))
    for key, ceiling in ref["ceilings"].items():
        d = doc[key]
        if d is None or not math.isfinite(d):
            v.reasons.append(f"{key} is not a finite number: {d}")
        elif d > ceiling:
            v.reasons.append(f"{key} = {d} above the ceiling {ceiling}")
        elif per_seed is not None:
            v.deviation(abs(d - per_seed[key]))
    return v


def read_field_csv(path: Path, block: int) -> tuple[list[str], np.ndarray]:
    """Header and rows of a ``simulate`` CSV; checks the blank line after
    each block of rows."""
    lines = path.read_text(encoding="utf-8").split("\n")
    body = lines[1:-1]                   # header, trailing newline
    rows = [ln for ln in body if ln]
    blanks = len(body) - len(rows)
    if blanks != max(len(rows) - 1, 0) // block:
        raise ValueError(f"{blanks} blank separator lines for {len(rows)} rows")
    return lines[0].split(","), np.array([ln.split(",") for ln in rows], dtype=float)


def check_field(out_dir: Path, seed: int, ref: dict) -> Verdict:
    v = Verdict()
    header, data = read_field_csv(out_dir / "field.csv", ref["block"])
    if header != ref["header"]:
        v.reasons.append(f"header changed: {header}")
        return v
    if data.shape != (ref["rows"], len(ref["header"])):
        v.reasons.append(f"field shape {data.shape}, reference ({ref['rows']}, {len(header)})")
        return v
    if not np.all(np.isfinite(data)):
        v.reasons.append("non-finite field values")
        return v
    scale = np.asarray(ref["column_max_abs"], float)
    idx = np.asarray(ref["sample_rows"])
    dev = np.max(np.abs(data[idx] - np.asarray(ref["sample_values"], float)) / scale)
    norms = np.sqrt(np.sum(data ** 2, axis=0))
    ref_norms = np.asarray(ref["column_l2"], float)
    norm_dev = np.max(np.abs(norms - ref_norms) / ref_norms)
    v.deviation(float(max(dev, norm_dev)))
    if dev > FIELD_RTOL:
        v.reasons.append(f"sampled rows deviate by {dev:.3g} of column scale")
    if norm_dev > FIELD_RTOL:
        v.reasons.append(f"column norms deviate by {norm_dev:.3g}")
    return v


GATES = {"validate": check_certify, "oracle": check_oracle, "simulate": check_field}
