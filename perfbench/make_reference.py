"""Record the reference outputs the correctness gates compare against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it from the root of a checkout of the commit whose outputs are the
reference (the benchmark's first commit).  It writes
``perfbench/reference/<workload>.json``.  Regenerating the reference on a
later commit would hide any drift that commit introduced: do it only when
a change to the outputs is intended and reviewed.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gates import read_field_csv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CERTIFY_SEEDS = range(5)
ORACLE_SEEDS = range(64)
CEILING_FACTOR = 10.0
FIELD_SAMPLE_ROWS = 256
FIELD_SAMPLE_SEED = 20220105
# validate checks whose inputs depend on --seed
SEED_DEPENDENT = {"field_reality", "series_periodicity", "characteristics_agreement"}


def run(workload, seed: int, out: Path) -> int:
    from moving_string import cli

    return cli.main(workload.argv(seed, str(out)))


def _ceiling(x: float) -> float:
    """CEILING_FACTOR * x rounded up to one significant digit."""
    y = CEILING_FACTOR * x
    e = math.floor(math.log10(y))
    return math.ceil(y / 10 ** e) * 10 ** e


def certify(w, tmp: Path) -> dict:
    names, failed, independent = None, set(), None
    for seed in CERTIFY_SEEDS:
        run(w, seed, tmp)
        checks = json.loads((tmp / "validate.json").read_text())["checks"]
        got = [c["name"] for c in checks]
        if names is not None and got != names:
            raise RuntimeError(f"check names depend on the seed: {got}")
        names = got
        failed |= {c["name"] for c in checks if not c["passed"] and not c["vacuous"]}
        if independent is None:
            independent = {c["name"]: c["residual"] for c in checks
                           if c["name"] not in SEED_DEPENDENT and c["residual"] is not None}
    return {"names": names, "failed": sorted(failed), "seeds": list(CERTIFY_SEEDS),
            "seed_independent": independent}


def oracle(w, tmp: Path) -> dict:
    per_seed = {}
    keys = ("max_abs_series_vs_characteristics", "max_abs_series_vs_fd")
    for seed in ORACLE_SEEDS:
        run(w, seed, tmp)
        doc = json.loads((tmp / "oracle.json").read_text())
        per_seed[str(seed)] = {k: doc[k] for k in keys}
    return {
        "samples": doc["samples"],
        "nx": doc["nx"],
        "ceilings": {k: _ceiling(max(s[k] for s in per_seed.values())) for k in keys},
        "per_seed": per_seed,
    }


def field_reference(path: Path, block: int) -> dict:
    """Column scales, column norms and a seeded row sample of a field CSV."""
    header, data = read_field_csv(path, block)
    rng = np.random.default_rng(FIELD_SAMPLE_SEED)
    rows = np.sort(rng.choice(len(data), min(FIELD_SAMPLE_ROWS, len(data)), replace=False))
    return {
        "header": header,
        "rows": len(data),
        "block": block,
        "column_max_abs": np.max(np.abs(data), axis=0).tolist(),
        "column_l2": np.sqrt(np.sum(data ** 2, axis=0)).tolist(),
        "sample_rows": rows.tolist(),
        "sample_values": data[rows].tolist(),
    }


def field(w, tmp: Path) -> dict:
    run(w, 0, tmp)
    nt = int(w.extra_args[w.extra_args.index("--nt") + 1])
    return field_reference(tmp / "field.csv", nt)


BUILDERS = {"validate": certify, "oracle": oracle, "simulate": field}


def dump(ref: dict) -> str:
    """JSON with one top-level key per line."""
    items = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in ref.items())
    return "{\n" + items + "\n}\n"


def main(names: list[str]) -> int:
    os.chdir(ROOT)                       # workload config paths are relative
    for name in names or list(WORKLOADS):
        w = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            ref = BUILDERS[w.subcommand](w, Path(tmp))
        (HERE / "reference" / f"{name}.json").write_text(dump(ref))
        print(f"wrote reference/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
