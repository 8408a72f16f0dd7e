"""Time-to-certificate benchmark for the ``moving-string`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout that has ``src/moving_string``; no
build step is needed.  A closed loop with one client: each repetition runs
one CLI command in a fresh interpreter (``child.py``), one after another,
until ``--seconds`` have passed (at least one repetition, or one of each
kind when traced).  Every repetition's output goes through the correctness
gates in ``gates.py``.

``--trace 0`` reports the end-to-end metrics: medians of ``run_s`` (wall
clock of ``cli.main`` after import), ``cpu_s`` (process CPU time over the
same call), ``peak_rss_mb`` (the child's ``ru_maxrss``) and ``setup_s``
(``import moving_string.cli`` in a fresh interpreter, over the
repetitions plus ``SETUP_PROBES`` import-only runs).  ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones (see ``spans.py``); the tracing overhead is the
traced minus the untraced median ``run_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch output, per-repetition records and the
spans of traced runs go to ``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import gates
import spans
from workloads import KNOWN_DEFECTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SRC = ROOT / "src"

SETUP_PROBES = 3          # import-only fresh interpreters per untraced run
REP_TIMEOUT_S = 150       # one repetition; the slowest takes about 12 s
RUN_BUDGET_S = 170        # start no repetition that would end after this
# One compute thread per process: runs are sequential, so the parent plus
# one child never use more threads than the 2 cores of the reference box.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "coefficients.table_s": "s",
    "coefficients.table_calls": "count",
    "coefficients.mode_nodes": "count",
    "coefficients.ns_per_mode_node": "ns",
    "coefficients.parseval_s": "s",
    "coefficients.cross_check_residual": "1",
    "extension.eval_s": "s",
    "extension.nodes": "count",
    "series.field_s": "s",
    "series.field_calls": "count",
    "series.point_modes": "count",
    "series.ns_per_point_mode": "ns",
    "series.trace_s": "s",
    "series.trace_point_modes": "count",
    "series.imag_residual_max": "1",
    "quadrature.integrate_s": "s",
    "quadrature.panelizations": "count",
    "quadrature.nodes": "count",
    "energy.times": "count",
    "observability.trace_nodes": "count",
    "oracle.fd_s": "s",
    "oracle.fd_steps": "count",
    "oracle.us_per_fd_step": "us",
    "oracle.fd_history_mb": "MB-computed",
    "oracle.fd_eval_s": "s",
    "oracle.char_s": "s",
    "oracle.char_points": "count",
    "oracle.us_per_char_point": "us",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.values_formatted": "count",
    "domain.load_s": "s",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.moving_string_s": "s",
    "validate.checks_failed": "count",
    "gate.max_deviation": "1",
    "trace.spans": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.dominant_matches": "1",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(mode: str, cli_args: list[str] | tuple = (), rep: int = 0) -> dict:
    """Run child.py once and return its measurements (``error`` on a crash)."""
    result = WORK / "child-result.json"
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(result), str(rep),
             *cli_args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(result.read_text(encoding="utf-8"))


def judge(w, seed: int, res: dict, out: Path, ref: dict) -> gates.Verdict:
    if res.get("error"):
        return gates.Verdict(reasons=[res["error"].strip().splitlines()[-1]])
    if res["exit_code"] not in w.ok_exit_codes:
        return gates.Verdict(reasons=[f"exit code {res['exit_code']}: "
                                      f"{res['stderr_tail'].strip()}"])
    try:
        return gates.GATES[w.subcommand](out, seed, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return gates.Verdict(reasons=[f"unreadable output: {exc!r}"])


def repetition(w, seed: int, mode: str, i: int, ref: dict) -> dict:
    out = WORK / w.name / "out"
    shutil.rmtree(out, ignore_errors=True)
    res = spawn(mode, w.argv(seed, str(out.relative_to(ROOT))), i)
    verdict = judge(w, seed, res, out, ref)
    res.update(rep=i, ok=verdict.ok, reasons=verdict.reasons,
               checks_failed=verdict.checks_failed, max_deviation=verdict.max_deviation)
    return res


def median_of(reps: list[dict], key: str) -> float:
    """Median over the repetitions that measured ``key``; 0 when none did
    (every repetition crashed, so the run is reported as incorrect)."""
    vals = [r[key] for r in reps if key in r]
    return statistics.median(vals) if vals else 0.0


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for p in sorted((SRC / "moving_string").glob("*.py")):
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": THREAD_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(reps: list[dict], probes: list[float]) -> dict[str, float]:
    return {
        "run_s": median_of(reps, "run_s"),
        "setup_s": statistics.median(probes + [r["setup_s"] for r in reps if "setup_s" in r]),
        "cpu_s": median_of(reps, "cpu_s"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
    }


def per_layer(w, reps: list[dict]) -> tuple[dict[str, float], str]:
    traced = [r for r in reps if "layers" in r]
    plain = [r for r in reps if r.get("mode") == "run"]
    if not traced:
        return dict.fromkeys(PER_LAYER_UNITS, 0.0), "no traced repetition completed"
    # median_low: each value is one repetition's, so counts stay whole
    m = {k: statistics.median_low(r["layers"][k] for r in traced)
         for k in traced[0]["layers"]}
    for k in ("numpy", "scipy", "moving_string"):
        m[f"import.{k}_s"] = statistics.median_low(r["imports"][k] for r in traced)
    m["validate.checks_failed"] = max(r["checks_failed"] or 0 for r in reps)
    m["gate.max_deviation"] = max(r["max_deviation"] or 0.0 for r in reps)
    m["trace.run_s"] = median_of(traced, "run_s")
    m["trace.untraced_run_s"] = median_of(plain, "run_s")
    m["trace.overhead_s"] = m["trace.run_s"] - m["trace.untraced_run_s"]
    layer, self_s = spans.dominant_layer(m)
    m["trace.dominant_matches"] = int(layer == w.dominant)
    note = (f"dominant layer: {layer} ({self_s / m['trace.run_s']:.0%} of traced run_s); "
            f"predicted {w.dominant}: "
            + ("match" if layer == w.dominant else "MISMATCH")
            + f"; baseline shares {w.predicted_shares}")
    return {k: m[k] for k in PER_LAYER_UNITS}, note


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    w = WORKLOADS[workload]
    for needed in (SRC / "moving_string" / "cli.py", ROOT / w.config,
                   gates.REFERENCE_DIR / f"{w.name}.json"):
        if not needed.is_file():
            raise SetupError(f"missing {needed.relative_to(ROOT)}: run from a full checkout")
    ref = gates.load_reference(w.name)
    WORK.mkdir(exist_ok=True)
    warmup = spawn("import")             # compiles bytecode; not timed
    if "error" in warmup:
        raise SetupError(f"cannot import moving_string.cli: {warmup['error']}")
    probes = [] if trace else [p["setup_s"] for p in
                               (spawn("import") for _ in range(SETUP_PROBES)) if "setup_s" in p]
    modes = ("run", "trace") if trace else ("run",)
    reps: list[dict] = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        reps.append(repetition(w, seed, modes[len(reps) % len(modes)], len(reps), ref))
        took = time.perf_counter() - start
        elapsed = time.perf_counter() - t0
        if len(reps) >= len(modes) and (elapsed >= seconds
                                         or elapsed + took > RUN_BUDGET_S):
            break
    metrics, note = per_layer(w, reps) if trace else (end_to_end(reps, probes), "")
    failed = sum(not r["ok"] for r in reps)
    env = environment()
    record = {"workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "metrics": metrics, "note": note,
              "known_defects": KNOWN_DEFECTS,
              "repetitions": reps, "setup_probes_s": probes}
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    return {"correct": failed == 0, "attempted": len(reps), "failed": failed,
            "metrics": metrics, "note": note, "reps": reps, "environment": env}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"# environment: {json.dumps(res['environment'])}")
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{res['attempted']} repetitions, {res['failed']} failed")
    for r in res["reps"]:
        if not r["ok"]:
            print(f"#   repetition {r['rep']} failed: {'; '.join(r['reasons'])}")
    for name, value in res["metrics"].items():
        print(f"{args.workload:14s} {name:36s} {value:.6g} {units[name]}")
    if res["note"]:
        print(f"# {res['note']}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
