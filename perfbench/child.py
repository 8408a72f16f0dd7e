"""One repetition in a fresh interpreter.

    python3 perfbench/child.py MODE RESULT_JSON REP [CLI ARGS...]

MODE is ``import`` (time ``import moving_string.cli`` and stop), ``run``
(also time ``cli.main(CLI ARGS)``) or ``trace`` (the same with spans around
every module boundary).  The CLI's own stdout and stderr are captured so
they cannot mix with the benchmark's output.  The measurements go to
RESULT_JSON; the parent reads them after the process has ended.  REP is
the repetition id stored on every span.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import spans


def _timed_import(name: str) -> float:
    t0 = time.perf_counter()
    __import__(name)
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    mode, result_path, rep, cli_args = argv[0], argv[1], int(argv[2]), argv[3:]
    res: dict = {"mode": mode}
    if mode == "trace":
        # split the import into its heavy dependencies, in import order
        res["imports"] = {
            "numpy": _timed_import("numpy"),
            "scipy": _timed_import("scipy.interpolate") + _timed_import("scipy.linalg"),
        }
        res["imports"]["moving_string"] = _timed_import("moving_string.cli")
        res["setup_s"] = sum(res["imports"].values())
    else:
        res["setup_s"] = _timed_import("moving_string.cli")
    if mode != "import":
        res.update(run_cli(cli_args, traced=mode == "trace", rep=rep))
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


def run_cli(cli_args: list[str], traced: bool, rep: int = 0) -> dict:
    """Time ``moving_string.cli.main(cli_args)``; with ``traced`` also
    return the spans and the per-layer metrics."""
    from moving_string import cli

    out, err = io.StringIO(), io.StringIO()
    res: dict = {"exit_code": None, "error": None}
    rec = spans.Recorder(rep) if traced else None
    with spans.Tracer(rec) if traced else nullcontext():
        c0 = time.process_time()
        t0 = time.perf_counter()
        top = rec.open("cli.main") if traced else None
        try:
            with redirect_stdout(out), redirect_stderr(err):
                res["exit_code"] = cli.main(cli_args)
        except SystemExit as exc:        # argparse usage errors
            res["exit_code"] = exc.code
        except Exception:                # a crash is a failed repetition
            res["error"] = traceback.format_exc(limit=8)
        finally:
            if traced:
                rec.close(top)
        res["run_s"] = time.perf_counter() - t0
        res["cpu_s"] = time.process_time() - c0
    res["stdout_tail"] = out.getvalue()[-2000:]
    res["stderr_tail"] = err.getvalue()[-2000:]
    if traced:
        res["spans"] = rec.spans
        res["layers"] = spans.layer_metrics(rec.spans)
    return res


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
