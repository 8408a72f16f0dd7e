"""Command-line surface: configuration ingestion, batch runs and the
rendering of the identity suite (``moving_string.certify``).  It holds no
numerics and no value rules: a subcommand refuses a flag value through the
library's checker for that value, named by its flag (``check_grid(nx, nt,
"--")``), then calls the library and writes what it returns.

Subcommands: constants, coeffs, simulate, energy, observe, oracle,
validate.  Each reads the problem from ``--config`` and takes only the
other options it reads.  Every run writes its outputs and then a
``manifest.json`` that lists them with any pass/fail checks (``Manifest``).
Numbers are written with 17 significant digits, so doubles round-trip
(``fmt``, ``write_csv``).

Exit codes: 0 success; 1 a failed identity check (energy, observe,
validate); 2 a refused input: an argparse usage error, a
``ConfigurationError`` or an ``--out`` that cannot be written; 3 numeric
failure (non-finite values).  Any other exception is a defect in the
program and surfaces as a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from ._seeds import check_seed
from .certify import Check, certify
from .coefficients import solve
from .domain import (
    DEFAULT_TOL,
    check_tolerance,
    derive_constants,
    load_config,
)
from .energy import check_sweep, energy_report
from .errors import ConfigurationError, NumericError
from .observability import (check_observation, observe_both_endpoints, observe_horizon,
                            observe_one_endpoint)
from .oracle import (DEFAULT_FD_CFL, DEFAULT_FD_NX, check_fd_grid, check_samples,
                     cross_validate)
from .series import check_grid, check_horizon, sample_moving_grid

# Unused here: the benchmark's span tracer (perfbench/spans.py) wraps these
# names in this module, so they stay bound until it traces certify instead.
from .coefficients import parseval_sum  # noqa: F401
from .energy import spectral_energy  # noqa: F401
from .observability import velocity_trace_equivalent  # noqa: F401
from .series import check_periodicity, field_components  # noqa: F401

_CHUNK_ROWS = 1000


# ---------------------------------------------------------------------------
# Deterministic serialization (17 significant digits)
# ---------------------------------------------------------------------------

def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {_json_render(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_render(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path: Path, obj) -> None:
    path.write_text(_json_render(obj) + "\n", encoding="utf-8")


def write_csv(path: Path, header: list[str], rows: np.ndarray, block_size: int = 0) -> None:
    """Write the rows of a 2-D float64 array as CSV; with ``block_size`` > 0
    a blank line separates every block of that many rows (gnuplot grid
    scans).

    Every value is written ``%.17g``, the bytes ``fmt`` gives, so an
    integer-valued entry below 2**53 reads as an integer.  The numpy kernel
    ``_csvfmt.Encoder`` formats ``_CHUNK_ROWS`` rows at a time into buffers
    it reuses, and each chunk is written as it finishes, so only one chunk's
    text is held at once.  ``fmt`` formats, in place, each value the kernel
    cannot prove: non-finite values, values outside 1e-190 <= |x| < 1e190
    and values within a safety margin of a rounding tie.
    """
    # imported here, so that subcommands writing no CSV never load it
    from . import _csvfmt

    with path.open("wb") as out:
        out.write((",".join(header) + "\n").encode("utf-8"))
        encoder = _csvfmt.Encoder(rows.shape[1], _CHUNK_ROWS)
        block = block_size or len(rows)
        for start in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            ends = np.arange(start + 1, start + len(chunk) + 1)
            blank_after = (ends % block == 0) & (ends < len(rows))
            text, slots, offsets = encoder.encode(chunk, blank_after)
            pos = 0
            for slot, offset in zip(slots.tolist(), offsets.tolist()):
                out.write(text[pos:offset])
                out.write(fmt(chunk.flat[slot]).encode("ascii"))
                pos = offset
            out.write(text[pos:])


class Manifest:
    """The run record of one subcommand, opened on its parsed ``args``: the
    subcommand, ``--config`` and ``--out`` come from there, ``parameters``
    from the keywords, followed by ``coefficient_tables`` when the run
    solved (``sol``).  Opening it creates the output directory."""

    def __init__(self, args, sol=None, **parameters):
        self.start = time.perf_counter()
        out_dir = Path(args.out)
        if sol is not None:
            parameters["coefficient_tables"] = sol.table_layout()
        self.doc = {
            "tool": "moving-string",
            "version": __version__,
            "subcommand": args.subcommand,
            "config": args.config,
            "out_dir": str(out_dir),
            "parameters": parameters,
            "files": [],
            "checks": [],
        }
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def emit_json(self, name: str, obj) -> None:
        write_json(self.out_dir / name, obj)
        self.doc["files"].append(name)

    def emit_csv(self, name: str, header, rows, block_size: int = 0) -> None:
        write_csv(self.out_dir / name, header, rows, block_size)
        self.doc["files"].append(name)

    def emit_text(self, name: str, text: str) -> None:
        (self.out_dir / name).write_text(text, encoding="utf-8")
        self.doc["files"].append(name)

    def add_checks(self, checks) -> None:
        for check in checks:
            entry = asdict(check)
            if check.note is None:
                del entry["note"]
            self.doc["checks"].append(entry)

    def finish(self) -> None:
        self.doc["files"].append("manifest.json")
        self.doc["duration_seconds"] = round(time.perf_counter() - self.start, 3)
        write_json(self.out_dir / "manifest.json", self.doc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_constants(args) -> int:
    cfg = load_config(args.config)
    c = derive_constants(cfg.L, cfg.v)
    man = Manifest(args)
    man.emit_json("constants.json", asdict(c))
    man.finish()
    print(f"T_v = {fmt(c.T_v)}  T_tilde_v = {fmt(c.T_tilde_v)}  gamma_v = {fmt(c.gamma_v)}")
    return 0


def cmd_coeffs(args) -> int:
    cfg = load_config(args.config)
    sol = solve(cfg)
    man = Manifest(args, sol, n_max=cfg.n_max)
    # |c_n - c_minus_n| as abs(complex) takes it: numpy's complex np.abs can
    # differ from hypot in the last bit
    d = sol.c - sol.c_minus
    rows = np.column_stack([sol.n, sol.c.real, sol.c.imag, sol.c_minus.real, sol.c_minus.imag,
                            np.hypot(d.real, d.imag)])
    man.emit_csv("coeffs.csv",
                 ["n", "re_plus", "im_plus", "re_minus", "im_minus", "abs_diff"], rows)
    man.finish()
    print(f"wrote {2 * cfg.n_max} coefficients; "
          f"cross-check residual {fmt(sol.cross_check_residual)}")
    return 0


_GNUPLOT_SURFACE = """\
# Surface view of the displacement on the moving interval.
# Run:  gnuplot field.gp   (requires gnuplot with pngcairo)
set datafile separator comma
set terminal pngcairo size 900,700
set output "field.png"
set xlabel "x"
set ylabel "t"
set zlabel "phi"
set pm3d
set hidden3d
unset key
splot "field.csv" using 1:2:3 with pm3d
"""


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    check_horizon(args.t_final, cfg.L, cfg.v, cfg.n_max, "--t-final")
    check_grid(args.nx, args.nt, "--")
    sol = solve(cfg)
    t_final = args.t_final if args.t_final is not None else sol.consts.T_v
    man = Manifest(args, sol, nx=args.nx, nt=args.nt, t_final=t_final)
    X, T, phi, phx, pht = sample_moving_grid(sol, args.nx, args.nt, t_final)
    if not all(np.all(np.isfinite(a)) for a in (phi, phx, pht)):
        raise NumericError("non-finite values in computed output")
    rows = np.stack([X, T, phi, phx, pht], axis=-1).reshape(args.nx * args.nt, 5)
    man.emit_csv("field.csv", ["x", "t", "phi", "phi_x", "phi_t"], rows, block_size=args.nt)
    man.emit_text("field.gp", _GNUPLOT_SURFACE)
    man.finish()
    print(f"wrote field.csv ({args.nx} x {args.nt} grid over t in [0, {fmt(t_final)}])")
    return 0


def cmd_energy(args) -> int:
    cfg = load_config(args.config)
    check_horizon(args.t_final, cfg.L, cfg.v, cfg.n_max, "--t-final")
    check_sweep(args.times, "--times")
    sol = solve(cfg)
    t_final = args.t_final if args.t_final is not None else 2.0 * sol.consts.T_v
    times = np.linspace(0.0, t_final, args.times)
    rep = energy_report(sol, times, tol=args.tol)
    man = Manifest(args, sol)
    spec = rep.spectral
    resid = np.abs(rep.calE - spec) / spec if spec > 0 else np.abs(rep.calE)
    rows = np.column_stack([rep.times, rep.calE, rep.E, np.full(len(rep.times), spec), resid])
    man.emit_csv("energy.csv", ["t", "calE", "E", "spectral", "resid"], rows)
    checks = [
        Check("energy_conservation", rep.residual_conservation <= args.tol,
              rep.residual_conservation, args.tol, vacuous=rep.vacuous),
        Check("energy_bounds", rep.bound_violations == 0,
              float(rep.bound_violations), 0.0, vacuous=rep.vacuous),
    ]
    man.add_checks(checks)
    man.finish()
    print(f"conservation residual {fmt(rep.residual_conservation)}; "
          f"{rep.bound_violations} bound violations")
    return 0 if all(check.passed for check in checks) else 1


def cmd_observe(args) -> int:
    if args.endpoint == "both" and (args.periods is not None or args.horizon is not None):
        raise ConfigurationError("--endpoint both observes the fixed horizons "
                                 "L/(1+v) and L/(1-v); drop --periods and --horizon")
    if args.periods is not None and args.horizon is not None:
        raise ConfigurationError("give --periods or --horizon, not both")
    cfg = load_config(args.config)
    check_observation(args.periods, args.horizon, "--")
    sol = solve(cfg)
    if args.endpoint == "both":
        rep = observe_both_endpoints(sol, tol=args.tol)
    elif args.horizon is not None:
        rep = observe_horizon(sol, args.endpoint, args.horizon, tol=args.tol, prefix="--")
    else:
        periods = 1 if args.periods is None else args.periods
        rep = observe_one_endpoint(sol, args.endpoint, periods, tol=args.tol, prefix="--")
    man = Manifest(args, sol)
    man.emit_json("observe.json", asdict(rep))
    checks = [] if rep.identity_residual is None else [
        Check("observability_identity", rep.identity_residual <= args.tol,
              rep.identity_residual, args.tol, vacuous=rep.vacuous)]
    man.add_checks(checks)
    man.finish()
    resid = "n/a" if rep.identity_residual is None else fmt(rep.identity_residual)
    print(f"integral {fmt(rep.integral)}; identity residual {resid}")
    return 0 if all(check.passed for check in checks) else 1


def cmd_oracle(args) -> int:
    cfg = load_config(args.config)
    check_samples(args.samples, "--samples")
    check_fd_grid(args.nx, args.cfl, "--")
    sol = solve(cfg)
    methods = ("characteristics", "fd") if args.method == "both" else (args.method,)
    rep = cross_validate(sol, args.samples, seed=args.seed, nx=args.nx, cfl=args.cfl,
                         methods=methods)
    man = Manifest(args, sol)
    if rep.max_fd is not None:
        man.doc["parameters"]["fd"] = {"n_steps": rep.fd_steps,
                                       "dropped_tail": rep.fd_dropped_tail}
    man.emit_json("oracle.json", {
        "samples": rep.sample_count,
        "seed": rep.seed,
        "nx": rep.nx,
        "cfl": rep.cfl,
        "max_abs_series_vs_characteristics": rep.max_characteristics,
        "max_abs_series_vs_fd": rep.max_fd,
    })
    man.finish()
    parts = []
    if rep.max_characteristics is not None:
        parts.append(f"series vs characteristics: {fmt(rep.max_characteristics)}")
    if rep.max_fd is not None:
        parts.append(f"series vs fd: {fmt(rep.max_fd)}")
    print("; ".join(parts))
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    sol = solve(cfg)
    man = Manifest(args, sol, tol=args.tol, seed=args.seed, n_max=cfg.n_max)
    checks = certify(sol, args.tol, args.seed)
    man.add_checks(checks)
    failed = [check.name for check in checks if not check.passed]
    summary = {"checks_total": len(checks), "checks_failed": len(failed), "failed_names": failed}
    man.emit_json("validate.json", {"summary": summary, "checks": man.doc["checks"]})
    man.finish()
    for check in checks:
        status = "VACUOUS" if check.vacuous else ("PASS" if check.passed else "FAIL")
        resid = "" if check.residual is None else f" residual={fmt(check.residual)}"
        print(f"{status:7s} {check.name}{resid}")
    print(f"{len(checks)} checks, {len(failed)} failed")
    if failed:
        print("failed:", ", ".join(failed))
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moving-string",
        description="Series solution and identity certification for a wave "
                    "equation on a uniformly translating interval.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # the shared options; each subcommand takes only those it reads
    config, out, tol, seed = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    config.add_argument("--config", required=True, help="path to a JSON problem description")
    out.add_argument("--out", default="out", help="output directory (default: ./out)")
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="identity tolerance (default %(default)g)")
    seed.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    sub.add_parser("constants", help="derived constants", parents=[config, out])
    sub.add_parser("coeffs", help="coefficient table via both formulas", parents=[config, out])

    p = sub.add_parser("simulate", help="field samples on the moving interval",
                       parents=[config, out])
    p.add_argument("--nx", type=int, default=200)
    p.add_argument("--nt", type=int, default=200)
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="time horizon (default: one period T_v)")

    p = sub.add_parser("energy", help="energy sweep and bounds", parents=[config, out, tol])
    p.add_argument("--times", type=int, default=64)
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="sweep horizon (default: 2 T_v)")

    p = sub.add_parser("observe", help="boundary observation report", parents=[config, out, tol])
    p.add_argument("--endpoint", choices=["left", "right", "both"], required=True)
    p.add_argument("--periods", type=int, default=None, metavar="M",
                   help="whole periods T_v to observe (default 1)")
    p.add_argument("--horizon", type=float, default=None,
                   help="fractional horizon (direct inequality only)")

    p = sub.add_parser("oracle", help="cross-validate against oracles",
                       parents=[config, out, seed])
    p.add_argument("--method", choices=["characteristics", "fd", "both"], default="both")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--nx", type=int, default=DEFAULT_FD_NX)
    p.add_argument("--cfl", type=float, default=DEFAULT_FD_CFL)

    sub.add_parser("validate", help="run the full identity suite",
                   parents=[config, out, tol, seed])
    return parser


_COMMANDS = {
    "constants": cmd_constants,
    "coeffs": cmd_coeffs,
    "simulate": cmd_simulate,
    "energy": cmd_energy,
    "observe": cmd_observe,
    "oracle": cmd_oracle,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # reject a bad --tol or --seed before any work, where the subcommand takes it
        if hasattr(args, "tol"):
            check_tolerance(args.tol)
        if hasattr(args, "seed"):
            check_seed(args.seed, "--seed")
        # an overflow surfaces as NumericError from the finiteness checks,
        # so numpy's floating-point warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.subcommand](args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_config reports an unreadable config itself, so this is --out:
        # the output directory cannot be created or an output written
        print(f"error: cannot write to --out: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
