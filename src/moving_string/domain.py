"""Problem description for a string translating axially at constant speed.

The transverse displacement phi(x, t) solves the wave equation (unit wave
speed) on the moving interval (v*t, L + v*t) with homogeneous Dirichlet
conditions at both translating supports.  Everything downstream is derived
from the triple (L, v, initial data): the reflection factor gamma_v, the
extension interval bounds -L1 and L2, the solution period T_v and the
two-endpoint observation time T_tilde_v.

Initial data are supplied either as a named preset or as a tabulated
(x, phi0, phi1) sample set.  Each column of a table is interpolated by its
natural cubic spline, whose pieces are the sample intervals.  Only
piecewise-C1 data are supported; rougher finite-energy data fall outside
what pointwise evaluation can certify.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "InitialDataSpec",
    "InitialData",
    "StringConfig",
    "DerivedConstants",
    "build_initial_data",
    "check_memory",
    "check_moving_interval",
    "check_time",
    "check_tolerance",
    "derive_constants",
    "edge_slack",
    "load_config",
    "load_table_csv",
]

#: Ill-posedness guard: the axial speed must stay strictly below the unit
#: wave propagation speed; v = 0 is admitted as the classical fixed string.
SPEED_CONDITION = "0 <= v < 1 (axial speed strictly below the wave speed)"

#: Tolerance of the identity checks, unless a caller sets its own.
DEFAULT_TOL = 1e-6


def _check_geometry(L: float, v: float) -> None:
    """Reject an L or v outside the well-posed, float-representable range."""
    if not (L > 0 and math.isfinite(L)):
        raise ConfigurationError(f"support separation L must be positive and finite, got {L}")
    if not (0.0 <= v < 1.0):
        raise ConfigurationError(
            f"axial speed v={v} violates the well-posedness condition "
            f"{SPEED_CONDITION}; v >= 1 makes the problem ill-posed"
        )
    if not (math.isfinite(2.0 * L / (1.0 - v)) and math.isfinite(2.0 * math.pi / L)):
        raise ConfigurationError(f"support separation L = {L} with v = {v} puts the extension "
                                 f"interval 2L/(1-v) or the wavenumber 2 pi/L past float range")


def check_tolerance(tol: float) -> None:
    """Reject an identity tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigurationError(f"tolerance must be finite and positive, got {tol}")


def check_time(t, name: str, slack: float = 0.0) -> None:
    """Reject a time, or any of an array of times, not finite and >= -slack
    (None passes)."""
    t = np.asarray(0.0 if t is None else t, dtype=float)
    bad = t[~(np.isfinite(t) & (t >= -slack))]
    if bad.size:
        raise ConfigurationError(f"{name} must be finite and nonnegative, got {bad[0]}")


def _int_text(n) -> str:
    """The integer ``n`` in decimal, also past the 4,300 digits ``str`` stops at."""
    if int(n).bit_length() < 14000:   # at most 4,215 digits
        return str(n)
    from decimal import Decimal   # loaded only for such a count
    return str(Decimal(int(n)))


def check_memory(nbytes: float, what: str, hint: str = "") -> None:
    """Refuse, before it is allocated, a request of ``nbytes`` bytes that
    exceeds physical memory; ``what`` names it in the message."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        gib = nbytes / 2**30 if nbytes < 1e300 else math.inf  # an int past float range
        raise ConfigurationError(f"{what}: {gib:.3g} GiB, more than the "
                                 f"{memory / 2**30:.3g} GiB of physical memory{hint}")


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial shape/velocity selection: a named preset or a sample table."""

    kind: str  # "preset" | "table"
    name: str = ""
    params: dict = field(default_factory=dict)
    table: tuple | None = None  # (x, phi0, phi1) arrays for kind == "table"

    @staticmethod
    def preset(name: str, /, **params) -> "InitialDataSpec":
        return InitialDataSpec(kind="preset", name=name, params=dict(params))

    @staticmethod
    def tabulated(x, phi0, phi1) -> "InitialDataSpec":
        return InitialDataSpec(
            kind="table",
            table=(np.asarray(x, float), np.asarray(phi0, float), np.asarray(phi1, float)),
        )


@dataclass(frozen=True)
class InitialData:
    """Callable view of the initial data on [0, L].

    ``phi0``, ``phi0_x`` and ``phi1`` accept scalars or arrays.  ``knots``
    lists interior points where higher derivatives of the data jump (used
    to split quadrature panels when sharp accuracy matters).  ``rate`` is
    the highest frequency, in radians per unit length, that ``phi0_x`` and
    ``phi1`` hold on [0, L], when the data are band-limited and declare it
    (k pi / L for the sine presets, 0 for ``zero``); the integrals of the
    raw data then size Gauss-Legendre panels to it.  None (the bump and
    tabulated data) leaves them on composite Simpson.  Tabulated ``phi0``
    and ``phi1`` are natural cubic splines whose pieces are the sample
    intervals, and ``phi0_x`` is the derivative of ``phi0``'s spline; they
    declare no knots.
    """

    phi0: Callable[[np.ndarray], np.ndarray]
    phi0_x: Callable[[np.ndarray], np.ndarray]
    phi1: Callable[[np.ndarray], np.ndarray]
    knots: tuple = ()
    rate: float | None = None


@dataclass(frozen=True)
class StringConfig:
    """Full problem description: geometry, speed, data and the truncation
    order."""

    L: float
    v: float
    initial: InitialDataSpec
    n_max: int = 40

    def __post_init__(self) -> None:
        _check_geometry(self.L, self.v)
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be >= 1, got {self.n_max}")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived once from (L, v).

    gamma_v = (1+v)/(1-v) is the boundary-reflection rescaling factor,
    (-L1, L2) is the interval carrying the extended initial data,
    T_v = 2L/(1-v^2) is the solution period (up to the spatial shift v*T_v)
    and the sharp one-endpoint observation time, T_tilde_v = L/(1-v) is the
    sharp two-endpoint observation time.
    """

    L: float
    v: float
    gamma_v: float
    L1: float
    L2: float
    T_v: float
    T_tilde_v: float


def derive_constants(L: float, v: float) -> DerivedConstants:
    """Compute the derived constants of the interval length L and speed v."""
    _check_geometry(L, v)
    gamma = (1.0 + v) / (1.0 - v)
    return DerivedConstants(
        L=L,
        v=v,
        gamma_v=gamma,
        L1=(1.0 - v) / (1.0 + v) * L,
        L2=2.0 * L / (1.0 - v),
        T_v=2.0 * L / (1.0 - v * v),
        T_tilde_v=L / (1.0 - v),
    )


def edge_slack(L: float) -> float:
    """How far outside an interval edge a point may lie and still count as
    on it: 1e-9 max(1, L), for every interval of an (L, v) problem."""
    return 1e-9 * max(1.0, L)


def check_moving_interval(L: float, v: float, x, t) -> None:
    """Raise ConfigurationError unless t >= 0 and v t <= x <= L + v t at
    every point, each within ``edge_slack(L)``."""
    slack = edge_slack(L)
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    check_time(t, "time", slack)
    if not np.all((v * t - slack <= x) & (x <= L + v * t + slack)):
        raise ConfigurationError("x outside the moving interval (v t, L + v t)")


# ---------------------------------------------------------------------------
# Initial-data presets
# ---------------------------------------------------------------------------

def _cubic_bspline(s):
    """Centered cubic B-spline kernel, support |s| <= 2, C^2, max 2/3 at 0."""
    s = np.abs(np.asarray(s, dtype=float))
    return np.where(
        s < 1.0,
        2.0 / 3.0 - s * s + 0.5 * s ** 3,
        np.where(s < 2.0, (2.0 - s) ** 3 / 6.0, 0.0),
    )


def _cubic_bspline_d(s):
    s = np.asarray(s, dtype=float)
    a = np.abs(s)
    return np.where(
        a < 1.0,
        -2.0 * s + 1.5 * s * a,
        np.where(a < 2.0, -np.sign(s) * 0.5 * (2.0 - a) ** 2, 0.0),
    )


def _zeros_like(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _preset_zero(L: float) -> InitialData:
    return InitialData(_zeros_like, _zeros_like, _zeros_like, rate=0.0)


def _mode_number(preset: str, mode) -> int:
    """A sine preset's mode k: an integer >= 1, never a rounded float."""
    if isinstance(mode, bool) or not isinstance(mode, (int, np.integer)) or mode < 1:
        raise ConfigurationError(f"{preset} mode must be an integer >= 1, got {mode!r}")
    return int(mode)


def _preset_sine_mode(L: float, amplitude: float = 0.1, mode: int = 1) -> InitialData:
    k = _mode_number("sine_mode", mode)
    w = k * math.pi / L
    return InitialData(
        lambda x: amplitude * np.sin(w * np.asarray(x, float)),
        lambda x: amplitude * w * np.cos(w * np.asarray(x, float)),
        _zeros_like,
        rate=w,
    )


def _preset_sine_velocity(L: float, amplitude: float = 1.0, mode: int = 1) -> InitialData:
    k = _mode_number("sine_velocity", mode)
    w = k * math.pi / L
    return InitialData(
        _zeros_like,
        _zeros_like,
        lambda x: amplitude * np.sin(w * np.asarray(x, float)),
        rate=w,
    )


def _preset_traveling_sine(L: float, amplitude: float = 0.1, mode: int = 1,
                           sign: int = 1) -> InitialData:
    """Sine shape with phi1 = sign * phi0_x (the energy-bound equality case)."""
    if not isinstance(sign, (int, np.integer)) or sign not in (-1, 1):
        raise ConfigurationError(f"traveling_sine sign must be +1 or -1, got {sign}")
    k = _mode_number("traveling_sine", mode)
    base = _preset_sine_mode(L, amplitude, k)
    return InitialData(
        base.phi0,
        base.phi0_x,
        lambda x, _d=base.phi0_x: sign * _d(x),
        rate=base.rate,
    )


def _preset_bump(L: float, center: float, width: float,
                 amplitude: float = 1.0) -> InitialData:
    """C^2 cubic B-spline bump supported on (center - width/2, center + width/2).
    The evaluators divide by the knot spacing width/4, so it must be a
    positive normal float."""
    if not width / 4.0 >= np.finfo(float).tiny:
        raise ConfigurationError(
            f"bump width must be positive with width/4 a normal float, got {width}")
    lo, hi = center - width / 2.0, center + width / 2.0
    if lo < -1e-12 * L or hi > L * (1 + 1e-12):
        raise ConfigurationError(f"bump support (center - width/2, center + width/2) = "
                                 f"({lo}, {hi}) must lie inside [0, L] = [0, {L}]")
    w0 = width / 4.0
    knots = tuple(center + j * w0 for j in (-2, -1, 0, 1, 2))
    return InitialData(
        lambda x: amplitude * _cubic_bspline((np.asarray(x, float) - center) / w0),
        lambda x: amplitude / w0 * _cubic_bspline_d((np.asarray(x, float) - center) / w0),
        _zeros_like,
        knots=tuple(k for k in knots if 0.0 < k < L),
    )


_PRESETS = {
    "zero": _preset_zero,
    "sine_mode": _preset_sine_mode,
    "sine_velocity": _preset_sine_velocity,
    "traveling_sine": _preset_traveling_sine,
    "bump": _preset_bump,
}


class _NaturalSpline:
    """Natural cubic spline through the samples (x, y) (de Boor, *A Practical
    Guide to Splines*, ch. IV): one cubic per sample interval, C^2 at every
    interior sample, second derivative zero at both ends.  Points outside
    [x[0], x[-1]] take the end pieces."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        h = np.diff(x)
        s = np.diff(y) / h
        # Thomas algorithm on the interior rows h[k] m[k] + 2 (h[k] + h[k+1]) m[k+1]
        # + h[k+1] m[k+2] = 6 (s[k+1] - s[k]) for the knot curvatures m; the
        # recurrence is serial, so it runs on Python floats
        hs, diag, rhs = h.tolist(), (2.0 * (h[:-1] + h[1:])).tolist(), (6.0 * np.diff(s)).tolist()
        for k in range(1, len(diag)):
            w = hs[k] / diag[k - 1]
            diag[k] -= w * hs[k]
            rhs[k] -= w * rhs[k - 1]
        m = [0.0] * len(x)
        for k in range(len(diag) - 1, -1, -1):
            m[k + 1] = (rhs[k] - hs[k + 1] * m[k + 2]) / diag[k]
        m = np.array(m)
        self.x = x
        # on piece k, y(x) = sum_j coef[j, k] t^(3 - j) with t = x - x[k]
        self.coef = np.array([np.diff(m) / (6.0 * h), 0.5 * m[:-1],
                              s - h * (2.0 * m[:-1] + m[1:]) / 6.0, y[:-1]])

    def _piece(self, xq):
        xq = np.asarray(xq, dtype=float)
        k = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, len(self.x) - 2)
        return xq - self.x[k], self.coef[:, k]

    def __call__(self, xq):
        t, (d, c, b, a) = self._piece(xq)
        return ((d * t + c) * t + b) * t + a

    def slope(self, xq):
        t, (d, c, b, _) = self._piece(xq)
        return (3.0 * d * t + 2.0 * c) * t + b


def _build_tabulated(table, L: float) -> InitialData:
    x, p0, p1 = (np.asarray(a, dtype=float) for a in table)
    if x.ndim != 1 or x.shape != p0.shape or x.shape != p1.shape:
        raise ConfigurationError("table columns x, phi0, phi1 must be 1-D and equal length")
    if len(x) < 4:
        raise ConfigurationError("tabulated data needs at least 4 samples")
    for name, column in (("x", x), ("phi0", p0), ("phi1", p1)):
        if not np.all(np.isfinite(column)):
            raise ConfigurationError(f"table column {name} holds a non-finite value")
    if np.any(np.diff(x) <= 0):
        raise ConfigurationError("table x column must be strictly increasing")
    if x[0] != 0.0 or x[-1] != L:
        raise ConfigurationError(
            f"table must cover x = 0 and x = L exactly; got [{x[0]}, {x[-1]}] for L = {L}"
        )
    scale = max(np.max(np.abs(p0)), 1.0)
    if abs(p0[0]) > 1e-12 * scale or abs(p0[-1]) > 1e-12 * scale:
        raise ConfigurationError(
            "tabulated phi0 must vanish at both supports (pinned-end compatibility)"
        )
    s0 = _NaturalSpline(x, p0)
    return InitialData(s0, s0.slope, _NaturalSpline(x, p1))


def build_initial_data(spec: InitialDataSpec, L: float) -> InitialData:
    """Materialize evaluators from a data spec; presets vanish at both
    supports by construction, and tables are checked there."""
    if spec.kind == "preset":
        try:
            builder = _PRESETS[spec.name]
        except KeyError:
            raise ConfigurationError(
                f"unknown preset {spec.name!r}; known: {sorted(_PRESETS)}"
            ) from None
        try:
            data = builder(L, **spec.params)
            for key, value in spec.params.items():   # those the builder let through
                if isinstance(value, float) and not math.isfinite(value):
                    raise ConfigurationError(f"preset {spec.name!r} parameter {key!r} "
                                             f"must be finite, got {value}")
            for f in (data.phi0, data.phi0_x, data.phi1):  # mistyped values fail here
                np.asarray(f(np.array([0.0, L])), dtype=float)
        except ConfigurationError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(
                f"bad parameters for preset {spec.name!r} {spec.params}: {exc}"
            ) from None
    elif spec.kind == "table":
        if spec.table is None:
            raise ConfigurationError("table spec carries no data")
        data = _build_tabulated(spec.table, L)
    else:
        raise ConfigurationError(f"unknown initial-data kind {spec.kind!r}")
    return data


def initial_data(cfg: StringConfig) -> InitialData:
    return build_initial_data(cfg.initial, cfg.L)


# ---------------------------------------------------------------------------
# Config file ingestion
# ---------------------------------------------------------------------------

def load_table_csv(path: str | Path):
    """Read a UTF-8 `x,phi0,phi1` CSV with strictly increasing x."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            lines = [(reader.line_num, row) for row in reader]
    except (ValueError, csv.Error) as exc:   # a NUL in the path, bytes not UTF-8, a huge field
        raise ConfigurationError(f"{path}: {exc}") from None
    header = lines[0][1] if lines else None
    if header is None or [h.strip() for h in header] != ["x", "phi0", "phi1"]:
        raise ConfigurationError(
            f"{path}: expected header 'x,phi0,phi1', got {header}"
        )
    rows = [(n, row) for n, row in lines[1:] if row]     # blank lines are skipped
    for n, row in rows:
        if len(row) != 3:
            raise ConfigurationError(f"{path}: line {n} has {len(row)} "
                                     f"fields; every row needs exactly 3 columns")
    try:
        data = np.array([[float(c) for c in row] for _, row in rows], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: non-numeric table entry ({exc})") from None
    if not rows:
        raise ConfigurationError(f"{path}: the table has no rows below its header")
    return data[:, 0], data[:, 1], data[:, 2]


def load_config(path: str | Path) -> StringConfig:
    """Parse a UTF-8 JSON config file into a StringConfig.

    Schema::

        {"L": number, "v": number, "n_max": integer,
         "initial": {"preset": {"name": str, "params": {...}}} | {"table": "path.csv"},
         "quadrature": {"panels_per_unit": integer}}

    Table paths are resolved relative to the config file location.
    ``quadrature`` is optional and has no effect.  Its integer
    ``panels_per_unit`` is accepted because the benchmark configs carry
    it, but the Simpson density of the raw-data integrals is fixed
    (``quadrature._SIMPSON_PANELS_PER_UNIT``, the 256 they carry).
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        # a NUL in the path, bytes not UTF-8, an integer past int's digit limit, deep nesting
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")

    def typed(key, val, types, what):
        if not isinstance(val, types) or isinstance(val, bool):
            raise ConfigurationError(f"{path}: key {key!r} must be {what}")
        return val

    def need(key, types, what):
        if key not in raw:
            raise ConfigurationError(f"{path}: missing required key {key!r}")
        return typed(key, raw[key], types, what)

    def number(key):
        try:
            return float(need(key, (int, float), "a number"))
        except OverflowError:
            raise ConfigurationError(f"{path}: key {key!r} is too large for a float") from None

    L, v = number("L"), number("v")
    n_max = need("n_max", int, "an integer")
    init_raw = need("initial", dict, "an object")
    if "preset" in init_raw:
        preset = init_raw["preset"]
        if not isinstance(preset, dict) or "name" not in preset:
            raise ConfigurationError(f"{path}: initial.preset needs a 'name'")
        params = preset.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(f"{path}: initial.preset.params must be an object")
        spec = InitialDataSpec.preset(str(preset["name"]), **params)
    elif "table" in init_raw:
        table_path = Path(typed("initial.table", init_raw["table"], str, "a path string"))
        if not table_path.is_absolute():
            table_path = path.parent / table_path
        try:
            spec = InitialDataSpec.tabulated(*load_table_csv(table_path))
        except OSError as exc:
            raise ConfigurationError(f"{path}: cannot read initial.table {table_path}: "
                                     f"{exc.strerror}") from None
    else:
        raise ConfigurationError(f"{path}: initial must contain 'preset' or 'table'")
    quad_raw = raw.get("quadrature", {})
    if not isinstance(quad_raw, dict):
        raise ConfigurationError(f"{path}: quadrature must be an object")
    if "panels_per_unit" in quad_raw:
        typed("quadrature.panels_per_unit", quad_raw["panels_per_unit"], int, "an integer")
    return StringConfig(L=L, v=v, initial=spec, n_max=n_max)
