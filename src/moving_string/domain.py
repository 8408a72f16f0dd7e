"""Problem description for a string translating axially at constant speed.

The transverse displacement phi(x, t) solves the wave equation (unit wave
speed) on the moving interval (v*t, L + v*t) with homogeneous Dirichlet
conditions at both translating supports.  Everything downstream is derived
from the triple (L, v, initial data): the reflection factor gamma_v, the
extension interval bounds -L1 and L2, the solution period T_v and the
two-endpoint observation time T_tilde_v.

Initial data are supplied either as a named preset or as a tabulated
(x, phi0, phi1) sample set interpolated by natural cubic splines.  Only
piecewise-C1 data are supported; rougher finite-energy data fall outside
what pointwise evaluation can certify.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "QuadratureSpec",
    "InitialDataSpec",
    "InitialData",
    "StringConfig",
    "DerivedConstants",
    "build_initial_data",
    "check_tolerance",
    "derive_constants",
    "moving_interval",
    "load_config",
    "load_table_csv",
]

#: Ill-posedness guard: the axial speed must stay strictly below the unit
#: wave propagation speed; v = 0 is admitted as the classical fixed string.
SPEED_CONDITION = "0 <= v < 1 (axial speed strictly below the wave speed)"


def _check_geometry(L: float, v: float) -> None:
    """Reject a non-positive or non-finite L and a speed outside the well-posed range."""
    if not (L > 0 and math.isfinite(L)):
        raise ConfigurationError(f"support separation L must be positive and finite, got {L}")
    if not (0.0 <= v < 1.0):
        raise ConfigurationError(
            f"axial speed v={v} violates the well-posedness condition "
            f"{SPEED_CONDITION}; v >= 1 makes the problem ill-posed"
        )


def check_tolerance(tol: float) -> None:
    """Reject an identity tolerance that is not finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Density of the composite Simpson rule used everywhere.

    ``panels_per_unit`` counts Simpson panels (each spanning two equal
    sub-intervals) per unit length of the integration axis.
    """

    panels_per_unit: int = 256

    def __post_init__(self) -> None:
        if self.panels_per_unit < 8:
            raise ConfigurationError(
                f"panels_per_unit must be >= 8, got {self.panels_per_unit}"
            )


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial shape/velocity selection: a named preset or a sample table."""

    kind: str  # "preset" | "table"
    name: str = ""
    params: dict = field(default_factory=dict)
    table: tuple | None = None  # (x, phi0, phi1) arrays for kind == "table"

    @staticmethod
    def preset(name: str, **params) -> "InitialDataSpec":
        return InitialDataSpec(kind="preset", name=name, params=dict(params))

    @staticmethod
    def tabulated(x, phi0, phi1) -> "InitialDataSpec":
        return InitialDataSpec(
            kind="table",
            name="table",
            table=(np.asarray(x, float), np.asarray(phi0, float), np.asarray(phi1, float)),
        )


@dataclass(frozen=True)
class InitialData:
    """Callable view of the initial data on [0, L].

    ``phi0``, ``phi0_x`` and ``phi1`` accept scalars or arrays.  ``knots``
    lists interior points where higher derivatives of the data jump (used
    to split quadrature panels when sharp accuracy matters).
    """

    label: str
    phi0: Callable[[np.ndarray], np.ndarray]
    phi0_x: Callable[[np.ndarray], np.ndarray]
    phi1: Callable[[np.ndarray], np.ndarray]
    knots: tuple = ()


@dataclass(frozen=True)
class StringConfig:
    """Full problem description: geometry, speed, data and numerics."""

    L: float
    v: float
    initial: InitialDataSpec
    n_max: int = 40
    quadrature: QuadratureSpec = QuadratureSpec()

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


def derive_constants(cfg: StringConfig | None = None, *, L: float | None = None,
                     v: float | None = None) -> DerivedConstants:
    """Compute the derived constants for ``cfg`` (or an explicit (L, v) pair)."""
    if cfg is not None:
        L, v = cfg.L, cfg.v
    if L is None or v is None:
        raise ConfigurationError("derive_constants needs a config or both L and v")
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


def moving_interval(cfg: StringConfig, t: float) -> tuple[float, float]:
    """Endpoints (v*t, L + v*t) of the spatial domain at time t >= 0."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    return (cfg.v * t, cfg.L + cfg.v * t)


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
    return InitialData("zero", _zeros_like, _zeros_like, _zeros_like)


def _preset_sine_mode(L: float, amplitude: float = 0.1, mode: int = 1) -> InitialData:
    k = int(mode)
    if k < 1:
        raise ConfigurationError(f"sine_mode mode must be >= 1, got {mode}")
    w = k * math.pi / L
    return InitialData(
        f"sine_mode(a={amplitude},k={k})",
        lambda x: amplitude * np.sin(w * np.asarray(x, float)),
        lambda x: amplitude * w * np.cos(w * np.asarray(x, float)),
        _zeros_like,
    )


def _preset_sine_velocity(L: float, amplitude: float = 1.0, mode: int = 1) -> InitialData:
    k = int(mode)
    if k < 1:
        raise ConfigurationError(f"sine_velocity mode must be >= 1, got {mode}")
    w = k * math.pi / L
    return InitialData(
        f"sine_velocity(a={amplitude},k={k})",
        _zeros_like,
        _zeros_like,
        lambda x: amplitude * np.sin(w * np.asarray(x, float)),
    )


def _preset_traveling_sine(L: float, amplitude: float = 0.1, mode: int = 1,
                           sign: int = 1) -> InitialData:
    """Sine shape with phi1 = sign * phi0_x (the energy-bound equality case)."""
    if sign not in (-1, 1):
        raise ConfigurationError(f"traveling_sine sign must be +1 or -1, got {sign}")
    base = _preset_sine_mode(L, amplitude, mode)
    return InitialData(
        f"traveling_sine(a={amplitude},k={mode},s={sign:+d})",
        base.phi0,
        base.phi0_x,
        lambda x, _d=base.phi0_x: sign * _d(x),
    )


def _preset_bump(L: float, center: float, width: float,
                 amplitude: float = 1.0) -> InitialData:
    """C^2 cubic B-spline bump supported on (center - width/2, center + width/2)."""
    if width <= 0:
        raise ConfigurationError(f"bump width must be positive, got {width}")
    lo, hi = center - width / 2.0, center + width / 2.0
    if lo < -1e-12 * L or hi > L * (1 + 1e-12):
        raise ConfigurationError(
            f"bump support ({lo}, {hi}) must lie inside [0, {L}]"
        )
    w0 = width / 4.0
    knots = tuple(center + j * w0 for j in (-2, -1, 0, 1, 2))
    return InitialData(
        f"bump(c={center},w={width},a={amplitude})",
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


def _build_tabulated(table, L: float) -> InitialData:
    x, p0, p1 = (np.asarray(a, dtype=float) for a in table)
    if x.ndim != 1 or x.shape != p0.shape or x.shape != p1.shape:
        raise ConfigurationError("table columns x, phi0, phi1 must be 1-D and equal length")
    if len(x) < 4:
        raise ConfigurationError("tabulated data needs at least 4 samples")
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
    from scipy.interpolate import CubicSpline  # only tabulated data need it

    s0 = CubicSpline(x, p0, bc_type="natural")
    s1 = CubicSpline(x, p1, bc_type="natural")
    d0 = s0.derivative()
    return InitialData("table", s0, d0, s1)


def build_initial_data(spec: InitialDataSpec, L: float) -> InitialData:
    """Materialize evaluators from a data spec; validates support compatibility."""
    if spec.kind == "preset":
        try:
            builder = _PRESETS[spec.name]
        except KeyError:
            raise ConfigurationError(
                f"unknown preset {spec.name!r}; known: {sorted(_PRESETS)}"
            ) from None
        try:
            data = builder(L, **spec.params)
            for f in (data.phi0, data.phi0_x, data.phi1):  # mistyped values fail here
                np.asarray(f(np.array([0.0, L])), dtype=float)
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"bad parameters for preset {spec.name!r} {spec.params}: {exc}"
            ) from None
    elif spec.kind == "table":
        if spec.table is None:
            raise ConfigurationError("table spec carries no data")
        data = _build_tabulated(spec.table, L)
    else:
        raise ConfigurationError(f"unknown initial-data kind {spec.kind!r}")
    for xb in (0.0, L):
        val = float(np.asarray(data.phi0(xb)))
        if abs(val) > 1e-10 * max(1.0, L):
            raise ConfigurationError(
                f"phi0({xb}) = {val} must vanish at the supports"
            )
    return data


def initial_data(cfg: StringConfig) -> InitialData:
    return build_initial_data(cfg.initial, cfg.L)


# ---------------------------------------------------------------------------
# Config file ingestion
# ---------------------------------------------------------------------------

def load_table_csv(path: str | Path):
    """Read a `x,phi0,phi1` CSV with strictly increasing x."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "phi0", "phi1"]:
            raise ConfigurationError(
                f"{path}: expected header 'x,phi0,phi1', got {header}"
            )
        rows = [row for row in reader if row]
    try:
        data = np.array([[float(c) for c in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: non-numeric table entry ({exc})") from None
    if data.ndim != 2 or data.shape[1] != 3:
        raise ConfigurationError(f"{path}: every row needs exactly 3 columns")
    return data[:, 0], data[:, 1], data[:, 2]


def load_config(path: str | Path) -> StringConfig:
    """Parse a UTF-8 JSON config file into a StringConfig.

    Schema::

        {"L": number, "v": number, "n_max": integer,
         "initial": {"preset": {"name": str, "params": {...}}} | {"table": "path.csv"},
         "quadrature": {"panels_per_unit": integer}}

    Table paths are resolved relative to the config file location.
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
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")

    def need(key, types, what):
        if key not in raw:
            raise ConfigurationError(f"{path}: missing required key {key!r}")
        val = raw[key]
        if not isinstance(val, types) or isinstance(val, bool):
            raise ConfigurationError(f"{path}: key {key!r} must be {what}")
        return val

    L = float(need("L", (int, float), "a number"))
    v = float(need("v", (int, float), "a number"))
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
        table_path = Path(init_raw["table"])
        if not table_path.is_absolute():
            table_path = path.parent / table_path
        spec = InitialDataSpec.tabulated(*load_table_csv(table_path))
    else:
        raise ConfigurationError(f"{path}: initial must contain 'preset' or 'table'")
    quad_raw = raw.get("quadrature", {})
    if not isinstance(quad_raw, dict):
        raise ConfigurationError(f"{path}: quadrature must be an object")
    quad = QuadratureSpec(panels_per_unit=int(quad_raw.get("panels_per_unit", 256)))
    return StringConfig(L=L, v=v, initial=spec, n_max=n_max, quadrature=quad)
