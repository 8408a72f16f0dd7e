"""Spans recorded around the calls into each module of ``moving_string``.

The program is not edited: ``Tracer`` replaces module attributes with timing
wrappers and puts the originals back on exit.  ``from .x import f`` binds
``f`` in the importing module, so a cross-module name is wrapped where its
caller looks it up (``energy.field_components``, ``observability.
_trace_values``, ``cli.solve``, ...).  Class attributes are patched on the
class, which every importer shares.

A span is ``[id, name, start, end, parent, rep, attrs]``; spans stay in
memory until the run ends.  The layer of a span is the module that defines
the wrapped function, the part of its name before the first dot.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

LAYERS = ("cli", "domain", "coefficients", "extension", "quadrature", "series",
          "energy", "observability", "oracle")


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self, rep: int = 0):
        self.rep = rep
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), name, time.perf_counter(), None, parent, self.rep, {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()


# ---------------------------------------------------------------------------
# Counters: called after the wrapped call with (args, kwargs, result) and
# return attributes stored on the span.
# ---------------------------------------------------------------------------

def _size(a) -> int:
    return int(getattr(a, "size", 1))


def _field_attrs(args, kwargs, out):
    sol, x, t = args[:3]
    points = max(_size(x), _size(t))
    return {"point_modes": points * len(sol.n), "imag": float(out[3])}


def _trace_attrs(args, kwargs, out):
    sol, _, times = args[:3]
    imag = float(abs(out.imag).max()) if out.size else 0.0
    return {"point_modes": _size(times) * len(sol.n), "imag": imag}


def _table_attrs(args, kwargs, out):
    return {"modes": len(out)}


def _solve_attrs(args, kwargs, out):
    return {"cross_check_residual": float(out.cross_check_residual)}


def _segment_attrs(args, kwargs, out):
    return {"nodes": _size(args[1])}


def _panelization_attrs(args, kwargs, out):
    return {"nodes": args[0].node_count}


def _fd_attrs(args, kwargs, out):
    return {"steps": len(out.tau) - 1, "history_bytes": int(out.u.nbytes)}


def _csv_attrs(args, kwargs, out):
    path, header, rows = args[:3]
    return {"bytes": path.stat().st_size,
            "values": len(header) + sum(len(r) for r in rows)}


def _json_attrs(args, kwargs, out):
    return {"bytes": args[0].stat().st_size}


# (module, attribute, span name, counter).  Every name a caller imported
# from another module is listed once per importing module.
FUNCTION_TARGETS = (
    ("cli", "load_config", "domain.load_config", None),
    ("cli", "derive_constants", "domain.derive_constants", None),
    ("coefficients", "derive_constants", "domain.derive_constants", None),
    ("observability", "derive_constants", "domain.derive_constants", None),
    ("oracle", "derive_constants", "domain.derive_constants", None),
    ("coefficients", "initial_data", "domain.initial_data", None),
    ("oracle", "initial_data", "domain.initial_data", None),
    ("observability", "build_initial_data", "domain.build_initial_data", None),
    ("cli", "solve", "coefficients.solve", _solve_attrs),
    ("cli", "parseval_sum", "coefficients.parseval_sum", None),
    ("coefficients", "_table", "coefficients.table", _table_attrs),
    ("series", "field_components", "series.field_components", _field_attrs),
    ("cli", "field_components", "series.field_components", _field_attrs),
    ("energy", "field_components", "series.field_components", _field_attrs),
    ("observability", "field_components", "series.field_components", _field_attrs),
    ("oracle", "field_components", "series.field_components", _field_attrs),
    ("series", "_trace_values", "series.trace_values", _trace_attrs),
    ("observability", "_trace_values", "series.trace_values", _trace_attrs),
    ("cli", "check_periodicity", "series.check_periodicity", None),
    ("cli", "sample_moving_grid", "series.sample_moving_grid", None),
    ("coefficients", "require_finite", "quadrature.require_finite", None),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("observability", "integrate", "quadrature.integrate", None),
    ("energy", "_energy_integrals", "energy.energy_integrals", None),
    ("cli", "energy_report", "energy.energy_report", None),
    ("cli", "spectral_energy", "energy.spectral_energy", None),
    ("observability", "spectral_energy", "energy.spectral_energy", None),
    ("energy", "spectral_energy", "energy.spectral_energy", None),
    ("cli", "observe_one_endpoint", "observability.observe_one_endpoint", None),
    ("cli", "observe_both_endpoints", "observability.observe_both_endpoints", None),
    ("cli", "observe_horizon", "observability.observe_horizon", None),
    ("cli", "velocity_trace_equivalent", "observability.velocity_trace_equivalent", None),
    ("observability", "_slope_trace_integral", "observability.slope_trace_integral", None),
    ("observability", "_velocity_trace_integral", "observability.velocity_trace_integral",
     None),
    ("cli", "cross_validate", "oracle.cross_validate", None),
    ("oracle", "fd_solve", "oracle.fd_solve", _fd_attrs),
    ("cli", "write_csv", "cli.write_csv", _csv_attrs),
    ("cli", "write_json", "cli.write_json", _json_attrs),
)

# (module, class, method, span name, counter)
METHOD_TARGETS = (
    ("extension", "ExtensionField", "on_segment", "extension.on_segment", _segment_attrs),
    ("quadrature", "Panelization", "__post_init__", "quadrature.panelization",
     _panelization_attrs),
    ("oracle", "CharacteristicSolver", "__init__", "oracle.characteristics_init", None),
    ("oracle", "CharacteristicSolver", "value", "oracle.characteristics_value", None),
    ("oracle", "FrozenFrameFD", "eval", "oracle.fd_eval", None),
)


def _wrap(rec: Recorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if counter is not None:
            span[6] = counter(args, kwargs, out)
        return out
    return wrapper


class Tracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple] = []

    @staticmethod
    def targets():
        """(owner, attribute, span name, counter) for every wrapped name."""
        def module(mod):
            return importlib.import_module(f"moving_string.{mod}")

        out = [(module(mod), attr, name, counter)
               for mod, attr, name, counter in FUNCTION_TARGETS]
        out += [(getattr(module(mod), cls), attr, name, counter)
                for mod, cls, attr, name, counter in METHOD_TARGETS]
        return out

    def __enter__(self):
        try:
            for owner, attr, name, counter in self.targets():
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(self.rec, name, original, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Per-span duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap
    and their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] is not None:
            child[s[4]] += s[3] - s[2]
    return [(s[3] - s[2]) - child[s[0]] for s in spans]


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (names as in BENCHMARK.json)."""
    own = self_times(spans)
    dur = {}
    count = {}
    attr_sum = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    imag = 0.0
    mode_nodes = 0
    trace_nodes = 0
    cross = 0.0
    for s, self_s in zip(spans, own):
        name, attrs = s[1], s[6]
        layer_self[name.split(".", 1)[0]] += self_s
        dur[name] = dur.get(name, 0.0) + (s[3] - s[2])
        count[name] = count.get(name, 0) + 1
        for k, v in attrs.items():
            attr_sum[(name, k)] = attr_sum.get((name, k), 0) + v
        if "imag" in attrs:
            imag = max(imag, attrs["imag"])
        if "cross_check_residual" in attrs:
            cross = max(cross, attrs["cross_check_residual"])
        parent = spans[s[4]] if s[4] is not None else None
        if name == "quadrature.panelization" and parent is not None:
            if parent[1] == "coefficients.table":
                mode_nodes += parent[6].get("modes", 0) * attrs["nodes"]
            elif parent[1].startswith("observability."):
                trace_nodes += attrs["nodes"]

    def d(name):
        return dur.get(name, 0.0)

    def n(name):
        return count.get(name, 0)

    def a(name, key):
        return attr_sum.get((name, key), 0)

    integrate_self = sum(t for s, t in zip(spans, own) if s[1] == "quadrature.integrate")
    char_value_s = d("oracle.characteristics_value")
    fd_s = d("oracle.fd_solve")
    m = {
        "coefficients.table_s": d("coefficients.table"),
        "coefficients.table_calls": n("coefficients.table"),
        "coefficients.mode_nodes": mode_nodes,
        "coefficients.ns_per_mode_node": _ratio(d("coefficients.table"), mode_nodes, 1e9),
        "coefficients.parseval_s": d("coefficients.parseval_sum"),
        "coefficients.cross_check_residual": cross,
        "extension.eval_s": d("extension.on_segment"),
        "extension.nodes": a("extension.on_segment", "nodes"),
        "series.field_s": d("series.field_components"),
        "series.field_calls": n("series.field_components"),
        "series.point_modes": a("series.field_components", "point_modes"),
        "series.ns_per_point_mode": _ratio(d("series.field_components"),
                                           a("series.field_components", "point_modes"), 1e9),
        "series.trace_s": d("series.trace_values"),
        "series.trace_point_modes": a("series.trace_values", "point_modes"),
        "series.imag_residual_max": imag,
        "quadrature.integrate_s": integrate_self,
        "quadrature.panelizations": n("quadrature.panelization"),
        "quadrature.nodes": a("quadrature.panelization", "nodes"),
        "energy.times": n("energy.energy_integrals"),
        "observability.trace_nodes": trace_nodes,
        "oracle.fd_s": fd_s,
        "oracle.fd_steps": a("oracle.fd_solve", "steps"),
        "oracle.us_per_fd_step": _ratio(fd_s, a("oracle.fd_solve", "steps"), 1e6),
        "oracle.fd_history_mb": a("oracle.fd_solve", "history_bytes") / 1e6,
        "oracle.fd_eval_s": d("oracle.fd_eval"),
        "oracle.char_s": d("oracle.characteristics_init") + char_value_s,
        "oracle.char_points": n("oracle.characteristics_value"),
        "oracle.us_per_char_point": _ratio(char_value_s,
                                           n("oracle.characteristics_value"), 1e6),
        "cli.write_s": d("cli.write_csv") + d("cli.write_json"),
        "cli.bytes_written": a("cli.write_csv", "bytes") + a("cli.write_json", "bytes"),
        "cli.values_formatted": a("cli.write_csv", "values"),
        "domain.load_s": d("domain.load_config"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def dominant_layer(metrics: dict[str, float]) -> tuple[str, float]:
    """(layer, self time) of the layer with the largest self time."""
    best = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])
    return best, metrics[f"{best}.self_s"]
