"""The input surface, by property test (Claessen and Hughes, "QuickCheck",
ICFP 2000): a valid problem and flag set of one subcommand, with at most one
value perturbed, run through ``cli.main`` in-process.

Whatever the case, no exception escapes ``main``, and the exit code is 0,
2 or 3, or 1 for a failed identity check of energy, observe or validate.
A refusal (exit 2, returned or argparse's ``SystemExit(2)``) prints an
``error:`` line that names the perturbed config key, preset parameter,
table column or flag, and it leaves no ``--out``.  Sizes stay small inside
the strategy; the size refusals are explicit examples, each refused before
any allocation.  An internal invariant that breaks is not a refusal: it
surfaces as a traceback.
"""

import contextlib
import io
import json
import re
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moving_string import oracle
from moving_string.cli import main

# the subcommands whose failed identity check exits 1
CHECKING = {"energy", "observe", "validate"}

# hostile values, as the text a user would type (flags) or write (JSON)
INTS = ["-1", "0", "1.5", "x", "", "1e3"]
FLOATS = ["nan", "inf", "-inf", "-1", "0", "5e-324", "x", ""]
JSON_VALUES = ["NaN", "Infinity", "-Infinity", "0", "-1", "1.5", "1e308", "-1e308",
               "5e-324", "1e-300", "1e400", '"1"', "null", "true", "[]", "{}"]
# "\udcff" is written as the byte 0xff, which is not UTF-8
TABLE_CELLS = ["nan", "inf", "-inf", "1e400", "abc", "", "0.5", "-7", "\udcff"]

# each subcommand's flags: a valid value drawn from a random generator ``r``
# (as text), and the hostile values tried on it; no value asks for a large
# grid, sweep or FD march
FLAGS = {
    "constants": {},
    "coeffs": {},
    "simulate": {
        "--nx": (lambda r: str(r.randint(2, 6)), ["1", "-2", *INTS]),
        "--nt": (lambda r: str(r.randint(2, 6)), ["1", "-2", *INTS]),
        "--t-final": (lambda r: repr(r.uniform(0.0, 5.0)), [*FLOATS, "1e308"]),
    },
    "energy": {
        "--times": (lambda r: str(r.randint(1, 6)), ["-3", *INTS]),
        "--t-final": (lambda r: repr(r.uniform(0.0, 5.0)), [*FLOATS, "1e308"]),
        "--tol": (lambda r: repr(10.0 ** r.uniform(-12.0, 0.0)), [*FLOATS, "1e308"]),
    },
    "observe": {
        "--endpoint": (lambda r: r.choice(["left", "right", "both"]), ["middle", "", "LEFT"]),
        "--periods": (lambda r: str(r.randint(1, 2)), INTS),
        "--horizon": (lambda r: repr(r.uniform(0.01, 5.0)), FLOATS),
        "--tol": (lambda r: repr(10.0 ** r.uniform(-12.0, 0.0)), [*FLOATS, "1e308"]),
    },
    "oracle": {
        "--method": (lambda r: r.choice(["characteristics", "fd", "both"]), ["euler", ""]),
        "--samples": (lambda r: str(r.randint(1, 8)), ["-5", *INTS]),
        "--nx": (lambda r: str(r.randint(32, 48)), ["16", "31", *INTS]),
        "--cfl": (lambda r: repr(r.uniform(0.2, 0.5)),
                  [*FLOATS, "0.6", "1e308", "1e-300", "1e-320"]),
        "--seed": (lambda r: str(r.randint(0, 2**70)),
                   ["-1", "-18446744073709551617", "1.5", "x"]),
    },
    "validate": {
        "--tol": (lambda r: repr(10.0 ** r.uniform(-12.0, 0.0)), [*FLOATS, "1e308"]),
        "--seed": (lambda r: str(r.randint(0, 2**70)), ["-1", "1.5", "x"]),
    },
}
ALL_FLAGS = sorted({flag for flags in FLAGS.values() for flag in flags})


def _amplitude(r, params):
    if r.random() < 0.7:
        params["amplitude"] = r.uniform(-2.0, 2.0)
    return params


def _sine(r):
    return _amplitude(r, {"mode": r.randint(1, 3)} if r.random() < 0.7 else {})


def _bump(r, L):
    width = r.uniform(0.05, 1.0) * L
    return _amplitude(r, {"center": r.uniform(0.5 * width, L - 0.5 * width), "width": width})


# each preset's valid parameters on [0, L]; a bump's support must fit
PARAMS = {
    "zero": lambda r, L: {},
    "sine_mode": lambda r, L: _sine(r),
    "sine_velocity": lambda r, L: _sine(r),
    "traveling_sine": lambda r, L: {**_sine(r), "sign": r.choice([-1, 1])},
    "bump": _bump,
}
PRESET_KEYS = {"zero": ["amplitude"], "sine_mode": ["amplitude", "mode"],
               "sine_velocity": ["amplitude", "mode"],
               "traveling_sine": ["amplitude", "mode", "sign"],
               "bump": ["center", "width", "amplitude"]}


@dataclass
class Raw:
    """JSON text written verbatim (``json.dumps`` cannot write 1e400)."""

    text: str


@dataclass
class Case:
    sub: str
    flags: dict
    doc: dict
    table: list | None            # rows of cell text, or None for a preset
    what: str = "nothing"         # the perturbed value, for the report
    tokens: tuple = ()            # words one of which a refusal must name
    config_text: str | None = None
    header: str = "x,phi0,phi1"
    extra: list = field(default_factory=list)

    def write(self, root: Path) -> Path:
        raws = []

        def encode(obj):
            if isinstance(obj, Raw):
                raws.append(obj.text)
                return f"@RAW{len(raws) - 1}@"
            if isinstance(obj, dict):
                return {k: encode(v) for k, v in obj.items()}
            return obj

        text = json.dumps(encode(self.doc))
        for i, raw in enumerate(raws):
            text = text.replace(f'"@RAW{i}@"', raw)
        path = root / "cfg.json"
        path.write_text(text if self.config_text is None else self.config_text,
                        encoding="utf-8", errors="surrogateescape")
        if self.table is not None:
            (root / "table.csv").write_text(
                self.header + "\n" + "".join(",".join(row) + "\n" for row in self.table),
                encoding="utf-8", errors="surrogateescape")
        return path

    def argv(self, config: Path, out: Path) -> list[str]:
        flags = [f"{flag}={value}" for flag, value in self.flags.items()]
        return [self.sub, *flags, *self.extra, "--config", str(config), "--out", str(out)]


def _perturbations():
    """Every perturbation the strategy draws from, one value at a time:
    (kind, *what), with ``("none",)`` for a case left valid."""
    keys = [("key", key, value) for key in ("L", "v", "n_max", "initial", "quadrature")
            for value in JSON_VALUES]
    keys += [("key", "initial", value) for value in (
        '{"preset": {"name": "nope"}}', '{"preset": {}}', '{"table": "missing.csv"}',
        '{"preset": {"name": "zero", "params": []}}')]
    keys += [("key", "quadrature", '{"panels_per_unit": 1.5}')]
    flags = [("flag", sub, flag, value) for sub, own in FLAGS.items()
             for flag, (_, hostile) in own.items() for value in hostile]
    unread = [("unread", sub, flag) for sub in FLAGS for flag in ALL_FLAGS
              if flag not in FLAGS[sub]]
    params = [("param", name, key, value) for name, keys_ in PRESET_KEYS.items()
              for key in [*keys_, "amplitud"] for value in JSON_VALUES]
    tables = [("rows", k) for k in (1, 2, 3)]
    tables += [("cell", col, value) for col in range(3) for value in TABLE_CELLS]
    tables += [("ragged", cut) for cut in (True, False)]
    tables += [("header", text) for text in ("x,phi0", "x,phi1,phi0", "t,phi0,phi1", "")]
    tables = [("table", *t) for t in tables]
    configs = [("config", text) for text in ("", "{", "[]", "null", '"cfg"', "{}", "\udcff{",
                                             '{"n_max": ' + "1" * 5000 + "}", "[" * 10**5)]
    drops = [("drop", key) for key in ("L", "v", "n_max", "initial")]
    perturbed = keys + flags + unread + params + tables + configs + drops
    return [("none",)] * (len(perturbed) // 8) + perturbed


PERTURBATIONS = _perturbations()


@st.composite
def cases(draw):
    """A valid case with one perturbation ``kind, *what`` applied.  The
    perturbation is one draw from the flat list and the valid values come
    from one seeded generator: with few draws per example, hypothesis
    spreads its examples over the list (1,200 examples reach about 80% of
    it) rather than mutating a few of them."""
    kind, *what = draw(st.sampled_from(PERTURBATIONS))
    r = draw(st.randoms(use_true_random=True))
    sub = what[0] if kind in ("flag", "unread") else r.choice(sorted(FLAGS))
    flags = {flag: valid(r) for flag, (valid, _) in FLAGS[sub].items()
             if flag == "--endpoint" or r.random() < 0.5}
    if sub == "observe":   # valid: --periods or --horizon, and neither with both ends
        if flags["--endpoint"] == "both" or r.random() < 0.5:
            flags.pop("--periods", None)
        if flags["--endpoint"] == "both" or "--periods" in flags:
            flags.pop("--horizon", None)
    L = r.uniform(0.5, 4.0)
    doc = {"L": L, "v": r.uniform(0.0, 0.9), "n_max": r.randint(1, 8)}
    table = None
    if kind == "table" or (kind != "param" and r.random() < 0.5):
        x = np.linspace(0.0, L, r.randint(4, 9))
        p0 = [0.0, *(r.uniform(-1.0, 1.0) for _ in x[2:]), 0.0]
        table = [[repr(float(a)), repr(b), repr(r.uniform(-1.0, 1.0))] for a, b in zip(x, p0)]
        doc["initial"] = {"table": "table.csv"}
    else:
        name = what[0] if kind == "param" else r.choice(sorted(PARAMS))
        doc["initial"] = {"preset": {"name": name, "params": PARAMS[name](r, L)}}
    case = Case(sub, flags, doc, table, what=" ".join(map(str, [kind, *what]))[:80])
    if kind == "key":
        key, value = what
        doc[key] = Raw(value)
        case.tokens = (key, "preset", "table") if key == "initial" else (key,)
    elif kind == "drop":
        del doc[what[0]]
        case.tokens = (what[0],)
    elif kind == "config":
        case.config_text = what[0]
        case.tokens = ("cfg.json",)
    elif kind == "flag":
        _, flag, value = what
        flags[flag] = value
        # a value rule may name the flag bare ("cfl=1e-320"), and --tol's
        # rule names the tolerance
        case.tokens = (flag, flag.lstrip("-"), *(["tolerance"] if flag == "--tol" else []))
    elif kind == "unread":
        case.extra = [what[1], "1"]
        case.tokens = (what[1],)
    elif kind == "param":
        _, key, value = what
        doc["initial"]["preset"]["params"][key] = Raw(value)
        case.tokens = (key,)
    elif kind == "table":
        how, *arg = what
        if how == "rows":
            del table[arg[0]:]
            case.tokens = ("table", "tabulated")
        elif how == "cell":
            col, value = arg
            table[r.randrange(len(table))][col] = value
            case.tokens = (("x", "phi0", "phi1")[col], "table.csv")
        elif how == "ragged":
            row = r.randrange(len(table))
            table[row] = table[row][:2] if arg[0] else [*table[row], "0"]
            case.tokens = ("table.csv",)
        else:
            case.header = arg[0]
            case.tokens = ("table.csv",)
    return case


def run(argv):
    """(exit code, stderr) of ``main`` in-process; argparse's SystemExit is
    an exit code, every other exception escapes."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, stderr.getvalue()


def names(line: str, token: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(token)}(?!\w)", line) is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")   # main runs under np.errstate
@settings(max_examples=1200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cases())
def test_every_input_exits_0_1_2_or_3_and_a_refusal_names_its_value(case):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        rc, err = run(case.argv(case.write(root), out))
        assert rc in (0, 1, 2, 3), (case.what, rc, err)
        if rc in (0, 1):
            manifest = json.loads((out / "manifest.json").read_text())
        if rc == 1:   # only a failed identity check
            assert case.sub in CHECKING, (case.what, err)
            assert any(not check["passed"] for check in manifest["checks"]), case.what
        if rc == 2:
            errors = [line for line in err.splitlines() if "error: " in line]
            assert errors, (case.what, err)
            assert any(names(errors[-1], token) for token in case.tokens), \
                (case.what, errors[-1])
            assert not out.exists(), case.what
        if rc == 3:
            assert "numeric failure: " in err, (case.what, err)
        if not case.tokens:
            assert rc != 2, ("a valid input was refused", case.what, err)


def write_config(root: Path, **doc) -> Path:
    base = {"L": 3.0, "v": 0.3, "n_max": 6,
            "initial": {"preset": {"name": "sine_mode", "params": {"amplitude": 0.1}}}}
    path = root / "cfg.json"
    path.write_text(json.dumps({**base, **doc}))
    return path


@pytest.mark.parametrize("argv, doc, message", [
    (["coeffs"], {"n_max": 10**10}, "a phasor table of 20000000000 modes"),
    (["coeffs"], {"initial": {"preset": {"name": "sine_mode", "params": {"mode": 10**9}}}},
     "nodes, more than the 10000000 allowed"),
    (["simulate", "--nx", "10000000", "--nt", "10000000"], {},
     "physical memory; lower --nx or --nt"),
    (["energy", "--times", "1000000000000"], {}, "an energy sweep of 1000000000000 times"),
    (["observe", "--endpoint", "left", "--horizon", "1e7"], {}, "nodes, more than"),
    (["observe", "--endpoint", "right", "--periods", "1000000"], {}, "nodes, more than"),
    (["oracle", "--samples", "1000000000000"], {}, "x, t and the series at 1000000000000"),
    (["oracle", "--samples", "4", "--nx", "1000000000000"], {}, "one FD level of"),
    (["oracle", "--samples", "4", "--method", "fd", "--cfl", "1e-300"], {},
     "node-steps, above the bound"),
    # counts one digit past the 4,300 that str(int) prints
    (["coeffs"], {"n_max": int("9" * 4300)}, "a phasor table of 1" + "9" * 4299 + "8 modes"),
    (["oracle", "--samples", "4", "--nx", "9" * 4300], {}, f"one FD level of 1{'0' * 4300} nodes"),
], ids=["n_max", "mode", "grid", "sweep", "horizon", "periods", "samples", "fd-nx", "fd-steps",
        "n_max-4300-digits", "fd-nx-4300-digits"])
def test_size_refused_before_allocation(tmp_path, argv, doc, message):
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        rc, err = run([*argv, "--config", str(write_config(tmp_path, **doc)),
                       "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and err.startswith("error: ") and message in err
    assert not out.exists()
    assert peak < 4 * 2**20


def test_broken_invariant_is_a_traceback_not_a_refusal(tmp_path, monkeypatch):
    # exit 2 means a refused input; an internal ValueError must escape main
    def broken(self, s, forward):
        raise ValueError("forward profile argument -1 < 0")

    monkeypatch.setattr(oracle.CharacteristicSolver, "_reduce", broken)
    with pytest.raises(ValueError, match="forward profile argument"):
        main(["oracle", "--method", "characteristics", "--samples", "4",
              "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")])
