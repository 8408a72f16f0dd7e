#!/usr/bin/env python3
"""Reproduce the three demo surfaces (v = 0.3, 0.7, 0.9) and run the
identity suite on the v = 0.3 configuration.

Each paper figure is ``simulate`` over one period T_v on a shipped config
(``FIGURES``: the sine data with L = pi and n_max = 40).  Writes
field.csv + field.gp under out/figures/figN/ for N in {4, 5, 6}; render
the PNGs afterwards with gnuplot, e.g.

    cd out/figures/fig6 && gnuplot field.gp
"""

import sys
from pathlib import Path

from moving_string.cli import main

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "out" / "figures"
FIGURES = {4: "sine_v03.json", 5: "sine_v07.json", 6: "sine_v09.json"}


def run() -> int:
    for fig, config in FIGURES.items():
        rc = main(["simulate", "--config", str(ROOT / "configs" / config),
                   "--out", str(OUT / f"fig{fig}")])
        if rc != 0:
            return rc
    return main([
        "validate",
        "--config", str(ROOT / "configs" / "sine_v03.json"),
        "--out", str(OUT / "validate_v03"),
    ])


if __name__ == "__main__":
    sys.exit(run())
