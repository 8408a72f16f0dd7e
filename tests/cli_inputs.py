"""Command lines shared by ``tests/test_cli.py`` and
``scripts/compare_cli_outputs.py``, each written once.

``SHORT_RUNS`` is one short run of every subcommand; ``TOL_RUNS`` names
those that check an identity and so take ``--tol``.  ``REFUSED`` maps each
test of ``TestBadInputExitsTwo`` to the command lines it runs on
``REFUSAL_CONFIG``: id -> (argv, the fragment that the exit-2 refusal
prints on stderr).
"""

from pathlib import Path

REFUSAL_CONFIG = Path("configs") / "sine_v03.json"

SHORT_RUNS = {
    "validate": ["validate"],
    "energy": ["energy", "--times", "4"],
    "observe": ["observe", "--endpoint", "both"],
    "observe-horizon": ["observe", "--endpoint", "right", "--horizon", "1.5"],
    "constants": ["constants"],
    "coeffs": ["coeffs"],
    "simulate": ["simulate", "--nx", "4", "--nt", "4"],
    "oracle": ["oracle", "--samples", "4", "--nx", "32"],
}
TOL_RUNS = ("validate", "energy", "observe", "observe-horizon")

_T_FINAL = "--t-final must be finite and nonnegative, got "
_HORIZON = "--horizon must be positive and finite, got "
_NODES = "nodes, more than the 10000000 allowed; lower "
_FD = "oracle --samples 4 --method fd --cfl "
_PHASE = ("--t-final = 1e+307 puts the top mode's phase 2 pi n_max t / T_v past float "
          "range at n_max = 40; lower --t-final")

# each command line as one string, split on spaces below
_REFUSED = {
    "non_finite_horizon": {
        h: (f"observe --endpoint left --horizon {h}", _HORIZON + h) for h in ("inf", "nan")},
    "non_finite_simulate_horizon": {
        t: (f"simulate --nx 4 --nt 4 --t-final {t}", _T_FINAL + t) for t in ("nan", "inf")},
    "non_finite_energy_horizon": {
        "energy-t-final-inf": ("energy --times 4 --t-final inf", _T_FINAL + "inf")},
    "bad_horizon_or_sample_count_names_flag": {
        "energy-t-final-minus-1": ("energy --times 4 --t-final -1", _T_FINAL + "-1.0"),
        "simulate-t-final-minus-1": ("simulate --nx 4 --nt 4 --t-final -1", _T_FINAL + "-1.0"),
        "oracle-samples-0": ("oracle --samples 0", "--samples must be at least 1, got 0"),
        "oracle-samples-minus-5": ("oracle --samples -5", "--samples must be at least 1, got -5"),
        "oracle-seed-minus-1": ("oracle --samples 4 --seed -1",
                                "--seed must be a nonnegative integer, got -1"),
        "validate-seed-minus-1": ("validate --seed -1",
                                  "--seed must be a nonnegative integer, got -1"),
        "oracle-nx-16": ("oracle --samples 4 --nx 16", "--nx must be >= 32, got 16"),
        "oracle-cfl-0.8": ("oracle --samples 4 --cfl 0.8", "--cfl must lie in (0, 0.5], got 0.8"),
        "oracle-cfl-nan": ("oracle --samples 4 --cfl nan", "--cfl must lie in (0, 0.5], got nan"),
        "simulate-nx-1": ("simulate --nx 1", "--nx must be at least 2, got 1"),
        "simulate-nt-0": ("simulate --nt 0", "--nt must be at least 2, got 0"),
        "simulate-grid-too-large": ("simulate --nx 10000000 --nt 10000000",
                                    "physical memory; lower --nx or --nt"),
        "observe-periods-0": ("observe --endpoint left --periods 0",
                              "--periods must be at least 1, got 0"),
        "observe-horizon-minus-1": ("observe --endpoint left --horizon -1", _HORIZON + "-1.0")},
    "invalid_tolerance": {
        f"{tol}-{run}": (" ".join([*SHORT_RUNS[run], "--tol", tol]),
                         "tolerance must be finite and positive, got ")
        for run in TOL_RUNS for tol in ("nan", "-1", "0", "inf")},
    # --endpoint both observes fixed horizons
    "conflicting_observe_flags": {
        "both-periods": ("observe --endpoint both --periods 2", "drop --periods and --horizon"),
        "both-horizon": ("observe --endpoint both --horizon 3", "drop --periods and --horizon"),
        "periods-horizon": ("observe --endpoint left --periods 3 --horizon 2",
                            "give --periods or --horizon, not both")},
    # the quadrature layout's node bound, naming the flag that set the interval
    "oversized_observation_horizon": {
        "horizon-1e300": ("observe --endpoint left --horizon 1e300",
                          "needs 1.16e+302 " + _NODES + "--horizon"),
        "horizon-1e7": ("observe --endpoint left --horizon 1e7",
                        "needs 1164800000 " + _NODES + "--horizon"),
        "periods-1e6": ("observe --endpoint left --periods 1000000",
                        "needs 804247720 " + _NODES + "--periods")},
    # terabytes, refused by the physical-memory guard
    "impossible_size": {
        "simulate": ("simulate --nx 1000000 --nt 1000000",
                     "five fields on the 1000000 x 1000000 grid"),
        "energy": ("energy --times 1000000000000", "an energy sweep of 1000000000000 times"),
        "oracle": ("oracle --samples 1000000000000 --method characteristics",
                   "x, t and the series at 1000000000000 samples")},
    # a subcommand takes only the options it reads
    "unread_flag_refused": {
        f"{run}-{flag[2:]}": (" ".join([*SHORT_RUNS[run], flag, value]),
                              f"unrecognized arguments: {flag}")
        for flag, value, runs in (
            ("--tol", "1e-6", ("constants", "coeffs", "simulate", "oracle")),
            ("--seed", "0", ("constants", "coeffs", "simulate", "energy", "observe")))
        for run in runs},
    # sizes whose float arithmetic overflows, and a sweep of no times; the
    # trace integrals' panels follow the band 4 pi n_max / T_v
    "past_float_range": {
        "periods-10^400": (f"observe --endpoint left --periods {10**400}",
                           "period count M is too large"),
        "periods-10^306": (f"observe --endpoint right --periods {10**306}",
                           "needs inf " + _NODES + "--periods"),
        "horizon-1e306": ("observe --endpoint right --horizon 1e306",
                          "needs 1.16e+308 " + _NODES + "--horizon"),
        "nx-10^400": (f"oracle --samples 4 --nx {10**400}",
                      f"one FD level of {10**400 + 1} nodes: inf GiB"),
        "nx-10^200": (f"oracle --samples 4 --nx {10**200}",
                      f"one FD level of {10**200 + 1} nodes: 7.45e+191 GiB"),
        # the FD step count t_final / (cfl (1 - v) deta) overflows, or its
        # divisor underflows to 0; or it is finite and the work bound
        # prints it to three digits
        "cfl-1e-320": (_FD + "1e-320", "cfl=1e-320 is too small: the FD step count t_final / "
                                       "(cfl (1 - v) deta) is past float range; raise cfl"),
        "cfl-5e-324": (_FD + "5e-324", "cfl=5e-324 is too small"),
        "cfl-1e-300": (_FD + "1e-300", "needs 1.61e+303 time steps x 513 nodes = 8.25e+305 "
                                       "node-steps, above the bound of 1e+10; lower nx, raise "
                                       "--cfl or use --method characteristics"),
        "cfl-1e-304": (_FD + "1e-304", "needs 1.61e+307 time steps x 513 nodes = inf "
                                       "node-steps, above the bound"),
        # the grid evaluator's top time phase 2 pi n_max t / T_v overflows
        "simulate-t-final-1e307": ("simulate --nx 4 --nt 4 --t-final 1e307", _PHASE),
        "energy-t-final-1e307": ("energy --times 4 --t-final 1e307", _PHASE),
        "times-0": ("energy --times 0", "--times must be at least 1, got 0"),
        "times-minus-3": ("energy --times -3", "--times must be at least 1, got -3")},
}
REFUSED = {test: {name: (line.split(), message) for name, (line, message) in cases.items()}
           for test, cases in _REFUSED.items()}
