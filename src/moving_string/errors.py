"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A caller's value (config key, preset parameter, table entry, flag or
    argument) that the program refuses: the CLI's exit 2.  Any other
    ValueError is a broken internal invariant, and surfaces as a traceback.

    The point-range checks of the evaluators (``check_moving_interval``,
    ``field_on_moving_grid``, the FD oracle's slab) refuse a library
    caller's points.  The CLI passes them only points it builds itself, so
    there they guard no user input."""


class NumericError(RuntimeError):
    """A numeric stage produced or encountered a non-finite value."""
