"""Exception hierarchy shared across the package, and the integer checks
that config values, parameters and seeds go through.

The CLI maps these onto exit codes: ConfigError -> 1, NumericError -> 2,
and I/O failures (OSError) -> 3.
"""

import numbers


class LrdeconvError(Exception):
    """Base class for package errors."""


class ConfigError(LrdeconvError):
    """Invalid configuration or parameter value; names the violated constraint."""


class NumericError(LrdeconvError):
    """A numeric procedure failed (degenerate fit, embedding failure, ...)."""


class DegenerateFitError(NumericError):
    """A regression/fit had no usable signal (all zero, no spread, ...)."""


def require_int(value, name: str) -> int:
    """``value`` as an int when it is an integral number; otherwise a
    ConfigError naming ``name``.  65536 and 65536.0 pass; 65536.7, a bool
    and a string do not, so no value is truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_seed(value, name: str = "seed") -> int:
    """An integer in numpy's seed range [0, 2^64): the ``seed`` key and ``--seed``."""
    seed = require_int(value, name)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{name} must be an unsigned 64-bit integer, got {seed}")
    return seed
