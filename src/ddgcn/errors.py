"""Exception types, and the number reader, shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies.
"""


class ConfigError(ValueError):
    """Invalid configuration: topology, window spec, model plan, run config."""


class DataError(ValueError):
    """Malformed or inconsistent dataset input."""


class ShapeError(ValueError):
    """Operands passed to a numeric primitive have incompatible shapes."""


class NumericError(ArithmeticError):
    """A primitive produced a non-finite value."""


def read_number(kind, value):
    """``value`` as a ``kind`` (int or float): a bool is no number, and an
    int is whole. Anything else is a ValueError for the caller to wrap."""
    if isinstance(value, bool) or (kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number" if kind is int else f"{value!r} is not a number")
    return kind(value)
