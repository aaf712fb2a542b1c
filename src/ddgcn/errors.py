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
    """``value`` as a ``kind`` (int or float). Only an int or a float is a
    number, never a bool or a string, and an int is whole. Anything else,
    an int too large for a float included, is a ValueError for the caller
    to wrap."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{value!r} is not a whole number" if kind is int else f"{value!r} is not a number")
    try:
        return kind(value)
    except OverflowError:  # only float() of a huge int
        raise ValueError(f"an integer of {value.bit_length()} bits is too large for a float") from None
