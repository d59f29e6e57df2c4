"""The package's input contract for integers, without numpy.

Every graph size, vertex, count and step number is read by `check_int`.
It lives apart from `core` so that `walk stats --mode exact` and the exact
coverage chain read their counts without importing numpy.  A numpy
integer is accepted through `numbers.Integral`, which numpy registers its
integer types with; `np.bool_` is not registered, and a Python bool is
refused by name.
"""

from __future__ import annotations

from numbers import Integral

__all__ = ["check_int"]


def check_int(name: str, value, low: int) -> int:
    """`value` as a Python int; refuses a bool, a float or any other
    non-integer, and a value below `low`, naming `name`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
