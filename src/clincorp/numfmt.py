"""Numeric display conventions shared by reports and tables.

All published figures round half away from zero (so 18.575 prints as 18.58),
which differs from Python's built-in banker's rounding.  Metrics show three
decimals, percentages two.  The finite-number and unit-interval tests that
command-line values, config values and state files share live here too,
since every command loads this module anyway.
"""
from __future__ import annotations

import math

METRIC_PLACES = 3
PERCENT_PLACES = 2


def round_half_up(value: float, places: int) -> float:
    """Round half away from zero at `places` >= 0 decimals, exactly, on the
    shortest decimal form of `value` (str(value)), so 2.675 gives 2.68 though
    the float 2.675 lies a little below it.  The result is the float nearest
    that decimal.  A non-finite value comes back unchanged, as round() does.
    """
    if not math.isfinite(value):
        return value
    text = str(value)
    negative = text[0] == "-"
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    # |value| == digits * 10**-scale; keep `places` decimals of it.
    digits = int(whole + fraction)
    scale = len(fraction) - int(exponent or 0)
    drop = scale - places
    if drop > 0:
        unit = 10**drop
        digits, rest = divmod(digits, unit)
        if 2 * rest >= unit:
            digits += 1
        scale = places
    result = digits / 10**scale if scale >= 0 else float(digits * 10**-scale)
    return -result if negative else result


def is_finite_number(x) -> bool:
    """A JSON number other than true/false that a float holds finitely."""
    if type(x) not in (int, float):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def in_unit_interval(x) -> bool:
    """Whether the number `x` lies in [0, 1], the range of a share or an
    agreement value.  NaN does not."""
    return 0 <= x <= 1


def fmt_metric(value: float) -> str:
    return f"{round_half_up(value, METRIC_PLACES):.{METRIC_PLACES}f}"


def fmt_percent(value: float) -> str:
    return f"{round_half_up(value, PERCENT_PLACES):.{PERCENT_PLACES}f}"
