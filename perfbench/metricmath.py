"""The benchmark's own arithmetic: the percentile rule, quartile spread and
the metric-name grammar.

Kept free of any ``repro`` import so its tests run without the simulator.
"""

import math
import re
import statistics

__all__ = [
    "MIN_BEYOND",
    "NAME_RE",
    "InsufficientSamples",
    "check_metric_name",
    "highest_supported",
    "quartile_spread",
    "supported_percentile",
]

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

#: Metric names: letters, digits, ``_``, ``.`` and ``-``, starting with a
#: letter or a digit, at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile to report it."""


def check_metric_name(name):
    """Return ``name`` if it obeys the metric-name grammar, else raise."""
    if not isinstance(name, str) or NAME_RE.fullmatch(name) is None:
        raise ValueError("bad metric name {!r}: want {}".format(
            name, NAME_RE.pattern))
    return name


def supported_percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank ``q``-th percentile of ``values`` and its sample count.

    Returns ``(value, n)``.  Raises :class:`InsufficientSamples` unless at
    least ``min_beyond`` samples rank above the reported one, so a tail
    figure never rests on a handful of points.
    """
    if not 0 < q < 100:
        raise ValueError("percentile must be in (0, 100), got {!r}".format(q))
    data = sorted(values)
    n = len(data)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            "p{:g} of {} samples has {} beyond it; need {}".format(
                q, n, beyond, min_beyond))
    return data[rank - 1], n


def highest_supported(values, candidates=(99, 95, 90, 80, 75, 50)):
    """``(q, value)`` for the highest of ``candidates`` that
    :func:`supported_percentile` can report on ``values``, or ``None``."""
    for q in candidates:
        try:
            return q, supported_percentile(values, q)[0]
        except InsufficientSamples:
            continue
    return None


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
