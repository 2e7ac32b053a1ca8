"""Exception types shared across the package, and the array check of its file readers.

Precondition violations (bad indices, wrong shapes, out-of-range labels)
raise plain ValueError. The classes below exist so the CLI can map failure
modes onto its exit-code contract: data problems exit 2, config problems
exit 3, numeric blowups exit 4.
"""

import numpy as np


class DataError(Exception):
    """Archive missing, malformed, or inconsistent with expectations."""


class ConfigError(ValueError):
    """Flag, config-file or training-setting value the run cannot use."""


class NumericError(Exception):
    """Non-finite loss or otherwise unusable numeric state during a run."""


class UndefinedMetric(ValueError):
    """Metric requested on degenerate input (empty matrix, single-class truth)."""


def checked_arrays(fields: dict) -> dict:
    """Each ``name: (raw, shape)`` as a finite float array of that shape, else
    ValueError. ``raw`` is parsed JSON: nested lists of numbers, and neither
    a numeric string nor a boolean, which numpy would convert, counts as one."""
    values = {}
    for name, (raw, shape) in fields.items():
        try:
            values[name] = np.array(raw, dtype=float)
        except OverflowError as exc:  # an integer past the float range
            raise ValueError(f"{name}: {exc}") from exc
        if values[name].shape != shape:
            raise ValueError(f"{name} has shape {values[name].shape}, expected {shape}")
        leaves = [raw]
        for _ in shape:  # the shape matched, so raw nests exactly this deep
            leaves = [leaf for row in leaves for leaf in row]
        if any(type(leaf) not in (int, float) for leaf in leaves):
            raise ValueError(f"{name} holds a value that is not a JSON number")
        if not np.all(np.isfinite(values[name])):
            raise ValueError(f"{name} holds non-finite values")
    return values
