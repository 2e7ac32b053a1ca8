"""Exception types shared across the package.

Precondition violations (bad indices, wrong shapes, out-of-range labels)
raise plain ValueError. The classes below exist so the CLI can map failure
modes onto its exit-code contract: data problems exit 2, config problems
exit 3, numeric blowups exit 4.
"""


class DataError(Exception):
    """Archive missing, malformed, or inconsistent with expectations."""


class ConfigError(ValueError):
    """Flag, config-file or training-setting value the run cannot use."""


class NumericError(Exception):
    """Non-finite loss or otherwise unusable numeric state during a run."""


class UndefinedMetric(ValueError):
    """Metric requested on degenerate input (empty matrix, single-class truth)."""
