"""Shared exception types, mapped to CLI exit codes in sharbly.cli."""


class ConfigError(ValueError):
    """An argument, field spec or cache file cannot be parsed; exit 1."""


class PreconditionError(ValueError):
    """A validity hypothesis is violated (bad field, bad prime, l | N); exit 2."""


class UnsupportedError(ValueError):
    """Requested computation is outside the supported range; exit 2."""


class InternalCheckError(AssertionError):
    """An internal invariant failed (d o d != 0 and friends); always a bug; exit 4."""
