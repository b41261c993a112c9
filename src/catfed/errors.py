"""Exception types shared across the simulator, and the number readers and
checks that the file formats and configs share."""

import numbers


class DataFormatError(ValueError):
    """A binary dataset file is malformed (bad magic, truncation, wrong shape)."""


class DataConsistencyError(ValueError):
    """Paired dataset files disagree (e.g. image/label counts differ)."""


class GenerationError(RuntimeError):
    """A partition generator could not satisfy its constraints."""


class ConfigError(ValueError):
    """A run-configuration file is missing keys, has unknown keys, or bad values."""


class RoundError(RuntimeError):
    """A federated round could not proceed (e.g. selection returned no clients,
    or a client's local training went non-finite)."""


def _ascii(raw: str) -> str:
    # int() and float() also read other scripts' digits and underscores.
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"not an ASCII numeral: {raw!r}")
    return raw


def _parse_int(raw: str) -> int:
    return int(_ascii(raw))


def _parse_float(raw: str) -> float:
    return float(_ascii(raw))


def _require_int(name: str, value) -> None:
    """Refuse a float or a bool where a count is expected: ``2.5`` would be
    used as it stands, and ``True`` as 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
