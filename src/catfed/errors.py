"""Exception types shared across the simulator, and the number readers and
checks that the file formats, configs and label arrays share."""

import numpy as np


class DataFormatError(ValueError):
    """A binary dataset file is malformed (bad magic, truncation, wrong shape)."""


class DataConsistencyError(ValueError):
    """Paired dataset files disagree (e.g. image/label counts differ)."""


class GenerationError(RuntimeError):
    """A partition generator could not satisfy its constraints."""


class ConfigError(ValueError):
    """A run-configuration file is missing keys, has unknown keys, or bad values."""


class SettingError(ValueError):
    """A config's ``field`` holds a value its other settings rule out (e.g. a
    distribution the dataset's class count cannot take)."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class UnreadSettingError(SettingError):
    """A config sets ``field``, which its other settings leave unread (e.g. a
    ``limit`` under the random baseline)."""

    def __init__(self, field: str, reason: str) -> None:
        super().__init__(field, f"{field} has no effect {reason}")


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


def _require_count(name: str, value, least: int) -> None:
    """Refuse anything but an integer ``>= least`` where a count is expected:
    a float ``2.5`` would be used as it stands, and ``True`` as 1.  Concrete
    types, not ``numbers.Integral``: its ABC check costs ~1 us, and every
    partition builds a CategoryMask per client."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _require_number(name: str, value) -> None:
    """Refuse a bool or a non-number where a real is expected; callers check the interval."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")


def _category_ids(labels, num_categories: int) -> np.ndarray:
    """``labels`` as a flat integer array, every id checked to be in range.

    Non-integer labels are refused rather than truncated; the range error
    names the first bad label in input order.  An empty input passes.
    """
    ids = np.asarray(labels).ravel()
    if ids.size == 0:
        return np.zeros(0, dtype=np.intp)
    if ids.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= num_categories:
        first = ids[np.argmax((ids < 0) | (ids >= num_categories))]
        raise ValueError(f"category {first} out of range [0, {num_categories})")
    return ids.astype(np.intp, copy=False)


def _require_row_encoding(name: str, rows: np.ndarray) -> None:
    """Refuse rows in neither of the network's two encodings: uint8 pixels,
    read as pixel / 255, and float64 features, read as they are."""
    if rows.dtype != np.uint8 and rows.dtype != np.float64:
        raise ValueError(
            f"{name} must be uint8 pixels or float64 features, got dtype {rows.dtype}"
        )
