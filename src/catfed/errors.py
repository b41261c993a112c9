"""Exception types shared across the simulator."""


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
