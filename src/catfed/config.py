"""Flat key=value run configuration files.

The format is one ``key = value`` per line; ``#`` starts a comment and blank
lines are skipped.  Unknown or duplicate keys, and values outside their key's
domain, are rejected with the line number so typos fail loudly instead of
silently running defaults or failing later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .costs import CostModel
from .datasets import DATASET_CLASSES
from .errors import ConfigError, read_utf8
from .federation import STRATEGIES, ExperimentConfig
from .network import TrainConfig
from .partitions import KINDS, DistributionSpec
from .selection import Mode

# Hidden-layer widths per dataset; input is the pixel count and the output
# width is the class count, so only the middle of the net varies.
ARCHITECTURES: dict[str, tuple[int, ...]] = {
    "mnist": (100, 100),
    "fmnist": (512,),
    "kmnist10": (512,),
    "femnist47": (784,),
    "kmnist49": (784,),
}


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "mnist"
    data_root: str | None = None
    distribution: str = "D1"
    strategy: str = "cat_performance"
    mode: str = "B"
    limit: int | None = None
    client_fraction: float = 0.1
    rounds: int = 50
    learning_rate: float = 0.003
    batch_size: int = 32
    local_epochs: int = 1
    num_clients: int = 100
    samples_per_client: int = 600
    seed: int = 0
    client_cost: float = 1.0
    server_cost: float = 0.0
    minority_categories: int = 0
    minority_ratio: float = 0.1
    seeds: int = 1
    output: str = "results.csv"

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_domain(f.name, getattr(self, f.name))

    def distribution_spec(self) -> DistributionSpec:
        return DistributionSpec(
            kind=self.distribution,
            num_clients=self.num_clients,
            samples_per_client=self.samples_per_client,
            imbalance=(self.minority_categories, self.minority_ratio),
            seed=self.seed,
        )

    def experiment_config(self, seed: int | None = None) -> ExperimentConfig:
        return ExperimentConfig(
            strategy=self.strategy,
            rounds=self.rounds,
            client_fraction=self.client_fraction,
            mode=self.mode,
            limit=self.limit,
            hidden=ARCHITECTURES[self.dataset],
            train=TrainConfig(
                learning_rate=self.learning_rate,
                batch_size=self.batch_size,
                local_epochs=self.local_epochs,
            ),
            cost=CostModel(client_cost=self.client_cost, server_cost=self.server_cost),
            seed=self.seed if seed is None else seed,
        )


def _ascii(raw: str) -> str:
    # int() and float() also read other scripts' digits and underscores.
    if not raw.isascii() or "_" in raw:
        raise ValueError(f"not an ASCII numeral: {raw!r}")
    return raw


def _parse_int(raw: str) -> int:
    return int(_ascii(raw))


def _parse_float(raw: str) -> float:
    return float(_ascii(raw))


def _parse_optional_int(raw: str) -> int | None:
    return None if raw.lower() == "none" else _parse_int(raw)


def _parse_optional_str(raw: str) -> str | None:
    return None if raw.lower() == "none" else raw


def _positive(value) -> bool:
    return value >= 1


def _nonnegative(value) -> bool:
    # Written so that NaN and infinity fail too.
    return 0 <= value < math.inf


# Each key's parser, its domain as a check, and the phrase an error shows for
# the domain.  These are the domains ExperimentConfig, TrainConfig, CostModel,
# SelectionConfig, DistributionSpec and derive_rng enforce, applied when a
# value is read.
_KEYS = {
    "dataset": (str, lambda v: v in DATASET_CLASSES, f"one of {sorted(DATASET_CLASSES)}"),
    "data_root": (_parse_optional_str, lambda v: v is None or v != "",
                  "a non-empty path or none"),
    "distribution": (str, lambda v: v in KINDS, f"one of {KINDS}"),
    "strategy": (str, lambda v: v in STRATEGIES, f"one of {STRATEGIES}"),
    "mode": (str.upper, lambda v: v in {m.value for m in Mode}, "A or B"),
    "limit": (_parse_optional_int, lambda v: v is None or v >= 1, ">= 1 or none"),
    "client_fraction": (_parse_float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "rounds": (_parse_int, _positive, ">= 1"),
    "learning_rate": (_parse_float, _nonnegative, "a finite number >= 0"),
    "batch_size": (_parse_int, _positive, ">= 1"),
    "local_epochs": (_parse_int, _positive, ">= 1"),
    "num_clients": (_parse_int, _positive, ">= 1"),
    "samples_per_client": (_parse_int, _positive, ">= 1"),
    "seed": (_parse_int, _nonnegative, ">= 0"),
    "client_cost": (_parse_float, _nonnegative, "a finite number >= 0"),
    "server_cost": (_parse_float, _nonnegative, "a finite number >= 0"),
    "minority_categories": (_parse_int, _nonnegative, ">= 0"),
    "minority_ratio": (_parse_float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "seeds": (_parse_int, _positive, ">= 1"),
    "output": (str, lambda v: v != "", "a non-empty path"),
}

assert set(_KEYS) == {f.name for f in fields(RunConfig)}


def _check_domain(key: str, value, where: str = "") -> None:
    _, check, domain = _KEYS[key]
    if not check(value):
        raise ConfigError(f"{where}{key} must be {domain}, got {value!r}")


def parse_config(text: str) -> RunConfig:
    values: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key][0](raw_value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        _check_domain(key, values[key], f"line {lineno}: ")
    try:
        return RunConfig(**values)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    """The config in ``path``; every ConfigError names the file."""
    text = read_utf8(path, ConfigError)
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
