"""Flat key=value run configuration files.

The format is one ``key = value`` per line; ``#`` starts a comment and blank
lines are skipped.  Unknown or duplicate keys, and values outside their key's
domain, are rejected with the line number so typos fail loudly instead of
silently running defaults or failing later.  A value is checked as its line
is read, by a RunConfig that sets only that key: the library config that takes
the value (DistributionSpec, ExperimentConfig, TrainConfig, CostModel) checks
its domain, and RunConfig itself checks only the four keys that none takes.
A written key that the strategy never reads (``mode`` and ``limit`` under
``fedavg_random``, ``client_fraction`` under a category strategy, and ``mode``
when ``limit`` is set) is refused by ExperimentConfig and SelectionConfig once
every line is read, and the refusal is given the line that wrote the key.  So
is a ``distribution`` or ``imbalance`` that the dataset's class count cannot
take, which partitions' ``check_class_count`` refuses: the refusal names the
dataset and the line of the key at fault, or the ``dataset`` line when that
key is the default distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .costs import CostModel
from .datasets import DATASET_CLASSES
from .errors import ConfigError, SettingError, _parse_float, _parse_int, _require_count
from .federation import ExperimentConfig
from .network import TrainConfig
from .partitions import DistributionSpec, check_class_count, parse_imbalance

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
    mode: str | None = ExperimentConfig.mode
    limit: int | None = ExperimentConfig.limit
    client_fraction: float | None = ExperimentConfig.client_fraction
    rounds: int = ExperimentConfig.rounds
    learning_rate: float = TrainConfig.learning_rate
    batch_size: int = TrainConfig.batch_size
    local_epochs: int = TrainConfig.local_epochs
    num_clients: int = DistributionSpec.num_clients
    samples_per_client: int = DistributionSpec.samples_per_client
    seed: int = ExperimentConfig.seed
    client_cost: float = CostModel.client_cost
    server_cost: float = CostModel.server_cost
    imbalance: tuple[int, float] | None = DistributionSpec.imbalance
    seeds: int = 1
    output: str = "results.csv"

    def __post_init__(self) -> None:
        try:
            _require_count("seeds", self.seeds, 1)
            for key, ok, domain in (
                ("dataset", self.dataset in ARCHITECTURES, f"one of {sorted(ARCHITECTURES)}"),
                ("data_root", self.data_root != "", "a non-empty path or none"),
                ("output", self.output != "", "a non-empty path"),
            ):
                if not ok:
                    raise ValueError(f"{key} must be {domain}, got {getattr(self, key)!r}")
            try:
                check_class_count(self.distribution_spec(), DATASET_CLASSES[self.dataset])
            except SettingError as exc:
                key = "distribution" if exc.field == "kind" else exc.field
                raise SettingError(key, f"dataset {self.dataset}: {exc}") from None
            self.experiment_config()
        except SettingError:
            raise  # parse_config reads its field to name the line
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def distribution_spec(self) -> DistributionSpec:
        return DistributionSpec(
            kind=self.distribution,
            num_clients=self.num_clients,
            samples_per_client=self.samples_per_client,
            imbalance=self.imbalance,
            seed=self.seed,
        )

    def experiment_config(self) -> ExperimentConfig:
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
            seed=self.seed,
        )


def _optional(parse):
    """``parse``, with the text ``none``, in any case, read as None."""
    return lambda raw: None if raw.lower() == "none" else parse(raw)


# Each key's parser.
_KEYS = {
    "dataset": str,
    "data_root": _optional(str),
    "distribution": str,
    "strategy": str,
    "mode": str.upper,
    "limit": _optional(_parse_int),
    "client_fraction": _parse_float,
    "rounds": _parse_int,
    "learning_rate": _parse_float,
    "batch_size": _parse_int,
    "local_epochs": _parse_int,
    "num_clients": _parse_int,
    "samples_per_client": _parse_int,
    "seed": _parse_int,
    "client_cost": _parse_float,
    "server_cost": _parse_float,
    "imbalance": parse_imbalance,
    "seeds": _parse_int,
    "output": str,
}

assert set(_KEYS) == {f.name for f in fields(RunConfig)}


def parse_config(text: str) -> RunConfig:
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _KEYS[key](raw_value.strip())
            RunConfig(**{key: values[key]})
        except SettingError:
            pass  # whether the other keys allow this one is known once every line is read
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    try:
        return RunConfig(**values)
    except SettingError as exc:
        # A default distribution is refused for the dataset written beside it.
        line = lines[exc.field] if exc.field in lines else lines["dataset"]
        raise ConfigError(f"line {line}: {exc}") from exc


def load_config(path) -> RunConfig:
    """The config in ``path``; every ConfigError names the file, and a byte
    that is not UTF-8 also names its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = 1 + data.count(b"\n", 0, exc.start)
        raise ConfigError(
            f"{path}:{line}: not valid UTF-8 (byte 0x{data[exc.start]:02x})"
        ) from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
