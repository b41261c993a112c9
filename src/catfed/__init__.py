"""Category-aware client selection for federated averaging, simulated.

The package exports what a library user drives a run with; everything else
is imported from the module that defines it (``catfed.partitions``,
``catfed.network``, ...).
"""

from .costs import CostLedger, CostModel, check_loss_decomposition, cumulative_cost
from .datasets import DatasetSpec, LabeledDataset, load_dataset
from .errors import (
    ConfigError,
    DataConsistencyError,
    DataFormatError,
    GenerationError,
    RoundError,
)
from .federation import ExperimentConfig, run_experiment
from .network import evaluate, init_model, loss_and_grad
from .partitions import ClientPartition, DistributionSpec, generate_partition
from .selection import Mode, SelectionConfig, build_mask, select_cost, select_performance
from .synthetic import write_fixture

__version__ = "0.1.0"

__all__ = [
    "ClientPartition",
    "ConfigError",
    "CostLedger",
    "CostModel",
    "DataConsistencyError",
    "DataFormatError",
    "DatasetSpec",
    "DistributionSpec",
    "ExperimentConfig",
    "GenerationError",
    "LabeledDataset",
    "Mode",
    "RoundError",
    "SelectionConfig",
    "build_mask",
    "check_loss_decomposition",
    "cumulative_cost",
    "evaluate",
    "generate_partition",
    "init_model",
    "load_dataset",
    "loss_and_grad",
    "run_experiment",
    "select_cost",
    "select_performance",
    "write_fixture",
]
