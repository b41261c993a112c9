"""Config file parsing and validation."""

import dataclasses
import re
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from catfed import (
    ConfigError,
    CostLedger,
    CostModel,
    DistributionSpec,
    ExperimentConfig,
    Mode,
    SelectionConfig,
    init_model,
)
from catfed.config import (
    ARCHITECTURES,
    RunConfig,
    load_config,
    parse_config,
)
from catfed.costs import round_cost
from catfed.network import TrainConfig
from catfed.selection import CategoryMask, select_random

# Each kind of numeric setting, as its refusal words it, and the values it
# must refuse, with their id tags.
COUNT, REAL = "an integer", "a number"
_REFUSED = {COUNT: ((2.5, "float"), (True, "bool")), REAL: ((True, "bool"), ("0.5", "str"))}


def _refusals(stem, make, field, kind, wrap=lambda value: value, name=None):
    """``make(field=wrap(value))`` for each value ``kind`` refuses, and the
    message of the ValueError it raises, which names ``name`` (the field by
    default)."""
    return [
        pytest.param(make, {field: wrap(value)},
                     f"{name or field} must be {kind}, got {value!r}", id=f"{stem}-{tag}")
        for value, tag in _REFUSED[kind]
    ]


_SPEC = partial(DistributionSpec, "D1")
_EXPERIMENT = partial(ExperimentConfig, "cat_cost")

# Every count and real that a config or a cost, selection or init function
# takes: a count refuses a float and a bool, a real a bool and a str.
NUMERIC_REFUSALS = [
    *_refusals("train-learning_rate", TrainConfig, "learning_rate", REAL),
    *_refusals("train-batch_size", TrainConfig, "batch_size", COUNT),
    *_refusals("train-local_epochs", TrainConfig, "local_epochs", COUNT),
    *_refusals("cost-client_cost", CostModel, "client_cost", REAL),
    *_refusals("cost-server_cost", CostModel, "server_cost", REAL),
    *_refusals("experiment-rounds", _EXPERIMENT, "rounds", COUNT),
    *_refusals("experiment-client_fraction", _EXPERIMENT, "client_fraction", REAL),
    *_refusals("experiment-limit", _EXPERIMENT, "limit", COUNT),
    *_refusals("experiment-hidden", _EXPERIMENT, "hidden", COUNT,
               lambda width: (100, width), "hidden width"),
    *_refusals("experiment-seed", _EXPERIMENT, "seed", COUNT),
    *_refusals("spec-num_clients", _SPEC, "num_clients", COUNT),
    *_refusals("spec-samples_per_client", _SPEC, "samples_per_client", COUNT),
    *_refusals("spec-seed", _SPEC, "seed", COUNT),
    *_refusals("spec-imbalance", _SPEC, "imbalance", COUNT,
               lambda count: (count, 0.1), "imbalance minority count"),
    *_refusals("spec-imbalance_ratio", _SPEC, "imbalance", REAL,
               lambda ratio: (4, ratio), "imbalance ratio"),
    *_refusals("selection-num_categories", SelectionConfig, "num_categories", COUNT),
    *_refusals("selection-limit", partial(SelectionConfig, 5), "limit", COUNT),
    *_refusals("mask-bits", partial(CategoryMask, num_categories=3), "bits", COUNT),
    *_refusals("mask-num_categories", partial(CategoryMask, 1), "num_categories", COUNT),
    *_refusals("run-limit", RunConfig, "limit", COUNT),
    *_refusals("run-client_fraction", RunConfig, "client_fraction", REAL),
    *_refusals("run-rounds", RunConfig, "rounds", COUNT),
    *_refusals("run-learning_rate", RunConfig, "learning_rate", REAL),
    *_refusals("run-batch_size", RunConfig, "batch_size", COUNT),
    *_refusals("run-local_epochs", RunConfig, "local_epochs", COUNT),
    *_refusals("run-num_clients", RunConfig, "num_clients", COUNT),
    *_refusals("run-samples_per_client", RunConfig, "samples_per_client", COUNT),
    *_refusals("run-seed", RunConfig, "seed", COUNT),
    *_refusals("run-client_cost", RunConfig, "client_cost", REAL),
    *_refusals("run-server_cost", RunConfig, "server_cost", REAL),
    *_refusals("run-imbalance", RunConfig, "imbalance", COUNT,
               lambda count: (count, 0.1), "imbalance minority count"),
    *_refusals("run-imbalance_ratio", RunConfig, "imbalance", REAL,
               lambda ratio: (4, ratio), "imbalance ratio"),
    *_refusals("run-seeds", RunConfig, "seeds", COUNT),
    *_refusals("round_cost-num_selected", partial(round_cost, CostModel()), "num_selected",
               COUNT),
    *_refusals("record-num_selected", partial(CostLedger(CostModel()).record, samples_seen=6),
               "num_selected", COUNT),
    *_refusals("record-samples_seen", partial(CostLedger(CostModel()).record, 3),
               "samples_seen", COUNT),
    *_refusals("select_random-k", partial(
        select_random, [CategoryMask(1, 2), CategoryMask(2, 2)], rng=np.random.default_rng(0)
    ), "k", COUNT),
    *_refusals("init_model-architecture", partial(init_model, rng=np.random.default_rng(0)),
               "architecture", COUNT, lambda width: [4, width, 3], "architecture width"),
]

# The configs whose int and float fields NUMERIC_REFUSALS must cover.
NUMERIC_CONFIGS = (
    TrainConfig, CostModel, ExperimentConfig, DistributionSpec, SelectionConfig, CategoryMask,
    RunConfig,
)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blanks_skipped(self):
        text = "\n# full line comment\n\nrounds = 7  # trailing comment\n\n"
        assert parse_config(text).rounds == 7

    def test_values_parsed_to_field_types(self):
        # Floats as repr writes them: shortest round-trip digits and exponents.
        cfg = parse_config(
            "dataset = femnist47\n"
            "distribution = D2\n"
            "client_cost = 0.30000000000000004\n"
            "learning_rate = 1e-05\n"
            "server_cost = 1.5\n"
            "limit = 12\n"
            "data_root = /tmp/data\n"
        )
        assert cfg.dataset == "femnist47"
        assert cfg.client_cost == 0.1 + 0.2
        assert cfg.learning_rate == 1e-5
        assert cfg.server_cost == 1.5
        assert cfg.limit == 12
        assert cfg.data_root == "/tmp/data"

    def test_none_literals(self):
        cfg = parse_config("limit = none\ndata_root = none\n")
        assert cfg.limit is None
        assert cfg.data_root is None

    def test_mode_is_case_insensitive(self):
        assert parse_config("mode = a\n").mode == "A"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key 'runds'"):
            parse_config("rounds = 5\nrunds = 6\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'seed'"):
            parse_config("seed = 1\nrounds = 5\nseed = 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 1: expected 'key = value'"):
            parse_config("just some words\n")

    def test_bad_value_reports_line_and_key(self):
        with pytest.raises(ConfigError, match=r"line 2: bad value for 'rounds'"):
            parse_config("seed = 0\nrounds = fifty\n")

    @pytest.mark.parametrize(
        "key, raw",
        [("rounds", "١٢"), ("seed", "1_000"), ("learning_rate", "١e-3"),
         ("client_cost", "1_0.5"), ("imbalance", "٢:0.5"), ("imbalance", "2:0_5")],
        ids=["arabic-indic-int", "underscore-int", "arabic-indic-float", "underscore-float",
             "arabic-indic-imbalance", "underscore-imbalance"],
    )
    def test_only_ascii_numerals_are_read(self, key, raw):
        with pytest.raises(ConfigError, match=rf"^line 1: bad value for '{key}': "):
            parse_config(f"{key} = {raw}\n")

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rounds = 3\nseed = 11\n", encoding="utf-8")
        cfg = load_config(path)
        assert (cfg.rounds, cfg.seed) == (3, 11)


class TestValidation:
    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("dataset = cifar10", "dataset must be one of"),
            ("distribution = D11", "'distribution': kind must be one of"),
            ("strategy = powerd", "strategy must be one of"),
            ("mode = C", "mode must be A or B"),
            ("seeds = 0", "seeds must be >= 1"),
        ],
    )
    def test_invalid_values_rejected(self, line, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(line + "\n")

    @pytest.mark.parametrize(
        "key, raw, domain",
        [
            ("data_root", "", "a non-empty path or none"),
            ("limit", "0", ">= 1"),
            ("client_fraction", "0.0", r"in \(0, 1\]"),
            ("client_fraction", "1.5", r"in \(0, 1\]"),
            ("client_fraction", "nan", r"in \(0, 1\]"),
            ("rounds", "0", ">= 1"),
            ("learning_rate", "-0.001", "a finite number >= 0"),
            ("learning_rate", "nan", "a finite number >= 0"),
            ("learning_rate", "inf", "a finite number >= 0"),
            ("batch_size", "0", ">= 1"),
            ("local_epochs", "0", ">= 1"),
            ("num_clients", "0", ">= 1"),
            ("samples_per_client", "-5", ">= 1"),
            ("seed", "-1", ">= 0"),
            ("client_cost", "-1.0", "a finite number >= 0"),
            ("client_cost", "inf", "a finite number >= 0"),
            ("server_cost", "-0.5", "a finite number >= 0"),
            ("server_cost", "inf", "a finite number >= 0"),
            ("imbalance", "-1:0.5", ">= 0"),
            ("imbalance", "4:0.0", r"in \(0, 1\)"),
            ("imbalance", "4:1.0", r"in \(0, 1\)"),
            ("imbalance", "1:2:3", "none or k:r"),
            ("seeds", "-2", ">= 1"),
            ("output", "", "a non-empty path"),
            ("dataset", "cifar10", r"one of \[.*\]"),
            ("distribution", "D0", r"one of \(.*\)"),
            ("strategy", "greedy", r"one of \(.*\)"),
            ("mode", "c", "A or B"),
        ],
    )
    def test_out_of_domain_value_names_key_and_line(self, key, raw, domain):
        text = f"seed = 1\n# comment\n{key} = {raw}\nrounds = 5\n"
        if key in ("seed", "rounds"):
            text = f"# comment\n\n{key} = {raw}\n"
        # The library config that takes the value words the refusal; distribution
        # is DistributionSpec's kind, imbalance its minority count or ratio.
        message = rf"^line 3: bad value for '{key}': .* must be {domain}, got "
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rounds": 0}, {"batch_size": 0}, {"local_epochs": -1}, {"client_cost": -2.0},
            {"client_fraction": 2.0}, {"limit": 0}, {"imbalance": (4, 1.5)}, {"seed": -3},
            {"learning_rate": float("inf")},
        ],
    )
    def test_direct_construction_checks_the_same_domains(self, overrides):
        (key,) = overrides
        with pytest.raises(ConfigError, match=rf"^{key}\b.* must be "):
            RunConfig(**overrides)

    @pytest.mark.parametrize("make, overrides, message", NUMERIC_REFUSALS)
    def test_library_configs_refuse_non_integer_counts(self, make, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(**overrides)

    def test_every_numeric_config_field_has_refusals(self):
        """A count or real added to a config without rows in NUMERIC_REFUSALS,
        and so perhaps without a check, fails here."""
        covered = {
            (getattr(make, "func", make), field)
            for make, overrides, _ in (case.values for case in NUMERIC_REFUSALS)
            for field in overrides
        }
        missing = [
            f"{config.__name__}.{f.name}"
            for config in NUMERIC_CONFIGS
            for f in dataclasses.fields(config)
            if re.search(r"\b(int|float)\b", str(f.type)) and (config, f.name) not in covered
        ]
        assert missing == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("strategy = fedavg_random\nseed = 1\nrounds = 5\nlimit = 3\n",
             "line 4: limit has no effect with strategy fedavg_random"),
            ("mode = A\nstrategy = fedavg_random\n",
             "line 1: mode has no effect with strategy fedavg_random"),
            ("strategy = cat_cost\nclient_fraction = 0.2\n",
             "line 2: client_fraction has no effect with strategy cat_cost"),
            ("client_fraction = 0.2\n",
             "line 1: client_fraction has no effect with strategy cat_performance"),
            ("strategy = cat_cost\nlimit = 4\nmode = A\n",
             "line 3: mode has no effect when limit is set"),
        ],
        ids=["random-limit", "random-mode", "cost-fraction", "performance-fraction",
             "mode-under-limit"],
    )
    def test_key_the_strategy_ignores_names_line_and_key(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text)

    @pytest.mark.parametrize("make", [ExperimentConfig, RunConfig])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"strategy": "fedavg_random", "seed": 1, "rounds": 5, "limit": 3},
             "limit has no effect with strategy fedavg_random"),
            ({"mode": "A", "strategy": "fedavg_random"},
             "mode has no effect with strategy fedavg_random"),
            ({"strategy": "cat_cost", "client_fraction": 0.2},
             "client_fraction has no effect with strategy cat_cost"),
            ({"strategy": "cat_performance", "client_fraction": 0.2},
             "client_fraction has no effect with strategy cat_performance"),
            ({"strategy": "cat_cost", "limit": 4, "mode": "A"},
             "mode has no effect when limit is set"),
        ],
        ids=["random-limit", "random-mode", "cost-fraction", "performance-fraction",
             "mode-under-limit"],
    )
    def test_library_configs_refuse_what_the_file_refuses(self, make, overrides, message):
        # The same combinations as the file test above, in the same words
        # without the line, and the error names the refused field.
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            make(**overrides)
        assert info.value.field == message.split()[0]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("seed = 1\ndistribution = D2\nrounds = 5\n",
             "line 2: dataset mnist: D2 is defined for 47-class datasets, got 10"),
            ("rounds = 5\ndataset = femnist47\n",
             "line 2: dataset femnist47: D1 is defined for 10-class datasets, got 47"),
            ("dataset = kmnist49\ndistribution = D8\nimbalance = 49:0.5\nseed = 1\n",
             r"line 3: dataset kmnist49: minority count must be in \[0, 49\), got 49"),
            ("imbalance = 10:0.5\n",
             r"line 1: dataset mnist: minority count must be in \[0, 10\), got 10"),
        ],
        ids=["written-distribution", "default-distribution", "imbalance",
             "imbalance-default-dataset"],
    )
    def test_setting_the_dataset_cannot_take_names_line_and_dataset(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_config(text)

    @pytest.mark.parametrize(
        "overrides, field, message",
        [
            ({"dataset": "femnist47"}, "distribution",
             "dataset femnist47: D1 is defined for 10-class datasets, got 47"),
            ({"distribution": "D7", "imbalance": (10, 0.5)}, "imbalance",
             r"dataset mnist: minority count must be in \[0, 10\), got 10"),
        ],
        ids=["distribution", "imbalance"],
    )
    def test_run_config_refuses_what_the_dataset_cannot_take(self, overrides, field, message):
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            RunConfig(**overrides)
        assert info.value.field == field

    def test_selection_config_refuses_a_mode_beside_a_limit(self):
        with pytest.raises(ValueError, match="^mode has no effect when limit is set$"):
            SelectionConfig(10, "A", 5)

    @pytest.mark.parametrize(
        "strategy, overrides, message",
        [
            ("fedavg_random", {"limit": 0}, "limit must be >= 1, got 0"),
            ("fedavg_random", {"mode": "C"}, "mode must be A or B, got 'C'"),
            ("cat_cost", {"client_fraction": 2.0},
             r"client_fraction must be in \(0, 1\], got 2.0"),
            ("cat_cost", {"client_fraction": 0.5, "mode": "A", "limit": 0},
             "limit must be >= 1, got 0"),
        ],
    )
    def test_a_value_out_of_domain_is_refused_before_an_unread_one(
        self, strategy, overrides, message
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig(strategy, **overrides)

    def test_keys_the_strategy_reads_are_accepted(self):
        random = parse_config("strategy = fedavg_random\nclient_fraction = 0.2\n")
        assert random.client_fraction == 0.2
        assert parse_config("strategy = cat_cost\nmode = A\nlimit = none\n").mode == "A"
        assert parse_config("strategy = cat_cost\nlimit = 4\n").limit == 4

    def test_values_on_the_domain_edges_are_accepted(self):
        # client_fraction is read by the random baseline only, limit by the
        # category strategies only.
        cfg = parse_config(
            "strategy = fedavg_random\nclient_fraction = 1.0\nlearning_rate = 0.0\nseed = 0\n"
            "client_cost = 0.0\nimbalance = 0:0.5\nrounds = 1\n"
        )
        assert (cfg.client_fraction, cfg.learning_rate, cfg.rounds) == (1.0, 0.0, 1)
        assert cfg.distribution_spec().imbalance is None
        assert parse_config("limit = 1\n").limit == 1


class TestDerivedConfigs:
    def test_distribution_spec_fields(self):
        cfg = RunConfig(
            dataset="femnist47", distribution="D4", num_clients=40, samples_per_client=80, seed=9
        )
        spec = cfg.distribution_spec()
        assert spec.kind == "D4"
        assert spec.num_clients == 40
        assert spec.samples_per_client == 80
        assert spec.seed == 9
        assert spec.imbalance is None

    def test_distribution_spec_imbalance(self):
        cfg = parse_config("imbalance = 4:0.1\n")
        assert cfg.distribution_spec().imbalance == (4, 0.1)
        for key in ("minority_categories", "minority_ratio"):
            with pytest.raises(ConfigError, match=rf"^line 1: unknown key '{key}'$"):
                parse_config(f"{key} = 4\n")

    def test_experiment_config_mapping(self):
        cfg = RunConfig(
            dataset="kmnist49",
            distribution="D3",
            strategy="cat_cost",
            mode="A",
            rounds=12,
            learning_rate=0.01,
            batch_size=64,
            local_epochs=2,
            client_cost=2.0,
            server_cost=5.0,
            seed=3,
        )
        exp = cfg.experiment_config()
        assert exp.strategy == "cat_cost"
        assert exp.mode is Mode.A
        assert exp.limit is None
        assert exp.rounds == 12
        assert exp.client_fraction is None
        assert exp.hidden == ARCHITECTURES["kmnist49"]
        assert exp.train.learning_rate == 0.01
        assert exp.train.batch_size == 64
        assert exp.train.local_epochs == 2
        assert exp.cost.client_cost == 2.0
        assert exp.cost.server_cost == 5.0
        assert exp.seed == 3
        limited = dataclasses.replace(cfg, mode=None, limit=17).experiment_config()
        assert (limited.mode, limited.limit) == (None, 17)

    def test_experiment_config_mapping_random_baseline(self):
        exp = RunConfig(strategy="fedavg_random", client_fraction=0.2).experiment_config()
        assert exp.strategy == "fedavg_random"
        assert exp.client_fraction == 0.2
        assert (exp.mode, exp.limit) == (None, None)

    def test_experiment_config_seed_override(self):
        seeded = dataclasses.replace(RunConfig(seed=3), seed=8)
        assert seeded.experiment_config().seed == seeded.distribution_spec().seed == 8

    def test_architectures_cover_all_datasets(self):
        from catfed.datasets import DATASET_CLASSES

        assert set(ARCHITECTURES) == set(DATASET_CLASSES)


# An out-of-domain value for each numeric key and for imbalance (as its text).
_BAD_VALUES = {
    "rounds": st.integers(max_value=0),
    "batch_size": st.integers(max_value=0),
    "local_epochs": st.integers(max_value=0),
    "num_clients": st.integers(max_value=0),
    "samples_per_client": st.integers(max_value=0),
    "seeds": st.integers(max_value=0),
    "limit": st.integers(max_value=0),
    "seed": st.integers(max_value=-1),
    "learning_rate": st.floats(max_value=-1e-300) | st.sampled_from([float("nan"), float("inf")]),
    "client_cost": st.floats(max_value=-1e-300) | st.sampled_from([float("nan"), float("inf")]),
    "server_cost": st.floats(max_value=-1e-300) | st.sampled_from([float("nan"), float("inf")]),
    "client_fraction": st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)
    | st.just(float("nan")),
    "imbalance": st.builds(
        "{}:{}".format,
        st.integers(max_value=-1), st.floats(0.05, 0.95),
    ) | st.builds(
        "{}:{}".format,
        st.integers(min_value=0),
        st.floats(max_value=0.0) | st.floats(min_value=1.0) | st.just(float("nan")),
    ) | st.sampled_from(["1:2:3", "4", "4:", ":0.5", "four:0.5"]),
}


@given(
    key_and_value=st.sampled_from(sorted(_BAD_VALUES)).flatmap(
        lambda key: st.tuples(st.just(key), _BAD_VALUES[key])
    ),
    before=st.lists(st.sampled_from(["", "# a comment", "   ", "dataset = mnist  # ok"]),
                    max_size=6, unique=True),
)
def test_out_of_domain_value_names_its_line_property(key_and_value, before):
    key, value = key_and_value
    lines = before + [f"{key} = {value}", "output = out.csv"]
    with pytest.raises(ConfigError) as info:
        parse_config("\n".join(lines) + "\n")
    assert str(info.value).startswith(f"line {len(before) + 1}: bad value for '{key}': ")
    assert " must be " in str(info.value)


# Config-like lines: a real or bogus key, a separator, and text that may be
# anything; mixed with raw bytes that need not even be UTF-8.
_CONFIG_LINE = st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from([f.name for f in dataclasses.fields(RunConfig)] + ["bogus", ""]),
    st.sampled_from([" = ", "=", " ", " == "]),
    st.text(max_size=12) | st.integers().map(str) | st.floats().map(repr),
) | st.text(max_size=20)
_CONFIG_BYTES = st.binary(max_size=200) | st.lists(_CONFIG_LINE, max_size=8).map(
    lambda lines: "\n".join(lines).encode("utf-8")
)


@settings(max_examples=300, deadline=None)
@given(data=_CONFIG_BYTES)
def test_arbitrary_config_bytes_load_or_name_the_file_property(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(data)
        try:
            load_config(path)
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}:")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_blocks_parse():
    # Every fenced block of README.md made only of `key = value` lines is a
    # config a reader may copy, so each one must parse as written.
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    configs = [
        block for block in blocks
        if block.strip() and all(re.match(r"\w+ = \S", line) for line in block.splitlines())
    ]
    assert any("imbalance = " in block for block in configs)
    for block in configs:
        parse_config(block)
