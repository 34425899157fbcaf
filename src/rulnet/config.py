"""Experiment configuration: JSON file + command-line overrides.

:class:`ExperimentConfig` is the one config type: the command line, the
training loop and a bundle's header all use it, and its field defaults
are the paper's published setup.  Every field can appear in the config
file and be overridden by a flag of the same name.  Validation happens
before any compute: :meth:`ExperimentConfig.validate` checks every
numeric range and, unless told otherwise, that the data paths exist.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import N_CHANNELS
from .errors import ConfigurationError
from .model import resolve_blocks

SWEEPABLE = ("feature_heads", "sequence_heads", "window", "r_max", "mode")


@dataclass
class ExperimentConfig:
    train_path: str = ""
    test_path: str = ""
    truth_path: str = ""
    k_conditions: int = 1
    window: int = 30
    r_max: float = 125.0
    feature_heads: int = 5
    sequence_heads: int = 4
    mode: str = "F+T"
    lstm_hidden: int = 100
    lstm_layers: int = 3
    mlp_hidden: int = 100
    dropout: float = 0.5
    learning_rate: float = 0.0002
    batch_size: int = 128
    early_stop_patience: int = 50
    max_epochs: int = 500
    validation_fraction: float = 0.1
    clip_test_rul: bool = True
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "runs"

    # -- construction -----------------------------------------------------
    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = set(raw) - set(cls.field_names())
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)

    def override(self, **updates) -> "ExperimentConfig":
        """New config with the given non-None fields replaced."""
        clean = {k: v for k, v in updates.items() if v is not None}
        unknown = set(clean) - set(self.field_names())
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        return dataclasses.replace(self, **clean)

    # -- derived views ------------------------------------------------------
    def effective_heads(self) -> tuple[int, int]:
        """(feature, sequence) head counts in effect; 0 means the block is
        disabled.  :func:`rulnet.model.resolve_blocks` holds the rule."""
        return resolve_blocks(self.mode, self.feature_heads, self.sequence_heads)[1:]

    def validate(self, require_paths: bool = True) -> None:
        """Raise ConfigurationError on the first field out of range; each
        check is written so that NaN fails it.  Layer sizes and dropout
        are checked where the model is built."""
        counts = ("window", "k_conditions", "batch_size", "early_stop_patience", "max_epochs")
        for name in counts:
            if not getattr(self, name) >= 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.r_max < math.inf:
            raise ConfigurationError(f"r_max must be positive and finite, got {self.r_max}")
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigurationError(
                f"learning_rate must be >= 0 and finite, got {self.learning_rate}"
            )
        if not 0 < self.validation_fraction < 1:
            raise ConfigurationError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if not self.seeds:
            raise ConfigurationError("seed list is empty")
        fh, sh = self.effective_heads()
        if fh and self.window % fh != 0:
            raise ConfigurationError(
                f"feature head count {fh} does not divide window length {self.window}"
            )
        if sh and N_CHANNELS % sh != 0:
            raise ConfigurationError(
                f"sequence head count {sh} does not divide channel count {N_CHANNELS}"
            )
        if require_paths:
            for label in ("train_path", "test_path", "truth_path"):
                value = getattr(self, label)
                if not value:
                    raise ConfigurationError(f"{label} is not set")
                if not Path(value).exists():
                    raise ConfigurationError(f"{label} does not exist: {value}")

    # -- conversions --------------------------------------------------------
    def train_config(self, seed: int) -> "ExperimentConfig":
        """This config training with ``seed`` alone."""
        return self.override(seeds=[seed])

    def model_kwargs(self) -> dict:
        blocks = resolve_blocks(self.mode, self.feature_heads, self.sequence_heads)
        return {
            "n_features": N_CHANNELS,
            "window": self.window,
            **blocks.construction_args(),
            "lstm_hidden": self.lstm_hidden,
            "lstm_layers": self.lstm_layers,
            "mlp_hidden": self.mlp_hidden,
            "dropout": self.dropout,
        }

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class SweepSpec:
    """One swept parameter, its values, and repetitions per value."""

    parameter: str
    values: list
    repetitions: int
    base: ExperimentConfig

    def validate(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ConfigurationError(
                f"sweep parameter must be one of {SWEEPABLE}, got {self.parameter!r}"
            )
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        for value in self.values:
            self.config_for(value).validate(require_paths=False)

    def config_for(self, value) -> ExperimentConfig:
        if self.parameter == "mode":
            return self.base.override(mode=str(value))
        if self.parameter == "r_max":
            return self.base.override(r_max=float(value))
        return self.base.override(**{self.parameter: int(value)})

    def seed_for(self, repetition: int) -> int:
        seeds = self.base.seeds
        if repetition < len(seeds):
            return seeds[repetition]
        return seeds[0] + repetition
