"""Experiment configuration: JSON file + command-line overrides.

:class:`ExperimentConfig` is the one config type: the command line, the
training loop and a bundle's header all use it, and its field defaults
are the paper's published setup.  Every field can appear in the config
file and be overridden by a flag of the same name.  Every value is
type-checked against its field's annotation when a config is built;
:meth:`ExperimentConfig.parse_field` turns a flag's text into a value,
and :meth:`ExperimentConfig.validate` checks every range, and unless
told otherwise that the data paths exist, before any compute.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .data import N_CHANNELS
from .errors import ConfigurationError
from .model import MODEL_FIELDS, parameter_shapes, resolve_blocks

SWEEPABLE = ("feature_heads", "sequence_heads", "window", "r_max", "mode")

# Each annotation a field may have: the words its errors use, the Python
# types its values may have, and the parser of its command-line text.  An
# int is accepted for a float field; a bool only for a bool field.
KINDS = {
    "int": ("an integer", int, int),
    "float": ("a number", (int, float), float),
    "bool": ("a boolean", bool, lambda text: BOOL_WORDS[text.strip().lower()]),
    "str": ("a string", str, str),
    "list[int]": ("a list of integers", list, lambda text: [int(v) for v in text.split(",")]),
}
BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _is_kind(kind: str, value) -> bool:
    if kind == "list[int]":
        return isinstance(value, list) and all(_is_kind("int", v) for v in value)
    return isinstance(value, KINDS[kind][1]) and isinstance(value, bool) == (kind == "bool")


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

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _is_kind(f.type, value):
                raise ConfigurationError(f"{f.name} must be {KINDS[f.type][0]}, got {value!r}")

    # -- construction -----------------------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """A config from a dict of field values; fields it leaves out take
        their defaults."""
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigurationError(f"unknown config keys {unknown}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from None
        except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
            raise ConfigurationError(f"config is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must hold a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def parse_field(cls, name: str, text: str):
        """The value of field ``name`` written as command-line text: a
        number for a number field, one of :data:`BOOL_WORDS` for a bool,
        comma-separated integers for ``seeds``, and a string as it is."""
        words, _, parse = KINDS[{f.name: f.type for f in dataclasses.fields(cls)}[name]]
        try:
            return parse(text)
        except (ValueError, KeyError):
            raise ConfigurationError(f"{name} must be {words}, got {text!r}") from None

    def override(self, **updates) -> "ExperimentConfig":
        """New config with the given non-None fields replaced."""
        clean = {k: v for k, v in updates.items() if v is not None}
        return self.from_dict({**self.to_dict(), **clean})

    # -- derived views ------------------------------------------------------
    def effective_heads(self) -> tuple[int, int]:
        """(feature, sequence) head counts in effect; 0 means the block is
        disabled.  :func:`rulnet.model.resolve_blocks` holds the rule."""
        return resolve_blocks(self.mode, self.feature_heads, self.sequence_heads)[1:]

    def validate(self, require_paths: bool = True) -> None:
        """Raise ConfigurationError on the first field out of range; each
        check is written so that NaN fails it.  Window, batch and layer
        sizes, head counts, dropout and the model's size at ``batch_size``
        are checked by :func:`rulnet.model.parameter_shapes`, which allocates nothing."""
        counts = ("k_conditions", "early_stop_patience", "max_epochs")
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
        if min(self.seeds) < 0:
            raise ConfigurationError(f"seeds must be >= 0, got {self.seeds}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigurationError(f"seeds must be distinct, got {self.seeds}")
        parameter_shapes(**self.model_kwargs(), batch_size=self.batch_size)
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
        return {"n_features": N_CHANNELS, **{name: getattr(self, name) for name in MODEL_FIELDS}}

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

