"""rulnet: remaining-useful-life estimation for multi-sensor
run-to-failure series, built on self-attention + LSTM regression."""

from .autodiff import Tape, Tensor, exact_arithmetic, gradcheck
from .errors import (
    CapabilityError,
    CheckpointError,
    ClusteringError,
    ConfigurationError,
    ContractError,
    DimensionError,
    IntegrityError,
    NumericInputError,
    ParseError,
    RulnetError,
    TapeError,
    UnitLookupError,
)
from .model import LstmStack, MlpHead, MultiHeadAttention, RulModel

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "exact_arithmetic",
    "gradcheck",
    "RulModel",
    "MultiHeadAttention",
    "LstmStack",
    "MlpHead",
    "RulnetError",
    "DimensionError",
    "ContractError",
    "NumericInputError",
    "TapeError",
    "ConfigurationError",
    "ParseError",
    "IntegrityError",
    "ClusteringError",
    "CheckpointError",
    "CapabilityError",
    "UnitLookupError",
    "__version__",
]
