"""rulnet: remaining-useful-life estimation for multi-sensor
run-to-failure series, built on self-attention + LSTM regression."""

import os as _os
import sys as _sys

# Training is a long chain of small matrix products, where BLAS thread
# fan-out costs more than it gains (measured ~30% slower with 2 threads
# than 1 on the default model).  The cap only takes effect if it is set
# before numpy loads; importing this package is the first thing both the
# `rulnet` command and `python -m rulnet` do, so it is set here, and only
# while numpy is not yet loaded.  Set the variables yourself to override.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in BLAS_THREAD_VARS:
        _os.environ.setdefault(_var, "1")

from .autodiff import Tape, Tensor, exact_arithmetic
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
from .model import RulModel

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "exact_arithmetic",
    "RulModel",
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
