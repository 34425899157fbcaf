"""Deterministic derivation of named sub-seeds from one experiment seed.

All randomness in a run flows from one integer seed; the condition
model's k-means start is fixed, so that model depends on the data alone.
Each consumer (unit split, parameter init, dropout, batch shuffle) draws
from its own named stream, so one component's draws never perturb another's.
"""

import zlib

import numpy as np


def sub_seed(seed: int, name: str) -> np.random.SeedSequence:
    """Derive a child SeedSequence for a named random stream."""
    return np.random.SeedSequence(entropy=[int(seed), zlib.crc32(name.encode("utf-8"))])


def generator(seed: int, name: str) -> np.random.Generator:
    """PCG64 generator for the named stream of the given experiment seed."""
    return np.random.Generator(np.random.PCG64(sub_seed(seed, name)))
