"""Deterministic generator of C-MAPSS-format demo datasets.

Produces train/test/truth files with the same 26-column layout as the
real turbofan data: run-to-failure trajectories whose sensors drift as a
power-law degradation signal on top of condition-dependent baselines plus
noise.  Multi-condition variants switch operating regime every cycle, so
globally z-scored channels look like oscillating noise while per-condition
z-scoring recovers the trend, mirroring the structure that makes
condition-wise normalization matter on the real multi-regime datasets.

These files are for tests, demos, and pipeline validation; they are not a
substitute for the real benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import N_SENSORS, RawTrajectory, write_cmapss
from .errors import ConfigurationError

# Operating regime centers in (altitude kft, mach, throttle) space,
# spread like the six regimes of the multi-condition turbofan sets.
_CONDITION_CENTERS = np.array(
    [
        [0.0, 0.00, 100.0],
        [10.0, 0.25, 100.0],
        [20.0, 0.70, 100.0],
        [25.0, 0.62, 60.0],
        [35.0, 0.84, 100.0],
        [42.0, 0.84, 40.0],
    ]
)
_SETTING_JITTER = np.array([0.006, 0.0004, 0.004])

# Two sensors stay flat forever (constant-channel handling) and two more
# carry no degradation signal, only noise.
_CONSTANT_SENSORS = (4, 17)
_UNINFORMATIVE_SENSORS = (9, 15)


@dataclass
class SyntheticDataset:
    name: str
    train_path: Path
    test_path: Path
    truth_path: Path
    n_conditions: int
    seed: int


def _make_trajectory(
    rng: np.random.Generator,
    unit_id: int,
    life: int,
    centers: np.ndarray,
    base: np.ndarray,
    gain: np.ndarray,
    coef: np.ndarray,
    noise: np.ndarray,
) -> RawTrajectory:
    k = centers.shape[0]
    cond = rng.integers(0, k, size=life) if k > 1 else np.zeros(life, dtype=int)
    settings = centers[cond] + rng.uniform(-1.0, 1.0, size=(life, 3)) * _SETTING_JITTER
    t = np.arange(1, life + 1, dtype=np.float64)
    degradation = (t / life) ** 1.5
    signal = (
        coef[None, :] * degradation[:, None]
        + rng.standard_normal((life, N_SENSORS)) * noise[None, :]
    )
    # Each regime shifts the baseline and rescales the sensor response.
    sensors = base[cond] + gain[cond] * signal
    for s in _CONSTANT_SENSORS:
        sensors[:, s] = base[0, s]
    return RawTrajectory(unit_id=unit_id, channels=np.hstack([settings, sensors]))


def generate_dataset(
    out_dir: str | Path,
    name: str = "SYN1",
    n_train: int = 20,
    n_test: int = 10,
    n_conditions: int = 1,
    seed: int = 0,
    life_range: tuple[int, int] = (120, 220),
) -> SyntheticDataset:
    """Write train_<name>.txt, test_<name>.txt, RUL_<name>.txt to out_dir."""
    if not 1 <= n_conditions <= len(_CONDITION_CENTERS) or min(n_train, n_test) < 1 or seed < 0:
        raise ConfigurationError(
            f"need 1..{len(_CONDITION_CENTERS)} conditions, >= 1 train and test units and"
            f" a seed >= 0, got {n_conditions}, {n_train}, {n_test} and seed {seed}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    centers = _CONDITION_CENTERS[:n_conditions]

    # Sensor population: condition baselines dominate the raw scale and each
    # regime rescales the sensor response, so the regime signature swamps
    # the degradation trend until condition-wise normalization removes it.
    base = rng.uniform(-60.0, 60.0, size=(n_conditions, N_SENSORS))
    gain = rng.uniform(0.4, 2.5, size=(n_conditions, N_SENSORS))
    sign = rng.choice([-1.0, 1.0], size=N_SENSORS)
    coef = sign * rng.uniform(1.2, 2.4, size=N_SENSORS)
    noise = rng.uniform(0.25, 0.5, size=N_SENSORS)
    for s in _UNINFORMATIVE_SENSORS:
        coef[s] = 0.0
    for s in _CONSTANT_SENSORS:
        coef[s] = 0.0
        noise[s] = 0.0

    train = [
        _make_trajectory(
            rng, unit, int(rng.integers(*life_range)), centers, base, gain, coef, noise
        )
        for unit in range(1, n_train + 1)
    ]

    test = []
    truth = []
    for unit in range(1, n_test + 1):
        life = int(rng.integers(*life_range))
        full = _make_trajectory(rng, unit, life, centers, base, gain, coef, noise)
        final_rul = int(rng.integers(5, life // 2))
        observed = life - final_rul
        if unit == n_test and n_test >= 4:
            observed = int(rng.integers(8, 20))  # exercise forward-fill padding
            final_rul = life - observed
        test.append(RawTrajectory(unit_id=unit, channels=full.channels[:observed]))
        truth.append(final_rul)

    train_path = out_dir / f"train_{name}.txt"
    test_path = out_dir / f"test_{name}.txt"
    truth_path = out_dir / f"RUL_{name}.txt"
    write_cmapss(train, train_path)
    write_cmapss(test, test_path)
    truth_path.write_text("".join(f"{v}\n" for v in truth), encoding="utf-8")
    return SyntheticDataset(
        name=name,
        train_path=train_path,
        test_path=test_path,
        truth_path=truth_path,
        n_conditions=n_conditions,
        seed=seed,
    )
