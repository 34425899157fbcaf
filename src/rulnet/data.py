"""C-MAPSS / PHM08-format ingestion, condition-wise normalization, and
time-window extraction.

Input files are whitespace-separated numeric text, 26 columns per row:
unit id, cycle, 3 operational settings, 21 sensor readings.  Truth files
carry one non-negative integer per line, ordered like the test units.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ClusteringError, ContractError, IntegrityError, ParseError

N_SETTINGS = 3
N_SENSORS = 21
N_CHANNELS = N_SETTINGS + N_SENSORS
N_COLUMNS = 2 + N_CHANNELS

CONSTANT_SIGMA = 1e-8
KMEANS_MAX_ITER = 300


@dataclass
class RawTrajectory:
    """One engine's run: cycles 1..L, one row per cycle holding the
    settings columns then the sensor columns."""

    unit_id: int
    channels: np.ndarray  # (L, 24) float64

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.float64)

    def __len__(self) -> int:
        return self.channels.shape[0]

    @property
    def settings(self) -> np.ndarray:
        """(L, 3) view of the settings columns."""
        return self.channels[:, :N_SETTINGS]

    @property
    def sensors(self) -> np.ndarray:
        """(L, 21) view of the sensor columns."""
        return self.channels[:, N_SETTINGS:]


@dataclass
class WindowedSample:
    """One model input: an F x T channel window and its RUL label.  From
    :func:`window_split` the matrix is a read-only view that shares its
    trajectory's buffer; from :func:`load_windows` it is its own array.
    Kept for ``perfbench/layers.py``; commands use :func:`window_arrays`."""

    matrix: np.ndarray  # (F, T) float32
    label: float
    unit_id: int
    end_cycle: int


class Windows(NamedTuple):
    """Training windows as arrays: window ``i`` is ``x[rows[i]]``, an
    (F, T) float32 matrix, with label ``y[i]`` (float32 capped RUL) and
    unit id ``units[i]``.  ``y``, ``units`` and ``rows`` are (N,), the
    last two int64.  From :func:`window_arrays`, ``x`` is a read-only
    sliding view over the padded trajectories, so no window is copied;
    from :func:`windows_to_arrays` it is one (N, F, T) array and ``rows``
    is ``arange(N)``."""

    x: np.ndarray
    y: np.ndarray
    units: np.ndarray
    rows: np.ndarray


def parse_cmapss(path: str | Path) -> list[RawTrajectory]:
    """Parse a C-MAPSS-format file into per-unit trajectories.

    Every reading must be a finite number; ``nan``, ``inf`` and comment
    lines are ParseErrors naming the line.  Units appear in
    first-occurrence order.  Each unit's cycles must run 1, 2, 3, ...
    with no gaps; a gap, or a file with no rows, is an IntegrityError.
    """
    try:
        # Opened here so that a file that cannot be opened is the OS's error,
        # as for parse_rul_truth, and a stream is a TypeError.  loadtxt gets
        # the path: it reads a path in chunks but a handle line by line, which
        # parses ~7% slower.  Lines are read into memory only to name a bad one.
        with open(path, "rb"), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=np.float64, ndmin=2, comments=None, encoding="utf-8")
    except ValueError as exc:  # includes UnicodeDecodeError
        raise _line_error(path, str(exc)) from None
    if table.size == 0:
        raise IntegrityError(f"{path}: no units")
    units = table[:, 0]
    if (
        table.shape[1] != N_COLUMNS
        or not np.isfinite(table).all()
        or not np.all((units >= 1) & (units == np.trunc(units)))
    ):
        raise _line_error(path, "malformed rows")

    _, first, inverse = np.unique(units, return_index=True, return_inverse=True)
    # Row indices grouped by unit, each group in file order.  Each unit
    # gets its own copy of its rows, so no trajectory pins the whole table.
    rows = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    trajectories = []
    for k in np.argsort(first):
        block = table[rows[k]]
        unit = int(units[first[k]])
        expected = np.arange(1, len(block) + 1, dtype=np.float64)
        if not np.array_equal(block[:, 1], expected):
            raise IntegrityError(f"{path}: unit {unit}: cycles must increase by 1 starting at 1")
        trajectories.append(RawTrajectory(unit_id=unit, channels=block[:, 2:]))
    return trajectories


def _utf8_lines(path: str | Path) -> list[str]:
    """The lines of a text file; bytes that are not UTF-8 are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=path) from None


def _line_error(path: str | Path, fallback: str) -> ParseError:
    """The ParseError for the first line of the file at ``path`` that
    breaks a row rule, found by scanning the file the bulk parse rejected.
    When every line passes on its own, the error carries ``fallback``."""
    for line_no, line in enumerate(_utf8_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != N_COLUMNS:
            return ParseError(f"expected {N_COLUMNS} columns, found {len(parts)}", line_no, path)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            return ParseError(f"non-numeric field: {exc}", line_no, path)
        for col, (text, value) in enumerate(zip(parts, values), start=1):
            if not math.isfinite(value):
                return ParseError(f"non-finite reading {text!r} in column {col}", line_no, path)
        if values[0] < 1 or values[0] != int(values[0]):
            return ParseError(f"unit id must be a positive integer, got {parts[0]}", line_no, path)
    return ParseError(fallback, path=path)


def write_cmapss(trajectories: Sequence[RawTrajectory], path: str | Path) -> None:
    """Serialize trajectories back to the 26-column text format."""
    template = "%d %d" + " %.17g" * N_CHANNELS + "\n"
    with open(path, "w", encoding="utf-8") as out:
        for traj in trajectories:
            for cycle, row in enumerate(traj.channels, start=1):
                out.write(template % (traj.unit_id, cycle, *row.tolist()))


def parse_rul_truth(path: str | Path) -> list[int]:
    """Parse a truth file: one non-negative integer RUL per line."""
    values = []
    for line_no, line in enumerate(_utf8_lines(path), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            value = int(float(text))
            if float(text) != value:
                raise ValueError
        except (ValueError, OverflowError):  # int() of ±inf overflows
            raise ParseError(f"expected an integer RUL, got {text!r}", line_no, path) from None
        if value < 0:
            raise ParseError(f"RUL must be non-negative, got {value}", line_no, path)
        values.append(value)
    return values


# ---------------------------------------------------------------------
# condition clustering and normalization
# ---------------------------------------------------------------------

@dataclass
class ConditionModel:
    """K-means centroids over the 3 settings plus per-(channel, condition)
    normalization statistics.  With k=1 this degenerates to global stats."""

    centroids: np.ndarray  # (k, 3)
    means: np.ndarray  # (k, 24)
    stds: np.ndarray  # (k, 24)

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)

    @property
    def constant_mask(self) -> np.ndarray:
        """(k, 24) bool: the channels each condition normalizes to 0."""
        return self.stds < CONSTANT_SIGMA

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def assign(self, settings: np.ndarray) -> np.ndarray:
        """Nearest-centroid index per row; ties go to the lowest index."""
        return _nearest_centroid(np.atleast_2d(np.asarray(settings, dtype=np.float64)), self.centroids)

    def to_dict(self) -> dict:
        """The model as nested lists: the ``condition_model`` object of a
        bundle header and the content of ``condition_model.json``."""
        return {"centroids": self.centroids.tolist(), "means": self.means.tolist(),
                "stds": self.stds.tolist()}

    @classmethod
    def from_dict(cls, data) -> "ConditionModel":
        """Rebuild a model from :meth:`to_dict` output.  A missing or extra
        key, k < 1, a row of the wrong length, a value that is not a finite
        number, or a negative std is a ValueError."""
        widths = {"centroids": N_SETTINGS, "means": N_CHANNELS, "stds": N_CHANNELS}
        if not isinstance(data, dict) or set(data) != set(widths):
            raise ValueError(f"expected exactly the keys {sorted(widths)}")
        k = len(data["centroids"]) if isinstance(data["centroids"], list) else 0
        for key, width in widths.items():
            rows = data[key]
            if k < 1 or not (isinstance(rows, list) and len(rows) == k and all(
                isinstance(row, list) and len(row) == width for row in rows
            )):
                raise ValueError(f"{key} must be k >= 1 rows of {width} values, k = {k}")
            # bool is not a number here; an int past the float range is not finite.
            if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
                       for row in rows for v in row):
                raise ValueError(f"{key} holds a value that is not a finite number")
        if any(v < 0 for row in data["stds"] for v in row):
            raise ValueError("stds holds a negative value")
        return cls(**data)

    @classmethod
    def load_text(cls, path: str | Path) -> "ConditionModel":
        """Read the ``condition_model.json`` of ``rulnet preprocess``.  Bytes
        that are not UTF-8 JSON ending in a newline, or that :meth:`from_dict`
        rejects, are a ParseError naming the path."""
        try:
            text = Path(path).read_text(encoding="utf-8")
            if not text.endswith("\n"):
                raise ValueError("truncated: the last line has no newline")
            return cls.from_dict(json.loads(text))
        except ValueError as exc:  # bad JSON or undecodable bytes included
            raise ParseError(f"malformed condition model: {exc}", path=path) from None


def _squared_distances(points: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Each row's squared Euclidean distance to one centroid, its squared
    differences added column by column, left to right.  That is the order
    in which ``((points - centroid) ** 2).sum(axis=1)`` adds three columns,
    so the bits are the same; numpy runs that reduction one row at a time,
    and these whole-column passes ~5x faster.  A width mismatch is a
    ValueError, as it is for the broadcast."""
    if points.shape[1:] != centroid.shape:
        raise ValueError(f"points of shape {points.shape} against a centroid of shape {centroid.shape}")
    d2 = (points[:, 0] - centroid[0]) ** 2
    for j in range(1, len(centroid)):
        d2 += (points[:, j] - centroid[j]) ** 2
    return d2


def _nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid; ties go to the lowest index.
    The (n, k) distances are taken one centroid at a time, so no (n, k, 3)
    difference array is built."""
    d2 = np.empty((len(points), len(centroids)))
    for j, centroid in enumerate(centroids):
        d2[:, j] = _squared_distances(points, centroid)
    return d2.argmin(axis=1)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ seeding: spread the k starting points by choosing
    each next one with probability proportional to its squared distance
    from the already-chosen set.  Duplicates have zero probability, so the
    k starts are distinct data points."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    with np.errstate(over="ignore"):  # an overflowing total is checked below
        d2 = _squared_distances(points, centroids[0])
        for j in range(1, k):
            total = d2.sum()
            if total <= 0:
                raise ClusteringError(f"fewer than {k} distinct setting points")
            if not np.isfinite(total):
                raise ClusteringError("the squared distances between setting points overflow")
            centroids[j] = points[rng.choice(n, p=d2 / total)]
            d2 = np.minimum(d2, _squared_distances(points, centroids[j]))
    return centroids


def _lloyd(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Lloyd iteration from a seeded k-means++ start."""
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(points, k, rng)
    assignment = None
    # An overflowing centroid is a ClusteringError in cluster_conditions.
    with np.errstate(over="ignore"):
        for _ in range(KMEANS_MAX_ITER):
            new_assignment = _nearest_centroid(points, centroids)
            if assignment is not None and np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
            for j in range(k):
                members = points[assignment == j]
                if len(members):  # empty clusters keep their previous centroid
                    centroids[j] = members.mean(axis=0)
    return centroids


def cluster_conditions(
    trajectories: Iterable[RawTrajectory], k: int, seed: int = 0
) -> ConditionModel:
    """Fit the condition model on training trajectories.

    Clusters every row's settings with k-means, then computes each
    channel's mean/std within each condition.  Channels whose std falls
    below 1e-8 are flagged constant and later normalize to 0.  Finite
    readings too large to sum, whose mean or std overflows, are a
    ClusteringError naming the condition and channel.
    """
    if k < 1:
        raise ContractError(f"cluster count must be >= 1, got {k}")
    trajectories = list(trajectories)
    if not sum(len(t) for t in trajectories):
        raise ContractError("no setting rows to fit on")
    channels = np.vstack([t.channels for t in trajectories])
    settings = channels[:, :N_SETTINGS]
    centroids = _lloyd(settings, k, seed)

    model = ConditionModel(
        centroids=centroids,
        means=np.zeros((k, N_CHANNELS)),
        stds=np.zeros((k, N_CHANNELS)),
    )
    assignment = model.assign(settings)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for j in range(k):
            members = channels[assignment == j]
            if len(members) == 0:
                continue
            model.means[j] = members.mean(axis=0)
            model.stds[j] = members.std(axis=0)
    overflowed = np.argwhere(~(np.isfinite(model.means) & np.isfinite(model.stds)))
    if len(overflowed):
        j, i = overflowed[0]
        raise ClusteringError(f"condition {j}, channel {i}: the readings' mean or std overflows")
    if not np.isfinite(centroids).all():
        raise ClusteringError("a condition centroid overflows")
    return model


def normalize(trajectory: RawTrajectory, cm: ConditionModel) -> RawTrajectory:
    """Z-score every channel against its row's condition statistics."""
    assignment = cm.assign(trajectory.settings)
    mu = cm.means[assignment]
    sigma = cm.stds[assignment].copy()
    constant = cm.constant_mask[assignment]
    sigma[constant] = 1.0
    z = (trajectory.channels - mu) / sigma
    z[constant] = 0.0
    return RawTrajectory(unit_id=trajectory.unit_id, channels=z)


# ---------------------------------------------------------------------
# labels and windows
# ---------------------------------------------------------------------

def piecewise_rul(t_total: int, t, r_max: float):
    """Capped linear RUL: min(r_max, t_total - t), a float for one cycle
    ``t`` and a float64 array for an array of cycles."""
    if not r_max > 0:  # NaN included
        raise ContractError(f"r_max must be positive, got {r_max}")
    t = np.asarray(t)
    outside = (t < 1) | (t > t_total)
    if outside.any():
        raise ContractError(f"cycle {t[outside].flat[0]} outside 1..{t_total}")
    rul = np.minimum(r_max, t_total - t, dtype=np.float64)
    return float(rul) if rul.ndim == 0 else rul


def window_ends(total: int, window: int) -> np.ndarray:
    """The 1-based end cycles of the stride-1 windows over ``total``
    cycles: window..total, or only ``total`` when the trajectory is
    shorter than the window.  A window or cycle count below 1 is a
    ContractError."""
    if min(window, total) < 1:
        raise ContractError(f"window length and cycle count must be >= 1, got {window} and {total}")
    return np.arange(min(window, total), total + 1)


def _padded(channels: np.ndarray, window: int) -> np.ndarray:
    """One trajectory's L cycles as float32 rows after ``window - 1``
    leading copies of cycle 1: the rows :func:`_window_view` slides over."""
    rows = channels.astype(np.float32)
    return np.concatenate([np.repeat(rows[:1], window - 1, axis=0), rows])


def _window_view(channels: np.ndarray, window: int) -> np.ndarray:
    """The read-only (L, F, T) float32 sliding view over one trajectory's
    L cycles: entry ``end - 1`` is the window ending at 1-based cycle
    ``end``, transposed from row-per-cycle storage.  It holds rows
    max(end - window + j, 0) for j < window, so cycles before the first
    repeat cycle 1: the view slides over :func:`_padded` rows."""
    return sliding_window_view(_padded(channels, window), window, axis=0)


def integer_cycles(cycles: Sequence[int]) -> np.ndarray:
    """``cycles`` as an integer array, converted only when every element
    is an integer: one that is not (a float, a bool, a string) is a
    ContractError, checked before numpy would read ``[3, True]`` as int64."""
    if any(isinstance(c, (bool, np.bool_)) for c in cycles):
        raise ContractError("cycle ends must be integers, got bool")
    cycles = np.asarray(cycles) if len(cycles) else np.zeros(0, np.int64)  # np.asarray([]) is float64
    if cycles.dtype.kind not in "iu":
        raise ContractError(f"cycle ends must be integers, got {cycles.dtype}")
    return cycles


def windows_ending_at(channels: np.ndarray, ends: Sequence[int], window: int) -> np.ndarray:
    """(N, F, T) float32 windows of the cycles ending at each of ``ends``
    (1-based, in any order, an end may recur), by the rule of :func:`_window_view`,
    as one new writable array.  No ends give a (0, F, T) array; an end that
    is not an integer (a float or a bool) or is outside 1..L is a
    ContractError."""
    ends = integer_cycles(ends)
    outside = ends[(ends < 1) | (ends > len(channels))]
    if outside.size:
        raise ContractError(f"cycle {outside[0]} outside 1..{len(channels)}")
    return np.take(_window_view(channels, window), ends - 1, axis=0)


def window_arrays(trajectories: Iterable[RawTrajectory], window: int, r_max: float) -> Windows:
    """Every stride-1 window of every trajectory, in trajectory order, as
    a :class:`Windows` whose ``x`` is the read-only sliding view over
    one float32 buffer of the trajectories' :func:`_padded` rows, end to
    end; ``rows`` picks each window's entry, and the entries that straddle
    two trajectories are never picked.  No window is copied.  Each window
    is labeled with the capped linear RUL of its end cycle; a trajectory
    shorter than the window gives one window padded by repeating its
    first cycle (see :func:`_window_view`)."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ContractError("no trajectories to window")
    ends = [window_ends(len(t), window) for t in trajectories]
    padded = [_padded(t.channels, window) for t in trajectories]
    # Trajectory k's window ending at cycle e is view entry offsets[k] + e - 1.
    offsets = np.cumsum([0] + [len(p) for p in padded[:-1]], dtype=np.int64)
    x = sliding_window_view(np.concatenate(padded), window, axis=0)
    rows = np.concatenate([offset + e - 1 for offset, e in zip(offsets, ends)])
    y = np.concatenate([piecewise_rul(len(t), e, r_max) for t, e in zip(trajectories, ends)])
    units = np.repeat(np.array([t.unit_id for t in trajectories], dtype=np.int64), [len(e) for e in ends])
    return Windows(x, y.astype(np.float32), units, rows)


def window_split(trajectory: RawTrajectory, window: int, r_max: float) -> list[WindowedSample]:
    """One trajectory's windows and labels, as one sample per window:
    sample ``i``'s matrix equals ``x[rows[i]]`` of :func:`window_arrays`
    on this trajectory alone, and its label keeps its float64 value.
    Each matrix is a read-only view into one float32 buffer that all of
    the trajectory's windows share, so no window is copied; copy a
    matrix before editing it.  Kept for ``perfbench/layers.py``."""
    ends = window_ends(len(trajectory), window)
    # The ends are a contiguous range, so their windows are one slice.
    matrices = _window_view(trajectory.channels, window)[ends[0] - 1 :]
    labels = piecewise_rul(len(trajectory), ends, r_max).tolist()
    return [
        WindowedSample(matrix=matrix, label=label, unit_id=trajectory.unit_id, end_cycle=end)
        for matrix, label, end in zip(matrices, labels, ends.tolist())
    ]


def expected_sample_count(t_total: int, window: int) -> int:
    """Training sample count for one trajectory of length t_total."""
    return len(window_ends(t_total, window))


def windows_to_arrays(samples: Sequence[WindowedSample]) -> Windows:
    """Stack samples into one :class:`Windows`, ``rows`` = ``arange(N)``; no
    samples give zero-length arrays.  Kept for ``perfbench/layers.py``."""
    return Windows(
        np.array([s.matrix for s in samples], dtype=np.float32),
        np.array([s.label for s in samples], dtype=np.float32),
        np.array([s.unit_id for s in samples], dtype=np.int64),
        np.arange(len(samples), dtype=np.int64),
    )


# ---------------------------------------------------------------------
# windowed dataset text serialization
# ---------------------------------------------------------------------

def write_windows(trajectories: Iterable[RawTrajectory], window: int, r_max: float,
                  path: str | Path) -> None:
    """Write the windows of :func:`window_arrays`, in order, as a windows
    v1 file, each labelled with the float64 capped RUL of its end cycle.
    Every window and label is checked before the file is opened.  Each
    trajectory is one run of :func:`_write_runs`: its :func:`_padded` rows
    from the first window's start."""
    trajectories = list(trajectories)
    if not trajectories:
        raise ContractError("no trajectories to window")
    ends = [window_ends(len(t), window) for t in trajectories]
    labels = [piecewise_rul(len(t), e, r_max) for t, e in zip(trajectories, ends)]
    runs = ((_padded(t.channels, window)[e[0] - 1 :].T,
             list(zip(repeat(t.unit_id), e.tolist(), y.tolist())))
            for t, e, y in zip(trajectories, ends, labels))
    _write_runs(path, (trajectories[0].channels.shape[1], window), sum(map(len, ends)), runs)


def save_windows(samples: Sequence[WindowedSample], path: str | Path) -> None:
    """Write samples as a windows v1 file, one per line in the given
    order.  Each maximal run of samples in which a window's first T-1
    columns are bit-identical to the previous window's last T-1 (as raw
    bytes, so 0.0 and -0.0 never share text) is one run of
    :func:`_write_runs`.  Kept for ``perfbench/layers.py``."""
    if not samples:
        raise ContractError("no samples to save")
    runs = ((np.concatenate([run[0].matrix, *(s.matrix[:, -1:] for s in run[1:])], axis=1),
             [(s.unit_id, s.end_cycle, s.label) for s in run])
            for run in _runs(samples))
    _write_runs(path, samples[0].matrix.shape, len(samples), runs)


def _write_runs(path: str | Path, shape: tuple[int, int], count: int,
                runs: Iterable[tuple[np.ndarray, list[tuple[int, int, float]]]]) -> None:
    """Write a windows v1 file: the header for ``count`` windows of
    ``shape`` (F, T), then one line ``unit end_cycle label`` and F*T
    row-major values per window.  ``runs`` pairs an (F, width) cell array
    with the (unit, end_cycle, label) of each of its windows, window k
    being columns k .. k+T-1.  A run's cells and labels are formatted
    once, into one text, and each line is one slice of it for the head
    and one per feature row, so the bytes are those of formatting every
    cell of every window.  A run's lines are one write."""
    with open(path, "wb") as out:
        # Each line's newline goes before it, in its head's slice; the
        # file's last newline is written at the end.
        out.write(b"windows v1\nfeatures %d window %d count %d" % (*shape, count))
        for cells, heads in runs:
            width = cells.shape[1]
            window = width - len(heads) + 1
            cell_text = (" %.9g" * cells.size) % tuple(cells.ravel().tolist())
            text = (cell_text + ("\n%d %d %.9g" * len(heads)) % tuple(chain.from_iterable(heads))
                    ).encode("ascii")
            codes = np.frombuffer(text, dtype=np.uint8)
            # "%.9g" prints no space or newline, so cell i (row-major) with the
            # space before it is text[edges[i] : edges[i + 1]], and head k with
            # the newline before it is text[lines[k] : lines[k + 1]].
            edges = np.append(np.flatnonzero(codes[: len(cell_text)] == ord(" ")), len(cell_text))
            lines = np.append(np.flatnonzero(codes == ord("\n")), len(text))
            # Window k's row r is cells first[k, r] .. first[k, r] + window - 1.
            first = np.arange(len(heads))[:, None] + np.arange(0, cells.size, width)
            lo = np.hstack([lines[:-1, None], edges[first]]).ravel().tolist()
            hi = np.hstack([lines[1:, None], edges[first + window]]).ravel().tolist()
            out.write(b"".join([text[a:b] for a, b in zip(lo, hi)]))
        out.write(b"\n")


def _runs(samples: Sequence[WindowedSample]) -> Iterable[list[WindowedSample]]:
    """The samples in order, split into maximal runs in which each
    window's matrix has the shape and dtype of the one before and its
    first T-1 columns are bit-identical to that one's last T-1."""
    run = [samples[0]]
    for prev, s in zip(samples, samples[1:]):
        m, p = s.matrix, prev.matrix
        if (m.shape, m.dtype) == (p.shape, p.dtype) and m[:, :-1].tobytes() == p[:, 1:].tobytes():
            run.append(s)
        else:
            yield run
            run = [s]
    yield run


def load_windows(path: str | Path) -> list[WindowedSample]:
    """Read a windows v1 file, which no command reads; kept for
    ``perfbench/layers.py``.  A malformed or truncated file, including a
    last line cut before its newline, is a ParseError naming the path; a
    sample count that disagrees with the header is an IntegrityError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != "windows v1":
                raise ParseError("not a windows v1 file", path=path)
            meta = fh.readline()
            tag_f, f, tag_t, t, tag_n, count = meta.split()
            f, t, count = int(f), int(t), int(count)
            if (
                (tag_f, tag_t, tag_n) != ("features", "window", "count")
                or min(f, t, count) < 1
                or not meta.endswith("\n")
            ):
                raise ParseError(f"bad size line {meta!r}", 2, path)
            samples = []
            for line_no, line in enumerate(fh, start=3):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != 3 + f * t or not line.endswith("\n"):
                    raise ParseError(
                        f"expected a complete line of {3 + f * t} fields", line_no, path
                    )
                samples.append(
                    WindowedSample(
                        matrix=np.array(parts[3:], dtype=np.float32).reshape(f, t),
                        label=float(parts[2]),
                        unit_id=int(parts[0]),
                        end_cycle=int(parts[1]),
                    )
                )
    except ValueError as exc:  # a bad number or size line, or undecodable bytes
        raise ParseError(f"malformed windows file: {exc}", path=path) from None
    if len(samples) != count:
        raise IntegrityError(f"{path}: header says {count} samples, found {len(samples)}")
    return samples


def pair_test_truth(
    test_trajectories: Sequence[RawTrajectory], truth: Sequence[int]
) -> list[tuple[RawTrajectory, int]]:
    """Zip test units with their truth RULs; counts must match."""
    if len(test_trajectories) != len(truth):
        raise IntegrityError(
            f"{len(test_trajectories)} test units but {len(truth)} truth values"
        )
    return list(zip(test_trajectories, truth))
