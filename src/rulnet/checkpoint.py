"""Versioned binary model bundles.

Layout (all integers little-endian):

    bytes 0..7    magic  b"RULBNDL\\x00"
    bytes 8..11   format version (uint32, currently 2; 1 is still read)
    bytes 12..19  header length H (uint64)
    bytes 20..    H bytes of UTF-8 JSON (sorted keys): model hyperparams,
                  experiment config snapshot, condition model (centroids,
                  means, stds as lists), and a tensor table of
                  {name, shape, dtype, offset, nbytes}
    then          the raw little-endian tensor buffers, concatenated in
                  table order

Loading verifies magic, version, the header schema, that the buffers
tile the rest of the file exactly, and that every tensor value is
finite; a truncated, extended or corrupt file raises CheckpointError
without producing a partial model.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .data import ConditionModel
from .errors import CheckpointError, ConfigurationError
from .model import RulModel, parameter_shapes, resolve_blocks

MAGIC = b"RULBNDL\x00"
FORMAT_VERSION = 2
HEADER_SCHEMA = {"hyperparams": dict, "config": dict, "condition_model": dict, "tensors": list}


@dataclass
class Bundle:
    """A trained model plus everything needed to run it on raw files."""

    model: RulModel
    condition_model: ConditionModel
    config: ExperimentConfig

    @property
    def window(self) -> int:
        return self.model.window

    def require_window(self, window: int) -> None:
        if window != self.model.window:
            raise ConfigurationError(
                f"bundle was trained with window {self.model.window}, got {window}"
            )


def save_bundle(path: str | Path, model: RulModel, cm: ConditionModel, config: dict) -> None:
    """Write a bundle whose header records ``config``, a dict of
    :class:`ExperimentConfig` fields (``ExperimentConfig.to_dict()``)."""
    buffers = []  # each tensor as a contiguous little-endian array, converted once
    table = []
    offset = 0
    for name, arr in model.state_arrays():
        little = np.ascontiguousarray(arr.astype(arr.dtype.newbyteorder("<"), copy=False))
        buffers.append(little)
        table.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": little.dtype.str,
                "offset": offset,
                "nbytes": little.nbytes,
            }
        )
        offset += little.nbytes
    header = {
        "hyperparams": model.hyperparams(),
        "config": config,
        "condition_model": cm.to_dict(),
        "tensors": table,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<I", FORMAT_VERSION))
        out.write(struct.pack("<Q", len(blob)))
        out.write(blob)
        for little in buffers:
            out.write(little.tobytes())


def load_bundle(path: str | Path) -> Bundle:
    """Read a bundle written by :func:`save_bundle`.

    Anything that is not such a bundle is a CheckpointError naming the
    path: a bad magic, version or header schema; a tensor entry whose
    dtype is not a float, whose shape is not a list of non-negative
    integers or is one numpy cannot represent, whose nbytes is not its
    shape's size in bytes, or whose offset leaves a gap or overlap; a
    buffer past the end of the file; a tensor holding a NaN or an
    infinity (the first such in table order is named); bytes after the
    last buffer; a config key that is not an :class:`ExperimentConfig`
    field, or a config value of the wrong type for its field;
    hyperparameters that :func:`rulnet.model.parameter_shapes` rejects,
    or a tensor table (a version-1 one once joined) without exactly that
    plan's names and shapes, both before the model is built; and a bad
    condition model.
    Fields the header leaves out take their defaults.  Config values are
    not range-checked here, so a bundle saved with a partial config loads.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read bundle: {exc}") from None
    if len(raw) < 20 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a rulnet bundle (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version not in (1, FORMAT_VERSION):
        raise CheckpointError(f"{path}: unsupported bundle version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    body_start = 20 + header_len
    if len(raw) < body_start:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[20:body_start].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer past Python's digit limit
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key, kind in HEADER_SCHEMA.items():
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path}: header has no {key!r} {kind.__name__}")

    try:
        config = ExperimentConfig.from_dict(header["config"])
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    arrays = _read_tensors(path, header["tensors"], raw, body_start)
    hp = header["hyperparams"]
    try:  # TypeError: a missing or unknown name, "batch_size" too; np.dtype raises the last three
        plan = dict(parameter_shapes(**hp, batch_size=1))
    except (ConfigurationError, TypeError, ValueError, SyntaxError) as exc:
        raise CheckpointError(f"{path}: cannot rebuild the model: {exc!r}") from None
    if version == 1:
        blocks = resolve_blocks(hp["mode"], hp["feature_heads"], hp["sequence_heads"])
        arrays = _join_v1_heads(path, arrays, plan, blocks)
    table = {name: arr.shape for name, arr in arrays.items()}
    if table != plan:
        unknown = sorted(set(table) - set(plan))
        wrong = {name: shape for name, shape in plan.items() if table.get(name) != shape}
        raise CheckpointError(f"{path}: unknown parameters {unknown}; missing or misshapen {wrong}")
    model = RulModel(**hp)
    model.load_state_arrays(arrays)
    try:
        cm = ConditionModel.from_dict(header["condition_model"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad condition model: {exc}") from None
    return Bundle(model=model, condition_model=cm, config=config)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_tensors(path, table: list, raw: bytes, body_start: int) -> dict[str, np.ndarray]:
    """The tensor buffers, which must tile the rest of the file in table order."""
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for entry in table:
        # np.dtype raises TypeError, ValueError or SyntaxError on a bad spec.
        try:
            name, shape, nbytes = entry["name"], entry["shape"], entry["nbytes"]
            dtype = np.dtype(entry["dtype"])
            entry_offset = entry["offset"]
        except (KeyError, TypeError, ValueError, SyntaxError) as exc:
            raise CheckpointError(f"{path}: bad tensor entry: {exc!r}") from None
        if not (isinstance(name, str) and isinstance(shape, list) and all(map(_is_count, shape))):
            raise CheckpointError(f"{path}: bad name or shape in tensor entry {name!r}")
        if name in arrays:
            raise CheckpointError(f"{path}: repeated tensor name {name!r}")
        if dtype.kind != "f" or not _is_count(nbytes) or entry_offset != offset:
            raise CheckpointError(f"{path}: bad dtype, nbytes or offset in tensor {name!r}")
        if nbytes != math.prod(shape) * dtype.itemsize:
            raise CheckpointError(
                f"{path}: tensor {name!r} has {nbytes} bytes, its shape {shape} needs "
                f"{math.prod(shape) * dtype.itemsize}"
            )
        start = body_start + offset
        if start + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated tensor {name!r}")
        try:
            arrays[name] = np.frombuffer(raw, dtype, math.prod(shape), start).reshape(shape)
        except ValueError as exc:  # a dimension numpy cannot index
            raise CheckpointError(f"{path}: tensor {name!r} has shape {shape}: {exc}") from None
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a NaN or an infinity")
        offset += nbytes
    if body_start + offset != len(raw):
        extra = len(raw) - body_start - offset
        raise CheckpointError(f"{path}: {extra} bytes after the last tensor")
    return arrays


def _join_v1_heads(path, arrays: dict[str, np.ndarray], shapes: dict, blocks) -> dict[str, np.ndarray]:
    """A version-1 table, which stored each head's projections, under v2
    names: ``<block>.h<i>.wq``, ``.wk``, ``.wv`` joined into ``<block>.wqkv``."""
    arrays = dict(arrays)
    for block, heads in (("fa", blocks.feature_heads), ("sa", blocks.sequence_heads)):
        if not heads or f"{block}.wqkv" in arrays:  # the heads left are unknown names
            continue
        shape = (shapes[f"{block}.wqkv"][0], shapes[f"{block}.wqkv"][1] // (3 * heads))
        parts = [arrays.pop(f"{block}.h{i}.w{p}", None) for p in "qkv" for i in range(heads)]
        if any(part is None or part.shape != shape for part in parts):
            raise CheckpointError(f"{path}: version-1 {block} needs {heads} heads of q, k, v, each {shape}")
        arrays[f"{block}.wqkv"] = np.concatenate(parts, axis=1)
    return arrays

