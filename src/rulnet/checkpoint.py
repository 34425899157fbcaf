"""Versioned binary model bundles.

Layout (all integers little-endian):

    bytes 0..7    magic  b"RULBNDL\\x00"
    bytes 8..11   format version (uint32, 2)
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
from .model import MODEL_FIELDS, Blocks, RulModel, resolve_blocks

MAGIC = b"RULBNDL\x00"
FORMAT_VERSION = 2
HEADER_SCHEMA = {"hyperparams": dict, "config": dict, "condition_model": dict, "tensors": list}


@dataclass
class Bundle:
    """A trained model plus everything needed to run it on raw files."""

    model: RulModel
    condition_model: ConditionModel
    config: ExperimentConfig


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

    Anything that is not such a bundle is a CheckpointError naming the path: a
    bad magic, version or header schema; a tensor entry whose dtype is not a
    float, whose shape is not a list of non-negative integers or is one numpy
    cannot represent, whose nbytes is not its shape's size in bytes, or whose
    offset leaves a gap or overlap; a buffer past the end of the file; a
    tensor holding a NaN or an infinity (the first such in table order is
    named); bytes after the last buffer; a config key that is not an
    :class:`ExperimentConfig` field, a config value of the wrong type for its
    field, or a config that ``ExperimentConfig.validate`` (which reads no
    path) rejects; a bad condition model; hyperparameters that are not the
    model's construction arguments plus ``dtype``, or values or a tensor
    table that :class:`RulModel` rejects; a config model field (window, mode,
    head counts, layer sizes or dropout) that disagrees with the model, the
    first such one named.  The model is built from the tensors: nothing is
    drawn.  Config fields the header leaves out take their defaults, which
    are then range-checked with the rest; a model field it leaves out is not
    compared.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read bundle: {exc}") from None
    if len(raw) < 20 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a rulnet bundle (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 8)
    if version != FORMAT_VERSION:
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
        config.validate()
    except ConfigurationError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    arrays = _read_tensors(path, header["tensors"], raw, body_start)
    try:
        cm = ConditionModel.from_dict(header["condition_model"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: bad condition model: {exc}") from None
    hp, names = header["hyperparams"], {*config.model_kwargs(), "dtype"}  # all listed: a default may not be what was saved
    if hp.keys() != names:
        raise CheckpointError(f"{path}: hyperparameters {sorted(hp)} are not {sorted(names)}")
    try:  # np.dtype raises the last three
        model = RulModel(**hp, arrays=arrays)
    except (ConfigurationError, TypeError, ValueError, SyntaxError) as exc:
        raise CheckpointError(f"{path}: cannot rebuild the model: {exc}") from None
    for name, listed, built in _model_fields(header["config"], model):
        if listed != built:
            raise CheckpointError(f"{path}: config {name} is {listed!r}, the model's is {built!r}")
    return Bundle(model=model, condition_model=cm, config=config)


def _model_fields(config: dict, model: RulModel) -> list[tuple]:
    """(name, config value, ``model``'s value) for the mode, the head counts
    and each other model field a header's ``config`` lists.  Mode and head
    counts are compared as :func:`resolve_blocks` resolves them, any of the
    three the config leaves out taken from the model."""
    listed = {name: config[name] for name in MODEL_FIELDS if name in config}
    listed.update(resolve_blocks(*(config.get(name, getattr(model, name)) for name in Blocks._fields))._asdict())
    return [(name, listed[name], getattr(model, name)) for name in MODEL_FIELDS if name in listed]


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
