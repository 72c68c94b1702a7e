"""Versioned binary checkpoint container.

Byte layout (all integers little-endian):

    offset 0   magic  b"EQMCKPT\\x01"                        (8 bytes)
    offset 8   u32    header length H
    offset 12  header UTF-8 JSON, canonical form              (H bytes)
               (sorted keys, separators (",", ":"))
    12 + H     data region: float64 row-major buffers,
               back to back, in the header's tensor order
    tail       SHA-256 digest of every preceding byte         (32 bytes)

The header carries: format_version, the full run-config dict, the training
step count, the generator state, the optimizer's settings and step count,
and a tensor index [{name, shape, offset, nbytes}] with offsets relative to
the data region. The AdamW moments are tensors named opt.m.<param> and
opt.v.<param>; this module alone knows that rule. Tensors are sorted by
name, which together with canonical JSON makes save -> load -> save
byte-identical.

A digest only proves the bytes are the ones written, so loading also checks
the header: every key is present, the index is sorted by unique names, the
offsets run back to back from 0 to the end of the data region, each nbytes is
8 x the elements of its shape, and the parameters (and their AdamW moments)
have the names and shapes the header's model config gives: all of the
moments, or none before the first step (a resume would restart one at zero).
The optimizer's settings must be finite JSON numbers and its step count a
JSON integer >= 0, as the header's step is.

Neither saving nor loading holds a copy of the file: a save streams into the
temporary file, and a load checks the digest, then the header, then reads
the tensors, each pass over the open file. A load for inference
(`optimizer=False`) makes every check but skips the moment tensors.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .config import OptimizerSettings, RunConfig, ValidationError
from .model import GradientFieldModel, param_shapes
from .optimizer import AdamW

MAGIC = b"EQMCKPT\x01"
FORMAT_VERSION = 1
HEADER_KEYS = ("format_version", "run_config", "step", "rng_state", "optimizer",
               "tensors")
TENSOR_KEYS = ("name", "nbytes", "offset", "shape")
OPTIMIZER_NUMBERS = tuple(f.name for f in fields(OptimizerSettings))
#: the AdamW moments, each stored per parameter as opt.<moment>.<param>
MOMENTS = ("m", "v")
#: bytes hashed per read while a load checks the digest
READ_CHUNK = 1 << 16


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    config: RunConfig
    params: dict[str, np.ndarray]
    optimizer: AdamW | None  # None where loaded with optimizer=False
    step: int
    rng_state: dict | None

    @property
    def model(self) -> GradientFieldModel:
        return GradientFieldModel(config=self.config.model, params=self.params)


def _moment_name(moment: str, param: str) -> str:
    return f"opt.{moment}.{param}"


def _canonical_json(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path, config: RunConfig, model: GradientFieldModel,
                    optimizer: AdamW, step: int,
                    rng_state: dict | None = None) -> str:
    """Write the container; returns the hex digest. The magic, the header and
    each tensor's own buffer pass through one SHA-256 into a temporary file
    beside `path` (not named *.eqmckpt), so no copy of the file is held. It
    is flushed to disk and then renamed over `path`, so a crash leaves the
    previous file or the new one, never a torn one."""
    tensors = dict(model.params)
    for moment in MOMENTS:
        tensors.update((_moment_name(moment, k), buf)
                       for k, buf in getattr(optimizer, moment).items())
    index = []
    offset = 0
    ordered = sorted(tensors)
    for name in ordered:
        buf = np.ascontiguousarray(tensors[name], dtype=np.float64)
        tensors[name] = buf
        index.append({"name": name, "shape": list(buf.shape),
                      "offset": offset, "nbytes": buf.nbytes})
        offset += buf.nbytes
    header = _canonical_json({
        "format_version": FORMAT_VERSION,
        "run_config": config.to_dict(),
        "step": int(step),
        "rng_state": rng_state,
        "optimizer": {k: getattr(optimizer, k) for k in (*OPTIMIZER_NUMBERS, "step_count")},
        "tensors": index,
    })
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    sha = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in (MAGIC, struct.pack("<I", len(header)), header,
                          *(tensors[name] for name in ordered)):
                sha.update(chunk)
                fh.write(chunk)
            digest = sha.digest()
            fh.write(digest)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hex()


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_number(value) -> bool:
    """A finite JSON number: an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _check_optimizer(path, hyper) -> None:
    """The optimizer settings must be finite numbers and the step count a
    count, checked before `load_checkpoint` builds AdamW from them: float()
    would take true or "1e-4" as a setting, and a step count of 2.7, true or
    "5" would reach the bias corrections."""
    if not isinstance(hyper, dict):
        raise CheckpointError(f"{path}: optimizer: {hyper!r} is not a JSON object")
    for key in (*OPTIMIZER_NUMBERS, "step_count"):
        if key not in hyper:
            raise CheckpointError(f"{path}: optimizer: lacks {key}")
        valid = _is_count if key == "step_count" else _is_number
        if not valid(hyper[key]):
            kind = "a count" if key == "step_count" else "a finite number"
            raise CheckpointError(f"{path}: optimizer: {key} {hyper[key]!r} is not {kind}")


def _read_into(path, fh, buf, what: str) -> None:
    """Fill `buf` from `fh`. A short read means the file shrank after its
    digest was checked, and never hands back a partly filled buffer."""
    if fh.readinto(buf) != memoryview(buf).nbytes:
        raise CheckpointError(f"{path}: the file ends inside {what}")


def _check_digest(path, fh, body_bytes: int) -> None:
    """Hash the first `body_bytes` of `fh` in fixed-size chunks and compare
    the digest with the 32 bytes after them."""
    sha = hashlib.sha256()
    chunk = memoryview(bytearray(READ_CHUNK))
    fh.seek(0)
    left = body_bytes
    while left:
        n = fh.readinto(chunk[:min(left, READ_CHUNK)])
        if not n:  # the file shrank: the digest read below is short
            break
        sha.update(chunk[:n])
        left -= n
    if fh.read(32) != sha.digest():
        raise CheckpointError(f"{path}: integrity digest mismatch")


def _read_header(path, fh, body_bytes: int) -> tuple[dict, int]:
    """The header object and the offset of the data region; `fh` is left at
    that offset."""
    hstart = len(MAGIC) + 4
    prefix = bytearray(4)
    fh.seek(len(MAGIC))
    _read_into(path, fh, prefix, "the header")
    (hlen,) = struct.unpack("<I", prefix)
    if hstart + hlen > body_bytes:
        raise CheckpointError(f"{path}: header length {hlen} runs past the data")
    text = bytearray(hlen)
    _read_into(path, fh, text, "the header")
    try:
        header = json.loads(text.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: header is not JSON: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    missing = [k for k in HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    if header["format_version"] != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{header['format_version']}")
    if not _is_count(header["step"]):
        raise CheckpointError(f"{path}: step {header['step']!r} is not a count")
    return header, hstart + hlen


def _check_index(path, index, data_bytes: int, expected: dict[str, tuple]) -> None:
    """The tensor index must lay out exactly the tensors `expected` allows
    (name -> shape), back to back over the `data_bytes` of the data region."""
    if not isinstance(index, list):
        raise CheckpointError(f"{path}: header 'tensors' is not a list")
    offset, previous = 0, None
    for i, entry in enumerate(index):
        if not isinstance(entry, dict) or set(entry) != set(TENSOR_KEYS):
            raise CheckpointError(f"{path}: tensor entry {i} needs exactly the keys "
                                  f"{', '.join(TENSOR_KEYS)}")
        name, shape = entry["name"], entry["shape"]
        if not isinstance(name, str) or (previous is not None and name <= previous):
            raise CheckpointError(f"{path}: tensor entry {i} name {name!r} is not a "
                                  f"unique name after {previous!r} in sorted order")
        previous = name
        where = f"{path}: tensor '{name}'"
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
            raise CheckpointError(f"{where}: shape {shape!r} is not a list of counts")
        if name not in expected or tuple(shape) != expected[name]:
            raise CheckpointError(f"{where}: shape {shape} is not one the model "
                                  f"config gives (expected {expected.get(name)})")
        if entry["offset"] != offset or not _is_count(entry["offset"]):
            raise CheckpointError(f"{where}: offset {entry['offset']!r} does not "
                                  f"follow the previous tensor's end {offset}")
        if entry["nbytes"] != 8 * math.prod(shape) or not _is_count(entry["nbytes"]):
            raise CheckpointError(f"{where}: nbytes {entry['nbytes']!r} is not 8 x the "
                                  f"{math.prod(shape)} elements of shape {shape}")
        offset += entry["nbytes"]
    if offset != data_bytes:
        raise CheckpointError(f"{path}: the tensors cover {offset} bytes of a "
                              f"{data_bytes}-byte data region")


def load_checkpoint(path, *, optimizer: bool = True) -> Checkpoint:
    """Read the file in three passes over one handle: the digest over every
    byte in fixed-size chunks, then the header, then each tensor straight
    into its own array. Beyond the tensors it holds one chunk and the header.

    With `optimizer` False (inference, which never reads AdamW's state) the
    digest and every header and index check still run, the moments too must
    be all there or none, but the moment tensors are skipped instead of read
    and the checkpoint's `optimizer` is None."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + 4 + 32 or fh.read(len(MAGIC)) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        body_bytes = size - 32
        _check_digest(path, fh, body_bytes)
        header, data_start = _read_header(path, fh, body_bytes)
        try:
            config = RunConfig.from_dict(header["run_config"])
        except ValidationError as e:
            raise CheckpointError(f"{path}: run_config: {e}") from None
        shapes = param_shapes(config.model)
        expected = dict(shapes)
        expected.update((_moment_name(moment, k), shape) for moment in MOMENTS
                        for k, shape in shapes.items())
        _check_index(path, header["tensors"], body_bytes - data_start, expected)
        # the index runs back to back from the data region's start
        buffers: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            if not optimizer and entry["name"] not in shapes:  # a moment
                fh.seek(entry["nbytes"], os.SEEK_CUR)
                continue
            buf = np.empty(entry["shape"], dtype="<f8")
            _read_into(path, fh, buf, f"tensor '{entry['name']}'")
            buffers[entry["name"]] = buf
    names = {entry["name"] for entry in header["tensors"]}
    params = {k: v for k, v in buffers.items() if k in shapes}
    if params.keys() != shapes.keys():
        raise CheckpointError(f"{path}: parameters {sorted(params)} are not the model "
                              f"config's {sorted(shapes)}")
    hyper = header["optimizer"]
    _check_optimizer(path, hyper)
    missing = sorted(expected.keys() - names)
    if missing and (len(names) > len(params) or hyper["step_count"]):
        raise CheckpointError(f"{path}: optimizer: step {hyper['step_count']} lacks "
                              f"the moments {', '.join(missing)}")
    if not optimizer:
        return Checkpoint(config=config, params=params, optimizer=None,
                          step=header["step"], rng_state=header["rng_state"])
    # all of the moments or none: the arrays just read, handed over uncopied
    moments = {} if missing else {moment: {k: buffers[_moment_name(moment, k)]
                                           for k in shapes} for moment in MOMENTS}
    optimizer = AdamW(**{k: float(hyper[k]) for k in OPTIMIZER_NUMBERS},
                      step_count=hyper["step_count"], **moments)
    return Checkpoint(config=config, params=params, optimizer=optimizer,
                      step=header["step"], rng_state=header["rng_state"])


def load_params_into(path, model: GradientFieldModel) -> None:
    """Warm-start: copy a checkpoint's parameters into an existing model.
    Names and shapes must line up (an explicit-energy head reuses the plain
    field architecture, so cross-kind warm starts are expected)."""
    ck = load_checkpoint(path, optimizer=False)
    missing = set(model.params) - set(ck.params)
    extra = set(ck.params) - set(model.params)
    if missing or extra:
        raise ValidationError(f"checkpoint parameters do not match the model: "
                              f"missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, buf in ck.params.items():
        if buf.shape != model.params[name].shape:
            raise ValidationError(
                f"shape mismatch for '{name}': checkpoint {buf.shape} vs "
                f"model {model.params[name].shape}")
    model.params.update(ck.params)
