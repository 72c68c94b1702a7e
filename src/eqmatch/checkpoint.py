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
step count, the generator state, optimizer hyperparameters, and a tensor
index [{name, shape, offset, nbytes}] with offsets relative to the data
region. Tensors are sorted by name, which together with canonical JSON makes
save -> load -> save byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig, ValidationError
from .model import GradientFieldModel
from .optimizer import AdamW

MAGIC = b"EQMCKPT\x01"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    config: RunConfig
    params: dict[str, np.ndarray]
    optimizer: AdamW
    step: int
    rng_state: dict | None

    @property
    def model(self) -> GradientFieldModel:
        return GradientFieldModel(config=self.config.model, params=self.params)


def _canonical_json(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path, config: RunConfig, model: GradientFieldModel,
                    optimizer: AdamW, step: int,
                    rng_state: dict | None = None) -> str:
    """Write the container; returns the hex digest. A temporary file beside
    `path` (not named *.eqmckpt) is flushed to disk and then renamed over
    `path`, so a crash leaves the previous file or the new one, never a torn
    one."""
    tensors = dict(model.params)
    tensors.update(optimizer.moment_buffers())
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
        "optimizer": optimizer.hyper_dict(),
        "tensors": index,
    })
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", len(header))
    blob += header
    for name in ordered:
        blob += tensors[name].tobytes()
    digest = hashlib.sha256(bytes(blob)).digest()
    blob += digest
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hex()


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 4 + 32 or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    body, digest = raw[:-32], raw[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError(f"{path}: integrity digest mismatch")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC))
    hstart = len(MAGIC) + 4
    header = json.loads(raw[hstart:hstart + hlen].decode())
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version "
                              f"{header.get('format_version')}")
    config = RunConfig.from_dict(header["run_config"])
    data_start = hstart + hlen
    buffers: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        start = data_start + entry["offset"]
        buf = np.frombuffer(body, dtype="<f8", count=entry["nbytes"] // 8,
                            offset=start).reshape(entry["shape"]).copy()
        buffers[entry["name"]] = buf
    params = {k: v for k, v in buffers.items() if not k.startswith("opt.")}
    moments = {k: v for k, v in buffers.items() if k.startswith("opt.")}
    optimizer = AdamW.from_state(header["optimizer"], moments)
    return Checkpoint(config=config, params=params, optimizer=optimizer,
                      step=int(header["step"]), rng_state=header.get("rng_state"))


def load_params_into(path, model: GradientFieldModel) -> None:
    """Warm-start: copy a checkpoint's parameters into an existing model.
    Names and shapes must line up (an explicit-energy head reuses the plain
    field architecture, so cross-kind warm starts are expected)."""
    ck = load_checkpoint(path)
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
    for name, buf in ck.params.items():
        model.params[name] = buf.copy()
