"""Sectioned binary snapshots of a forecaster.

Layout, all integers little-endian:

    magic    4 bytes  b"DLF1"
    version  u32      currently 2; version 1 files, which also held a
                      zero bias per trunk linear, are rejected
    header   u32 length + UTF-8 JSON: config dict, step
    count    u32      number of tensor records
    record   u16 name length + name bytes
             u8 ndim, then ndim * u32 dims
             u64 payload length, then the tensor's data LE in its own dtype

Every trainable and frozen tensor of the model is stored by its stable
name, so load(save(model)) reproduces forward outputs bit for bit. A save
writes a uniquely named file beside the target and renames it over the
target, so a failed write leaves the last checkpoint whole.

Each payload is its tensor's own buffer: `backbone.*` records are in the
header config's `trunk_dtype` (4 bytes per element when it is float32),
every other record is float64, and the payload length equals the tensor's
bytes. A header config without `trunk_dtype`, as files written before the
field existed have, loads as float64, RunConfig's default. A float32-trunk
file written by an earlier build, which widened every payload to float64,
fails the payload-length check and is refused.

A load never redraws the initialization: it builds the model's tensors
empty, in their own dtypes and without seeding a generator, and fills
each from the file. It reads each record header in two reads after the
name length, validates the record (name, shape and payload length) and
then reads its payload straight into the tensor's own buffer with one
read; it restores every tensor or raises CheckpointError. A header config
that `Forecaster` rejects (its one `RunConfig.validate()` call) is a
CheckpointError too, as is one with a key RunConfig lacks, such as the
`router_activation` that earlier builds wrote. The seed is the config's;
the top-level `seed` that earlier builds also wrote is ignored.
"""

from __future__ import annotations

import dataclasses
import json
import os
import secrets
import struct
import sys
from pathlib import Path

import numpy as np

from . import rng
from .config import ConfigError, RunConfig
from .model import Forecaster

MAGIC = b"DLF1"
VERSION = 2
SWAP = sys.byteorder == "big"  # payloads are LE: byteswapped on a big-endian host


class CheckpointError(Exception):
    pass


def _truncated(n: int, what: str) -> CheckpointError:
    return CheckpointError(f"truncated checkpoint: expected {n} bytes for {what}")


def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise _truncated(n, what)
    return buf


def _size_mismatch(name: str, plen: int, data: np.ndarray) -> CheckpointError:
    msg = (f"tensor '{name}' payload size mismatch: {plen} bytes, expected "
           f"{data.nbytes} ({data.dtype}, {data.itemsize} bytes per element)")
    if data.itemsize < 8 and plen == 8 * data.size:
        msg += ("; the file holds float64 payloads, 8 bytes per element: it was "
                "written by an earlier build, which widened a float32 trunk")
    return CheckpointError(msg)


def save_checkpoint(path, model: Forecaster, *, step: int = 0) -> None:
    header = {"config": dataclasses.asdict(model.cfg), "step": int(step)}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tensors = model.named_parameters()
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mode from the umask
    try:
        with open(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(struct.pack("<I", len(tensors)))
            for name in sorted(tensors):
                data = tensors[name].data
                name_b = name.encode("utf-8")
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<B", data.ndim))
                fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
                fh.write(struct.pack("<Q", data.nbytes))
                # the array's own buffer, no bytes copy
                fh.write(data.byteswap() if SWAP else np.ascontiguousarray(data))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _open_checkpoint(path):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc


def _read_header(fh) -> dict:
    """Check magic and version, then parse the header JSON object."""
    magic = _read_exact(fh, 4, "magic")
    if magic != MAGIC:
        raise CheckpointError(
            f"not a checkpoint file: bad magic {magic!r}, expected {MAGIC!r}"
        )
    (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, this build reads {VERSION}"
        )
    (hlen,) = struct.unpack("<I", _read_exact(fh, 4, "header length"))
    if hlen > os.fstat(fh.fileno()).st_size - fh.tell():
        raise _truncated(hlen, "header")  # before allocating a corrupt length
    try:
        header = json.loads(_read_exact(fh, hlen, "header").decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    return header


def read_header(path) -> dict:
    """Header JSON only; cheap way to inspect a checkpoint's config."""
    with _open_checkpoint(path) as fh:
        return _read_header(fh)


def load_checkpoint(path) -> tuple[Forecaster, dict]:
    """Rebuild the model a checkpoint describes and restore every tensor."""
    with _open_checkpoint(path) as fh:
        header = _read_header(fh)
        try:
            # Every tensor is overwritten below or the load raises, so the
            # model is built without drawing its initialization.
            with rng.no_draws():
                model = Forecaster(RunConfig(**header["config"]))
            meta = {"step": header["step"]}
        except (ConfigError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"checkpoint header describes no valid model: {exc}"
            ) from None
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        tensors = model.named_parameters()
        seen = set()
        for _ in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            head = _read_exact(fh, nlen + 1, "tensor name and rank")
            name_b, ndim = head[:nlen], head[nlen]
            try:
                name = name_b.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(
                    f"corrupt tensor name {name_b!r} in checkpoint: not UTF-8"
                ) from None
            if name in seen:
                raise CheckpointError(f"duplicate tensor '{name}' in checkpoint")
            seen.add(name)
            if name not in tensors:
                raise CheckpointError(
                    f"unknown tensor '{name}' not present in the rebuilt model"
                )
            target = tensors[name]
            *shape, plen = struct.unpack(
                f"<{ndim}IQ", _read_exact(fh, 4 * ndim + 8, "shape and payload length"))
            if tuple(shape) != target.shape:
                raise CheckpointError(
                    f"tensor '{name}' shape {tuple(shape)} does not match "
                    f"model shape {target.shape}"
                )
            data = target.data
            if plen != data.nbytes:
                raise _size_mismatch(name, plen, data)
            if fh.readinto(data) != plen:
                raise _truncated(plen, f"tensor '{name}'")
            if SWAP:
                data.byteswap(inplace=True)
        missing = sorted(set(tensors) - seen)
        if missing:
            raise CheckpointError(f"checkpoint is missing tensors: {missing[:5]}")
    return model, meta
