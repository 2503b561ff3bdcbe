"""Checkpoint container.

Checkpoint layout: magic, format version, a JSON header describing the
config and every parameter (name + shape, in order), then the raw
little-endian float64 buffers concatenated in header order. Round-trips
are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from ..atomic import atomic_open
from ..errors import ParseError
from .engine import DTYPE, Parameter

MAGIC = b"FFCP"
VERSION = 1


def save_checkpoint(path, params: list[Parameter], config: dict | None = None) -> None:
    header = {
        "config": config or {},
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in params],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for p in params:
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (config dict, name -> array in file order).

    Anything but a complete checkpoint as save_checkpoint writes it raises
    ParseError: a short or unknown magic, version or length field, a header
    that is not the expected JSON object, data that ends early or is not
    finite, and bytes after the last parameter.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(count: int, what: str) -> bytes:
            # check the size first: a corrupt count must not become a huge read
            if count > size - fh.tell():
                raise ParseError(f"{path}: truncated checkpoint: {what} needs {count} bytes")
            return fh.read(count)

        magic = fh.read(4)
        if magic != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file (bad magic {magic!r})")
        (version,) = struct.unpack("<I", read(4, "the version"))
        if version != VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", read(8, "the header length"))
        try:
            header = json.loads(read(header_len, "the header").decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: corrupt checkpoint header: {exc}") from exc
        entries = _header_entries(path, header)
        arrays = {}
        for name, shape in entries:
            raw = read(8 * math.prod(shape), f"parameter {name!r}")
            array = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(DTYPE)
            if not np.all(np.isfinite(array)):
                raise ParseError(f"{path}: parameter {name!r} has non-finite values")
            arrays[name] = array
        if fh.tell() != size:
            raise ParseError(f"{path}: {size - fh.tell()} bytes after the last parameter")
    return header.get("config", {}), arrays


def _header_entries(path, header) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter a checkpoint header lists."""

    def valid(entry) -> bool:
        return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"]))

    params = header.get("params") if isinstance(header, dict) else None
    if not (isinstance(params, list) and isinstance(header.get("config", {}), dict)
            and all(valid(entry) for entry in params)
            and len({entry["name"] for entry in params}) == len(params)):
        raise ParseError(
            f"{path}: checkpoint header must be an object with a config object and a "
            f"params list of distinct names, each with a shape of non-negative integers"
        )
    return [(entry["name"], tuple(entry["shape"])) for entry in params]

