"""Flat binary tensor checkpoints.

Layout: an 8-byte magic, a little-endian uint64 header length, a UTF-8 JSON
header ``{"version", "meta", "tensors": [{"name", "shape"}, ...]}``, then the
tensor payloads as raw little-endian float64 in header order. Encoding the
same tensors and meta twice produces identical bytes; there are no timestamps.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, CorruptCheckpoint
from .numcore import DenseNet, param_shapes

MAGIC = b"FVCKPT01"
VERSION = 1
_PREFIX = len(MAGIC) + 8


def encode_checkpoint(tensors: dict[str, np.ndarray], meta: dict) -> bytes:
    """The checkpoint bytes of named float64 tensors plus a JSON-safe meta dict."""
    entries = []
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        entries.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes())
    header = json.dumps(
        {"version": VERSION, "meta": meta, "tensors": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    return b"".join([MAGIC, struct.pack("<Q", len(header)), header, *blobs])


def _valid_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in entry["shape"])
    )


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back as (tensors, meta).

    A foreign file or an unreadable header raises CompatibilityError; a
    payload that is cut short or runs past the last tensor raises
    CorruptCheckpoint."""
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise CompatibilityError(f"{path}: not a checkpoint file")
    if len(raw) < _PREFIX:
        raise CompatibilityError(f"{path}: header length field is cut short")
    (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
    if hlen > len(raw) - _PREFIX:
        raise CompatibilityError(f"{path}: header length {hlen} exceeds the file size")
    try:
        header = json.loads(raw[_PREFIX : _PREFIX + hlen].decode("utf-8"))
    except (RecursionError, ValueError) as exc:  # undecodable, invalid or too deeply nested
        raise CompatibilityError(f"{path}: unreadable checkpoint header ({exc})") from exc
    version = header.get("version") if isinstance(header, dict) else None
    if version != VERSION:
        raise CompatibilityError(f"{path}: checkpoint version {version} is not supported")
    entries, meta = header.get("tensors"), header.get("meta")
    if not (isinstance(meta, dict) and isinstance(entries, list) and all(map(_valid_entry, entries))):
        raise CompatibilityError(f"{path}: malformed checkpoint header")
    tensors: dict[str, np.ndarray] = {}
    offset = _PREFIX + hlen
    for entry in entries:
        shape = tuple(entry["shape"])
        count = math.prod(shape)
        if offset + 8 * count > len(raw):
            raise CorruptCheckpoint(f"{path}: truncated tensor {entry['name']!r}")
        tensors[entry["name"]] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    if offset != len(raw):
        raise CorruptCheckpoint(f"{path}: trailing bytes after last tensor")
    return tensors, meta


class Persistable:
    """Construction and checkpoint encode/load for networks. ``kind`` names
    the network type and ``DIMS`` the constructor arguments, stored as meta
    ``dims``, that rebuild it before its tensors load; ``DEFAULTS`` holds
    the dims that may be left out, and a dim is a flag when its default is
    a bool, an int otherwise. ``PARTS`` lists the dense parts (attribute,
    parameter prefix, seed index) in ``layer_specs`` order."""

    kind = ""
    DIMS: tuple[str, ...] = ()
    DEFAULTS: dict = {}
    PARTS: tuple[tuple[str, str, int], ...] = ()

    def __init__(self, *args, **kwargs):
        """Take exactly the ``DIMS`` (keywords, or positionals in ``DIMS``
        order), store them in ``DIMS`` order, build each part seeded
        ``[seed, index]``."""
        named = self.DIMS[:len(args)]
        dims = {**self.DEFAULTS, **dict(zip(named, args)), **kwargs}
        if len(args) > len(named) or set(named) & set(kwargs) or set(dims) != set(self.DIMS):
            raise TypeError(f"{type(self).__name__} takes dims {list(self.DIMS)}, "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        for name in self.DIMS:
            setattr(self, name, dims[name])
        for (attr, _, index), specs in zip(self.PARTS, self.layer_specs(**dims)):
            setattr(self, attr, DenseNet(specs, seed=[self.seed, index]))

    @classmethod
    def param_shapes(cls, **dims) -> dict[str, tuple[int, ...]]:
        """Name and shape of each parameter of the network that ``dims``
        build, without building it."""
        return dict(item for (_, prefix, _), specs in zip(cls.PARTS, cls.layer_specs(**dims))
                    for item in param_shapes(specs, prefix))

    def named_params(self):
        return [item for attr, prefix, _ in self.PARTS
                for item in getattr(self, attr).named_params(prefix)]

    def encode(self, world_hash: str, extra_meta: dict | None = None) -> bytes:
        """The checkpoint bytes of this network's parameters."""
        meta = {
            "kind": self.kind,
            "world_hash": world_hash,
            "dims": {name: getattr(self, name) for name in self.DIMS},
        }
        if extra_meta:
            meta.update(extra_meta)
        return encode_checkpoint(dict(self.named_params()), meta)

    @classmethod
    def load(cls, path):
        """(network, meta) from a checkpoint of this kind whose tensors match
        the parameters its dims give, name for name and shape for shape. The
        shapes are compared before the network is built, so dims that the
        tensors do not back allocate nothing."""
        tensors, meta = load_checkpoint(path)
        if meta.get("kind") != cls.kind:
            raise CompatibilityError(f"{path}: checkpoint holds a {meta.get('kind')}, not a {cls.kind}")
        dims = meta.get("dims")
        types = {name: type(cls.DEFAULTS.get(name, 0)).__name__ for name in cls.DIMS}
        if not isinstance(dims, dict) or {k: type(v).__name__ for k, v in dims.items()} != types:
            raise CompatibilityError(f"{path}: checkpoint dims {dims} do not match {types}")
        try:
            shapes = cls.param_shapes(**dims)
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise CompatibilityError(f"{path}: no {cls.kind} has dims {dims}: {exc}") from exc
        for name, shape in shapes.items():
            if name not in tensors:
                raise CompatibilityError(f"{path}: checkpoint misses tensor {name!r}")
            if tensors[name].shape != shape:
                raise CompatibilityError(
                    f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}"
                )
        extra = set(tensors) - set(shapes)
        if extra:
            raise CompatibilityError(f"{path}: checkpoint carries unknown tensors {sorted(extra)}")
        try:
            net = cls(**dims)
        except (ArithmeticError, MemoryError, TypeError, ValueError) as exc:
            raise CompatibilityError(f"{path}: cannot rebuild a {cls.kind} from {dims}: {exc}") from exc
        for name, param in net.named_params():
            param[...] = tensors[name]
        return net, meta
