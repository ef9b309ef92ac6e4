"""Binary tensor files: magic "FPQT", little-endian, nibble-packed codes.

Layout: 4-byte magic, u16 version, u8 dtype tag, u8 ndim, ndim x u64
shape, then the payload.  f32/f64 payloads are packed little-endian;
code8 stores one code per byte and code4 packs two codes per byte with
the earlier element in the low nibble (odd element counts zero-pad the
final high nibble).  Writes go to a temp file in the target directory and
rename into place.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import NamedTuple

import numpy as np

__all__ = ["TensorFileError", "TensorData", "read_tensor", "write_tensor", "KINDS"]

MAGIC = b"FPQT"
VERSION = 1

KINDS = ("f32", "f64", "code4", "code8")
_KIND_TAG = {k: i for i, k in enumerate(KINDS)}
_TAG_KIND = {i: k for k, i in _KIND_TAG.items()}


class TensorFileError(ValueError):
    """Malformed tensor file; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class TensorData(NamedTuple):
    data: np.ndarray
    kind: str


def _default_kind(arr: np.ndarray) -> str:
    if arr.dtype == np.float32:
        return "f32"
    if arr.dtype == np.float64:
        return "f64"
    if arr.dtype == np.uint8:
        return "code8"
    raise ValueError(
        f"no default file kind for dtype {arr.dtype}; pass kind= explicitly"
    )


def _pack_code4(flat: np.ndarray) -> bytes:
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
    return (flat[0::2] | (flat[1::2] << 4)).tobytes()


def _unpack_code4(payload: bytes, count: int) -> np.ndarray:
    packed = np.frombuffer(payload, dtype=np.uint8)
    out = np.empty(packed.size * 2, dtype=np.uint8)
    out[0::2] = packed & 0x0F
    out[1::2] = packed >> 4
    return out[:count]


def write_tensor(path, array, kind: str | None = None) -> None:
    """Write an array atomically; kind defaults from the dtype.

    Code payloads must already fit their field: values outside 0..15
    (code4) or 0..255 (code8) raise ValueError instead of wrapping.
    """
    arr = np.asarray(array)
    if kind is None:
        kind = _default_kind(arr)
    if kind not in _KIND_TAG:
        raise ValueError(f"unknown tensor kind {kind!r}; one of {KINDS}")

    if kind == "f32":
        payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    elif kind == "f64":
        payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    else:
        limit = 16 if kind == "code4" else 256
        if arr.size and (np.min(arr) < 0 or np.max(arr) >= limit):
            raise ValueError(f"{kind} payload requires non-negative values below {limit}")
        flat = np.ascontiguousarray(arr, dtype=np.uint8).ravel()
        payload = _pack_code4(flat) if kind == "code4" else flat.tobytes()

    header = MAGIC + struct.pack("<HBB", VERSION, _KIND_TAG[kind], arr.ndim)
    header += b"".join(struct.pack("<Q", d) for d in arr.shape)

    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(header + payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_tensor(path) -> TensorData:
    """Read a tensor file back; raises TensorFileError with byte offsets."""
    with open(path, "rb") as f:
        blob = f.read()

    if len(blob) < 8:
        raise TensorFileError(f"file too short for a header ({len(blob)} bytes)", 0)
    if blob[:4] != MAGIC:
        raise TensorFileError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}", 0)
    version, tag, ndim = struct.unpack_from("<HBB", blob, 4)
    if version != VERSION:
        raise TensorFileError(f"unsupported version {version}, expected {VERSION}", 4)
    if tag not in _TAG_KIND:
        raise TensorFileError(f"unknown dtype tag {tag}", 6)
    kind = _TAG_KIND[tag]

    shape_end = 8 + 8 * ndim
    if len(blob) < shape_end:
        raise TensorFileError(
            f"truncated shape: need {shape_end} header bytes, file has {len(blob)}", 8
        )
    shape = tuple(
        struct.unpack_from("<Q", blob, 8 + 8 * i)[0] for i in range(ndim)
    )
    count = 1
    for d in shape:
        count *= d

    if kind == "f32":
        expected = count * 4
    elif kind == "f64":
        expected = count * 8
    elif kind == "code8":
        expected = count
    else:
        expected = (count + 1) // 2
    actual = len(blob) - shape_end
    if actual != expected:
        raise TensorFileError(
            f"payload length mismatch: expected {expected} bytes for shape "
            f"{shape} ({kind}), got {actual}",
            shape_end,
        )

    payload = blob[shape_end:]
    if kind == "f32":
        data = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float32)
    elif kind == "f64":
        data = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    elif kind == "code8":
        data = np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()
    else:
        data = _unpack_code4(payload, count).reshape(shape)
    return TensorData(data, kind)
