"""Binary tensor files: magic "FPQT", little-endian, nibble-packed codes.

Layout: 4-byte magic, u16 version, u8 dtype tag, u8 ndim, ndim x u64
shape, then the payload.  f32/f64 payloads are packed little-endian;
code8 stores one code per byte and code4 packs two codes per byte with
the earlier element in the low nibble (odd element counts zero-pad the
final high nibble).  Writes go to a temp file in the target directory and
rename into place.
"""

from __future__ import annotations

import math
import os
import struct
import uuid
from typing import NamedTuple

import numpy as np

__all__ = ["TensorFileError", "TensorData", "read_tensor", "write_tensor", "KINDS"]

MAGIC = b"FPQT"
VERSION = 1

# Each kind's element dtype in the file; code4 packs two of its elements per byte.
_DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "code4": np.dtype(np.uint8),
    "code8": np.dtype(np.uint8),
}
# A kind's dtype tag in the file is its index here.
KINDS = tuple(_DTYPES)


class TensorFileError(ValueError):
    """Malformed tensor file; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class TensorData(NamedTuple):
    data: np.ndarray
    kind: str


def _default_kind(arr: np.ndarray) -> str:
    for kind in ("f32", "f64", "code8"):
        if arr.dtype == _DTYPES[kind]:
            return kind
    raise ValueError(
        f"no default file kind for dtype {arr.dtype}; pass kind= explicitly"
    )


def _pack_code4(flat: np.ndarray) -> bytes:
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
    return (flat[0::2] | (flat[1::2] << 4)).tobytes()


def _unpack_code4(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    packed = np.frombuffer(payload, dtype=np.uint8)
    out = np.empty(shape, dtype=np.uint8)
    flat = out.reshape(-1)
    flat[0::2] = packed & 0x0F
    flat[1::2] = packed[: flat.size // 2] >> 4
    return out


def write_tensor(path, array, kind: str | None = None) -> None:
    """Write an array atomically; kind defaults from the dtype.

    Code payloads must already fit their field: values that are not
    integers in 0..15 (code4) or 0..255 (code8) raise ValueError.
    """
    arr = np.asarray(array)
    if kind is None:
        kind = _default_kind(arr)
    if kind not in KINDS:
        raise ValueError(f"unknown tensor kind {kind!r}; one of {KINDS}")

    if kind.startswith("code"):
        limit = 16 if kind == "code4" else 256
        if arr.dtype.kind not in "biu" and not np.all(np.isfinite(arr) & (arr == np.round(arr.real))):
            raise ValueError(f"{kind} payload requires finite integral values")
        if arr.size and (np.min(arr) < 0 or np.max(arr) >= limit):
            raise ValueError(f"{kind} payload requires non-negative values below {limit}")
    flat = np.ascontiguousarray(arr, dtype=_DTYPES[kind]).ravel()
    payload = _pack_code4(flat) if kind == "code4" else flat.tobytes()

    header = MAGIC + struct.pack(f"<HBB{arr.ndim}Q", VERSION, KINDS.index(kind), arr.ndim, *arr.shape)

    path = os.fspath(path)
    # Mode 0o666 under the umask, as open() gives (mkstemp's 0o600 would stick).
    tmp = os.path.join(os.path.dirname(path) or ".", f"tmp{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
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
    if tag >= len(KINDS):
        raise TensorFileError(f"unknown dtype tag {tag}", 6)
    kind = KINDS[tag]

    shape_end = 8 + 8 * ndim
    if len(blob) < shape_end:
        raise TensorFileError(
            f"truncated shape: need {shape_end} header bytes, file has {len(blob)}", 8
        )
    shape = struct.unpack_from(f"<{ndim}Q", blob, 8)
    count = math.prod(shape)

    dtype = _DTYPES[kind]
    expected = (count + 1) // 2 if kind == "code4" else count * dtype.itemsize
    actual = len(blob) - shape_end
    if actual != expected:
        raise TensorFileError(
            f"payload length mismatch: expected {expected} bytes for shape "
            f"{shape} ({kind}), got {actual}",
            shape_end,
        )

    payload = blob[shape_end:]
    try:
        if kind == "code4":
            data = _unpack_code4(payload, shape)
        else:  # a native-order copy, which the caller owns and may write
            data = np.frombuffer(payload, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))
    except ValueError as exc:  # a shape numpy cannot hold: too many axes, or an empty one too long
        raise TensorFileError(f"unsupported shape: {exc}", 8) from None
    return TensorData(data, kind)
