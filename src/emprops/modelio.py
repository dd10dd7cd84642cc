"""Binary model container.

Layout: 4 magic bytes, little-endian u32 format version, little-endian
u64 checksum, little-endian u64 header length, UTF-8 JSON header, then
raw little-endian float64 payload arrays. The checksum (first 8 bytes of
SHA-256, big-endian) covers everything after the checksum field, so any
truncation or bit flip is caught. Floats in the JSON header round-trip
exactly (shortest-repr serialization), and the payload is raw IEEE-754,
so save/load is bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from emprops.errors import CorruptFile, VersionMismatch

FORMAT_VERSION = 1
MAGIC_MTNN = b"EMMT"
MAGIC_FOREST = b"EMRF"
_MAGICS = (MAGIC_MTNN, MAGIC_FOREST)


def _checksum(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def write_container(path: str | Path, magic: bytes, header: dict,
                    arrays: list[np.ndarray]) -> None:
    if magic not in _MAGICS:
        raise CorruptFile(f"unknown container magic {magic!r}")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    body = struct.pack("<Q", len(header_bytes)) + header_bytes + payload
    blob = magic + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", _checksum(body)) + body
    Path(path).write_bytes(blob)


def read_container(path: str | Path, magic: bytes) -> tuple[dict, bytes]:
    """Return (header, payload bytes) of a container that must carry `magic`."""
    _, header, payload = read_any_container(path, (magic,))
    return header, payload


def read_any_container(path: str | Path, magics: tuple[bytes, ...] = _MAGICS,
                       ) -> tuple[bytes, dict, bytes]:
    """Return (magic, header, payload bytes) of a container carrying any of
    `magics`, reading the file once; verifies magic, version, checksum."""
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise CorruptFile("file too short to be a model container")
    if blob[:4] not in magics:
        raise CorruptFile(f"bad magic {blob[:4]!r}, expected one of {magics!r}")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format version {version}, supported {FORMAT_VERSION}")
    (stored,) = struct.unpack("<Q", blob[8:16])
    body = blob[16:]
    if _checksum(body) != stored:
        raise CorruptFile("checksum mismatch; file is truncated or corrupted")
    (header_len,) = struct.unpack("<Q", body[:8])
    if len(body) < 8 + header_len:
        raise CorruptFile("header extends past end of file")
    try:
        header = json.loads(body[8 : 8 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise CorruptFile(f"model header is not JSON ({type(exc).__name__}: {exc})") from exc
    return blob[:4], header, body[8 + header_len :]


def split_payload(payload: bytes, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    arrays = []
    offset = 0
    for shape in shapes:
        count = int(np.prod(shape)) if shape else 1
        size = count * 8
        if offset + size > len(payload):
            raise CorruptFile("payload shorter than declared shapes")
        arrays.append(
            np.frombuffer(payload[offset : offset + size], dtype="<f8").reshape(shape).copy()
        )
        offset += size
    if offset != len(payload):
        raise CorruptFile("payload longer than declared shapes")
    return arrays
