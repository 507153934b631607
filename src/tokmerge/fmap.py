"""FMAP: a little-endian binary format for captured feature and guidance maps.

Layout:

    magic   4 bytes  b"FMAP"
    version u32      currently 1
    count   u32      number of records
    record: timestep u32, layer u32, n u32, c u32,
            n*c feature float32s, then n guidance float32s
            (all zeros where the layer had no guidance map yet)

All integers and floats are little-endian regardless of platform.  The parser
validates every declared count against the remaining byte budget before
allocating, and rejects trailing bytes, so corrupted input always surfaces as
a :class:`CaptureFormatError` naming the offending byte offset.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"FMAP"
VERSION = 1

_HEADER = struct.Struct("<4sII")
_RECORD_HEADER = struct.Struct("<IIII")


class CaptureFormatError(ValueError):
    """Malformed FMAP data; ``offset`` is where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False)
class CaptureRecord:
    """One layer input: token features (n, c) and the planning guidance (n,)."""

    timestep: int
    layer: int
    features: np.ndarray
    guidance: np.ndarray

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.float32)
        guidance = np.ascontiguousarray(self.guidance, dtype=np.float32)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if guidance.shape != (features.shape[0],):
            raise ValueError(
                f"guidance shape {guidance.shape} does not match "
                f"{features.shape[0]} tokens"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "guidance", guidance)


def write_capture(path: str | Path, records: list[CaptureRecord]) -> int:
    """Write records to ``path``; returns the number of bytes written."""
    chunks = [_HEADER.pack(MAGIC, VERSION, len(records))]
    for rec in records:
        n, c = rec.features.shape
        chunks.append(_RECORD_HEADER.pack(rec.timestep, rec.layer, n, c))
        chunks.append(rec.features.astype("<f4", copy=False).tobytes())
        chunks.append(rec.guidance.astype("<f4", copy=False).tobytes())
    blob = b"".join(chunks)
    Path(path).write_bytes(blob)
    return len(blob)


def parse_capture(data: bytes) -> list[CaptureRecord]:
    """Parse FMAP bytes; strict about counts, lengths, and trailing bytes."""
    if len(data) < _HEADER.size:
        raise CaptureFormatError("truncated header", len(data))
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise CaptureFormatError(f"bad magic {magic!r}", 0)
    if version != VERSION:
        raise CaptureFormatError(f"unsupported version {version}", 4)
    pos = _HEADER.size
    records: list[CaptureRecord] = []
    for i in range(count):
        if len(data) - pos < _RECORD_HEADER.size:
            raise CaptureFormatError(f"truncated header of record {i}", pos)
        timestep, layer, n, c = _RECORD_HEADER.unpack_from(data, pos)
        feat_bytes = 4 * n * c
        guid_bytes = 4 * n
        payload_end = pos + _RECORD_HEADER.size + feat_bytes + guid_bytes
        if payload_end > len(data):
            raise CaptureFormatError(
                f"record {i} declares {feat_bytes + guid_bytes} payload bytes "
                "but the file is too short",
                pos,
            )
        feat_off = pos + _RECORD_HEADER.size
        features = (
            np.frombuffer(data, dtype="<f4", count=n * c, offset=feat_off)
            .reshape(n, c)
            .astype(np.float32)
        )
        guidance = np.frombuffer(
            data, dtype="<f4", count=n, offset=feat_off + feat_bytes
        ).astype(np.float32)
        records.append(CaptureRecord(timestep, layer, features, guidance))
        pos = payload_end
    if pos != len(data):
        raise CaptureFormatError(f"{len(data) - pos} trailing bytes", pos)
    return records


def read_capture(path: str | Path) -> list[CaptureRecord]:
    """Read and parse an FMAP file."""
    return parse_capture(Path(path).read_bytes())
