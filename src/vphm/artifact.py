"""Versioned binary model container.

Layout: magic ``VPHM1``, a uint32 little-endian header length, a UTF-8 JSON
header (model kind, free-form metadata, array manifest), then the raw
payload: each manifest entry's values as little-endian float64, row-major,
in manifest order. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"VPHM1"


class ArtifactError(ValueError):
    """Corrupt, truncated or wrong-version artifact file."""


def save_artifact(path, model_kind: str, meta: dict, arrays: dict) -> None:
    """Write a model artifact. ``arrays`` maps names to float arrays; the
    manifest preserves insertion order so identical inputs yield identical
    bytes."""
    manifest = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f8")
        manifest.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes(order="C"))
    header = json.dumps(
        {"model_kind": model_kind, "meta": meta, "manifest": manifest},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_artifact(path):
    """Read an artifact back as (model_kind, meta, arrays)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ArtifactError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        size = fh.read(4)
        if len(size) != 4:
            raise ArtifactError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<I", size)
        raw = fh.read(header_len)
        if len(raw) != header_len:
            raise ArtifactError(f"{path}: truncated header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(f"{path}: unreadable header: {exc}") from exc
        arrays = {}
        for entry in header["manifest"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            blob = fh.read(count * 8)
            if len(blob) != count * 8:
                raise ArtifactError(f"{path}: truncated payload at {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8").reshape(shape).copy()
        trailing = fh.read(1)
        if trailing:
            raise ArtifactError(f"{path}: trailing bytes after payload")
    return header["model_kind"], header["meta"], arrays
