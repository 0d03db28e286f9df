"""Versioned bit-exact serialization for the package's artifact types.

File format `.rbag`: a fixed 64-byte header followed by a sectioned payload.

Header layout (all integers little-endian):
    bytes  0-3    magic, b"RBAG"
    bytes  4-5    format version, u16 (currently 1)
    bytes  6-7    artifact kind, u16 (see KIND_* constants)
    bytes  8-15   creation seed, u64 (informational copy; 0 when seedless)
    bytes 16-23   payload length in bytes, u64
    bytes 24-55   SHA-256 digest of the payload, 32 bytes
    bytes 56-63   reserved, zero

The payload is a list of length-prefixed sections (u64 length + bytes).
Section 0 is a canonical JSON document carrying all metadata plus the dtype
and shape of every array section; the remaining sections are raw
little-endian array bytes (float64 or int64). No pickle is involved, so
loading never executes content; the digest is verified before decoding.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from pairbag.data import KShotDraw, PairDataset
from pairbag.ensemble import Ensemble
from pairbag.learner import BaseModel, PretrainedExtractor, SiameseTopology
from pairbag.partition import ChunkAssignment, ChunkPlan

MAGIC = b"RBAG"
VERSION = 1
HEADER_SIZE = 64
_HEADER_FMT = "<4sHHQQ32s8s"

KIND_DATASET = 1
KIND_PLAN = 2
KIND_ASSIGNMENT = 3
KIND_MODEL = 4
KIND_ENSEMBLE = 5
# Kind 6 (retired trial-report lists) stays reserved: an old file is refused, not misread.
KIND_EXTRACTOR = 7

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


class PersistError(ValueError):
    """Raised on malformed, corrupted, or unsupported artifact bytes."""


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _pack_payload(meta: dict, arrays: list[tuple[str, np.ndarray]]) -> bytes:
    manifest = []
    blobs = []
    for name, arr in arrays:
        dtype = "<i8" if arr.dtype.kind == "i" else "<f8"
        data = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        blobs.append(data.tobytes())
    sections = [_canonical_json({"meta": meta, "arrays": manifest})] + blobs
    out = bytearray()
    for section in sections:
        out += struct.pack("<Q", len(section))
        out += section
    return bytes(out)


def _unpack_payload(payload: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    sections = []
    offset = 0
    while offset < len(payload):
        if offset + 8 > len(payload):
            raise PersistError("truncated section length")
        (length,) = struct.unpack_from("<Q", payload, offset)
        offset += 8
        if offset + length > len(payload):
            raise PersistError("truncated section body")
        sections.append(payload[offset : offset + length])
        offset += length
    if not sections:
        raise PersistError("payload has no sections")
    try:
        doc = json.loads(sections[0])
        meta, manifest = doc["meta"], doc["arrays"]
    except (ValueError, KeyError, TypeError) as exc:
        raise PersistError(f"bad metadata section: {exc}") from exc
    if len(sections) - 1 != len(manifest):
        raise PersistError(
            f"{len(manifest)} arrays declared but {len(sections) - 1} sections present"
        )
    arrays = {}
    for entry, blob in zip(manifest, sections[1:]):
        dtype = _DTYPES.get(entry["dtype"])
        if dtype is None:
            raise PersistError(f"unsupported array dtype {entry['dtype']!r}")
        shape = tuple(int(s) for s in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        if len(blob) != count * dtype.itemsize:
            raise PersistError(f"array {entry['name']!r} has wrong byte length")
        arrays[entry["name"]] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
    return meta, arrays


# --- per-kind encoders/decoders ----------------------------------------------


def _encode_dataset(ds: PairDataset):
    return 0, {}, [("pre", ds.pre), ("post", ds.post), ("labels", ds.labels)]


def _decode_dataset(meta, arrays) -> PairDataset:
    return PairDataset(pre=arrays["pre"], post=arrays["post"], labels=arrays["labels"])


def _encode_plan(plan: ChunkPlan):
    meta = {"k": plan.k, "seed": plan.seed}
    return plan.seed, meta, [("chunks", plan.chunks), ("dropped", plan.dropped)]


def _decode_plan(meta, arrays) -> ChunkPlan:
    return ChunkPlan(
        k=int(meta["k"]),
        chunks=arrays["chunks"],
        dropped=arrays["dropped"],
        seed=int(meta["seed"]),
    )


def _encode_assignment(a: ChunkAssignment):
    meta = {"model_count": a.model_count, "seed": a.seed}
    return a.seed, meta, [("assigned", a.assigned)]


def _decode_assignment(meta, arrays) -> ChunkAssignment:
    return ChunkAssignment(
        model_count=int(meta["model_count"]),
        assigned=arrays["assigned"],
        seed=int(meta["seed"]),
    )


def _model_meta(model: BaseModel) -> dict:
    return {
        "extractor_sizes": list(model.topology.extractor_sizes),
        "head_hidden": model.topology.head_hidden,
        "init_mode": model.init_mode,
        "trained": model.trained,
    }


def _model_from_meta(meta: dict, weights: np.ndarray) -> BaseModel:
    topology = SiameseTopology(
        extractor_sizes=tuple(int(s) for s in meta["extractor_sizes"]),
        head_hidden=int(meta["head_hidden"]),
    )
    return BaseModel(
        topology=topology,
        weights=weights,
        init_mode=str(meta["init_mode"]),
        trained=bool(meta["trained"]),
    )


def _encode_model(model: BaseModel):
    return 0, _model_meta(model), [("weights", model.weights)]


def _decode_model(meta, arrays) -> BaseModel:
    return _model_from_meta(meta, arrays["weights"])


def _encode_extractor(ext: PretrainedExtractor):
    meta = {"extractor_sizes": list(ext.extractor_sizes), "source_seed": ext.source_seed}
    return ext.source_seed, meta, [("weights", ext.weights)]


def _decode_extractor(meta, arrays) -> PretrainedExtractor:
    return PretrainedExtractor(
        extractor_sizes=tuple(int(s) for s in meta["extractor_sizes"]),
        weights=arrays["weights"],
        source_seed=int(meta["source_seed"]),
    )


def _encode_ensemble(ens: Ensemble):
    meta = {
        "seed": ens.seed,
        "models": [_model_meta(m) for m in ens.models],
        "assignment": {"model_count": ens.assignment.model_count, "seed": ens.assignment.seed},
        "draw": {"k": ens.draw.k, "seed": ens.draw.seed},
    }
    arrays = [(f"model_{i}", m.weights) for i, m in enumerate(ens.models)]
    arrays.append(("assigned", ens.assignment.assigned))
    arrays.append(("draw_indices", ens.draw.indices))
    return ens.seed, meta, arrays


def _decode_ensemble(meta, arrays) -> Ensemble:
    models = tuple(
        _model_from_meta(m, arrays[f"model_{i}"]) for i, m in enumerate(meta["models"])
    )
    assignment = ChunkAssignment(
        model_count=int(meta["assignment"]["model_count"]),
        assigned=arrays["assigned"],
        seed=int(meta["assignment"]["seed"]),
    )
    draw = KShotDraw(
        k=int(meta["draw"]["k"]),
        indices=arrays["draw_indices"],
        seed=int(meta["draw"]["seed"]),
    )
    return Ensemble(models=models, assignment=assignment, draw=draw, seed=int(meta["seed"]))


# kind -> (artifact type, encoder to (seed, meta, arrays), decoder from (meta, arrays))
_KINDS = {
    KIND_DATASET: (PairDataset, _encode_dataset, _decode_dataset),
    KIND_PLAN: (ChunkPlan, _encode_plan, _decode_plan),
    KIND_ASSIGNMENT: (ChunkAssignment, _encode_assignment, _decode_assignment),
    KIND_MODEL: (BaseModel, _encode_model, _decode_model),
    KIND_ENSEMBLE: (Ensemble, _encode_ensemble, _decode_ensemble),
    KIND_EXTRACTOR: (PretrainedExtractor, _encode_extractor, _decode_extractor),
}


def _encode(artifact):
    for kind, (cls, encode, _) in _KINDS.items():
        if isinstance(artifact, cls):
            return (kind, *encode(artifact))
    raise PersistError(f"cannot serialize object of type {type(artifact).__name__}")


def to_bytes(artifact) -> bytes:
    """Serialize any supported artifact to .rbag bytes."""
    kind, seed, meta, arrays = _encode(artifact)
    payload = _pack_payload(meta, arrays)
    header = struct.pack(
        _HEADER_FMT,
        MAGIC,
        VERSION,
        kind,
        int(seed) & 0xFFFFFFFFFFFFFFFF,
        len(payload),
        hashlib.sha256(payload).digest(),
        b"\x00" * 8,
    )
    return header + payload


def from_bytes(data: bytes):
    """Decode .rbag bytes back into the original artifact.

    Verifies magic, version, length, and digest before touching the payload.
    """
    if len(data) < HEADER_SIZE:
        raise PersistError(f"file too short for a {HEADER_SIZE}-byte header")
    magic, version, kind, _seed, payload_len, digest, _reserved = struct.unpack(
        _HEADER_FMT, data[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise PersistError(f"bad magic {magic!r}, not an .rbag file")
    if version != VERSION:
        raise PersistError(f"unsupported version {version} (supported: {VERSION})")
    payload = data[HEADER_SIZE:]
    if len(payload) != payload_len:
        raise PersistError(
            f"payload length {len(payload)} does not match header ({payload_len})"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise PersistError("payload digest mismatch, file corrupted")
    if kind not in _KINDS:
        raise PersistError(f"unknown artifact kind {kind}")
    meta, arrays = _unpack_payload(payload)
    return _KINDS[kind][2](meta, arrays)


def save(artifact, path: str | Path) -> Path:
    """Write an artifact to an .rbag file and return the path."""
    path = Path(path)
    path.write_bytes(to_bytes(artifact))
    return path


def load(path: str | Path):
    """Read one artifact from an .rbag file."""
    return from_bytes(Path(path).read_bytes())
