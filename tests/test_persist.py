"""Tests for the .rbag artifact serialization format."""

import hashlib
import json
import struct

import numpy as np
import pytest

import pairbag.persist as persist
from pairbag.calibrate import CalibrationReport
from pairbag.data import KShotDraw, SyntheticSpec, generate_synthetic
from pairbag.ensemble import Ensemble, predict_score
from pairbag.harness import TrialReport
from pairbag.learner import PretrainedExtractor, SiameseTopology, init_scratch
from pairbag.partition import ChunkAssignment, assign_chunks, make_chunk_plan
from pairbag.persist import (
    HEADER_SIZE,
    KIND_MODEL,
    MAGIC,
    PersistError,
    VERSION,
    from_bytes,
    load,
    save,
    to_bytes,
)


def dataset(seed=2):
    spec = SyntheticSpec(
        d=4, n_pos=6, n_neg=24, separation=3.0, noise_scale=1.0, seed=seed
    )
    return generate_synthetic(spec)


def topology():
    return SiameseTopology(extractor_sizes=(4, 6, 3), head_hidden=5)


def ensemble(m=3, seed=0):
    models = tuple(init_scratch(topology(), seed + i) for i in range(m))
    assignment = ChunkAssignment(model_count=m, assigned=np.arange(1, m + 1), seed=seed)
    draw = KShotDraw(k=2, indices=np.array([0, 1]), seed=seed)
    return Ensemble(models=models, assignment=assignment, draw=draw, seed=seed)


def trial_reports():
    cal = CalibrationReport(rms_error=6.0, mad_error=5.0, bins=((15, 0.9, 0.85),))
    return [
        TrialReport(
            trial_index=t, arm="scratch", k=2, ensemble_size=1,
            accuracy=90.0 + t, calibrations=(cal,),
        )
        for t in range(3)
    ]


class TestHeader:
    def test_layout(self):
        data = to_bytes(init_scratch(topology(), 1))
        assert data[:4] == MAGIC
        magic, version, kind, seed, payload_len, digest, reserved = struct.unpack(
            persist._HEADER_FMT, data[:HEADER_SIZE]
        )
        assert version == VERSION
        assert kind == KIND_MODEL
        assert payload_len == len(data) - HEADER_SIZE
        assert digest == hashlib.sha256(data[HEADER_SIZE:]).digest()
        assert reserved == b"\x00" * 8

    def test_header_is_64_bytes(self):
        assert HEADER_SIZE == 64
        assert struct.calcsize(persist._HEADER_FMT) == 64


class TestRoundTrips:
    def test_dataset(self, tmp_path):
        ds = dataset()
        path = save(ds, tmp_path / "data.rbag")
        loaded = load(path)
        np.testing.assert_array_equal(loaded.pre, ds.pre)
        np.testing.assert_array_equal(loaded.post, ds.post)
        np.testing.assert_array_equal(loaded.labels, ds.labels)
        assert loaded.pre.dtype == np.float64
        assert loaded.labels.dtype == np.int64

    def test_chunk_plan(self):
        plan = make_chunk_plan(dataset(), 4, 9)
        loaded = from_bytes(to_bytes(plan))
        assert loaded.k == plan.k and loaded.seed == plan.seed
        np.testing.assert_array_equal(loaded.chunks, plan.chunks)
        np.testing.assert_array_equal(loaded.dropped, plan.dropped)

    def test_assignment(self):
        plan = make_chunk_plan(dataset(), 4, 9)
        assignment = assign_chunks(plan, 3, 2)
        loaded = from_bytes(to_bytes(assignment))
        assert loaded.model_count == 3 and loaded.seed == 2
        np.testing.assert_array_equal(loaded.assigned, assignment.assigned)

    def test_model(self):
        model = init_scratch(topology(), 5)
        loaded = from_bytes(to_bytes(model))
        assert loaded.topology == model.topology
        assert loaded.init_mode == model.init_mode
        assert loaded.trained == model.trained
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_extractor(self):
        base = init_scratch(topology(), 6)
        ext = PretrainedExtractor(
            extractor_sizes=topology().extractor_sizes,
            weights=base.extractor_weights.copy(),
            source_seed=6,
        )
        loaded = from_bytes(to_bytes(ext))
        assert loaded.extractor_sizes == ext.extractor_sizes
        assert loaded.source_seed == 6
        np.testing.assert_array_equal(loaded.weights, ext.weights)

    def test_ensemble_reproduces_predictions(self, tmp_path):
        """A reloaded ensemble scores 100 random pairs bit-identically."""
        ens = ensemble()
        path = save(ens, tmp_path / "ens.rbag")
        loaded = load(path)
        assert loaded.size == ens.size
        assert loaded.seed == ens.seed
        np.testing.assert_array_equal(loaded.assignment.assigned, ens.assignment.assigned)
        np.testing.assert_array_equal(loaded.draw.indices, ens.draw.indices)
        rng = np.random.default_rng(77)
        pre = rng.standard_normal((100, 4))
        post = rng.standard_normal((100, 4))
        np.testing.assert_array_equal(
            predict_score(loaded, pre, post), predict_score(ens, pre, post)
        )

    def test_round_trip_bytes_are_stable(self):
        """Serializing a reloaded artifact yields the original bytes."""
        model = init_scratch(topology(), 8)
        data = to_bytes(model)
        assert to_bytes(from_bytes(data)) == data


class TestRejections:
    def test_unsupported_object(self):
        with pytest.raises(PersistError, match="cannot serialize"):
            to_bytes({"weights": [1, 2, 3]})

    def test_mixed_results_list(self):
        """Trial reports are written as JSONL only; no list is an artifact."""
        with pytest.raises(PersistError, match="cannot serialize"):
            to_bytes(trial_reports())
        with pytest.raises(PersistError, match="cannot serialize"):
            to_bytes(trial_reports() + ["not a report"])

    def test_truncated_header(self):
        with pytest.raises(PersistError, match="too short"):
            from_bytes(b"RBAG")

    def test_bad_magic(self):
        data = bytearray(to_bytes(init_scratch(topology(), 1)))
        data[:4] = b"NOPE"
        with pytest.raises(PersistError, match="bad magic"):
            from_bytes(bytes(data))

    def test_future_version(self):
        data = bytearray(to_bytes(init_scratch(topology(), 1)))
        data[4:6] = struct.pack("<H", VERSION + 1)
        with pytest.raises(PersistError, match="unsupported version"):
            from_bytes(bytes(data))

    def test_corrupted_payload_byte(self):
        data = bytearray(to_bytes(init_scratch(topology(), 1)))
        data[-1] ^= 0xFF
        with pytest.raises(PersistError, match="digest mismatch"):
            from_bytes(bytes(data))

    def test_truncated_payload(self):
        data = to_bytes(init_scratch(topology(), 1))
        with pytest.raises(PersistError, match="length"):
            from_bytes(data[:-4])

    def test_unknown_kind(self):
        """A valid container with an unregistered kind id is refused.

        Kind 6 (retired trial-report lists) stays reserved and unknown.
        """
        for kind in (99, 6):
            data = bytearray(to_bytes(init_scratch(topology(), 1)))
            data[6:8] = struct.pack("<H", kind)
            with pytest.raises(PersistError, match=f"unknown artifact kind {kind}"):
                from_bytes(bytes(data))

    def test_unsupported_dtype_in_manifest(self):
        doc = {"meta": {}, "arrays": [{"name": "x", "dtype": "<f4", "shape": [1]}]}
        meta = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        payload = struct.pack("<Q", len(meta)) + meta + struct.pack("<Q", 4) + b"\x00" * 4
        header = struct.pack(
            persist._HEADER_FMT,
            MAGIC,
            VERSION,
            persist.KIND_DATASET,
            0,
            len(payload),
            hashlib.sha256(payload).digest(),
            b"\x00" * 8,
        )
        with pytest.raises(PersistError, match="unsupported array dtype"):
            from_bytes(header + payload)

    def test_wrong_array_byte_length(self):
        doc = {"meta": {}, "arrays": [{"name": "x", "dtype": "<f8", "shape": [2]}]}
        meta = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        payload = struct.pack("<Q", len(meta)) + meta + struct.pack("<Q", 8) + b"\x00" * 8
        header = struct.pack(
            persist._HEADER_FMT,
            MAGIC,
            VERSION,
            persist.KIND_DATASET,
            0,
            len(payload),
            hashlib.sha256(payload).digest(),
            b"\x00" * 8,
        )
        with pytest.raises(PersistError, match="wrong byte length"):
            from_bytes(header + payload)
