"""Pair datasets: synthetic generation, manifest ingestion, k-shot sampling.

A sample is a (pre, post) pair of equal-length feature vectors with a binary
label (1 = changed/positive, 0 = unchanged/negative). Datasets are immutable
numpy-backed containers; every randomized operation is a pure function of its
inputs and a seed.
"""

from __future__ import annotations

import csv
import errno
import io
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class ManifestError(ValueError):
    """Raised when a manifest or one of its vector files is invalid."""


@dataclass(frozen=True, eq=False)
class PairDataset:
    """Immutable collection of pair samples split into positives and negatives.

    Arrays are stored float64, row i holding sample i. At least one negative
    is required (a dataset with no majority class cannot be partitioned).
    """

    pre: np.ndarray
    post: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        pre = np.ascontiguousarray(self.pre, dtype=np.float64)
        post = np.ascontiguousarray(self.post, dtype=np.float64)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if pre.ndim != 2 or post.ndim != 2:
            raise ValueError("pre and post must be 2-D (n_samples, dim) arrays")
        if pre.shape != post.shape:
            raise ValueError(f"pre and post shapes differ: {pre.shape} vs {post.shape}")
        if pre.shape[1] < 1:
            raise ValueError("feature dimension must be >= 1")
        if labels.shape != (pre.shape[0],):
            raise ValueError("labels must be 1-D with one entry per sample")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must all be 0 or 1")
        if int((labels == 0).sum()) < 1:
            raise ValueError("dataset must contain at least one negative sample")
        for arr in (pre, post, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "post", post)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.pre.shape[1]

    @property
    def positives(self) -> np.ndarray:
        """Indices of positive (label 1) samples."""
        return np.flatnonzero(self.labels == 1)

    @property
    def negatives(self) -> np.ndarray:
        """Indices of negative (label 0) samples."""
        return np.flatnonzero(self.labels == 0)

    def __len__(self) -> int:
        return self.pre.shape[0]

    def subset(self, indices: np.ndarray) -> "PairDataset":
        """New dataset holding the given rows (order preserved)."""
        idx = np.asarray(indices, dtype=np.int64)
        return PairDataset(self.pre[idx], self.post[idx], self.labels[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic pair generator.

    Negative pairs satisfy post = pre + noise; positive pairs additionally
    shift post by `separation` along a fixed unit direction drawn from the
    seed. `separation` is the distance between the class-conditional means
    of the pair difference (post - pre).
    """

    d: int
    n_pos: int
    n_neg: int
    separation: float
    noise_scale: float
    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.n_pos < 0:
            raise ValueError(f"n_pos must be >= 0, got {self.n_pos}")
        if self.n_neg < 1:
            raise ValueError(f"n_neg must be >= 1, got {self.n_neg}")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")
        if not (math.isfinite(self.noise_scale) and self.noise_scale > 0):
            raise ValueError(f"noise_scale must be finite and > 0, got {self.noise_scale}")


@dataclass(frozen=True)
class KShotDraw:
    """k positive indices sampled without replacement from a dataset."""

    k: int
    indices: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        idx = np.ascontiguousarray(self.indices, dtype=np.int64)
        if idx.shape != (self.k,):
            raise ValueError(f"expected {self.k} indices, got shape {idx.shape}")
        if len(np.unique(idx)) != self.k:
            raise ValueError("k-shot indices must be distinct")
        idx.setflags(write=False)
        object.__setattr__(self, "indices", idx)


def generate_synthetic(spec: SyntheticSpec) -> PairDataset:
    """Generate an imbalanced synthetic pair dataset.

    Positives come first (rows 0..n_pos-1), then negatives. The pair
    difference is Gaussian(0, noise_scale^2 I) for negatives and
    Gaussian(separation * u, noise_scale^2 I) for positives, with u a unit
    direction derived from the seed. Bit-identical for equal specs.
    """
    rng = np.random.default_rng(spec.seed)
    u = rng.standard_normal(spec.d)
    u /= np.linalg.norm(u)
    n = spec.n_pos + spec.n_neg
    pre = rng.standard_normal((n, spec.d))
    post = pre + spec.noise_scale * rng.standard_normal((n, spec.d))
    post[: spec.n_pos] += spec.separation * u
    labels = np.concatenate(
        [np.ones(spec.n_pos, dtype=np.int64), np.zeros(spec.n_neg, dtype=np.int64)]
    )
    return PairDataset(pre, post, labels)


def draw_k_shot(dataset: PairDataset, k: int, seed: int) -> KShotDraw:
    """Sample k distinct positive indices without replacement.

    Negatives are untouched: the full negative pool stays available to the
    partitioning stage regardless of k.
    """
    positives = dataset.positives
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(positives):
        raise ValueError(f"k={k} exceeds the {len(positives)} available positives")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(positives, size=k, replace=False)
    return KShotDraw(k=k, indices=np.sort(chosen), seed=seed)


# --- manifest format -------------------------------------------------------
#
# manifest.csv with header `pre_path,post_path,label`; paths are resolved
# relative to the manifest's directory. Each vector file is little-endian
# binary: a 4-byte unsigned length d followed by d float32 values.

_MANIFEST_HEADER = ["pre_path", "post_path", "label"]


# Errors of opening a path that Path.is_file() reads as "no such file".
_MISSING = {errno.ENOENT, errno.ENOTDIR, errno.ELOOP}


def _regular_file_bytes(name: str) -> bytes | None:
    """The bytes of regular file `name`; None where Path.is_file() is False."""
    try:
        # Non-blocking, so that opening a FIFO does not wait for a writer.
        fd = os.open(name, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except ValueError:  # a NUL byte in the name
        return None
    except OSError as exc:
        if exc.errno in _MISSING:
            return None
        raise
    try:
        info = os.fstat(fd)
        return os.read(fd, info.st_size) if stat.S_ISREG(info.st_mode) else None
    finally:
        os.close(fd)


def _read_vector(name: str, row: int) -> memoryview:
    """The float32 payload bytes of vector file `name`, its header and length
    checked; errors name it as a Path."""
    blob = _regular_file_bytes(name)
    if blob is None:
        raise ManifestError(f"manifest row {row}: vector file not found: {Path(name)}")
    if len(blob) < 4:
        raise ManifestError(f"manifest row {row}: vector file too short: {Path(name)}")
    (d,) = struct.unpack_from("<I", blob)
    if d == 0:
        raise ManifestError(f"manifest row {row}: vector file {Path(name)} holds no features")
    if len(blob) != 4 + 4 * d:
        raise ManifestError(
            f"manifest row {row}: vector file {Path(name)} declares {d} floats "
            f"but holds {len(blob) - 4} bytes of payload"
        )
    return memoryview(blob)[4:]


def _write_vector(path: Path, vec: np.ndarray) -> None:
    data = np.asarray(vec, dtype="<f4")
    path.write_bytes(struct.pack("<I", data.shape[0]) + data.tobytes())


def read_utf8(path: str | Path, what: str, error: type[ValueError] = ValueError) -> str:
    """The file's text, less a leading BOM; non-UTF-8 bytes raise `error` naming what and path."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from None


def load_manifest(path: str | Path) -> PairDataset:
    """Load a dataset from a UTF-8 manifest CSV and its referenced vector files.

    Rows are checked in file order, and the first bad row is named by its
    1-based data row, a CSV-level error included. A row whose pre and post
    vectors repeat an earlier row's, compared as the float32 bytes stored in
    the files, is an error naming both rows. Non-finite values are checked
    after every row is read, and then that the manifest holds a negative.
    """
    path = Path(path)
    if not path.is_file():
        raise ManifestError(f"manifest not found: {path}")
    text = read_utf8(path, "manifest", ManifestError)
    base = path.parent
    reader = csv.reader(io.StringIO(text, newline=""))
    header: list[str] | None = None
    labels: list[int] = []
    dim: int | None = None
    # Each accepted row's pre payload then its post payload, as little-endian
    # float32, mapped to its row number; in file order, as a dict keeps them.
    rows_of: dict[bytes, int] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise ManifestError(f"manifest {path} is empty (missing header)")
        if [h.strip() for h in header] != _MANIFEST_HEADER:
            raise ManifestError(
                f"manifest {path} has header {header!r}, expected {_MANIFEST_HEADER!r}"
            )
        for row_no, row in enumerate(reader, start=1):
            if len(row) != 3:
                raise ManifestError(
                    f"manifest row {row_no}: expected 3 fields, got {len(row)}"
                )
            pre_path, post_path, label_text = (f.strip() for f in row)
            if label_text not in ("0", "1"):
                raise ManifestError(
                    f"manifest row {row_no}: label must be 0 or 1, got {label_text!r}"
                )
            pre = _read_vector(os.path.join(base, pre_path), row_no)
            post = _read_vector(os.path.join(base, post_path), row_no)
            if len(pre) != len(post):
                raise ManifestError(
                    f"manifest row {row_no}: pre has {len(pre) // 4} features "
                    f"but post has {len(post) // 4}"
                )
            if dim is None:
                dim = len(pre) // 4
            elif len(pre) != 4 * dim:
                raise ManifestError(
                    f"manifest row {row_no}: dimension {len(pre) // 4} differs "
                    f"from first row's {dim}"
                )
            key = b"".join((pre, post))
            if key in rows_of:
                raise ManifestError(
                    f"manifest row {row_no}: pair repeats row {rows_of[key]}, so the "
                    "two copies could land on both sides of the train/test split"
                )
            rows_of[key] = row_no
            labels.append(int(label_text))
    except csv.Error as exc:
        where = f"{path} header" if header is None else f"row {len(labels) + 1}"
        raise ManifestError(f"manifest {where}: {exc}") from None
    if not labels:
        raise ManifestError(f"manifest {path} has no data rows")
    pairs = np.frombuffer(b"".join(rows_of), "<f4").reshape(len(labels), 2, dim)
    finite = np.isfinite(pairs).all(axis=(1, 2))
    if not finite.all():
        row_no = int(np.argmin(finite)) + 1
        raise ManifestError(f"manifest row {row_no}: vector holds a non-finite value")
    if 0 not in labels:
        raise ManifestError(f"manifest {path} has no negative samples")
    return PairDataset(pairs[:, 0], pairs[:, 1], np.array(labels))


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path through `<name>.tmp` beside it and a rename.

    path holds either its old bytes or all of the new ones; on failure the
    temp file is removed and the error propagates.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_manifest(dataset: PairDataset, out_dir: str | Path) -> Path:
    """Export a dataset to manifest format; returns the manifest path.

    Vectors are written as float32 per the wire format, so values are
    rounded to float32 precision. The vector files are written in place
    first and manifest.csv last, atomically: an export that fails leaves
    no new manifest, and an old one keeps its bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = io.StringIO()
    writer = csv.writer(rows)
    writer.writerow(_MANIFEST_HEADER)
    for i in range(len(dataset)):
        pre_name = f"pair{i:06d}_pre.vec"
        post_name = f"pair{i:06d}_post.vec"
        _write_vector(out / pre_name, dataset.pre[i])
        _write_vector(out / post_name, dataset.post[i])
        writer.writerow([pre_name, post_name, int(dataset.labels[i])])
    manifest = out / "manifest.csv"
    write_atomic(manifest, rows.getvalue())
    return manifest
