"""Dataset ingestion, synthetic generators, and mini-batch sampling.

Datasets store features column-per-sample (d x N).  Classification
targets are an int vector of class indices; regression targets are a
(k x N) matrix.  Mini-batches are drawn uniformly with replacement from
a seeded generator, and the step-size model trains on its own subset:
every second sample of the parent ordering.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .numerics import Matrix

CLASSIFICATION = "classification"
REGRESSION = "regression"

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class Dataset:
    features: Matrix  # d x N
    targets: np.ndarray  # (N,) int class indices, or (k, N) float matrix
    kind: str
    normalization: tuple[np.ndarray, np.ndarray] | None = None  # (mean, scale)

    def __post_init__(self):
        n = self.features.shape[1]
        n_targets = self.targets.shape[0] if self.targets.ndim == 1 else self.targets.shape[1]
        if n != n_targets:
            raise DataFormatError(f"{n} feature columns but {n_targets} targets")

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.kind != CLASSIFICATION:
            raise ValueError("num_classes is only defined for classification data")
        return int(self.targets.max()) + 1

    def take(self, indices) -> "Dataset":
        targets = self.targets[indices] if self.targets.ndim == 1 else self.targets[:, indices]
        return Dataset(self.features[:, indices], targets, self.kind, self.normalization)

    def standardized(self, stats=None) -> "Dataset":
        """Features shifted and scaled per row to zero mean / unit variance.

        `stats` is a (mean, scale) pair from another split to reuse; by
        default both come from this dataset.
        """
        if stats is None:
            mean = self.features.mean(axis=1)
            stats = (mean, np.sqrt(np.maximum(self.features.var(axis=1), VARIANCE_FLOOR)))
        mean, scale = stats
        features = (self.features - mean[:, None]) / scale[:, None]
        return Dataset(features, self.targets, self.kind, stats)

    def head(self, n: int) -> "Dataset":
        """First n samples (desk-scale subsetting)."""
        return self.take(np.arange(min(n, self.num_samples)))


@dataclass(frozen=True)
class MetaSubset:
    """Index view into a parent dataset: samples 0, 2, 4, ..."""

    dataset: Dataset
    indices: np.ndarray

    @property
    def num_samples(self) -> int:
        return len(self.indices)


def meta_subset(dataset: Dataset) -> MetaSubset:
    if dataset.num_samples == 0:
        raise ValueError("dataset is empty")
    return MetaSubset(dataset, np.arange(0, dataset.num_samples, 2))


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise DataFormatError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Decode a big-endian IDX image/label file pair.

    Pixels are scaled to [0,1] by /255 and flattened row-major into
    feature columns.  Bad magic numbers, truncation, or an image/label
    count mismatch raise DataFormatError without producing a partial
    dataset.
    """
    with open(images_path, "rb") as f:
        img_buf = f.read()
    with open(labels_path, "rb") as f:
        lab_buf = f.read()

    magic = _read_be_u32(img_buf, 0, str(images_path))
    if magic != IDX_IMAGE_MAGIC:
        raise DataFormatError(f"{images_path}: bad image magic 0x{magic:08x}")
    n = _read_be_u32(img_buf, 4, str(images_path))
    rows = _read_be_u32(img_buf, 8, str(images_path))
    cols = _read_be_u32(img_buf, 12, str(images_path))
    if len(img_buf) < 16 + n * rows * cols:
        raise DataFormatError(
            f"{images_path}: truncated pixel data ({len(img_buf) - 16} bytes for {n}x{rows}x{cols})"
        )

    magic = _read_be_u32(lab_buf, 0, str(labels_path))
    if magic != IDX_LABEL_MAGIC:
        raise DataFormatError(f"{labels_path}: bad label magic 0x{magic:08x}")
    n_labels = _read_be_u32(lab_buf, 4, str(labels_path))
    if len(lab_buf) < 8 + n_labels:
        raise DataFormatError(
            f"{labels_path}: truncated label data ({len(lab_buf) - 8} bytes for {n_labels})"
        )
    if n != n_labels:
        raise DataFormatError(f"{n} images but {n_labels} labels")

    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=n * rows * cols, offset=16)
    features = (pixels.reshape(n, rows * cols).T / 255.0).astype(np.float64)
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    ds = Dataset(features, labels, CLASSIFICATION)
    return ds.head(limit) if limit is not None else ds


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write an IDX image/label pair; `images` is (n, rows, cols) uint8."""
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def load_csv(path, target_column: str, standardize: bool = False, norm_stats=None) -> Dataset:
    """Load a numeric CSV with a header row as a regression dataset.

    Features may be standardized to zero mean / unit variance; pass
    `norm_stats` from a previously loaded split to reuse its statistics.
    Targets stay in their raw units.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if target_column not in header:
            raise DataFormatError(f"{path}: no column named {target_column!r} in {header}")
        t_idx = header.index(target_column)
        rows = []
        for r, row in enumerate(reader, start=2):
            values = []
            for c, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: non-numeric cell {cell!r} at row {r}, column {header[c] if c < len(header) else c}"
                    ) from None
            if len(values) != len(header):
                raise DataFormatError(f"{path}: row {r} has {len(values)} cells, expected {len(header)}")
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    table = np.array(rows, dtype=np.float64)
    targets = table[:, t_idx].reshape(1, -1)
    features = np.delete(table, t_idx, axis=1).T

    ds = Dataset(features, targets, REGRESSION)
    if norm_stats is not None or standardize:
        ds = ds.standardized(norm_stats)
    return ds


def synth_regression(seed, n: int, d: int, noise_sd: float) -> tuple[Dataset, Matrix]:
    """Linear data y = W* x + noise with standard-normal features.

    Returns the dataset and the true weights W* of shape (1, d), so the
    optimal 1-layer network is known exactly.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n} d={d}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((d, n))
    w_true = rng.standard_normal((1, d))
    y = w_true @ x + noise_sd * rng.standard_normal((1, n))
    return Dataset(x, y, REGRESSION), w_true


def synth_classification(
    seed,
    n: int,
    side: int = 28,
    num_classes: int = 10,
    separation: float = 1.0,
    noise_sd: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic grayscale "glyph" images: sparse smooth class prototypes
    plus smoothed per-sample noise, quantized to uint8.

    Images are mostly-black with bright low-frequency blobs, so pixel
    statistics resemble scanned handwriting (mean intensity ~0.15).
    Returns (images (n, side, side) uint8, labels (n,) uint8), suitable
    for write_idx.  Difficulty is set by noise_sd relative to
    separation; defaults are tuned so a small MLP lands in the mid-90s
    test accuracy, not at a ceiling.
    """
    rng = np.random.default_rng(seed)
    d = side * side

    def smooth(img_rows: np.ndarray) -> np.ndarray:
        # cheap separable 5-tap box blur, applied twice
        imgs = img_rows.reshape(-1, side, side)
        for _ in range(2):
            acc = np.zeros_like(imgs)
            for off in range(-2, 3):
                acc += np.roll(imgs, off, axis=1) + np.roll(imgs, off, axis=2)
            imgs = acc / 10.0
        return imgs.reshape(-1, d)

    base = smooth(rng.standard_normal((num_classes, d)))
    # keep only the bright third of each prototype: sparse ink on black
    cut = np.quantile(base, 0.7, axis=1, keepdims=True)
    prototypes = np.maximum(base - cut, 0.0)
    prototypes *= separation / prototypes.max(axis=1, keepdims=True)
    prototypes = prototypes.reshape(num_classes, side, side)

    labels = rng.integers(0, num_classes, size=n).astype(np.uint8)
    # per-sample glyph variation: translation, intensity jitter, stroke noise
    max_shift = side // 7
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    gain = rng.uniform(0.6, 1.4, size=(n, 1))
    glyphs = prototypes[labels]
    rows = (np.arange(side)[None, :, None] - shifts[:, 0, None, None]) % side
    cols = (np.arange(side)[None, None, :] - shifts[:, 1, None, None]) % side
    glyphs = glyphs[np.arange(n)[:, None, None], rows, cols].reshape(n, d)
    noise = smooth(rng.standard_normal((n, d)))
    pixels = np.clip(gain * glyphs + noise_sd * noise, 0.0, 1.0)
    images = np.round(pixels * 255.0).astype(np.uint8).reshape(n, side, side)
    return images, labels


def sample_minibatch(source, b: int, rng: np.random.Generator):
    """Draw b samples uniformly with replacement; deterministic per seed."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    if isinstance(source, MetaSubset):
        if source.num_samples == 0:
            raise ValueError("cannot sample from an empty subset")
        idx = source.indices[rng.integers(0, source.num_samples, size=b)]
        dataset = source.dataset
    else:
        dataset = source
        if dataset.num_samples == 0:
            raise ValueError("cannot sample from an empty dataset")
        idx = rng.integers(0, dataset.num_samples, size=b)
    x = dataset.features[:, idx]
    y = dataset.targets[idx] if dataset.targets.ndim == 1 else dataset.targets[:, idx]
    return x, y
