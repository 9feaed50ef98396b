"""Dataset ingestion, synthetic generators, and mini-batch sampling.

Datasets store features column-per-sample (d x N).  Classification
targets are an int vector of class indices; regression targets are a
(k x N) matrix; either way the samples sit on the targets' last axis.
Mini-batches are drawn uniformly with replacement from a seeded
generator, and the step-size model trains on its own subset: every
second sample of the parent ordering, a view that copies nothing.
"""

from __future__ import annotations

import csv
import math
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
# Largest CSV cell magnitude: squares of differences of such values, and their sums, stay finite.
CSV_MAX_ABS = 1e100
# Pixels `synth_classification` noises, blurs and quantizes at a time (128
# cache-sized images at side 28); the corpus bytes do not depend on it.
SYNTH_BLOCK_PIXELS = 128 * 28 * 28


@dataclass(frozen=True)
class Dataset:
    features: Matrix  # d x N
    targets: np.ndarray  # (N,) int class indices, or (k, N) float matrix
    kind: str

    def __post_init__(self):
        n, n_targets = self.features.shape[1], self.targets.shape[-1]
        if n != n_targets:
            raise DataFormatError(f"{n} feature columns but {n_targets} targets")

    @property
    def num_samples(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        return Dataset(self.features[:, indices], self.targets[..., indices], self.kind)


def standardize(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Both splits with each feature row shifted by the training split's
    mean and divided by its standard deviation, floored at VARIANCE_FLOOR."""
    mean = train.features.mean(axis=1)[:, None]
    scale = np.sqrt(np.maximum(train.features.var(axis=1), VARIANCE_FLOOR))[:, None]
    return tuple(Dataset((ds.features - mean) / scale, ds.targets, ds.kind) for ds in (train, test))


def pixel_dataset(pixels: np.ndarray, labels: np.ndarray) -> Dataset:
    """Classification dataset of (n, d) uint8 pixels, scaled to [0,1] by
    /255 into feature columns, and their n class labels."""
    return Dataset(pixels.T / 255.0, labels.astype(np.int64), CLASSIFICATION)


def meta_subset(dataset: Dataset) -> Dataset:
    """Samples 0, 2, 4, ... of `dataset`: a view by basic slicing, no copy."""
    return dataset.take(slice(0, None, 2))


def _read_be_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise DataFormatError(f"{path}: truncated header")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path, labels_path, limit: int | None = None) -> Dataset:
    """Decode a big-endian IDX image/label file pair.

    Images are flattened row-major into `pixel_dataset`'s feature
    columns; `limit` keeps only the first samples.  Bad magic
    numbers, truncation, or an image/label count mismatch raise
    DataFormatError without producing a partial dataset.
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
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=n, offset=8)
    return pixel_dataset(pixels.reshape(n, rows * cols)[:limit], labels[:limit])  # scale only the kept samples


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write an IDX image/label pair; `images` is (n, rows, cols) uint8."""
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def load_csv(path, target_column: str) -> Dataset:
    """Load a numeric CSV with a header row as a regression dataset.

    Features and targets stay in their raw units; `standardize` scales
    the features.
    """
    with open(path, newline="", encoding="utf-8-sig") as f:
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
                    values.append(math.nan)
                if not abs(values[-1]) <= CSV_MAX_ABS:  # float() parses nan and inf; no run trains on them
                    raise DataFormatError(
                        f"{path}: cell {cell!r} at row {r}, column {header[c] if c < len(header) else c} "
                        f"is not a finite number of magnitude at most {CSV_MAX_ABS:g}"
                    )
            if len(values) != len(header):
                raise DataFormatError(f"{path}: row {r} has {len(values)} cells, expected {len(header)}")
            rows.append(values)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    table = np.array(rows, dtype=np.float64)
    targets = table[:, t_idx].reshape(1, -1)
    features = np.delete(table, t_idx, axis=1).T

    return Dataset(features, targets, REGRESSION)


def synth_regression(seed, n: int, d: int, noise_sd: float) -> tuple[Dataset, Matrix]:
    """Linear data y = W* x + noise with standard-normal features.

    Returns the dataset and the true weights W* of shape (1, d), so the
    optimal 1-layer network is known exactly.
    """
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
    noise_sd: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic grayscale "glyph" images: sparse smooth class prototypes
    plus smoothed per-sample noise, quantized to uint8.

    Images are mostly-black with bright low-frequency blobs, so pixel
    statistics resemble scanned handwriting (mean intensity ~0.15).
    Returns (images (n, side, side) uint8, labels (n,) uint8), suitable
    for write_idx.  Each prototype peaks at 1, so difficulty is set by
    noise_sd; defaults are tuned so a small MLP lands in the mid-90s
    test accuracy, not at a ceiling.
    """
    if side < 2:  # a 1-pixel prototype is all 0 after its bright-third cut
        raise ValueError(f"need side >= 2, got side={side}")
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
    prototypes *= 1.0 / prototypes.max(axis=1, keepdims=True)
    prototypes = prototypes.reshape(num_classes, side, side)

    labels = rng.integers(0, num_classes, size=n).astype(np.uint8)
    # per-sample glyph variation: translation, intensity jitter, stroke noise
    max_shift = side // 7
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    gain = rng.uniform(0.6, 1.4, size=(n, 1))
    images = np.empty((n, side, side), dtype=np.uint8)
    m = max(1, SYNTH_BLOCK_PIXELS // d)
    for s in range(0, n, m):
        # block draws continue one stream: together they are one (n, d) draw
        e = min(s + m, n)
        rows = (np.arange(side)[None, :, None] - shifts[s:e, 0, None, None]) % side
        cols = (np.arange(side)[None, None, :] - shifts[s:e, 1, None, None]) % side
        glyphs = prototypes[labels[s:e, None, None], rows, cols].reshape(e - s, d)
        noise = smooth(rng.standard_normal((e - s, d)))
        pixels = np.clip(gain[s:e] * glyphs + noise_sd * noise, 0.0, 1.0)
        images[s:e] = np.round(pixels * 255.0).reshape(e - s, side, side)
    return images, labels


def sample_minibatch(dataset: Dataset, b: int, rng: np.random.Generator):
    """Draw b samples uniformly with replacement; deterministic per seed."""
    if b < 1:
        raise ValueError(f"batch size must be >= 1, got {b}")
    idx = rng.integers(0, dataset.num_samples, size=b)
    return dataset.features[:, idx], dataset.targets[..., idx]
