"""Experiment data: the noisy-sphere generator, IDX-format digit files, and
CSV/JSON import/export for latents, histograms, and sampler checkpoints."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pca import Dataset, center
from .stiefel import ORTHONORMALITY_TOL, frames_orthonormal

__all__ = [
    "IdxFormatError",
    "RawImageSet",
    "generate_sphere",
    "load_idx_images",
    "load_idx_labels",
    "load_image_set",
    "write_idx_images",
    "write_idx_labels",
    "subsample_images",
    "select_digit_subset",
    "to_dataset",
    "export_matrix_csv",
    "import_matrix_csv",
    "export_histogram_csv",
    "save_json",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointData",
    "data_sha256",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file; the message names the offending byte offset."""


@dataclass(eq=False)
class RawImageSet:
    """n images stored row-major as an n x (rows*cols) uint8 matrix."""

    images: np.ndarray
    rows: int
    cols: int
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.uint8)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[1] != self.rows * self.cols:
            raise ValueError("images must be n x (rows*cols)")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("label count must equal image count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must be digits 0-9")

    @property
    def n(self) -> int:
        return self.images.shape[0]


def generate_sphere(
    n: int, noise_sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, Dataset]:
    """n uniform points on the unit sphere in R^3 plus isotropic Gaussian noise.

    Returns the raw points (sphere centered at the origin) and the centered
    Dataset built from them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    g = rng.standard_normal((n, 3))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        g[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(g, axis=1)
    points = g / norms[:, None]
    raw = points + noise_sigma * rng.standard_normal((n, 3))
    return raw, center(raw)


def _read_header_fields(data: bytes, path, expected_magic: int, n_fields: int) -> tuple[int, ...]:
    # The magic is checked before the header length so that a too-short file
    # of the wrong kind is still reported as a magic mismatch.
    if len(data) < 4:
        raise IdxFormatError(
            f"{path}: truncated header, file ends at offset {len(data)}"
        )
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: wrong magic 0x{magic:08x} at offset 0 "
            f"(expected 0x{expected_magic:08x})"
        )
    header_len = 4 * n_fields
    if len(data) < header_len:
        raise IdxFormatError(
            f"{path}: truncated header, file ends at offset {len(data)} "
            f"(need {header_len} bytes)"
        )
    return struct.unpack(f">{n_fields}I", data[:header_len])


def load_idx_images(path) -> tuple[np.ndarray, int, int]:
    """Parse a big-endian IDX image file; returns (n x (rows*cols) uint8, rows, cols)."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, count, rows, cols = _read_header_fields(data, path, IDX_IMAGE_MAGIC, 4)
    for offset, name, value in ((4, "count", count), (8, "rows", rows), (12, "cols", cols)):
        if value > 2**31 - 1:
            raise IdxFormatError(
                f"{path}: {name} {value} at offset {offset} overflows a signed int32"
            )
    expected = 16 + count * rows * cols
    if len(data) < expected:
        raise IdxFormatError(
            f"{path}: truncated file, ends at offset {len(data)} "
            f"(pixel data needs {expected} bytes)"
        )
    if len(data) > expected:
        raise IdxFormatError(f"{path}: trailing bytes after offset {expected}")
    images = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    return images.copy(), rows, cols


def load_idx_labels(path) -> np.ndarray:
    """Parse a big-endian IDX label file; returns an n-vector of uint8 labels."""
    with open(path, "rb") as fh:
        data = fh.read()
    _, count = _read_header_fields(data, path, IDX_LABEL_MAGIC, 2)
    if count > 2**31 - 1:
        raise IdxFormatError(
            f"{path}: count {count} at offset 4 overflows a signed int32"
        )
    expected = 8 + count
    if len(data) < expected:
        raise IdxFormatError(
            f"{path}: truncated file, ends at offset {len(data)} "
            f"(label data needs {expected} bytes)"
        )
    if len(data) > expected:
        raise IdxFormatError(f"{path}: trailing bytes after offset {expected}")
    return np.frombuffer(data, dtype=np.uint8, offset=8).copy()


def load_image_set(images_path, labels_path) -> RawImageSet:
    images, rows, cols = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if labels.shape[0] != images.shape[0]:
        raise IdxFormatError(
            f"{labels_path}: {labels.shape[0]} labels for {images.shape[0]} images"
        )
    return RawImageSet(images=images, rows=rows, cols=cols, labels=labels)


def write_idx_images(path, images: np.ndarray, rows: int, cols: int) -> None:
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim != 2 or images.shape[1] != rows * cols:
        raise ValueError("images must be n x (rows*cols)")
    with open(path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGE_MAGIC, images.shape[0], rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())


def subsample_images(image_set: RawImageSet, factor: int, mode: str = "stride") -> RawImageSet:
    """Shrink every image by ``factor``.

    "stride" keeps pixel (factor*r, factor*c); "mean" averages factor x factor
    blocks and rounds back to uint8.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if image_set.rows % factor or image_set.cols % factor:
        raise ValueError(
            f"factor {factor} does not divide {image_set.rows}x{image_set.cols}"
        )
    if mode not in ("stride", "mean"):
        raise ValueError(f"unknown mode {mode!r}")
    n = image_set.n
    rows, cols = image_set.rows, image_set.cols
    imgs = image_set.images.reshape(n, rows, cols)
    r2, c2 = rows // factor, cols // factor
    if mode == "stride":
        small = imgs[:, ::factor, ::factor]
    else:
        blocks = imgs.reshape(n, r2, factor, c2, factor).astype(float)
        small = np.rint(blocks.mean(axis=(2, 4))).astype(np.uint8)
    return RawImageSet(
        images=small.reshape(n, r2 * c2).copy(),
        rows=r2,
        cols=c2,
        labels=image_set.labels.copy(),
    )


def select_digit_subset(
    image_set: RawImageSet, classes, per_class: int, rng: np.random.Generator
) -> RawImageSet:
    """Uniform without-replacement pick of per_class images from each class,
    concatenated class by class and then shuffled."""
    if per_class < 0:
        raise ValueError("per_class must be >= 0")
    chosen = []
    for cls in classes:
        pool = np.flatnonzero(image_set.labels == cls)
        if pool.size < per_class:
            raise ValueError(
                f"class {cls} has only {pool.size} instances, need {per_class}"
            )
        chosen.append(rng.choice(pool, size=per_class, replace=False))
    idx = np.concatenate(chosen) if chosen else np.empty(0, dtype=int)
    idx = idx[rng.permutation(idx.size)]
    return RawImageSet(
        images=image_set.images[idx],
        rows=image_set.rows,
        cols=image_set.cols,
        labels=image_set.labels[idx],
    )


def to_dataset(image_set: RawImageSet) -> Dataset:
    """Flatten to p = rows*cols reals in [0, 1] and center."""
    if image_set.n < 1:
        raise ValueError("need at least one image")
    x = image_set.images.astype(float) / 255.0
    return center(x, labels=image_set.labels)


def _format_float(v: float) -> str:
    # repr round-trips float64 exactly, so parse-back is bit-identical.
    return repr(float(v))


def export_matrix_csv(path, matrix: np.ndarray, labels=None, prefix: str = "latent") -> None:
    """Write an n x d matrix with a header row; columns prefix_1..prefix_d plus
    an integer label column when labels are given."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected an n x d matrix")
    header = [f"{prefix}_{k + 1}" for k in range(matrix.shape[1])]
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (matrix.shape[0],):
            raise ValueError("labels must have one entry per row")
        header.append("label")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(matrix.shape[0]):
            row = [_format_float(v) for v in matrix[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def import_matrix_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of export_matrix_csv; returns (matrix, labels-or-None)."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        has_labels = bool(header) and header[-1] == "label"
        n_cols = len(header) - int(has_labels)
        values, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values.append([float(v) for v in row[:n_cols]])
                if has_labels:
                    labels.append(int(row[-1]))
            except ValueError as err:
                raise ValueError(f"{path}: line {line_no}: {err}") from None
            if not all(map(math.isfinite, values[-1])):
                raise ValueError(f"{path}: line {line_no}: non-finite value")
    matrix = np.asarray(values, dtype=float).reshape(len(values), n_cols)
    return matrix, (np.asarray(labels, dtype=int) if has_labels else None)


def export_histogram_csv(path, hist) -> None:
    """Write a histogram as bin_left, bin_right, count rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for k in range(len(hist.counts)):
            writer.writerow(
                [
                    _format_float(hist.bin_edges[k]),
                    _format_float(hist.bin_edges[k + 1]),
                    str(int(hist.counts[k])),
                ]
            )


def save_json(path, obj) -> None:
    """Deterministic JSON dump (sorted keys, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def data_sha256(y: np.ndarray) -> str:
    """SHA-256 of a data matrix: its shape, then its float64 values in C order."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    digest = hashlib.sha256(repr(y.shape).encode())
    digest.update(y.tobytes())
    return digest.hexdigest()


@dataclass(eq=False)
class CheckpointData:
    """Deserialized sampler checkpoint."""

    n: int
    p: int
    d: int
    sigma2: float
    seed: int
    counter: int
    transformations: np.ndarray  # (n, p, d)
    latents: np.ndarray  # (n, d)
    # The chain's fingerprint: resolved hyperparameters and the data hash.
    c_strength: float
    bandwidth: float
    a2: float
    eta: float
    data_sha256: str


def save_checkpoint(
    path,
    *,
    transformations: np.ndarray,
    latents: np.ndarray,
    sigma2: float,
    seed: int,
    counter: int,
    c_strength: float,
    bandwidth: float,
    a2: float,
    eta: float,
    data_hash: str,
) -> None:
    """JSON checkpoint: dimensions, row-major flattened matrices, sigma^2, the
    RNG seed plus completed-sweep counter for bit-exact resumption, and the
    hyperparameters and data hash that identify the chain.

    The file is written beside its destination and moved into place with
    os.replace, so a reader never sees a partly written checkpoint.
    """
    v = np.asarray(transformations, dtype=float)
    x = np.asarray(latents, dtype=float)
    n, p, d = v.shape
    if x.shape != (n, d):
        raise ValueError("latents do not match the transformations")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    save_json(
        tmp,
        {
            "n": int(n),
            "p": int(p),
            "d": int(d),
            "sigma2": float(sigma2),
            "seed": int(seed),
            "counter": int(counter),
            "c_strength": float(c_strength),
            "bandwidth": float(bandwidth),
            "a2": "inf" if math.isinf(a2) else float(a2),
            "eta": float(eta),
            "data_sha256": data_hash,
            "transformations": [v[i].reshape(-1).tolist() for i in range(n)],
            "latents": [x[i].tolist() for i in range(n)],
        },
    )
    os.replace(tmp, path)


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint written by save_checkpoint.  ValueError for a missing
    field, frames not orthonormal within ORTHONORMALITY_TOL, non-finite
    latents, a sigma^2 that is not positive and finite, a size, seed or sweep
    counter that is not a JSON integer, or a negative seed or sweep counter."""
    with open(path, "r") as fh:
        doc = json.load(fh)
    required = {
        "n", "p", "d", "sigma2", "seed", "counter", "transformations", "latents",
        "c_strength", "bandwidth", "a2", "eta", "data_sha256",
    }
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"{path}: checkpoint missing fields {sorted(missing)}")
    # bool is an int subclass, and int() would truncate a float: refuse both.
    not_int = [k for k in ("n", "p", "d", "seed", "counter") if type(doc[k]) is not int]
    if not_int:
        raise ValueError(f"{path}: checkpoint fields {not_int} must be JSON integers")
    n, p, d = doc["n"], doc["p"], doc["d"]
    v = np.asarray(doc["transformations"], dtype=float).reshape(n, p, d)
    x = np.asarray(doc["latents"], dtype=float).reshape(n, d)
    sigma2 = float(doc["sigma2"])
    if not frames_orthonormal(v):
        raise ValueError(
            f"{path}: checkpoint frames are not orthonormal within {ORTHONORMALITY_TOL:g}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{path}: checkpoint latents are not all finite")
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"{path}: checkpoint sigma2 must be positive and finite")
    seed, counter = doc["seed"], doc["counter"]
    if seed < 0 or counter < 0:
        raise ValueError(f"{path}: checkpoint seed and counter must be nonnegative")
    return CheckpointData(
        n=n,
        p=p,
        d=d,
        sigma2=sigma2,
        seed=seed,
        counter=counter,
        transformations=v,
        latents=x,
        c_strength=float(doc["c_strength"]),
        bandwidth=float(doc["bandwidth"]),
        a2=math.inf if doc["a2"] == "inf" else float(doc["a2"]),
        eta=float(doc["eta"]),
        data_sha256=str(doc["data_sha256"]),
    )
