"""Experiment data: the noisy-sphere generator, IDX-format digit files (images
as one uint8 (n, rows, cols) array, labels as one uint8 n-vector), and CSV/JSON
import/export for latents, histograms, and sampler checkpoints.  The sphere
and the digit images become a Dataset, which centres the rows it is given."""

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

from .pca import Dataset
from .stiefel import ORTHONORMALITY_TOL, frames_orthonormal

__all__ = [
    "generate_sphere",
    "load_image_set",
    "write_idx",
    "shrink_images",
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


def generate_sphere(
    n: int, noise_sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, Dataset]:
    """n uniform points on the unit sphere in R^3 plus isotropic Gaussian noise.

    Returns the raw points (sphere centered at the origin) and the Dataset
    that centres them.
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
    return raw, Dataset(raw)


def _read_idx(path, fh, fields: tuple[str, ...], payload: str) -> tuple[int, ...]:
    """Check the header of fh, path's IDX file of unsigned bytes opened for
    binary reading, against the file's size from os.fstat: the big-endian
    uint32 magic 0x0800 | len(fields), one uint32 per name in fields, then as
    many uint8 bytes as their product.  Returns the header's values with fh
    at the first payload byte, of which none is read; ValueError names the
    file and the offending offset."""
    magic = 0x0800 | len(fields)
    start = 4 + 4 * len(fields)
    head = fh.read(start)
    # The magic is checked before the header length so that a too-short file
    # of the wrong kind is still reported as a magic mismatch.
    if len(head) < 4:
        raise ValueError(f"{path}: truncated header, file ends at offset {len(head)}")
    found = struct.unpack(">I", head[:4])[0]
    if found != magic:
        raise ValueError(
            f"{path}: wrong magic 0x{found:08x} at offset 0 (expected 0x{magic:08x})"
        )
    if len(head) < start:
        raise ValueError(
            f"{path}: truncated header, file ends at offset {len(head)} (need {start} bytes)"
        )
    values = struct.unpack(f">{len(fields)}I", head[4:])
    for k, (name, value) in enumerate(zip(fields, values)):
        if value > 2**31 - 1:
            raise ValueError(
                f"{path}: {name} {value} at offset {4 + 4 * k} overflows a signed int32"
            )
    expected = start + math.prod(values)
    size = os.fstat(fh.fileno()).st_size
    if size < expected:
        raise ValueError(
            f"{path}: truncated file, ends at offset {size} "
            f"({payload} data needs {expected} bytes)"
        )
    if size > expected:
        raise ValueError(f"{path}: trailing bytes after offset {expected}")
    return values


def _read_into(path, fh, out: np.ndarray) -> None:
    """Fill the C-ordered uint8 array out from fh's position; ValueError if
    the file ends first, as it does if it shrank after _read_idx's check."""
    if fh.readinto(out) != out.nbytes:
        raise ValueError(f"{path}: file ended while it was read")


def load_image_set(images_path, labels_path, pick=None) -> tuple[np.ndarray, np.ndarray]:
    """Read an IDX image file (rank 3) and its IDX label file (rank 1), as
    MNIST ships them; returns the (n, rows, cols) uint8 images and the n uint8
    labels.  pick, if given, is called with all the labels and returns the
    indices of the images to keep: only those image rows are read, and both
    arrays hold those entries in pick's order.  ValueError names the file for
    a malformed file (_read_idx checks each header against its file's size,
    so no check depends on which rows are read), a label count that differs
    from the image count, or a label outside 0-9; the checks run in that
    order, the image file's header first, before pick is called."""
    with open(images_path, "rb") as images_fh:
        count, rows, cols = _read_idx(images_path, images_fh, ("count", "rows", "cols"), "pixel")
        with open(labels_path, "rb") as labels_fh:
            labels = np.empty(_read_idx(labels_path, labels_fh, ("count",), "label"), np.uint8)
            _read_into(labels_path, labels_fh, labels)
        if labels.shape[0] != count:
            raise ValueError(f"{labels_path}: {labels.shape[0]} labels for {count} images")
        if labels.size and labels.max() > 9:
            raise ValueError(f"{labels_path}: labels must be digits 0-9")
        picked = np.arange(count) if pick is None else np.asarray(pick(labels))
        if picked.size and not 0 <= picked.min() <= picked.max() < count:
            raise IndexError(f"picked image indices must be in 0..{count - 1}")
        start = images_fh.tell()
        images = np.empty((picked.size, rows, cols), np.uint8)
        for k, i in enumerate(picked.tolist()):
            images_fh.seek(start + i * rows * cols)
            _read_into(images_path, images_fh, images[k])
    return images, labels[picked]


def write_idx(path, array: np.ndarray) -> None:
    """Write a uint8 array as an IDX file: the big-endian uint32 magic
    0x0800 | ndim, one uint32 per dimension, then the bytes in C order.
    ValueError, before the file is opened, unless every value is an integer
    in 0..255.  A C-ordered uint8 array is written as it is, without a
    check or a copy."""
    array = np.asarray(array)
    if array.dtype != np.uint8 and not np.all(
        (array >= 0) & (array <= 255) & (np.floor(array) == array)
    ):
        raise ValueError("IDX values must be integers in 0..255")
    array = np.asarray(array, dtype=np.uint8, order="C")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + array.ndim}I", 0x0800 | array.ndim, *array.shape))
        fh.write(memoryview(array))


def shrink_images(images: np.ndarray, side: int, mode: str = "stride") -> np.ndarray:
    """Shrink (n, rows, cols) images to (n, side, side); ValueError unless
    rows = cols = f * side for a whole f >= 1.  "stride" keeps pixel
    (f*r, f*c); "mean" averages f x f blocks and rounds back to uint8."""
    n, rows, cols = images.shape
    factor = rows // side
    if rows != cols or rows % side or factor < 1:
        raise ValueError(f"images are {rows}x{cols}, not reducible to {side}x{side}")
    if mode not in ("stride", "mean"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "stride":
        return images[:, ::factor, ::factor].copy()
    blocks = images.reshape(n, side, factor, side, factor).astype(float)
    return np.rint(blocks.mean(axis=(2, 4))).astype(np.uint8)


def select_digit_subset(
    labels: np.ndarray, classes, per_class: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a uniform without-replacement pick of per_class entries of
    labels from each class, concatenated class by class and then shuffled."""
    if per_class < 0:
        raise ValueError("per_class must be >= 0")
    chosen = []
    for cls in classes:
        pool = np.flatnonzero(labels == cls)
        if pool.size < per_class:
            raise ValueError(
                f"class {cls} has only {pool.size} instances, need {per_class}"
            )
        chosen.append(rng.choice(pool, size=per_class, replace=False))
    idx = np.concatenate(chosen) if chosen else np.empty(0, dtype=int)
    return idx[rng.permutation(idx.size)]


def to_dataset(images: np.ndarray, labels: np.ndarray) -> Dataset:
    """Flatten (n, rows, cols) images to n x (rows*cols) reals in [0, 1] and
    make them a Dataset, which centres them; labels[i] stays the label of row i."""
    if len(images) < 1:
        raise ValueError("need at least one image")
    x = images.reshape(len(images), -1).astype(float) / 255.0
    return Dataset(x, labels)


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
    """Inverse of export_matrix_csv; returns (matrix, labels-or-None).  The
    first line must be the header: ValueError if every field of it is a
    number, as in a file written without one.  Blank lines after it are
    skipped, as np.loadtxt skips them; error messages count every line."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        try:
            numbers = [float(v) for v in header]
        except ValueError:
            numbers = None
        if numbers:
            raise ValueError(f"{path}: line 1: all fields are numbers, expected a header row")
        has_labels = bool(header) and header[-1] == "label"
        n_cols = len(header) - int(has_labels)
        values, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:  # csv.reader's record for a blank line
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                values.append([float(v) for v in row[:n_cols]])
                if has_labels:
                    labels.append(np.int64(int(row[-1])))
            except (ValueError, OverflowError) as err:
                raise ValueError(f"{path}: line {line_no}: {err}") from None
            if not all(map(math.isfinite, values[-1])):
                raise ValueError(f"{path}: line {line_no}: non-finite value")
    matrix = np.asarray(values, dtype=float).reshape(len(values), n_cols)
    return matrix, (np.asarray(labels, dtype=int) if has_labels else None)


def export_histogram_csv(path, bin_edges: np.ndarray, counts: np.ndarray) -> None:
    """Write a histogram, its n + 1 bin_edges and n counts (np.histogram's
    pair, in the other order), as one bin_left, bin_right, count row per bin."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for k in range(len(counts)):
            writer.writerow(
                [
                    _format_float(bin_edges[k]),
                    _format_float(bin_edges[k + 1]),
                    str(int(counts[k])),
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
    """A sampler checkpoint, as save_checkpoint writes it and load_checkpoint
    returns it: the chain's state, the RNG seed plus completed-sweep counter
    for bit-exact resumption, and the fingerprint, the JSON values that
    identify the chain.  The sizes n, p and d are the shape of
    transformations, (n, p, d)."""

    transformations: np.ndarray  # (n, p, d)
    latents: np.ndarray  # (n, d)
    sigma2: float
    seed: int
    counter: int
    fingerprint: dict


# Keys of the chain's state; every other key of a checkpoint is its fingerprint.
_STATE_KEYS = {"n", "p", "d", "sigma2", "seed", "counter", "transformations", "latents"}


def save_checkpoint(path, checkpoint: CheckpointData) -> None:
    """JSON checkpoint: the state keys (dimensions, row-major flattened
    matrices, sigma^2, seed and counter) beside the fingerprint's keys.

    The file is written beside its destination and moved into place with
    os.replace, so a reader never sees a partly written checkpoint.
    """
    v = np.asarray(checkpoint.transformations, dtype=float)
    x = np.asarray(checkpoint.latents, dtype=float)
    n, p, d = v.shape
    if x.shape != (n, d):
        raise ValueError("latents do not match the transformations")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    save_json(
        tmp,
        {
            **checkpoint.fingerprint,
            "n": int(n),
            "p": int(p),
            "d": int(d),
            "sigma2": float(checkpoint.sigma2),
            "seed": int(checkpoint.seed),
            "counter": int(checkpoint.counter),
            "transformations": [v[i].reshape(-1).tolist() for i in range(n)],
            "latents": [x[i].tolist() for i in range(n)],
        },
    )
    os.replace(tmp, path)


def load_checkpoint(path) -> CheckpointData:
    """Read a checkpoint written by save_checkpoint; keys other than the state
    keys form the fingerprint.  The file's n, p and d reshape the matrices
    and are not kept.  ValueError, naming the file, for a document that is
    not a JSON object, a missing state key, a size, seed or sweep counter
    that is not a JSON integer, a size below 1, a negative seed or sweep
    counter, a sigma^2 that is not a JSON number or not positive and finite,
    matrices that are not n lists of p*d (transformations) or d (latents) JSON
    numbers, frames not orthonormal within ORTHONORMALITY_TOL, or non-finite
    latents."""
    with open(path, "r") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: checkpoint must be a JSON object")
    missing = _STATE_KEYS - doc.keys()
    if missing:
        raise ValueError(f"{path}: checkpoint missing fields {sorted(missing)}")
    # bool is an int subclass, and int() would truncate a float: refuse both.
    not_int = [k for k in ("n", "p", "d", "seed", "counter") if type(doc[k]) is not int]
    if not_int:
        raise ValueError(f"{path}: checkpoint fields {not_int} must be JSON integers")
    n, p, d = doc["n"], doc["p"], doc["d"]
    if min(n, p, d) < 1:
        raise ValueError(f"{path}: checkpoint sizes n, p and d must be >= 1")
    sigma2 = doc["sigma2"]
    if type(sigma2) not in (int, float):
        raise ValueError(f"{path}: checkpoint sigma2 must be a JSON number")
    try:
        sigma2 = float(sigma2)
    except OverflowError:  # an int beyond the float range
        sigma2 = math.inf

    def matrix(key: str, width: int) -> np.ndarray:
        rows = doc[key]
        # type() refuses bool, an int subclass.
        if type(rows) is list and len(rows) == n and all(
            type(r) is list and len(r) == width and all(type(e) in (int, float) for e in r)
            for r in rows
        ):
            try:
                return np.array(rows, dtype=float)
            except OverflowError:  # an int beyond the float range
                pass
        raise ValueError(f"{path}: checkpoint {key} must be {n} lists of {width} JSON numbers")

    v, x = matrix("transformations", p * d).reshape(n, p, d), matrix("latents", d)
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
    fingerprint = {k: doc[k] for k in doc.keys() - _STATE_KEYS}
    return CheckpointData(v, x, sigma2, seed, counter, fingerprint)
