"""Synthetic handwritten-style digits 1, 2, 3 written as IDX files.

MNIST is not available offline, so the digits workload draws its own corpus:
each digit is a few jittered pen strokes with random shift, slant, thickness,
brightness and pixel noise, on a 28 x 28 canvas like MNIST's.
"""

from __future__ import annotations

import struct

import numpy as np

SIDE = 28
CLASSES = (1, 2, 3)

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Stroke end points (row0, col0, row1, col1) on the 28 x 28 canvas.
_STROKES = {
    1: [(5, 14, 22, 14), (22, 11, 22, 17), (5, 14, 9, 11)],
    2: [(8, 9, 6, 13), (6, 13, 8, 18), (8, 18, 21, 9), (21, 9, 21, 19)],
    3: [(6, 9, 6, 17), (6, 17, 13, 17), (13, 10, 13, 17), (13, 17, 21, 17), (21, 9, 21, 17)],
}


def _paint_segment(img, r0, c0, r1, c1, thickness, value):
    """Rasterize a thick line segment onto a 2-D uint8 canvas."""
    length = int(round(max(abs(r1 - r0), abs(c1 - c0), 1)))
    t = np.linspace(0.0, 1.0, 3 * length + 1)
    side = np.arange(-thickness, thickness + 1)
    dr, dc = np.meshgrid(side, side, indexing="ij")
    disc = dr * dr + dc * dc <= thickness * thickness
    rr = np.rint(r0 + t[:, None] * (r1 - r0) + dr[disc][None, :]).astype(int).ravel()
    cc = np.rint(c0 + t[:, None] * (c1 - c0) + dc[disc][None, :]).astype(int).ravel()
    inside = (rr >= 0) & (rr < img.shape[0]) & (cc >= 0) & (cc < img.shape[1])
    img[rr[inside], cc[inside]] = value


def make_digit_corpus(rng: np.random.Generator, per_class: int):
    """Shuffled (3 * per_class) x 784 uint8 images and their labels."""
    images, labels = [], []
    for cls in CLASSES:
        for _ in range(per_class):
            img = np.zeros((SIDE, SIDE), dtype=np.uint8)
            shift_r = rng.integers(-2, 3)
            shift_c = rng.integers(-3, 4)
            slant = rng.uniform(-0.2, 0.2)
            thickness = int(rng.integers(1, 3))
            value = int(rng.integers(170, 256))
            for r0, c0, r1, c1 in _STROKES[cls]:
                jitter = rng.uniform(-1.0, 1.0, size=4)
                _paint_segment(
                    img,
                    r0 + jitter[0] + shift_r,
                    c0 + jitter[1] + slant * (r0 - 14) + shift_c,
                    r1 + jitter[2] + shift_r,
                    c1 + jitter[3] + slant * (r1 - 14) + shift_c,
                    thickness,
                    value,
                )
            noise = rng.normal(0.0, 6.0, size=(SIDE, SIDE))
            img = np.clip(img.astype(float) + noise, 0, 255).astype(np.uint8)
            images.append(img.reshape(-1))
            labels.append(cls)
    order = rng.permutation(len(images))
    return np.stack(images)[order], np.asarray(labels, dtype=np.uint8)[order]


def write_idx(images_path, labels_path, images: np.ndarray, labels: np.ndarray) -> None:
    """Big-endian IDX3 image file and IDX1 label file, as MNIST ships them."""
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">4I", IDX_IMAGE_MAGIC, images.shape[0], SIDE, SIDE))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">2I", IDX_LABEL_MAGIC, labels.shape[0]))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())
