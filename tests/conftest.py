"""Shared oracles for the test suite.

These are kept deliberately independent of the library code paths they are
used to check: plain 1-D quadrature and brute-force summation only.
"""

import math

import numpy as np
from scipy import integrate


def circle_vmf_moment(kappa, fn):
    """E[fn(theta)] under the circular density prop. to exp(kappa cos(theta))."""

    def dens(theta):
        return math.exp(kappa * (math.cos(theta) - 1.0))

    num, _ = integrate.quad(lambda t: fn(t) * dens(t), -math.pi, math.pi)
    den, _ = integrate.quad(dens, -math.pi, math.pi)
    return num / den


def circle_mean_resultant(kappa):
    """E[cos(theta)] for the circular vMF with concentration kappa."""
    return circle_vmf_moment(kappa, math.cos)


def orthogonal2_trace_moment(c):
    """E[tr(C^T X)] for X on O(2) with density prop. to exp{tr(C^T X)}.

    Rotations by t give tr(C^T X) = (c11 + c22) cos t + (c21 - c12) sin t and
    reflections give (c11 - c22) cos t + (c12 + c21) sin t; both components
    carry equal Haar mass, so the moment is a ratio of 1-D quadratures.
    """
    comps = [
        (c[0, 0] + c[1, 1], c[1, 0] - c[0, 1]),
        (c[0, 0] - c[1, 1], c[0, 1] + c[1, 0]),
    ]
    shift = max(math.hypot(a, b) for a, b in comps)
    num = den = 0.0
    for a, b in comps:

        def dens(t, a=a, b=b):
            return math.exp(a * math.cos(t) + b * math.sin(t) - shift)

        num += integrate.quad(
            lambda t: (a * math.cos(t) + b * math.sin(t)) * dens(t), -math.pi, math.pi
        )[0]
        den += integrate.quad(dens, -math.pi, math.pi)[0]
    return num / den


def sphere_cosine_moment(kappa, p, moment=1):
    """E[t^moment] for the cosine t of a p-dimensional vector vMF draw to its
    mean direction: marginal density prop. to exp(kappa t) (1 - t^2)^((p-3)/2)."""

    def dens(t):
        return math.exp(kappa * (t - 1.0)) * (1.0 - t * t) ** ((p - 3) / 2.0)

    num, _ = integrate.quad(lambda t: t**moment * dens(t), -1.0, 1.0)
    den, _ = integrate.quad(dens, -1.0, 1.0)
    return num / den


def _paint_segment(img, r0, c0, r1, c1, thickness, value):
    """Rasterize a line segment onto a 2-D uint8 canvas."""
    length = int(round(max(abs(r1 - r0), abs(c1 - c0), 1)))
    side = np.arange(-thickness, thickness + 1)
    for t in np.linspace(0.0, 1.0, 3 * length + 1):
        r = r0 + t * (r1 - r0)
        c = c0 + t * (c1 - c0)
        for dr in side:
            for dc in side:
                if dr * dr + dc * dc <= thickness * thickness:
                    rr, cc = int(round(r + dr)), int(round(c + dc))
                    if 0 <= rr < img.shape[0] and 0 <= cc < img.shape[1]:
                        img[rr, cc] = value


def make_digit_corpus(rng, per_class, side=28):
    """Synthetic handwritten-style digits 1, 2, 3 as stroke drawings with
    random shift, slant, thickness, and pixel noise.  Returns row-major uint8
    images of shape (3*per_class, side*side) and the matching labels."""
    strokes = {
        1: [(5, 14, 22, 14), (22, 11, 22, 17), (5, 14, 9, 11)],
        2: [(8, 9, 6, 13), (6, 13, 8, 18), (8, 18, 21, 9), (21, 9, 21, 19)],
        3: [(6, 9, 6, 17), (6, 17, 13, 17), (13, 10, 13, 17), (13, 17, 21, 17), (21, 9, 21, 17)],
    }
    images = []
    labels = []
    scale = side / 28.0
    for cls in (1, 2, 3):
        for _ in range(per_class):
            img = np.zeros((side, side), dtype=np.uint8)
            shift_r = rng.integers(-2, 3)
            shift_c = rng.integers(-3, 4)
            slant = rng.uniform(-0.2, 0.2)
            thickness = int(rng.integers(1, 3))
            value = int(rng.integers(170, 256))
            for r0, c0, r1, c1 in strokes[cls]:
                jitter = rng.uniform(-1.0, 1.0, size=4)
                rr0 = (r0 + jitter[0]) * scale + shift_r
                cc0 = (c0 + jitter[1] + slant * (r0 - 14)) * scale + shift_c
                rr1 = (r1 + jitter[2]) * scale + shift_r
                cc1 = (c1 + jitter[3] + slant * (r1 - 14)) * scale + shift_c
                _paint_segment(img, rr0, cc0, rr1, cc1, thickness, value)
            noise = rng.normal(0.0, 6.0, size=(side, side))
            img = np.clip(img.astype(float) + noise, 0, 255).astype(np.uint8)
            images.append(img.reshape(-1))
            labels.append(cls)
    order = rng.permutation(len(images))
    return np.stack(images)[order], np.asarray(labels)[order]
