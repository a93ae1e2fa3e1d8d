"""Shared oracles and inputs for the test suite.

The oracles are kept deliberately independent of the library code paths they
are used to check: plain 1-D quadrature and brute-force summation only.
"""

import importlib.util
import math
from pathlib import Path

from scipy import integrate

DIGITS = Path(__file__).resolve().parents[1] / "perfbench" / "digits.py"


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


def _load_bench_digits():
    spec = importlib.util.spec_from_file_location("perfbench_digits", DIGITS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The synthetic digit corpus is perfbench's own generator, so the tests and the
# digits workload draw the same images for the same seed.
make_digit_corpus = _load_bench_digits().make_digit_corpus
