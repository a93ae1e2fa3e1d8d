"""Shared oracles, inputs and measurements for the test suite.

The oracles are kept deliberately independent of the library code paths they
are used to check: plain 1-D quadrature and brute-force summation only.
"""

import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import integrate

DIGITS = Path(__file__).resolve().parents[1] / "perfbench" / "digits.py"


def traced_peak(fn):
    """Peak bytes that fn() holds above the level at its call, by tracemalloc,
    which NumPy reports its array buffers to."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if started:
            tracemalloc.stop()


def vmf_log_density_unnorm(x, c):
    """tr(C^T X) for a StiefelPoint X and a VmfParam C: the matrix vMF log
    density up to its intractable normalising constant."""
    return float(np.sum(c.c_matrix * x.matrix))


def circle_vmf_moment(kappa, fn):
    """E[fn(theta)] under the circular density prop. to exp(kappa cos(theta)).

    The density is below exp(-800) of its peak beyond |theta| = 40 / sqrt(kappa);
    breakpoints there keep quad from stepping over the peak at large kappa.
    The tolerances are relative to the normaliser, which is ~1e-3 at
    kappa = 1e6, below quad's default absolute tolerance.
    """

    def dens(theta):
        return math.exp(kappa * (math.cos(theta) - 1.0))

    edge = min(math.pi / 2, 40.0 / math.sqrt(kappa))
    points = (-edge, 0.0, edge)
    den, _ = integrate.quad(dens, -math.pi, math.pi, points=points, epsabs=0)
    num, _ = integrate.quad(
        lambda t: fn(t) * dens(t), -math.pi, math.pi, points=points, epsabs=1e-13 * den
    )
    return num / den


def circle_mean_resultant(kappa):
    """E[cos(theta)] for the circular vMF with concentration kappa."""
    return circle_vmf_moment(kappa, math.cos)


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
