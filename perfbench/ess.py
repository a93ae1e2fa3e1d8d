"""Effective sample size of one MCMC trace.

Geyer's initial monotone sequence estimator, as in Vehtari et al. (2021,
"Rank-normalization, folding, and localization"), for a single chain: the
autocorrelations are summed in adjacent pairs until a pair sum turns
non-positive, with the pair sums forced to be non-increasing.
"""

from __future__ import annotations

import math

import numpy as np


def ess(values) -> float:
    """ESS of a 1-D trace; NaN when the trace is constant."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("need a 1-D trace of at least 4 values")
    if not np.all(np.isfinite(x)):
        raise ValueError("trace has non-finite values")
    n = x.size
    xc = x - x.mean()
    # Zero-padding to at least 2n makes the circular autocovariance linear.
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(xc, size)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    if not acov[0] > 0.0:
        return math.nan
    rho = acov / acov[0]
    pair_sum_total = 0.0
    previous = math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        previous = min(previous, pair)
        pair_sum_total += previous
    tau = max(2.0 * pair_sum_total - 1.0, 1.0 / math.log10(n))
    return n / tau
