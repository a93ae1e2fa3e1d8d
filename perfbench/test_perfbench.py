"""Tests of the benchmark's own estimator and metric list."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ess import ess
from run import END_TO_END, WORKLOADS, per_layer_units

BENCH_DIR = Path(__file__).resolve().parent


def _ar1(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary AR(1) with unit marginal variance."""
    noise = rng.standard_normal(n) * math.sqrt(1.0 - rho * rho)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = rho * x[t - 1] + noise[t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_closed_form(rho):
    n = 100_000
    x = _ar1(rho, n, np.random.default_rng(12345))
    expected = n * (1.0 - rho) / (1.0 + rho)
    assert ess(x) == pytest.approx(expected, rel=0.1)


def test_ess_of_constant_trace_is_nan():
    assert math.isnan(ess(np.full(50, 3.25)))


def test_ess_rejects_short_or_non_finite_traces():
    with pytest.raises(ValueError):
        ess([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ess([1.0, 2.0, math.nan, 4.0, 5.0])


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
