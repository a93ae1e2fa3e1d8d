"""The hooks perfbench relies on to time the program.

perfbench/launch.py rebinds every function named in its LAYERS table inside
the nlpca modules, times each class it names through its __post_init__, and
times one sweep per call of nlpca.gibbs.sweep, which the run generator must
therefore look up by its global name once per sweep, and only for a sweep
its caller asks for.  LAYERS names gibbs.run, so run keeps that name while
the table does.
Likewise sweep must look up nlpca.gibbs.update_transformation once per site.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nlpca.gibbs
from nlpca.datasets import generate_sphere
from nlpca.gibbs import default_hyperparams, init_state, run
from nlpca.pca import pca_fit

LAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "launch.py"


def _bench_layers() -> dict[str, list[str]]:
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _bench_layers()


@pytest.mark.parametrize("module_name", sorted(LAYERS))
def test_every_timed_layer_resolves(module_name):
    module = importlib.import_module(f"nlpca.{module_name}")
    missing = [n for n in LAYERS[module_name] if not callable(getattr(module, n, None))]
    assert missing == []
    classes = [getattr(module, n) for n in LAYERS[module_name]]
    untimed = [c for c in classes if isinstance(c, type) and not hasattr(c, "__post_init__")]
    assert untimed == []


def counted_sweeps(monkeypatch) -> list:
    """One entry per call of nlpca.gibbs.sweep from here on."""
    calls = []
    original = nlpca.gibbs.sweep

    def counting_sweep(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nlpca.gibbs, "sweep", counting_sweep)
    return calls


def test_run_calls_module_level_sweep_once_per_sweep(monkeypatch):
    calls = counted_sweeps(monkeypatch)
    _, data = generate_sphere(6, 0.05, np.random.default_rng(0))
    hp = default_hyperparams(data, pca_fit(data, 2), n_sweeps=4, burn_in=1, thin=1)
    swept = [t for t, _, _ in run(data, hp, 1, init_state(pca_fit(data, 2), hp))]
    assert len(calls) == hp.n_sweeps
    assert swept == list(range(hp.n_sweeps))


@pytest.mark.parametrize("k", [1, 3])
def test_closed_run_sweeps_no_further(monkeypatch, k):
    # A caller that stops after k yields has paid for k sweeps, not k + 1.
    calls = counted_sweeps(monkeypatch)
    _, data = generate_sphere(6, 0.05, np.random.default_rng(0))
    hp = default_hyperparams(data, pca_fit(data, 2), n_sweeps=6, burn_in=1, thin=1)
    chain = run(data, hp, 1, init_state(pca_fit(data, 2), hp))
    assert calls == []
    for _ in range(k):
        next(chain)
    chain.close()
    assert len(calls) == k


def test_sweep_calls_module_level_frame_step_once_per_site(monkeypatch):
    sites = []
    original = nlpca.gibbs.update_transformation

    def counting_step(i, *args, **kwargs):
        sites.append(i)
        return original(i, *args, **kwargs)

    monkeypatch.setattr(nlpca.gibbs, "update_transformation", counting_step)
    _, data = generate_sphere(6, 0.05, np.random.default_rng(0))
    hp = default_hyperparams(data, pca_fit(data, 2), n_sweeps=3, burn_in=1, thin=1)
    list(run(data, hp, 1, init_state(pca_fit(data, 2), hp)))
    assert sites == list(range(data.n)) * hp.n_sweeps
