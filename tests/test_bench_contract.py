"""The hooks perfbench relies on to time the program.

perfbench/launch.py rebinds every function named in its LAYERS table inside
the nlpca modules, times each class it names through its __post_init__, and
times one sweep per call of nlpca.gibbs.sweep, which run must therefore look
up by its global name once per sweep.
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


def test_run_calls_module_level_sweep_once_per_sweep(monkeypatch):
    calls = []
    original = nlpca.gibbs.sweep

    def counting_sweep(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nlpca.gibbs, "sweep", counting_sweep)
    _, data = generate_sphere(6, 0.05, np.random.default_rng(0))
    hp = default_hyperparams(data, pca_fit(data, 2), n_sweeps=4, burn_in=1, thin=1)
    summary = run(data, hp, seed=1, state=init_state(pca_fit(data, 2), hp),
                  mean_of=lambda st: st.latents)
    assert len(calls) == hp.n_sweeps
    assert summary.total_draws == data.n * hp.n_sweeps


def test_sweep_calls_module_level_frame_step_once_per_site(monkeypatch):
    sites = []
    original = nlpca.gibbs.update_transformation

    def counting_step(i, *args, **kwargs):
        sites.append(i)
        return original(i, *args, **kwargs)

    monkeypatch.setattr(nlpca.gibbs, "update_transformation", counting_step)
    _, data = generate_sphere(6, 0.05, np.random.default_rng(0))
    hp = default_hyperparams(data, pca_fit(data, 2), n_sweeps=3, burn_in=1, thin=1)
    run(data, hp, seed=1, state=init_state(pca_fit(data, 2), hp), mean_of=lambda st: st.latents)
    assert sites == list(range(data.n)) * hp.n_sweeps
