"""Run one nlpca CLI command in this interpreter and record timing spans.

Usage: python3 launch.py SPANS_FILE MODE NLPCA_ARGS...

MODE "sweeps" wraps nlpca.gibbs.sweep alone, one timestamp pair per sweep,
which is all the end-to-end metrics need.  MODE "layers" also wraps every
function named in LAYERS from outside the package: a function imported into
several nlpca modules is rebound in each of them, and a validated class is
timed through its __post_init__, because rebinding the class itself would
break the isinstance checks inside nlpca.

Spans (name, start, end, parent) are kept in memory and written to
SPANS_FILE as a NumPy .npz archive when the command ends.  Times come from
CLOCK_MONOTONIC (time.monotonic_ns), which the parent benchmark process
shares, so it can time set-up from the moment it launched this process.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Module -> public functions (or validated classes) timed in a traced run.
LAYERS = {
    "gibbs": [
        "sweep",
        "update_transformation",
        "update_latent",
        "update_noise",
        "log_posterior_unnorm",
        "init_state",
        "default_hyperparams",
        "run",
    ],
    "vmf": [
        "vmf_sample",
        "vmf_sample_column_gibbs",
        "vmf_sample_vector",
        "vmf_sample_rejection",
        "vmf_mode",
        "VmfParam",
    ],
    "mrf": ["conditional_param", "compute_weights", "mrf_log_density_unnorm", "InteractionWeights"],
    "stiefel": [
        "thin_svd",
        "is_orthonormal",
        "StiefelPoint",
        "sample_uniform_stiefel",
        "null_space_basis",
        "polar_project",
    ],
    "pca": ["pca_fit", "pilot_tau2", "Dataset"],
    "datasets": [
        "load_image_set",
        "import_matrix_csv",
        "export_matrix_csv",
        "save_json",
        "save_checkpoint",
        "load_checkpoint",
    ],
    "metrics": ["nn_mismatch_count", "reconstruction_errors", "distance_to_unit_sphere"],
    "cli": ["main"],
}

SWEEP_SPAN = "gibbs.sweep"
# Work the tracer does for its own counters; excluded from every layer.
PROBE_SPAN = "trace.probe"

_clock = time.monotonic_ns


class Tracer:
    """In-memory span log with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        # Per vmf_sample draw: concentration sum(D) of C, and its SampleInfo.
        self.concentration = array("d")
        self.fallback = array("b")
        self.proposals = array("i")

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, nid: int, fn, args, kwargs):
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.start.append(0)
        self.end.append(0)
        self._open.append(idx)
        self.start[idx] = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = _clock()
            self._open.pop()

    def wrap(self, name: str, fn):
        nid = self.name_index(name)

        def traced(*args, **kwargs):
            return self.call(nid, fn, args, kwargs)

        return traced

    def wrap_vmf_sample(self, fn):
        """vmf_sample, plus the concentration of each C and each draw's outcome."""
        traced = self.wrap("vmf.vmf_sample", fn)
        probe = self.name_index(PROBE_SPAN)

        def observed(c, *args, **kwargs):
            conc = self.call(
                probe, lambda: float(np.linalg.svd(c.c_matrix, compute_uv=False).sum()), (), {}
            )
            x, info = traced(c, *args, **kwargs)
            self.concentration.append(conc)
            self.fallback.append(int(info.fallback))
            self.proposals.append(info.attempts)
            return x, info

        return observed

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            concentration=np.frombuffer(self.concentration, dtype=np.float64),
            fallback=np.frombuffer(self.fallback, dtype=np.int8),
            proposals=np.frombuffer(self.proposals, dtype=np.int32),
        )


def _rebind(original, wrapped) -> None:
    """Replace every binding of ``original`` in the loaded nlpca modules."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "nlpca" or mod_name.startswith("nlpca.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer, mode: str) -> None:
    if mode == "sweeps":
        layers = {"gibbs": ["sweep"]}
    elif mode == "layers":
        layers = LAYERS
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for mod_name, names in layers.items():
        module = sys.modules[f"nlpca.{mod_name}"]
        for name in names:
            original = getattr(module, name)
            label = f"{mod_name}.{name}"
            if isinstance(original, type):
                original.__post_init__ = tracer.wrap(label, original.__post_init__)
            elif label == "vmf.vmf_sample":
                _rebind(original, tracer.wrap_vmf_sample(original))
            else:
                _rebind(original, tracer.wrap(label, original))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launch.py SPANS_FILE MODE NLPCA_ARGS...", file=sys.stderr)
        return 1
    spans_path, mode, nlpca_args = argv[0], argv[1], argv[2:]
    import nlpca.cli

    tracer = Tracer()
    install(tracer, mode)
    try:
        return nlpca.cli.main(nlpca_args)
    finally:
        tracer.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
