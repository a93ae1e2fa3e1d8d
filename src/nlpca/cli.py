"""Command-line entry point: experiment demos, generic fits, and sampler checks.

Commands
--------
sphere-demo   noisy unit-sphere data, PCA baseline vs the Bayesian model
digits-demo   IDX digit images, latent scatter and NN-mismatch comparison
fit           fit a CSV matrix, with JSON checkpointing and bit-exact resume
vmf-diag      frame-kernel check against an exact oracle

fit --resume continues the chain a checkpoint holds only if the checkpoint's
fingerprint matches the run's: --c, --w, --a2, eta and the SHA-256 of the
centred input data.  Otherwise it names the settings that differ and exits 1.

Every command honors --seed (env NLPCA_SEED as fallback) for full determinism
and writes only inside --out.  Exit codes: 0 success, 1 usage, 2 I/O,
3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import (
    CheckpointData,
    data_sha256,
    generate_sphere,
    import_matrix_csv,
    load_checkpoint,
    load_image_set,
    save_checkpoint,
    save_json,
    select_digit_subset,
    shrink_images,
    to_dataset,
    export_histogram_csv,
    export_matrix_csv,
)
from .gibbs import (
    ETA,
    FRAME_KERNEL,
    LATENT_UPDATE,
    HyperParams,
    ModelState,
    default_hyperparams,
    init_state,
    kept_sweeps,
    run,
)
from .metrics import distance_to_unit_sphere, nn_mismatch_count, reconstruction_errors
from .mrf import BANDWIDTH_FLOOR
from .pca import Dataset, PcaFit, pca_fit, reconstruct_linear
from .vmf import KAPPA_MAX, column_gibbs_pass

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

_HIST_BINS = 20

# Distinct stream tags keep data generation, subset selection, and diagnostics
# independent of the sweep streams derived from the same seed.
_DATA_STREAM_TAG = 7
_SUBSET_STREAM_TAG = 11
_DIAG_STREAM_TAG = 13

_DIGIT_CLASSES = (1, 2, 3)
_DIGIT_PER_CLASS = 50
_DIGIT_TARGET_SIDE = 14

# Checkpoint fingerprint key -> the setting named when a --resume differs in it.
_FINGERPRINT_SOURCES = {
    "c_strength": "--c", "bandwidth": "--w", "a2": "--a2", "eta": "eta",
    "data_sha256": "input data",
}

# The paper's NN mismatches for its 150 MNIST digits.  They are MNIST-only:
# the counts a run computes come from whatever IDX files it is given.
_MNIST_PAPER_PCA_MISMATCH = 53
_MNIST_PAPER_MODEL_MISMATCH = 25


class UsageError(Exception):
    """Bad flags or flag combinations; reported before any file is created."""


class InputFileError(Exception):
    """Unreadable or malformed input data file."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read_input(name: str, load, *args):
    """load(*args), with an OSError or ValueError reported as an input error."""
    try:
        return load(*args)
    except OSError as err:
        raise InputFileError(f"cannot read {name}: {err}") from err
    except ValueError as err:
        raise InputFileError(str(err)) from err


def _checked(kind, ok, want: str):
    """An argparse type: kind(text) if it parses and ok accepts it, else the
    refusal "must be <want>, got '<text>'", which argparse prefixes with the flag."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value
    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _add_chain_options(sub) -> None:
    sub.add_argument("--dim", type=_at_least(1), default=2,
                     help="latent dimension d, 1 <= d < p")
    sub.add_argument("--sweeps", type=_at_least(1), default=2000, help="total Gibbs sweeps")
    sub.add_argument("--burn-in", type=_at_least(0), default=1000, dest="burn_in")
    sub.add_argument("--thin", type=_at_least(1), default=5, help="keep every thin-th sweep")
    sub.add_argument(  # None: default_hyperparams' pilot value, as for --c and --w
        "--a2", default=None,
        type=_checked(lambda t: None if t == "auto" else float(t),
                      lambda v: v is None or v > 0, "'auto', 'inf' or a number > 0"),
        help="latent prior variance: auto (default: the pilot value), inf or a number > 0")
    sub.add_argument("--c", default=None, help="override interaction strength",
                     type=_checked(float, lambda v: 0 < v < math.inf,
                                   "a positive finite number"))
    sub.add_argument("--w", default=None, help="override kernel bandwidth",
                     type=_checked(float, lambda v: BANDWIDTH_FLOOR <= v < math.inf,
                                   f"a finite number >= {BANDWIDTH_FLOOR:g}"))
    sub.add_argument("--out", type=str, default="out", help="output directory")


def _add_seed_option(sub) -> None:
    # A string default passes through the type, so NLPCA_SEED is checked as --seed is.
    sub.add_argument("--seed", default=os.environ.get("NLPCA_SEED", "0"),
                     type=_checked(int, lambda v: v >= 0,
                                   "a nonnegative integer (from --seed, else NLPCA_SEED)"),
                     help="RNG seed (default: env NLPCA_SEED, else 0)")


def _pilot(args, data) -> tuple[PcaFit, HyperParams]:
    """The command's one rank-d PCA fit, once the data are known to vary, their
    sum of squares and 4 max |y_i|^2 not to overflow (the latter bounds the
    squared distance between two rows, and between two of the PCA latents
    that start the chain), (n - 1) --c to stay within vmf-diag's --kappa
    bound, and --dim to fit them (d < p, so the frames reduce dimension, and
    d <= n); and the pilot-study hyperparameters it gives under the chain flags."""
    if np.all(data.y == data.y[0]):
        raise InputFileError("the data do not vary: every row is the same")
    with np.errstate(over="ignore"):
        sq = data.y * data.y
        if not math.isfinite(np.sum(sq)):
            raise InputFileError("the data are too large: their sum of squares overflows")
        if not math.isfinite(4.0 * np.max(np.sum(sq, axis=1))):
            raise InputFileError("the data are too large: a squared distance between "
                                 "two rows overflows")
    if args.c is not None and (data.n - 1) * args.c > KAPPA_MAX:
        raise UsageError(f"--c must be at most 1e154/(n - 1) = {KAPPA_MAX / (data.n - 1):g} "
                         f"for n = {data.n}; above, the frame step's squared column "
                         f"norm overflows; got {args.c}")
    if args.dim >= data.p:
        raise UsageError(f"--dim must be < p = {data.p}, the data's dimension")
    if args.dim > data.n:
        raise UsageError(f"--dim must be <= n = {data.n}")
    fit = pca_fit(data, args.dim)
    return fit, default_hyperparams(
        data,
        fit,
        n_sweeps=args.sweeps,
        burn_in=args.burn_in,
        thin=args.thin,
        a2=args.a2,
        c_strength=args.c,
        bandwidth=args.w,
    )


def _latents(state: ModelState) -> np.ndarray:
    return state.latents


def _reconstructions(state: ModelState) -> np.ndarray:
    return np.einsum("npd,nd->np", state.transformations, state.latents)


def _run_chain(args, data, hp, seed, state, start_sweep, mean_of):
    """Create --out and run the chain from start_sweep, as run's one consumer:
    one trace.csv row per sweep, and mean_of(state), such as the latents or
    the reconstructions V_i x_i, averaged over kept_sweeps(hp, start_sweep),
    their sum from 0.0 divided once by their count.  Returns the output
    directory, that mean, summary.json's draw counts and the last sweep's
    log posterior."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kept = kept_sweeps(hp, start_sweep)
    # The first kept sweep's 0.0 + value makes the sum an array, with the bits
    # of zeros + value; no name holds a value past its addition.
    total = 0.0
    with open(out / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "sigma2", "log_posterior"])
        for t, state, log_post in run(data, hp, seed, state=state, start_sweep=start_sweep):
            if t in kept:
                total += mean_of(state)
            writer.writerow([str(t), repr(float(state.sigma2)), repr(float(log_post))])
    draws = {"kept_sweeps": len(kept), "total_draws": data.n * (hp.n_sweeps - start_sweep)}
    return out, total / len(kept), draws, log_post


def _chain_settings(hp: HyperParams) -> dict:
    """The model settings a chain is fixed to, in JSON form (a2 = inf as "inf")."""
    return {
        "c_strength": hp.c_strength,
        "bandwidth": hp.bandwidth,
        "a2": "inf" if math.isinf(hp.a2) else hp.a2,
        "eta": ETA,
    }


def _save_summary(out, hp, seed: int, d: int, draws: dict, fields: dict) -> None:
    """summary.json: the chain's settings, _run_chain's draw counts, then the
    command's own fields."""
    doc = {
        **_chain_settings(hp),
        "seed": seed,
        "d": d,
        "sweeps": hp.n_sweeps,
        "burn_in": hp.burn_in,
        "thin": hp.thin,
        "tau2": hp.tau2,
        "frame_kernel": FRAME_KERNEL,
        "latent_update": LATENT_UPDATE,
        **draws,
    }
    doc.update(fields)
    save_json(out / "summary.json", doc)


def cmd_sphere_demo(args) -> int:
    seed = args.seed
    rng = np.random.default_rng([_DATA_STREAM_TAG, seed])
    raw, data = generate_sphere(args.n, args.noise, rng)
    try:
        fit, hp = _pilot(args, data)
    except InputFileError as err:  # it reads no file: only --noise makes data this large
        raise UsageError(f"--noise is too large, got {args.noise}: {err}") from err
    pca_recon = reconstruct_linear(fit)
    pca_errors = reconstruction_errors(data.y, pca_recon)
    # Rank-d optimum from the trailing singular values, cross-checking the fit.
    all_sv = np.linalg.svd(data.y / np.sqrt(data.n), compute_uv=False)
    pca_total_analytic = float(data.n * np.sum(all_sv[args.dim:] ** 2))

    out, model_recon, draws, _ = _run_chain(
        args, data, hp, seed, init_state(fit, hp), 0, _reconstructions)
    model_errors = reconstruction_errors(data.y, model_recon)
    model_recon_raw = model_recon + data.column_means
    pca_recon_raw = pca_recon + data.column_means

    data_sphere = distance_to_unit_sphere(raw)
    model_sphere = distance_to_unit_sphere(model_recon_raw)
    pca_sphere = distance_to_unit_sphere(pca_recon_raw)

    export_matrix_csv(out / "raw_points.csv", raw, prefix="coord")
    export_matrix_csv(out / "reconstructions.csv", model_recon_raw, prefix="coord")
    for name, values in (("hist_data_to_sphere.csv", data_sphere),
                         ("hist_recon_to_sphere.csv", model_sphere),
                         ("hist_recon_errors.csv", model_errors)):
        counts, edges = np.histogram(values, _HIST_BINS)
        export_histogram_csv(out / name, edges, counts)

    _save_summary(out, hp, seed, args.dim, draws, {
        "n": data.n,
        "noise": args.noise,
        "model_mean_reconstruction_error": float(model_errors.mean()),
        "pca_mean_reconstruction_error": float(pca_errors.mean()),
        "model_total_sq_error": float(np.sum(model_errors**2)),
        "pca_total_sq_error": float(np.sum(pca_errors**2)),
        "pca_total_sq_error_analytic": pca_total_analytic,
        "model_mean_sphere_distance": float(model_sphere.mean()),
        "pca_mean_sphere_distance": float(pca_sphere.mean()),
        "data_mean_sphere_distance": float(data_sphere.mean()),
    })
    print(
        f"sphere-demo: model mean error {model_errors.mean():.6f} "
        f"vs PCA {pca_errors.mean():.6f}; artifacts in {out}"
    )
    return EXIT_OK


def _digit_dataset(args) -> Dataset:
    """The picked digits, pooled to 14 x 14, as a Dataset.  The pick is made
    from the labels before any image is read, only the picked image rows are
    read and pooled, and nothing read from the IDX files outlives this call
    but the Dataset."""
    rng = np.random.default_rng([_SUBSET_STREAM_TAG, args.seed])

    def pick(labels):
        try:
            return select_digit_subset(labels, _DIGIT_CLASSES, _DIGIT_PER_CLASS, rng)
        except ValueError as err:
            raise InputFileError(f"{args.labels}: {err}") from err

    images, labels = _read_input("IDX input", load_image_set, args.images, args.labels, pick)
    try:
        small = shrink_images(images, _DIGIT_TARGET_SIDE, mode=args.pool)
    except ValueError as err:
        raise UsageError(str(err)) from err
    return to_dataset(small, labels)


def cmd_digits_demo(args) -> int:
    """Fit the 150 digits that _digit_dataset picks and reads, and count NN
    mismatches of their PCA latents and of their posterior mean latents, the
    one quantity the chain averages."""
    seed = args.seed
    data = _digit_dataset(args)
    fit, hp = _pilot(args, data)
    pca_mismatch = nn_mismatch_count(fit.latents, data.labels)

    out, model_latents, draws, _ = _run_chain(
        args, data, hp, seed, init_state(fit, hp), 0, _latents)
    model_mismatch = nn_mismatch_count(model_latents, data.labels)

    export_matrix_csv(out / "pca_latents.csv", fit.latents, labels=data.labels)
    export_matrix_csv(out / "model_latents.csv", model_latents, labels=data.labels)

    _save_summary(out, hp, seed, args.dim, draws, {
        "n": data.n,
        "p": data.p,
        "classes": list(_DIGIT_CLASSES),
        "per_class": _DIGIT_PER_CLASS,
        "pool": args.pool,
        "pca_nn_mismatch": pca_mismatch,
        "model_nn_mismatch": model_mismatch,
        "mnist_paper_pca_mismatch": _MNIST_PAPER_PCA_MISMATCH,
        "mnist_paper_model_mismatch": _MNIST_PAPER_MODEL_MISMATCH,
    })
    print(
        f"digits-demo: NN mismatches model {model_mismatch} vs PCA {pca_mismatch} "
        f"(the paper's MNIST values: model {_MNIST_PAPER_MODEL_MISMATCH} vs PCA "
        f"{_MNIST_PAPER_PCA_MISMATCH}); artifacts in {out}"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    seed = args.seed
    matrix, labels = _read_input(args.input, import_matrix_csv, args.input)
    data = _read_input(args.input, Dataset, matrix, labels)
    fit, hp = _pilot(args, data)

    fingerprint = {**_chain_settings(hp), "data_sha256": data_sha256(data.y)}
    start_sweep = 0
    if args.resume is None:
        state = init_state(fit, hp)
    else:
        ck = _read_input(args.resume, load_checkpoint, args.resume)
        missing = fingerprint.keys() - ck.fingerprint.keys()
        if missing:
            raise InputFileError(f"{args.resume}: checkpoint missing fields {sorted(missing)}")
        n, p, d = ck.state.transformations.shape
        if (n, p, d) != (data.n, data.p, args.dim):
            raise UsageError(
                f"checkpoint is for n={n}, p={p}, d={d}; "
                f"input gives n={data.n}, p={data.p}, d={args.dim}"
            )
        if not kept_sweeps(hp, ck.counter):  # also when counter >= --sweeps
            raise UsageError(
                f"--sweeps {args.sweeps}, --burn-in {args.burn_in} and --thin {args.thin} "
                f"keep no sweep after the checkpoint's {ck.counter}"
            )
        changed = [
            source
            for key, source in _FINGERPRINT_SOURCES.items()
            if ck.fingerprint[key] != fingerprint[key]
        ]
        if changed:
            raise UsageError(
                f"checkpoint belongs to a different chain: {', '.join(changed)} "
                "differ from the run that wrote it"
            )
        state = ck.state
        start_sweep = ck.counter
        seed = ck.seed  # the original stream must continue

    out, mean_latents, draws, log_post = _run_chain(
        args, data, hp, seed, state, start_sweep, _latents)

    save_checkpoint(out / "checkpoint.json", CheckpointData(state, seed, hp.n_sweeps, fingerprint))
    export_matrix_csv(out / "mean_latents.csv", mean_latents, labels=data.labels)

    _save_summary(out, hp, seed, args.dim, draws, {
        "n": data.n,
        "p": data.p,
        "start_sweep": start_sweep,
        "final_sigma2": float(state.sigma2),
        "final_log_posterior": log_post,
    })
    print(f"fit: {hp.n_sweeps - start_sweep} sweeps done; artifacts in {out}")
    return EXIT_OK


def _circle_mean_gap(kappa: float) -> float:
    """1 - E[cos(theta)] under the circular density prop. to exp(kappa cos(theta)),
    that is 1 - I_1(kappa) / I_0(kappa).  Up to kappa = 1e6 it is the ratio of
    the integrals of 2 s^2 exp(-2 kappa s^2) and exp(-2 kappa s^2), s = sin(theta/2),
    by the midpoint rule on N = 64 + 40 sqrt(kappa) points of the period, which
    converges exponentially for periodic analytic integrands (Trefethen &
    Weideman 2014).  Both are even, so it sums the N/2 points in (0, pi), where s
    keeps full relative precision; it is within 1e-15 relative of 40-digit values
    there.  Above 1e6 it is the asymptotic series 1/(2 kappa) + 1/(8 kappa^2) +
    1/(8 kappa^3), whose next term is below the rounding of the sum there; in
    Horner form, no power overflows."""
    if kappa > 1e6:
        return (0.5 + (0.125 + 0.125 / kappa) / kappa) / kappa
    half = 32 + int(20.0 * math.sqrt(kappa))
    s2 = np.sin((np.arange(half) + 0.5) * (0.5 * math.pi / half)) ** 2
    weight = np.exp(-2.0 * kappa * s2)
    return float(2.0 * (s2 @ weight) / weight.sum())


def cmd_vmf_diag(args) -> int:
    if args.d_frame >= args.p:
        raise UsageError(f"argument --d-frame: must be < --p = {args.p}, got {args.d_frame}")

    # The chain's frame step, passed repeatedly from the mode of C = kappa I.
    cm = args.kappa * np.eye(args.p, args.d_frame)
    x = np.eye(args.p, args.d_frame)
    rng = np.random.default_rng([_DIAG_STREAM_TAG, args.seed])
    lead = np.empty((args.samples, 2))  # x[0, 0] and x[1, 0] after each pass
    for k in range(args.samples):
        column_gibbs_pass(cm, x, rng)
        lead[k] = x[:2, 0]
    dev = lead[:, 0] - lead[:, 0].mean()
    spread = float(dev @ dev)
    lag1 = float(dev[:-1] @ dev[1:]) / spread if spread > 0 else math.nan

    print(f"p: {args.p}")
    print(f"d: {args.d_frame}")
    print(f"kappa: {args.kappa}")
    print(f"samples: {args.samples}")
    print(f"frame_kernel: {FRAME_KERNEL}")
    print(f"lag1_autocorrelation: {lag1:.6f}")
    if (args.p, args.d_frame) == (2, 1):
        # One pass at d = 1 is an exact draw independent of the last, so the
        # i.i.d. standard error holds.  It tests the gap 1 - x[0, 0], as
        # x[1, 0]^2 / (1 + x[0, 0]) where x[0, 0] >= 0 (|x[0, 0]| keeps the
        # unused branch finite at -1): above kappa ~ 1e14, x[0, 0] itself
        # spreads by less than the spacing of doubles near 1.
        cos, sin = lead.T
        gap = np.where(cos >= 0.0, sin * sin / (1.0 + np.abs(cos)), 1.0 - cos)
        empirical = float(gap.mean())
        se = float(gap.std(ddof=1) / math.sqrt(args.samples))
        oracle = _circle_mean_gap(args.kappa)
        print(f"mean_resultant_empirical: {1.0 - empirical:.12g}")
        print(f"mean_resultant_exact: {1.0 - oracle:.12g}")
        print(f"standard_error: {se:.12g}")
        z = abs(empirical - oracle) / se if se > 0 else 0.0
        print(f"z_score: {z:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlpca", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nlpca {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sphere = sub.add_parser("sphere-demo", help="noisy-sphere experiment")
    sphere.add_argument("--n", type=_at_least(2), default=100, help="number of points")
    sphere.add_argument("--noise", default=0.05, help="noise level",
                        type=_checked(float, lambda v: 0 <= v < math.inf,
                                      "a nonnegative finite number"))
    _add_chain_options(sphere)
    _add_seed_option(sphere)
    sphere.set_defaults(handler=cmd_sphere_demo)

    digits = sub.add_parser("digits-demo", help="handwritten-digit experiment")
    digits.add_argument("--images", type=str, required=True, help="IDX image file")
    digits.add_argument("--labels", type=str, required=True, help="IDX label file")
    digits.add_argument(
        "--pool", choices=("stride", "mean"), default="stride", help="downsampling mode"
    )
    _add_chain_options(digits)
    _add_seed_option(digits)
    digits.set_defaults(handler=cmd_digits_demo)

    fit = sub.add_parser("fit", help="fit a CSV matrix")
    fit.add_argument("input", type=str, help="input CSV (optional trailing label column)")
    fit.add_argument("--resume", type=str, default=None, help="checkpoint to resume from")
    _add_chain_options(fit)
    _add_seed_option(fit)
    fit.set_defaults(handler=cmd_fit)

    diag = sub.add_parser("vmf-diag", help="frame-kernel check")
    diag.add_argument("--p", type=_at_least(2), required=True, help="ambient dimension")
    diag.add_argument("--d-frame", type=_at_least(1), default=1, dest="d_frame",
                      help="frame dimension d, 1 <= d < p")
    diag.add_argument(
        "--kappa", required=True, help="concentration",
        type=_checked(float, lambda v: 0 <= v <= KAPPA_MAX,
                      "in [0, 1e154] (above, the frame step's squared column norm overflows)"))
    diag.add_argument("--samples", type=_at_least(2), default=10_000, help="kernel passes")
    _add_seed_option(diag)
    diag.set_defaults(handler=cmd_vmf_diag)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # The chain commands' one check between flags, before any input is read.
        if "sweeps" in args and args.burn_in >= args.sweeps:
            raise UsageError(f"argument --burn-in: must be < --sweeps = {args.sweeps}, "
                             f"got {args.burn_in}")
        return args.handler(args)
    except SystemExit as err:  # --help / --version
        return int(err.code or 0)
    except UsageError as err:
        print(f"nlpca: error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except InputFileError as err:
        print(f"nlpca: input error: {err}", file=sys.stderr)
        return EXIT_IO
    except OSError as err:
        print(f"nlpca: I/O error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, ValueError, RuntimeError) as err:
        print(f"nlpca: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as err:
        print(f"nlpca: out of memory: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
