"""Benchmark of the nlpca CLI: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sphere --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Every command runs in a fresh interpreter through perfbench/launch.py, which
calls nlpca.cli.main as the `nlpca` entry point does, with PYTHONPATH=src and
the BLAS threading the caller's environment gives.  Commands run one at a
time.

--trace 0 first runs the workload's long reference chain, then repeats short
timing runs until --seconds have passed (at least MIN_REPS of them), and
reports the end-to-end metrics.  The reference chain's inputs are fixed;
the timing runs' inputs are drawn from --seed.  ESS comes from the reference
chain alone: ESS of a chain this short varies by tens of percent from chain
to chain (IQR/median 0.7 for an AR(1) trace with ESS/N = 1/3 at N = 200),
so only a fixed chain gives a rate whose spread is timing noise.

--trace 1 runs the reference chain untraced and then traced, checks that
both write the same trace.csv bytes, and reports the per-layer metrics.

Each command's outputs are checked; a command that exits non-zero or fails a
check counts in `failed`.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Everything the benchmark
writes goes under perfbench/work/.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
LAUNCH = BENCH_DIR / "launch.py"

sys.path.insert(0, str(BENCH_DIR))
from digits import make_digit_corpus, write_idx  # noqa: E402
from ess import ess  # noqa: E402
from launch import LAYERS, PROBE_SPAN, SWEEP_SPAN  # noqa: E402

MIN_REPS = 3
# Every run must end within 180 s; commands still running at this point are
# killed and counted as failed.
RUN_DEADLINE_S = 170.0
REFERENCE_SEED = 0
ORTHONORMALITY_TOL = 1e-10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sweeps_per_s": "1/s",
    "ess_sigma2_per_s": "1/s",
    "ess_logpost_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Modules whose self time inside sweeps is reported as a share of sweep time.
SWEEP_MODULES = ("gibbs", "vmf", "mrf", "stiefel")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            if module != "cli":
                units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_ms"] = "ms"
    units.update(
        {
            "gibbs.sweep.ms_p50": "ms",
            "gibbs.sweep.ms_tail": "ms",
            "gibbs.sweep.tail_pct": "%",
            "vmf.fallback_share": "ratio",
            "vmf.acceptance_rate": "ratio",
            "vmf.conc_p50": "nats",
            "vmf.conc_p90": "nats",
            "datasets.checkpoint_bytes": "B",
            "trace.overhead_frac": "ratio",
        }
    )
    for module in SWEEP_MODULES:
        units[f"{module}.sweep_share"] = "ratio"
    return units


# ---------------------------------------------------------------- workloads


@dataclass
class Command:
    """One nlpca invocation and what its outputs must show."""

    args: list[str]
    out: Path
    start_sweep: int
    sweeps: int  # the chain's sweep counter after this command
    n_sites: int


@dataclass
class Workload:
    name: str
    # (rep_dir, rng, sweeps, burn_in) -> the commands of one repetition
    build: Callable[[Path, np.random.Generator, int, int], list[Command]]
    # (sweeps, burn-in) of the long reference chain and of the timing repetitions
    reference: tuple[int, int]
    timing: tuple[int, int]


def _program_seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(2**31)))


def _sphere(rep_dir: Path, rng, sweeps: int, burn_in: int) -> list[Command]:
    out = rep_dir / "out"
    args = ["sphere-demo", "--n", "100", "--noise", "0.05", "--dim", "2",
            "--sweeps", str(sweeps), "--burn-in", str(burn_in),
            "--seed", _program_seed(rng), "--out", str(out)]
    return [Command(args, out, 0, sweeps, 100)]


DIGITS_PER_CLASS = 60  # digits-demo picks 50 of each class


def _digits(rep_dir: Path, rng, sweeps: int, burn_in: int) -> list[Command]:
    images, labels = make_digit_corpus(rng, DIGITS_PER_CLASS)
    images_path, labels_path = rep_dir / "images.idx", rep_dir / "labels.idx"
    write_idx(images_path, labels_path, images, labels)
    out = rep_dir / "out"
    args = ["digits-demo", "--images", str(images_path), "--labels", str(labels_path),
            "--dim", "2", "--sweeps", str(sweeps), "--burn-in", str(burn_in),
            "--seed", _program_seed(rng), "--out", str(out)]
    return [Command(args, out, 0, sweeps, 150)]


FIT_N, FIT_P = 100, 5


def _fit_diffuse(rep_dir: Path, rng, sweeps: int, burn_in: int) -> list[Command]:
    """A first fit writes checkpoint.json halfway; a --resume fit finishes the chain."""
    data = rng.standard_normal((FIT_N, FIT_P))
    data_path = rep_dir / "data.csv"
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{k + 1}" for k in range(FIT_P)])
        writer.writerows([[repr(float(v)) for v in row] for row in data])
    common = ["fit", str(data_path), "--dim", "2", "--c", "0.01", "--burn-in", str(burn_in)]
    half = sweeps // 2
    part1, part2 = rep_dir / "part1", rep_dir / "part2"
    return [
        Command(common + ["--sweeps", str(half), "--seed", _program_seed(rng),
                          "--out", str(part1)], part1, 0, half, FIT_N),
        Command(common + ["--sweeps", str(sweeps), "--resume",
                          str(part1 / "checkpoint.json"), "--out", str(part2)],
                part2, half, sweeps, FIT_N),
    ]


# Why each workload is here is recorded in BENCHMARK.json.  Sweep counts give
# a reference chain of ~8 s and timing repetitions of ~3 s on a 2-core x86 box.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere", _sphere, reference=(120, 20), timing=(40, 10)),
        Workload("digits", _digits, reference=(60, 10), timing=(20, 5)),
        Workload("fit_diffuse", _fit_diffuse, reference=(60, 10), timing=(20, 5)),
    )
}


def inputs_rng(workload: str, seed: int, rep: int) -> np.random.Generator:
    """Repetition 0 gets the workload's reference inputs; the rest follow the seed."""
    tag = list(WORKLOADS).index(workload) + 1
    key = [tag, REFERENCE_SEED] if rep == 0 else [tag, seed, rep]
    return np.random.default_rng(key)


# ---------------------------------------------------------------- running


@dataclass
class CommandResult:
    command: Command
    launch_ns: int
    exit_ns: int
    exit_code: int | None
    spans: dict | None
    problems: list[str] = field(default_factory=list)
    trace_rows: list[dict] = field(default_factory=list)

    def sweep_spans(self) -> tuple[np.ndarray, np.ndarray]:
        names = list(self.spans["names"])
        if SWEEP_SPAN not in names:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        mask = self.spans["name_id"] == names.index(SWEEP_SPAN)
        return self.spans["start"][mask], self.spans["end"][mask]


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def execute(cmd: Command, mode: str, deadline: float) -> CommandResult:
    cmd.out.parent.mkdir(parents=True, exist_ok=True)
    spans_path = cmd.out.parent / f"{cmd.out.name}.{mode}.npz"
    log_path = cmd.out.parent / f"{cmd.out.name}.{mode}.log"
    with open(log_path, "w") as log:
        launch_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCH), str(spans_path), mode, *cmd.args],
            cwd=ROOT, env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = None
        exit_ns = time.monotonic_ns()
    spans = None
    if spans_path.exists():
        with np.load(spans_path) as z:
            spans = {k: z[k] for k in z.files}
    result = CommandResult(cmd, launch_ns, exit_ns, code, spans)
    check_command(result)
    if result.problems:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
        print(f"FAILED {cmd.args[0]} -> {cmd.out}: "
              f"{'; '.join(result.problems)}", *tail, sep="\n  ", file=sys.stderr)
    return result


def check_command(res: CommandResult) -> None:
    """Read the command's trace.csv into res and check its outputs; failures go
    to res.problems."""
    cmd, problems = res.command, res.problems
    if res.exit_code != 0:
        problems.append(f"exit code {res.exit_code}")
        return
    expected = list(range(cmd.start_sweep, cmd.sweeps))
    try:
        with open(cmd.out / "trace.csv", newline="") as fh:
            rows = [
                {"sweep": int(r["sweep"]), "sigma2": float(r["sigma2"]),
                 "log_posterior": float(r["log_posterior"])}
                for r in csv.DictReader(fh)
            ]
        with open(cmd.out / "summary.json") as fh:
            summary = json.load(fh)
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"unreadable output: {err}")
        return
    res.trace_rows = rows
    if [r["sweep"] for r in rows] != expected:
        problems.append(f"trace.csv has {len(rows)} rows, expected sweeps {cmd.start_sweep}.."
                        f"{cmd.sweeps - 1}")
    if not all(r["sigma2"] > 0 and math.isfinite(r["sigma2"]) for r in rows):
        problems.append("trace.csv has a non-positive or non-finite sigma2")
    if not all(math.isfinite(r["log_posterior"]) for r in rows):
        problems.append("trace.csv has a non-finite log posterior")
    if summary.get("total_draws") != cmd.n_sites * len(expected):
        problems.append(f"total_draws {summary.get('total_draws')} != "
                        f"{cmd.n_sites} x {len(expected)} sweeps")
    if res.spans is None or len(res.sweep_spans()[0]) != len(expected):
        problems.append("sweep timings missing or incomplete")
    if cmd.args[0] == "sphere-demo":
        got = summary.get("pca_total_sq_error", math.nan)
        want = summary.get("pca_total_sq_error_analytic", math.nan)
        if not math.isclose(got, want, rel_tol=1e-9):
            problems.append(f"pca_total_sq_error {got} != analytic {want}")
    if cmd.args[0] == "fit":
        check_checkpoint(cmd, problems)


def check_checkpoint(cmd: Command, problems: list[str]) -> None:
    try:
        with open(cmd.out / "checkpoint.json") as fh:
            ck = json.load(fh)
        frames = np.asarray(ck["transformations"], dtype=float).reshape(
            ck["n"], ck["p"], ck["d"])
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"unreadable checkpoint: {err}")
        return
    gram = np.einsum("npk,npl->nkl", frames, frames) - np.eye(ck["d"])
    if not np.max(np.abs(gram)) <= ORTHONORMALITY_TOL:
        problems.append("checkpoint frames are not orthonormal to 1e-10")
    if ck.get("counter") != cmd.sweeps:
        problems.append(f"checkpoint counter {ck.get('counter')} != {cmd.sweeps} sweeps")


@dataclass
class Rep:
    results: list[CommandResult]
    burn_in: int

    @property
    def ok(self) -> bool:
        return all(not r.problems for r in self.results)

    @property
    def setup_s(self) -> float:
        return sum((r.sweep_spans()[0][0] - r.launch_ns) for r in self.results) / 1e9

    @property
    def wall_s(self) -> float:
        return (self.results[-1].exit_ns - self.results[0].launch_ns) / 1e9

    def sweep_ms(self) -> np.ndarray:
        return np.concatenate(
            [(e - s) / 1e6 for s, e in (r.sweep_spans() for r in self.results)])

    def chain(self, column: str) -> np.ndarray:
        """The post-burn-in trace of one column across the rep's commands."""
        return np.array([row[column] for r in self.results for row in r.trace_rows
                         if row["sweep"] >= self.burn_in])


def run_rep(workload: Workload, seed: int, rep: int, mode: str, deadline: float,
            tag: str = "") -> Rep:
    """Repetition 0 is the long reference chain; later ones are timing runs."""
    rep_dir = WORK / workload.name / f"rep{rep}{tag}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    sweeps, burn_in = workload.reference if rep == 0 else workload.timing
    commands = workload.build(rep_dir, inputs_rng(workload.name, seed, rep), sweeps, burn_in)
    results = []
    for cmd in commands:
        results.append(execute(cmd, mode, deadline))
        if results[-1].problems:
            break  # later commands of the rep depend on this one
    return Rep(results, burn_in)


# ---------------------------------------------------------------- metrics


def end_to_end(reps: list[Rep]) -> tuple[dict[str, float], dict[str, float]]:
    """The gated metrics, and the figures they are built from.

    Set-up is the median over all repetitions and wall time the mean over
    the timing repetitions: the machine's speed drifts over tens of seconds,
    and the mean averages that drift with less scatter than the median of a
    handful of repetitions.  The sweep rate pools every sweep of the run.
    ESS per second is the reference chain's ESS per sweep at that rate.
    """
    ref, timing = reps[0], [r for r in reps[1:] if r.ok]
    if not ref.ok or not timing:
        raise RuntimeError("no successful repetition to measure")
    good = [ref, *timing]
    sweep_ms = np.concatenate([r.sweep_ms() for r in good])
    sweeps_per_s = len(sweep_ms) / (sweep_ms.sum() / 1e3)
    ref_sweeps = len(ref.sweep_ms())
    ess_sigma2, ess_logpost = ess(ref.chain("sigma2")), ess(ref.chain("log_posterior"))
    values = {
        "setup_s": statistics.median(r.setup_s for r in good),
        "wall_s": statistics.fmean(r.wall_s for r in timing),
        "sweeps_per_s": sweeps_per_s,
        "ess_sigma2_per_s": ess_sigma2 * sweeps_per_s / ref_sweeps,
        "ess_logpost_per_s": ess_logpost * sweeps_per_s / ref_sweeps,
        # ru_maxrss is in KiB on Linux: the largest of the command processes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise RuntimeError(f"{name} is {value}")
    basis = {
        "ess_sigma2": ess_sigma2,
        "ess_logpost": ess_logpost,
        "reference_sweeps": ref_sweeps,
        "timing_reps": len(timing),
        "sweeps_timed": len(sweep_ms),
    }
    return values, basis


def quality(workload: Workload, rep: Rep) -> dict[str, float]:
    """The paper's quality outputs, reported but not gated."""
    out = rep.results[-1].command.out
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    if workload.name == "sphere":
        return {"recon_ratio": summary.get("model_mean_reconstruction_error", math.nan)
                / summary.get("pca_mean_reconstruction_error", math.nan)}
    if workload.name == "digits":
        return {"nn_mismatch": summary.get("model_nn_mismatch", math.nan),
                "pca_nn_mismatch": summary.get("pca_nn_mismatch", math.nan)}
    return {}


def _self_times(spans: dict) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    children = np.zeros_like(dur)
    np.add.at(children, parent[has_parent], dur[has_parent])
    return dur - children


def per_layer(untraced: Rep, traced: Rep) -> dict[str, float]:
    values = {name: 0 if unit == "count" else 0.0 for name, unit in per_layer_units().items()}
    sweep_total_ns = 0
    module_ns = dict.fromkeys(SWEEP_MODULES, 0)
    conc, fallback, proposals = [], [], []
    for res in traced.results:
        spans = res.spans
        names = [str(n) for n in spans["names"]]
        nid, start = spans["name_id"], spans["start"]
        self_ns = _self_times(spans)
        sweep_start, sweep_end = res.sweep_spans()
        slot = np.searchsorted(sweep_start, start, side="right") - 1
        in_sweep = (slot >= 0) & (start <= sweep_end[np.maximum(slot, 0)])
        sweep_total_ns += int((sweep_end - sweep_start).sum())
        for k, name in enumerate(names):
            mask = nid == k
            if name == PROBE_SPAN:
                sweep_total_ns -= int(self_ns[mask & in_sweep].sum())
                continue
            if name != "cli.main":
                values[f"{name}.calls"] += int(mask.sum())
            values[f"{name}.self_ms"] += float(self_ns[mask].sum()) / 1e6
            module = name.split(".")[0]
            if module in module_ns:
                module_ns[module] += int(self_ns[mask & in_sweep].sum())
        conc.append(spans["concentration"])
        fallback.append(spans["fallback"])
        proposals.append(spans["proposals"])
        checkpoint = res.command.out / "checkpoint.json"
        if checkpoint.exists():
            values["datasets.checkpoint_bytes"] += checkpoint.stat().st_size

    sweep_ms = np.sort(untraced.sweep_ms())
    n = len(sweep_ms)
    values["gibbs.sweep.ms_p50"] = float(np.median(sweep_ms))
    # The highest percentile with at least ten sweeps beyond it.
    values["gibbs.sweep.ms_tail"] = float(sweep_ms[max(n - 11, 0)])
    values["gibbs.sweep.tail_pct"] = 100.0 * max(n - 10, 1) / n

    conc = np.concatenate(conc)
    fallback = np.concatenate(fallback)
    proposals = np.concatenate(proposals)
    if conc.size:
        values["vmf.fallback_share"] = float(fallback.mean())
        values["vmf.conc_p50"] = float(np.percentile(conc, 50))
        values["vmf.conc_p90"] = float(np.percentile(conc, 90))
    if proposals.sum():
        values["vmf.acceptance_rate"] = float((fallback == 0).sum() / proposals.sum())
    for module, ns in module_ns.items():
        values[f"{module}.sweep_share"] = ns / sweep_total_ns if sweep_total_ns else 0.0
    values["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s
    return values


def compare_traces(untraced: Rep, traced: Rep) -> None:
    """The wrappers must not perturb the chain: trace.csv is byte-identical."""
    for plain, wrapped in zip(untraced.results, traced.results):
        a, b = plain.command.out / "trace.csv", wrapped.command.out / "trace.csv"
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            wrapped.problems.append("traced trace.csv differs from the untraced one")


# ---------------------------------------------------------------- reporting


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_version(module) -> str:
    try:
        return str(module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
            if k in os.environ
        },
        "commit": _git_commit(),
    }


def _metrics_json(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    if trace:
        untraced = run_rep(workload, seed, 0, "sweeps", deadline)
        traced = run_rep(workload, seed, 0, "layers", deadline, tag="-traced")
        compare_traces(untraced, traced)
        reps = [untraced, traced]
    else:
        reps = [run_rep(workload, seed, 0, "sweeps", deadline)]
        while len(reps) <= MIN_REPS or time.monotonic() - started < seconds:
            if time.monotonic() >= deadline:
                break
            reps.append(run_rep(workload, seed, len(reps), "sweeps", deadline))
    attempted = sum(len(r.results) for r in reps)
    failed = sum(1 for r in reps for res in r.results if res.problems)
    extras = {"failed_frac": failed / attempted}
    if trace:
        if not all(res.spans is not None and res.exit_code == 0
                   for r in reps for res in r.results):
            raise RuntimeError("the traced pair did not complete")
        values, units = per_layer(untraced, traced), per_layer_units()
    else:
        values, basis = end_to_end(reps)
        units = END_TO_END
        extras.update(basis)
    extras.update(quality(workload, reps[0]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metrics_json(values, units),
        "extras": extras,
    }


def print_table(title: str, metrics: dict, extras: dict) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"  {name:42s} {value:>16.6g} (not gated)")


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, each in its own benchmark process."""
    metrics, attempted, failed = {}, 0, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            try:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10,
                )
            except subprocess.TimeoutExpired:
                proc = subprocess.CompletedProcess([], None, "", "")
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                attempted += 1
                failed += 1
                continue
            result = json.loads(lines[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "nlpca" / "cli.py").is_file():
        print(f"perfbench: no nlpca sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    workload = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"perfbench: {workload.name}: {err}", file=sys.stderr)
        return 1
    extras = result.pop("extras")
    print_table(f"{workload.name} seed={args.seed} trace={args.trace}", result["metrics"], extras)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "extras": extras, **result}
    with open(WORK / f"BENCH_{workload.name}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
