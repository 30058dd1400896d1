"""Layered, seeded benchmark of spindir.

    python3 perfbench/run.py --workload mc-d3 --seed 7 --seconds 20 --trace 0

Runs one workload closed-loop (one operation in flight, no threads) for
about --seconds, checks every output, prints one line per metric and, as
the last line, a JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
makes an untraced and a traced pass and reports the per-layer ones instead.
Workloads, metrics and the layer map are described in perfbench/README.md.

Exit codes: 0 when a result was printed, 2 when the benchmark cannot run
(no spindir source tree beside it, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
PROBE_TIMEOUT_S = 60

WORKLOADS = ("mc-d3", "mc-frame", "analytic")
# Monte Carlo kinds every workload runs at least once, so that every
# trial_us.<label> is measured on every workload.
MC_LABELS = (
    "d3-single",
    "d3-covariant",
    "d3-repeated",
    "d3-coherent",
    "frame-best-fit",
    "frame-naive-euler",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trial_us": "us",
    **{f"trial_us.{label}": "us" for label in MC_LABELS},
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
    "checks_ok_frac": "ratio",
}
PER_LAYER = {
    "harness.run_experiment.self_s": "s",
    "harness.sample_chi.rows_per_s": "1/s",
    "harness.sample_haar_direction.rows_per_s": "1/s",
    "harness.sample_haar_rotation.calls_per_s": "1/s",
    "frames.Frame.self_s": "s",
    "frames.Frame.calls": "count",
    "frames.frame_infidelity.self_s": "s",
    "geometry.Direction.from_vector.self_s": "s",
    "geometry.Direction.from_vector.calls": "count",
    "frames.best_fit_frame.self_s": "s",
    "frames.axes_to_euler.self_s": "s",
    "frames.naive_euler_estimate.self_s": "s",
    "frames.euler_to_axes.self_s": "s",
    "frames.naive_clamps": "count",
    "frames.naive_clamp_ratio": "ratio",
    "frames.degenerate": "count",
    "protocols.d3_repeated_single_score.self_s": "s",
    "protocols.d3_coherent_score.self_s": "s",
    "optimize.d3_coherent_error.self_s": "s",
    "geometry.sphere_quadrature.self_s": "s",
    "optimize.optimal_direction_encoding.self_s": "s",
    "optimize.ChiDensity.cumulative_in_cos.self_s": "s",
    "protocols.d3_outcome_matrix.self_s": "s",
    "protocols.frame_two_axis_score.self_s": "s",
    "povm.validate_povm.self_s": "s",
    "groups.dihedral_d3.self_s": "s",
    "multispin.total_j_projector.self_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.write_record.self_s": "s",
    "cli.read_record.self_s": "s",
    "cli.record_bytes": "count",
    "trace.overhead_s": "s",
    "host.scalar_ms": "ms",
    "host.vector_ms": "ms",
}

# Z-score bound for a Monte Carlo estimate against its reference.
Z_MAX = 5.0


@dataclass(frozen=True)
class Sizes:
    """Operation sizes of one workload (full or smoke)."""

    d3_trials: int
    frame_trials: int
    frame_encodings: tuple = ("optimal",)
    repeated_max_n: int = 0
    coherent_max_n: int = 0
    optimal_max_n: int = 0
    mc_rounds: int = 1
    setup_probes: int = 11
    sampler_rows: int = 100_000


SIZES = {
    "mc-d3": Sizes(d3_trials=250_000, frame_trials=128),
    "mc-frame": Sizes(d3_trials=32768, frame_trials=1000, frame_encodings=("optimal", "coherent")),
    "analytic": Sizes(
        d3_trials=32768, frame_trials=128, repeated_max_n=9, coherent_max_n=60, optimal_max_n=240,
        mc_rounds=4,
    ),
}
SMOKE_SIZES = {
    "mc-d3": Sizes(d3_trials=20_000, frame_trials=64, setup_probes=1, sampler_rows=2000),
    "mc-frame": Sizes(
        d3_trials=2000, frame_trials=200, frame_encodings=("optimal", "coherent"),
        setup_probes=1, sampler_rows=2000,
    ),
    "analytic": Sizes(
        d3_trials=2000, frame_trials=64, repeated_max_n=4, coherent_max_n=12,
        optimal_max_n=20, mc_rounds=2, setup_probes=1, sampler_rows=2000,
    ),
}


# ------------------------------------------------------------------ checks


class Checks:
    """Correctness checks and failed operations; a failure never aborts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {name}: {detail}")
        return ok


def z_ok(estimate: float, stderr: float, reference: float) -> tuple:
    z = abs(estimate - reference) / stderr if stderr > 0 else (0.0 if estimate == reference else math.inf)
    return z <= Z_MAX, f"estimate {estimate!r} reference {reference!r} z {z:.2f}"


# ---------------------------------------------------------------- timings


@dataclass(frozen=True)
class Timing:
    """One timed operation: its midpoint on the perf_counter clock, its
    seconds, the host-speed kernel of its kind of work, and for a Monte
    Carlo run its label and trials."""

    t_mid: float
    seconds: float
    kind: str = "scalar"
    label: str = ""
    trials: int = 0


def timed(fn, *args, **timing):
    """Call fn(*args); return (result, Timing)."""
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    return out, Timing(0.5 * (t0 + t1), t1 - t0, **timing)


def mc_kind(label: str) -> str:
    return "vector" if label.startswith("d3-") else "scalar"


@dataclass
class PassResult:
    """One pass: the operations' outputs by key, the timings that make up
    its wall time, and the Monte Carlo runs' timings."""

    outputs: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)
    runs: list = field(default_factory=list)


# ------------------------------------------------------------- operations


@dataclass(frozen=True)
class Mc:
    """One Monte Carlo run; label picks the trial_us metric it feeds."""

    key: str
    label: str
    config: object


@dataclass(frozen=True)
class Kernel:
    """One reference-kernel call."""

    key: str
    fn: object
    args: tuple = ()
    kind: str = "scalar"


def mc_configs(sizes: Sizes, seed: int) -> list:
    """The six Monte Carlo kinds (frame: per encoding), seeded from ``seed``."""
    from spindir.harness import RunConfig
    from spindir.protocols import ProtocolSpec

    rng = random.Random(seed)
    specs = [
        ("d3-single", ProtocolSpec("d3-single", 1)),
        ("d3-covariant", ProtocolSpec("d3-covariant", 2)),
        ("d3-repeated", ProtocolSpec("d3-repeated", 9, tie_break="random")),
        ("d3-coherent", ProtocolSpec("d3-coherent", 24)),
    ]
    ops = [
        Mc(label, label, RunConfig(spec, sizes.d3_trials, rng.randrange(2**32)))
        for label, spec in specs
    ]
    for encoding in sizes.frame_encodings:
        shared = rng.randrange(2**32)  # both decoders see the same draws
        for decoder in ("best-fit", "naive-euler"):
            spec = ProtocolSpec("frame-two-axis", 8, encoding=encoding, decoder=decoder)
            ops.append(Mc(f"frame-{decoder}/{encoding}", f"frame-{decoder}",
                          RunConfig(spec, sizes.frame_trials, shared)))
    return ops


def kernel_ops(sizes: Sizes) -> list:
    from spindir import protocols
    from spindir.optimize import chi_density, optimal_direction_encoding
    from spindir.states import SpinJ

    def optimal(n):
        code = optimal_direction_encoding(SpinJ(n))
        return code.fidelity, chi_density(code).expected_fidelity()

    ops = [Kernel("single", protocols.d3_single_spin_score)]
    for n in range(1, sizes.repeated_max_n + 1):
        for tb in ("random", "lowest-index"):
            ops.append(Kernel(f"repeated/{n}/{tb}", protocols.d3_repeated_single_score, (n, tb)))
    for n in range(4, sizes.coherent_max_n + 1, 4):
        ops.append(Kernel(f"coherent/{n}", protocols.d3_coherent_score, (n,), kind="vector"))
    for n in range(2, sizes.optimal_max_n + 1, 2):
        ops.append(Kernel(f"optimal/{n}", optimal, (n,)))
    ops.append(Kernel("covariant", protocols.d3_covariant_two_spin_score))
    return ops


def run_pass(ops: list, checks: Checks, probes: Probes) -> PassResult:
    """Run the operations in order; between them, sample host speed and run
    any set-up probe that is due."""
    from spindir.harness import run_experiment

    res = PassResult()
    for op in ops:
        try:
            if isinstance(op, Mc):
                out, t = timed(run_experiment, op.config, kind=mc_kind(op.label),
                               label=op.label, trials=op.config.trials)
                res.runs.append(t)
            else:
                out, t = timed(op.fn, *op.args, kind=op.kind)
        except (ValueError, RuntimeError) as exc:
            checks.check(f"operation {op.key}", False, repr(exc))
            continue
        res.ops.append(t)
        res.outputs[op.key] = out
        probes.host.sample()
        probes.tick()
    return res


def comparable(out) -> object:
    """The bits of an operation's output that must repeat exactly."""
    if hasattr(out, "estimates"):
        return (out.estimates, out.stderrs)
    if hasattr(out, "fidelity"):
        return (out.fidelity, getattr(out, "coefficients", None))
    return out


def unique(ops: list) -> list:
    """One operation per key (analytic repeats its Monte Carlo runs)."""
    return list({op.key: op for op in ops}.values())


def check_mc(ops: list, outputs: dict, references: dict, checks: Checks):
    """Estimates against references, and best-fit against naive-euler."""
    from spindir.protocols import frame_two_axis_score

    for op in unique(ops):
        if not isinstance(op, Mc) or op.key not in outputs:
            continue
        result = outputs[op.key]
        est, err = result.estimates, result.stderrs
        ref = references.get(op.key)
        if ref is not None:
            ok, detail = z_ok(est["fidelity"], err["fidelity"], ref)
            checks.check(f"{op.key} within z of reference", ok, detail)
        if "per_axis" in est:
            spec = op.config.protocol
            expected = frame_two_axis_score(
                spec.num_spins, encoding=spec.encoding, fitter=spec.decoder
            ).expected_per_axis_infidelity
            for axis, (value, se) in enumerate(zip(est["per_axis"], err["per_axis"])):
                ok, detail = z_ok(value, se, expected)
                checks.check(f"{op.key} axis {axis} within z of expected", ok, detail)
        if op.label == "frame-naive-euler":
            best = outputs.get(op.key.replace("naive-euler", "best-fit"))
            if best is not None:
                checks.check(
                    f"{op.key} loses to best-fit on the same seed",
                    best.estimates["fidelity"] > est["fidelity"],
                    f"best-fit {best.estimates['fidelity']!r} naive {est['fidelity']!r}",
                )


def check_kernels(outputs: dict, checks: Checks):
    """Reference kernels against independent oracles."""
    import numpy as np

    single = outputs.get("single")
    for tb in ("random", "lowest-index"):
        rep = outputs.get(f"repeated/1/{tb}")
        if single is not None and rep is not None:
            checks.check(
                f"n=1 enumeration ({tb}) equals the single-spin score",
                abs(rep.fidelity - single.fidelity) <= 1e-12,
                f"{rep.fidelity!r} vs {single.fidelity!r}",
            )
    for key, out in outputs.items():
        if not key.startswith("optimal/"):
            continue
        fidelity, density_fidelity = out
        # Golub-Welsch: the optimal N-spin code has F = (1 + x_max)/2, x_max
        # the largest root of the Legendre polynomial P_{N/2+1}.
        n = int(key.split("/")[1])
        oracle = (1.0 + float(np.max(np.polynomial.legendre.leggauss(n // 2 + 1)[0]))) / 2.0
        checks.check(
            f"{key} F equals (1 + x_max)/2 from leggauss",
            abs(fidelity - oracle) <= 1e-12 and abs(density_fidelity - fidelity) <= 1e-9,
            f"F {fidelity!r} oracle {oracle!r} density {density_fidelity!r}",
        )


def check_records(ops: list, outputs: dict, tmp: str, checks: Checks):
    """Write each run as a result record and read it back bit-for-bit."""
    from spindir import cli

    for i, op in enumerate(unique(ops)):
        if not isinstance(op, Mc) or op.key not in outputs:
            continue
        result = outputs[op.key]
        path = os.path.join(tmp, f"record-{i}.json")
        cli.write_record(cli.record_from_run(op.config, result), path)
        back = cli.read_record(path)
        checks.check(
            f"{op.key} record round trip",
            back.result["estimates"] == result.estimates
            and back.result["stderrs"] == result.stderrs
            and back.config == cli.config_payload(op.config),
            "record differs from the in-process result",
        )


def check_repeat(name: str, first: dict, outputs: dict, checks: Checks):
    for key, out in outputs.items():
        if key in first:
            checks.check(f"{key} repeat ({name}) bit-identical",
                         comparable(out) == comparable(first[key]),
                         f"{comparable(out)!r} vs {comparable(first[key])!r}")


# -------------------------------------------------------------- processes


def run_child(args: list, importtime: bool = False) -> tuple:
    """Run a Python subprocess to completion; return (result, Timing)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + args
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        return timed(lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                            text=True, timeout=PROBE_TIMEOUT_S))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        proc = subprocess.CompletedProcess(cmd, -9, "", f"timed out after {PROBE_TIMEOUT_S} s")
        return proc, Timing(time.perf_counter(), float(PROBE_TIMEOUT_S))


def import_times(stderr: str) -> tuple:
    """(spindir, scipy) cumulative import seconds from -X importtime output.

    Each is the sum over the package's outermost entries (the smallest
    indent among its entries), so nested submodules are not counted twice."""
    found = {"spindir": [], "scipy": []}
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        bare = name.lstrip()
        package = bare.split(".")[0]
        if package in found:
            found[package].append((len(name) - len(bare), int(parts[1])))
    out = []
    for entries in found.values():
        top = min((indent for indent, _ in entries), default=0)
        out.append(sum(us for indent, us in entries if indent == top) / 1e6)
    return tuple(out)


class Probes:
    """Fresh-process set-up probes: import plus the shared first-call work.

    During a timed window, ``tick`` between operations runs the next probe
    when it is due, so that ``target`` probes spread evenly over the window
    instead of landing in one phase of the host."""

    def __init__(self, checks: Checks, host: HostSpeed, target: int, importtime: bool = False):
        self.checks = checks
        self.host = host
        self.target = target
        self.importtime = importtime
        self.window = None  # (start, seconds) while timing
        self.walls, self.setups, self.cli_import, self.scipy_import = [], [], [], []

    def tick(self):
        if self.window is None or len(self.walls) >= self.target:
            return
        start, seconds = self.window
        if time.perf_counter() - start >= len(self.walls) * seconds / self.target:
            self.run()

    def run(self):
        proc, wall = run_child([SETUP_PROBE], importtime=self.importtime)
        self.host.sample()
        try:
            body = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            body = None
        if not self.checks.check("set-up probe", proc.returncode == 0 and body is not None
                                 and body.get("validate_ok") is True, proc.stderr[-500:]):
            return
        self.walls.append(wall)
        self.setups.append(Timing(wall.t_mid, body["setup_s"]))
        if self.importtime:
            spindir_s, scipy_s = import_times(proc.stderr)
            self.cli_import.append(spindir_s)
            self.scipy_import.append(scipy_s)


# ----------------------------------------------------------------- output


def git_sha() -> str | None:
    """HEAD of a .git directory beside the benchmark, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int) -> dict:
    import importlib.metadata

    import numpy
    from spindir import harness

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_sha": git_sha(),
        "BATCH_TRIALS": harness.BATCH_TRIALS,
        "CHI_GRID_POINTS": harness.CHI_GRID_POINTS,
    }


def emit(metrics: dict, units: dict, checks: Checks, raw: dict | None = None):
    for name in units:
        note = f"   (raw {raw[name]!r})" if raw and raw[name] != metrics[name] else ""
        print(f"{name:<44} {metrics[name]!r:>24} {units[name]}{note}")
    print(f"checks: {checks.attempted - checks.failed} of {checks.attempted} passed, "
          f"failed_frac {checks.failed / max(1, checks.attempted)!r}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(1, checks.attempted),
        "failed": checks.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list, probes: Probes, scale) -> dict:
    """Timing metrics, each Timing's seconds multiplied by scale(Timing)."""

    def total(timings):
        return sum(t.seconds * scale(t) for t in timings)

    def per_trial(p, label=None):
        runs = [t for t in p.runs if label in (None, t.label)]
        trials = sum(t.trials for t in runs)
        return 1e6 * total(runs) / trials if trials else None

    out = {
        "setup_s": median(t.seconds * scale(t) for t in probes.setups),
        "wall_s": median(total(p.ops) for p in passes),
        "trial_us": median(v for p in passes if (v := per_trial(p)) is not None),
        "call_p50_s": median(t.seconds * scale(t) for t in probes.walls),
    }
    for label in MC_LABELS:
        out[f"trial_us.{label}"] = median(
            v for p in passes if (v := per_trial(p, label)) is not None
        )
    return out


def layer_metrics(tracer, trials_naive: int, overhead: float, probes: Probes,
                  host: HostSpeed, samplers: dict) -> dict:
    summary = tracer.summary()
    out = {}
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if stat in ("self_s", "calls") and span in summary:
            out[name] = summary[span][stat]
    out["frames.naive_clamps"] = tracer.counts["frames.naive_clamps"]
    out["frames.naive_clamp_ratio"] = tracer.counts["frames.naive_clamps"] / max(1, trials_naive)
    out["frames.degenerate"] = tracer.counts["frames.degenerate"]
    out["cli.record_bytes"] = tracer.counts["cli.record_bytes"]
    out["cli.import_s"] = median(probes.cli_import)
    out["cli.import_scipy_s"] = median(probes.scipy_import)
    out["trace.overhead_s"] = overhead
    out["host.scalar_ms"] = 1e3 * host.median_s("scalar")
    out["host.vector_ms"] = 1e3 * host.median_s("vector")
    out.update(samplers)
    return out


def sampler_rates(rows: int, seed: int) -> dict:
    """Throughput of the public samplers at a fixed size (median of 3)."""
    import numpy as np
    from spindir import harness
    from spindir.protocols import frame_two_axis_score

    density = frame_two_axis_score(8, encoding="optimal").chi
    jobs = {
        "harness.sample_chi.rows_per_s": (rows, lambda g: harness.sample_chi(density, g, size=rows)),
        "harness.sample_haar_direction.rows_per_s": (
            rows // 10, lambda g: harness.sample_haar_direction(g, size=rows // 10)),
        "harness.sample_haar_rotation.calls_per_s": (
            rows // 50, lambda g: [harness.sample_haar_rotation(g) for _ in range(rows // 50)]),
    }
    out = {}
    for name, (count, job) in jobs.items():
        rates = []
        for rep in range(3):
            g = np.random.Generator(np.random.Philox(key=[seed, rep]))
            _, t = timed(job, g)
            rates.append(count / t.seconds)
        out[name] = median(rates)
    return out


# ------------------------------------------------------------------- main


def timed_passes(seconds: float, run_one, probes: Probes) -> list:
    """Run at least two passes, and more until the next one would end after
    ``seconds``; set-up probes run between operations while it lasts."""
    passes = []
    start = time.perf_counter()
    probes.window = (start, seconds)
    try:
        while True:
            passes.append(run_one())
            elapsed = time.perf_counter() - start
            if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes
    finally:
        probes.window = None


def run_workload(args, sizes: Sizes, checks: Checks, probes: Probes, tmp: str) -> tuple:
    from setup_probe import set_up
    from spindir.harness import reference_score
    from tracing import Tracer

    import spindir.cli  # noqa: F401  (the tracer wraps imported modules only)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    checks.check("in-process set-up validate", set_up())
    ops = mc_configs(sizes, args.seed)
    references = {}
    for op in ops:
        ref = reference_score(op.config)
        if ref is not None:
            references[op.key] = ref.fidelity
    if args.workload == "analytic":
        # The short runs repeat between slices of the kernels: more, spread
        # samples of each kind for the same trials per pass.
        kernels = kernel_ops(sizes)
        step = -(-len(kernels) // sizes.mc_rounds)
        ops = [op for i in range(0, len(kernels), step) for op in kernels[i:i + step] + ops]
    if tracer:
        tracer.uninstall()
    print(f"in-process set-up and references: {time.perf_counter() - t0:.3f} s")

    first = {}

    def one_pass():
        res = run_pass(ops, checks, probes)
        if not first:
            first.update(res.outputs)
            check_mc(ops, res.outputs, references, checks)
            check_kernels(res.outputs, checks)
        else:
            check_repeat("next pass", first, res.outputs, checks)
        check_records(ops, res.outputs, tmp, checks)
        return res

    if not args.trace:
        return timed_passes(args.seconds, one_pass, probes), None
    untraced = one_pass()
    with tracer:
        traced = run_pass(ops, checks, probes)
        check_records(ops, traced.outputs, tmp, checks)
    check_repeat("traced", untraced.outputs, traced.outputs, checks)
    naive = [op for op in ops if isinstance(op, Mc) and op.label == "frame-naive-euler"]
    clamps = sum(traced.outputs[op.key].estimates.get("naive_failures", 0)
                 for op in naive if op.key in traced.outputs)
    checks.check("traced clamp count equals the runs' naive_failures",
                 tracer.counts["frames.naive_clamps"] == clamps,
                 f"{tracer.counts['frames.naive_clamps']} vs {clamps}")
    return [untraced, traced], (tracer, sum(op.config.trials for op in naive))


def pin_to_one_cpu():
    """Run this process, its numpy and its children on one CPU, single
    threaded.  The host's CPUs change speed independently, so the host-speed
    samples only describe the work when both run on the same CPU.  Must run
    before numpy is imported."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spindir", "__init__.py")):
        print(f"error: no spindir source tree at {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    # On SIGTERM, unwind: subprocess.run kills its child, finally cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from hostspeed import HostSpeed

    sys.path.insert(0, SRC)
    sizes = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    checks = Checks()
    prov = provenance(args.workload, args.seed)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    host = HostSpeed()
    host.sample(force=True)
    probes = Probes(checks, host, sizes.setup_probes, importtime=bool(args.trace))
    try:
        passes, traced = run_workload(args, sizes, checks, probes, tmp)
        for _ in range(sizes.setup_probes - len(probes.walls)):
            probes.run()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    host.sample(force=True)

    walls = [sum(t.seconds for t in p.ops) for p in passes]
    print(f"passes: {len(passes)}, raw pass walls: {[round(w, 4) for w in walls]}")

    def scale(t: Timing) -> float:
        return host.factor(t.kind, t.t_mid)

    if args.trace:
        tracer, trials_naive = traced
        untraced_s, traced_s = (sum(t.seconds * scale(t) for t in p.ops) for p in passes)
        overhead = traced_s - untraced_s
        samplers = sampler_rates(sizes.sampler_rows, args.seed)
        metrics = layer_metrics(tracer, trials_naive, overhead, probes, host, samplers)
        for name in PER_LAYER:
            checks.check(f"per-layer metric {name} measured", name in metrics)
            metrics.setdefault(name, 0.0)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}.json")
        with open(path, "w") as fh:
            json.dump({"provenance": prov, "metrics": metrics, "summary": tracer.summary(),
                       "counts": dict(tracer.counts), "spans": tracer.spans}, fh)
        print(f"trace: {len(tracer.spans)} spans; normalised pass walls untraced "
              f"{untraced_s:.4f} s, traced {traced_s:.4f} s; wrote {path}")
        emit(metrics, PER_LAYER, checks)
        return 0

    other = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_ok_frac": (checks.attempted - checks.failed) / max(1, checks.attempted),
    }
    raw = {**end_to_end(passes, probes, lambda t: 1.0), **other}
    metrics = {**end_to_end(passes, probes, scale), **other}
    emit(metrics, END_TO_END, checks, raw)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
