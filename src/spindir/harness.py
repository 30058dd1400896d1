"""Seeded Monte Carlo engine for the transmission protocols.

Trials are drawn in fixed-size batches; batch b of a run with seed s uses
the counter-based stream Philox(key=[s, b]) with a fixed draw order inside
the batch, so results are bit-for-bit reproducible and the batch reductions
can run in any order.  Per-batch partial sums are combined with exact
(fsum) accumulation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .frames import (
    EulerAngles,
    Frame,
    _cross,
    _unit_rows,
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from .geometry import TWO_PI, Direction
from .groups import d3_directions
from .optimize import ChiDensity, chi_density, coherent_code
from .protocols import (
    ENUMERATION_LIMIT,
    ProtocolScore,
    ProtocolSpec,
    d3_coherent_score,
    d3_covariant_two_spin_score,
    d3_outcome_matrix,
    d3_repeated_single_score,
    d3_single_spin_score,
    frame_two_axis_score,
)
from .spins import SpinJ

BATCH_TRIALS = 8192
CHI_GRID_POINTS = 2048
_UINT64_SPAN = 2 ** 64


@dataclass(frozen=True)
class RunConfig:
    """One simulation request: protocol, sample size, stream seed."""

    protocol: ProtocolSpec
    trials: int
    seed: int
    output_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if not 0 <= self.seed < _UINT64_SPAN:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class RunResult:
    """Estimates from one run.  Everything except wall_time is a pure
    function of (config, seed)."""

    config: RunConfig
    estimates: dict
    stderrs: dict
    trials: int
    wall_time: float

    def score(self) -> ProtocolScore:
        per_axis = self.estimates.get("per_axis")
        return ProtocolScore(
            fidelity=self.estimates["fidelity"],
            infidelity=self.estimates["infidelity"],
            method="monte-carlo",
            stderr=self.stderrs["fidelity"],
            per_axis=tuple(per_axis) if per_axis is not None else None,
        )


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    key = np.array([seed, batch], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_haar_direction(rng: np.random.Generator, size=None):
    """Uniform direction(s): cos(theta) uniform on [-1,1], phi uniform."""
    n = 1 if size is None else int(size)
    c = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    dirs = [Direction(theta=math.acos(ci), phi=pi) for ci, pi in zip(c, phi)]
    return dirs[0] if size is None else dirs


def _quaternion_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for unit quaternion rows (w, x, y, z)."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def sample_haar_frame(rng: np.random.Generator, size=None) -> Frame:
    """Haar-uniform frame(s): four standard normals per rotation make a
    uniform unit quaternion, whose matrix columns are the x, y and z axes.
    One frame of 3-vectors when size is None, else a stack of size frames."""
    q = rng.standard_normal((1 if size is None else int(size), 4))
    m = _quaternion_matrices(q)
    if size is None:
        m = m[0]
    return Frame(z_axis=m[..., 2], x_axis=m[..., 0], y_axis=m[..., 1])


def sample_haar_rotation(rng: np.random.Generator) -> EulerAngles:
    """One Haar-uniform rotation as zxz Euler angles (sample_haar_frame read
    back in the zxz convention)."""
    return axes_to_euler(sample_haar_frame(rng))


def sample_chi(density: ChiDensity, rng: np.random.Generator, size=None):
    """Draw chi from a direction-code density by inverse CDF on a fixed
    cumulative grid in cos(chi) with linear interpolation."""
    grid, cdf = density.cumulative_in_cos(CHI_GRID_POINTS)
    n = 1 if size is None else int(size)
    u = rng.random(n)
    c = np.interp(u, cdf, grid)
    chi = np.arccos(np.clip(c, -1.0, 1.0))
    return float(chi[0]) if size is None else chi


def _perturb_units(units: np.ndarray, cos_chi: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Tilt each unit row away by chi at the given tangent azimuth.

    The tangent basis comes from the coordinate axis with the smallest
    |component| (deterministic, never parallel to the direction)."""
    n = units.shape[0]
    rows = np.arange(n)
    idx = np.argmin(np.abs(units), axis=1)
    smallest = units[rows, idx]
    t1 = -units * smallest[:, None]
    t1[rows, idx] += 1.0
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = _cross(units, t1)
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi * cos_chi, 0.0, None))
    tangent = np.cos(azimuth)[:, None] * t1 + np.sin(azimuth)[:, None] * t2
    return cos_chi[:, None] * units + sin_chi[:, None] * tangent


class _Accumulator:
    """Exact cross-batch accumulation of per-batch (sum, sum of squares)."""

    def __init__(self):
        self.sums = []
        self.sumsqs = []
        self.count = 0

    def add(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        self.sums.append(float(np.sum(v)))
        self.sumsqs.append(float(np.sum(v * v)))
        self.count += v.size

    def mean(self) -> float:
        return math.fsum(self.sums) / self.count

    def stderr(self) -> float:
        n = self.count
        if n < 2:
            return 0.0
        s1 = math.fsum(self.sums)
        s2 = math.fsum(self.sumsqs)
        var = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
        return math.sqrt(var / n)


def _batches(trials: int):
    full, rem = divmod(trials, BATCH_TRIALS)
    for b in range(full):
        yield b, BATCH_TRIALS
    if rem:
        yield full, rem


def _run_d3_finite(config: RunConfig) -> dict:
    spec = config.protocol
    matrix = d3_outcome_matrix(1 if spec.kind != "d3-covariant" else 2)
    cum = np.cumsum(matrix, axis=1)
    repeats = spec.num_spins if spec.kind == "d3-repeated" else 1
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take)
        draws = rng.random((take, repeats))
        tie = rng.random(take)
        row_cum = cum[true]
        counts = np.zeros((take, 6))
        rows = np.arange(take)
        for k in range(repeats):
            outcome = (draws[:, k, None] > row_cum).sum(axis=1)
            counts[rows, outcome] += 1.0
        top = counts.max(axis=1)
        is_win = counts == top[:, None]
        if spec.kind == "d3-repeated" and spec.tie_break == "random":
            n_win = is_win.sum(axis=1)
            pick = np.floor(tie * n_win).astype(int)
            order = np.cumsum(is_win, axis=1)
            guess = np.argmax(order == (pick + 1)[:, None], axis=1)
        else:
            guess = np.argmax(is_win, axis=1)
        acc.add((guess == true).astype(float))
    return {"fidelity": acc}


def _run_d3_coherent(config: RunConfig) -> dict:
    spec = config.protocol
    density = chi_density(coherent_code(SpinJ(spec.num_spins)))
    grid, cdf = density.cumulative_in_cos(CHI_GRID_POINTS)
    units = np.array([d.unit_vector for d in d3_directions()])
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take)
        u_chi = rng.random(take)
        azimuth = rng.uniform(0.0, 2.0 * math.pi, take)
        cos_chi = np.interp(u_chi, cdf, grid)
        est = _perturb_units(units[true], cos_chi, azimuth)
        guess = np.argmax(est @ units.T, axis=1)
        acc.add((guess == true).astype(float))
    return {"fidelity": acc}


def _polar_angles(units: np.ndarray) -> tuple[list, list]:
    """Polar angles (theta, phi) of each row as lists, bit for bit as
    Direction.from_vector computes them: libm's acos and atan2 through map,
    since numpy's SIMD arccos and arctan2 can differ in the last bit.  phi is
    the raw atan2 value; Direction reduces it mod 2*pi."""
    u = _unit_rows(units)
    theta = list(map(math.acos, np.clip(u[:, 2], -1.0, 1.0).tolist()))
    return theta, list(map(math.atan2, u[:, 1].tolist(), u[:, 0].tolist()))


def _naive_frames(z_est: np.ndarray, x_est: np.ndarray) -> tuple[Frame, int]:
    """Naive-decode each row pair through the polar angles; return the stacked
    frames and the number of clamped trials.

    Only the inversion, naive_euler_estimate, runs per trial: perfbench's
    tracer counts a clamp for each call that fails and checks that count
    against naive_failures.  The rest runs on the whole batch.  A failed
    trial (|sin phi| > 1) is clamped to phi = +-pi/2 so that every trial
    still yields a frame; every row takes theta = theta_z and
    psi = pi/2 - phi_z, as the inversion sets them."""
    theta_z, phi_z = _polar_angles(z_est)
    theta_x, phi_x = _polar_angles(x_est)
    failed, sin_phi, phi = [], [], []
    for tz, pz, tx, px in zip(theta_z, phi_z, theta_x, phi_x):
        est = naive_euler_estimate(Direction(tz, pz), Direction(tx, px))
        failed.append(est.failed)
        sin_phi.append(est.sin_phi)
        phi.append(math.nan if est.failed else est.angles.phi)
    clamped = np.array(failed)
    angles = EulerAngles(
        phi=np.where(clamped, np.copysign(0.5 * math.pi, sin_phi), phi),
        theta=np.array(theta_z),
        psi=0.5 * math.pi - np.array(phi_z) % TWO_PI,
    )
    return euler_to_axes(angles), int(clamped.sum())


def _frame_batch(rng: np.random.Generator, take: int, grid, cdf, decoder: str):
    """One batch of frame trials: per-trial infidelities, the z and x cos(chi)
    draws, and the number of clamped naive decodes."""
    true = sample_haar_frame(rng, take)
    u_z = rng.random(take)
    az_z = rng.uniform(0.0, 2.0 * math.pi, take)
    u_x = rng.random(take)
    az_x = rng.uniform(0.0, 2.0 * math.pi, take)
    cos_z = np.interp(u_z, cdf, grid)
    cos_x = np.interp(u_x, cdf, grid)
    z_est = _perturb_units(true.z_axis, cos_z, az_z)
    x_est = _perturb_units(true.x_axis, cos_x, az_x)
    failures = 0
    if decoder == "naive-euler":
        fitted, failures = _naive_frames(z_est, x_est)
    else:
        fitted, _ = best_fit_frame(z_est, x_est)
    return frame_infidelity(true, fitted), cos_z, cos_x, failures


def _run_frame(config: RunConfig) -> dict:
    spec = config.protocol
    proto = frame_two_axis_score(
        spec.num_spins, encoding=spec.encoding, fitter=spec.decoder
    )
    grid, cdf = proto.chi.cumulative_in_cos(CHI_GRID_POINTS)
    total = _Accumulator()
    axis_z = _Accumulator()
    axis_x = _Accumulator()
    failures = 0
    for b, take in _batches(config.trials):
        scores, cos_z, cos_x, failed = _frame_batch(
            _batch_rng(config.seed, b), take, grid, cdf, spec.decoder
        )
        total.add(scores)
        axis_z.add(0.5 * (1.0 - cos_z))
        axis_x.add(0.5 * (1.0 - cos_x))
        failures += failed
    return {
        "infidelity": total,
        "per_axis": (axis_z, axis_x),
        "naive_failures": failures,
    }


def run_experiment(config: RunConfig) -> RunResult:
    """Execute the configured protocol.  Deterministic given (config, seed)."""
    start = time.perf_counter()
    kind = config.protocol.kind
    if kind in ("d3-single", "d3-repeated", "d3-covariant"):
        parts = _run_d3_finite(config)
    elif kind == "d3-coherent":
        parts = _run_d3_coherent(config)
    else:
        parts = _run_frame(config)
    estimates = {}
    stderrs = {}
    if "fidelity" in parts:
        acc = parts["fidelity"]
        estimates["fidelity"] = acc.mean()
        estimates["infidelity"] = 1.0 - estimates["fidelity"]
        stderrs["fidelity"] = acc.stderr()
    else:
        acc = parts["infidelity"]
        estimates["infidelity"] = acc.mean()
        estimates["fidelity"] = 1.0 - estimates["infidelity"]
        stderrs["fidelity"] = acc.stderr()
    if "per_axis" in parts:
        estimates["per_axis"] = [a.mean() for a in parts["per_axis"]]
        stderrs["per_axis"] = [a.stderr() for a in parts["per_axis"]]
        if config.protocol.decoder == "naive-euler":
            estimates["naive_failures"] = parts["naive_failures"]
    wall = time.perf_counter() - start
    return RunResult(
        config=config,
        estimates=estimates,
        stderrs=stderrs,
        trials=config.trials,
        wall_time=wall,
    )


def reference_score(config: RunConfig) -> ProtocolScore | None:
    """The deterministic (exact or quadrature) score for the configured
    protocol, when one exists.  None for frame runs, whose full-frame score
    is only defined by sampling, and for d3-repeated votes over more than
    ENUMERATION_LIMIT (12) shots, beyond which the exact int64 enumeration
    could overflow."""
    spec = config.protocol
    if spec.kind == "d3-single":
        return d3_single_spin_score()
    if spec.kind == "d3-repeated":
        if spec.num_spins > ENUMERATION_LIMIT:
            return None
        return d3_repeated_single_score(spec.num_spins, tie_break=spec.tie_break)
    if spec.kind == "d3-covariant":
        return d3_covariant_two_spin_score()
    if spec.kind == "d3-coherent":
        return d3_coherent_score(spec.num_spins)
    return None
