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
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from .geometry import polar_angles, reduce_azimuth
from .groups import d3_directions
from .optimize import CHI_GRID_POINTS, ChiDensity, chi_density, coherent_code
from .protocols import (
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
from .states import is_integer

BATCH_TRIALS = 8192  # with CHI_GRID_POINTS (from optimize), a run's sampling settings
_UINT64_SPAN = 2 ** 64


@dataclass(frozen=True)
class RunConfig:
    """One simulation request: protocol, sample size, stream seed."""

    protocol: ProtocolSpec
    trials: int
    seed: int
    output_path: str | None = None

    def __post_init__(self):
        if not is_integer(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not is_integer(self.seed):
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


def sample_haar_direction(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform direction(s) as unit rows: cos(theta) uniform on [-1, 1], phi
    uniform, from one uniform pair per row.  One 3-vector when size is None
    (the first row of a stack at the same seed), else a (size, 3) stack."""
    n = 1 if size is None else int(size)
    u = rng.random((n, 2))
    c = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * math.pi * u[:, 1]
    s = np.sqrt(1.0 - c * c)
    units = np.stack([s * np.cos(phi), s * np.sin(phi), c], axis=-1)
    return units[0] if size is None else units


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
    """Draw cos(chi) from a direction-code density: one uniform per draw,
    inverted by linear interpolation in the density's cumulative table.
    A float when size is None, else a (size,) array."""
    grid, cdf = density.cdf_table
    n = 1 if size is None else int(size)
    c = np.interp(rng.random(n), cdf, grid)
    return float(c[0]) if size is None else c


def _tangent_basis(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal tangent pair (t1, t2) for each unit row.

    t1 comes from the coordinate axis with the smallest |component|
    (deterministic, never parallel to the direction); t2 = unit x t1."""
    rows = np.arange(units.shape[0])
    idx = np.argmin(np.abs(units), axis=1)
    smallest = units[rows, idx]
    t1 = -units * smallest[:, None]
    t1[rows, idx] += 1.0
    t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
    return t1, _cross(units, t1)


def _tilt(
    units: np.ndarray, t1: np.ndarray, t2: np.ndarray, cos_chi: np.ndarray, azimuth: np.ndarray
) -> np.ndarray:
    """Tilt each unit row away by chi towards cos(azimuth) t1 + sin(azimuth) t2."""
    sin_chi = np.sqrt(np.clip(1.0 - cos_chi * cos_chi, 0.0, None))
    tangent = np.cos(azimuth)[:, None] * t1 + np.sin(azimuth)[:, None] * t2
    return cos_chi[:, None] * units + sin_chi[:, None] * tangent


def _noisy_units(rng: np.random.Generator, density: ChiDensity, units, t1, t2) -> tuple:
    """The measured estimate of each unit row: tilted by a chi drawn from
    density (cos chi first) towards a uniform tangent azimuth (drawn next).
    Returns the estimates and their cos(chi) draws."""
    take = units.shape[0]
    cos_chi = sample_chi(density, rng, take)
    azimuth = rng.uniform(0.0, 2.0 * math.pi, take)
    return _tilt(units, t1, t2, cos_chi, azimuth), cos_chi


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


def _plurality(outcomes: np.ndarray, tie: np.ndarray | None) -> np.ndarray:
    """The most frequent outcome of each (repeats, take) column of shots.  A
    tie goes to the lowest index, or, given the column's uniform tie draw, to
    the floor(tie * #leaders)-th leader, counted from 0."""
    counts = np.empty((6, outcomes.shape[1]), dtype=np.min_scalar_type(outcomes.shape[0]))
    for k in range(6):
        np.add.reduce(outcomes == k, axis=0, dtype=counts.dtype, out=counts[k])
    lead = counts == counts.max(axis=0)
    if tie is None:
        return np.argmax(lead, axis=0)
    pick = (tie * lead.sum(axis=0, dtype=np.uint8)).astype(np.uint8)  # floors: tie >= 0
    seen, winner = np.zeros((2, pick.size), dtype=np.uint8)
    for row in lead:  # the winner is the number of outcomes with <= pick leaders up to them
        seen += row
        winner += seen <= pick
    return winner


def _run_d3_finite(config: RunConfig) -> dict:
    spec = config.protocol
    # shots lie in (repeats, take) rows; an outcome is the number of the true
    # row's first five cumulative boundaries below the draw; the sixth is 1
    # only to rounding, and a draw past one that rounded below 1 is outcome 5
    bounds = np.cumsum(d3_outcome_matrix(2 if spec.kind == "d3-covariant" else 1), axis=1)[:, :5].T
    repeats = spec.num_spins if spec.kind == "d3-repeated" else 1
    random_ties = spec.kind == "d3-repeated" and spec.tie_break == "random"
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take)
        draws = np.ascontiguousarray(rng.random((take, repeats)).T)
        outcomes = np.zeros((repeats, take), dtype=np.uint8)
        for j in range(5):
            outcomes += draws > bounds[j][true]
        # the tie draw is the batch's last, so skipping it moves nothing
        tie = rng.random(take) if random_ties else None
        guess = outcomes[0] if repeats == 1 else _plurality(outcomes, tie)
        acc.add((guess == true).astype(float))
    return {"fidelity": acc}


def _run_d3_coherent(config: RunConfig) -> dict:
    spec = config.protocol
    density = chi_density(coherent_code(SpinJ(spec.num_spins)))
    units = np.array([d.unit_vector for d in d3_directions()])
    # (3, 6) copies: a batch gathers (3, take) rows and tilts (take, 3) views
    columns = [a.T.copy() for a in (units, *_tangent_basis(units))]
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take)
        est, _ = _noisy_units(rng, density, *(np.take(c, true, axis=1).T for c in columns))
        guess = np.argmax(est @ units.T, axis=1)
        acc.add((guess == true).astype(float))
    return {"fidelity": acc}


def _naive_frames(z_est: np.ndarray, x_est: np.ndarray) -> tuple[Frame, int]:
    """Naive-decode each row pair; return the stacked frames and the number
    of failed (clamped) trials.

    The polar angles and their azimuth reduction run on the whole batch,
    then naive_euler_estimate runs once per trial on four floats:
    perfbench's tracer counts a clamp for each call that fails and checks
    that count against naive_failures.  A failed trial comes back with
    phi clamped to +-pi/2, so every trial still yields a frame; one
    stacked forward map builds them all."""
    theta_z, phi_z = polar_angles(z_est)
    theta_x, phi_x = polar_angles(x_est)
    phi_z, phi_x = (reduce_azimuth(np.array(p)).tolist() for p in (phi_z, phi_x))
    phi, theta, psi, failed, _ = zip(*map(naive_euler_estimate, theta_z, phi_z, theta_x, phi_x))
    angles = EulerAngles(phi=np.array(phi), theta=np.array(theta), psi=np.array(psi))
    return euler_to_axes(angles), sum(failed)


def _frame_batch(rng: np.random.Generator, take: int, density: ChiDensity, decoder: str):
    """One batch of frame trials: per-trial infidelities, the z and x cos(chi)
    draws, and the number of clamped naive decodes."""
    true = sample_haar_frame(rng, take)
    z_est, cos_z = _noisy_units(rng, density, true.z_axis, *_tangent_basis(true.z_axis))
    x_est, cos_x = _noisy_units(rng, density, true.x_axis, *_tangent_basis(true.x_axis))
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
    total = _Accumulator()
    axis_z = _Accumulator()
    axis_x = _Accumulator()
    failures = 0
    for b, take in _batches(config.trials):
        scores, cos_z, cos_x, failed = _frame_batch(
            _batch_rng(config.seed, b), take, proto.chi, spec.decoder
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
    is only defined by sampling."""
    spec = config.protocol
    if spec.kind == "d3-single":
        return d3_single_spin_score()
    if spec.kind == "d3-repeated":
        return d3_repeated_single_score(spec.num_spins, tie_break=spec.tie_break)
    if spec.kind == "d3-covariant":
        return d3_covariant_two_spin_score()
    if spec.kind == "d3-coherent":
        return d3_coherent_score(spec.num_spins)
    return None
