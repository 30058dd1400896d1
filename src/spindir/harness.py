"""Seeded Monte Carlo engine for the transmission protocols.

Trials are drawn in fixed-size batches; batch b of a run with seed s draws
from PCG64 seeded by child b of SeedSequence(s), that is
SeedSequence(s, spawn_key=(b,)), with a fixed draw order inside the batch.
Each batch's stream depends on (s, b) alone, so results are bit-for-bit
reproducible and the batches could run in any order.  Per-batch partial sums
are combined with exact (fsum) accumulation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .frames import (
    EulerAngles,
    Frame,
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from .geometry import quaternion_matrices, unit_rows
from .groups import d3_local_frame
from .optimize import CHI_GRID_POINTS, ChiDensity, chi_density, coherent_code
from .protocols import (
    ProtocolScore,
    ProtocolSpec,
    d3_coherent_score,
    d3_covariant_score,
    d3_outcome_matrix,
    d3_repeated_single_score,
    frame_two_axis_score,
)
from .spins import SpinJ
from .states import is_integer

BATCH_TRIALS = 8192  # with CHI_GRID_POINTS (from optimize), a run's sampling settings
# the batch stream, as result records name it
STREAM = "PCG64 of SeedSequence(seed) child batch"
_UINT64_SPAN = 2 ** 64


@dataclass(frozen=True)
class RunConfig:
    """One simulation request: protocol, sample size, stream seed."""

    protocol: ProtocolSpec
    trials: int
    seed: int

    def __post_init__(self):
        if not is_integer(self.trials) or self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if not is_integer(self.seed):
            raise ValueError("seed must be an integer")
        # numpy integers are accepted but stored as int, so records serialise
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < _UINT64_SPAN:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class RunResult:
    """Estimates from one run.  Everything except wall_time is a pure
    function of (config, seed)."""

    estimates: dict
    stderrs: dict
    wall_time: float


def _batch_rng(seed: int, batch: int) -> np.random.Generator:
    """The stream of one batch: child `batch` of SeedSequence(seed)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(batch,))))


def sample_haar_direction(rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, 3) stack of uniform directions as unit rows: cos(theta)
    uniform on [-1, 1], phi uniform, from one uniform pair per row.  The
    row's first two entries are the tangent offsets of a tilt of the z axis
    by (theta, phi)."""
    u = rng.random((size, 2))
    c = 2.0 * u[:, 0] - 1.0
    phi = 2.0 * math.pi * u[:, 1]
    return np.stack([*_tangent_offsets(c, phi), c], axis=-1)


def sample_haar_frame(rng: np.random.Generator, size=None) -> Frame:
    """Haar-uniform frame(s): four standard normals per rotation make a
    uniform unit quaternion, whose matrix's first and last columns are x and z.
    One frame of 3-vectors when size is None, else a stack of size frames."""
    q = rng.standard_normal((1 if size is None else int(size), 4))
    m = quaternion_matrices(q)
    if size is None:
        m = m[0]
    return Frame(z_axis=m[..., 2], x_axis=m[..., 0])


def sample_haar_rotation(rng: np.random.Generator) -> EulerAngles:
    """One Haar-uniform rotation as zxz Euler angles (sample_haar_frame read
    back in the zxz convention)."""
    return axes_to_euler(sample_haar_frame(rng))


def sample_chi(density: ChiDensity, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw a (size,) array of cos(chi) from a direction-code density by
    inversion: one uniform per draw, mapped through density.quantile_cos."""
    return density.quantile_cos(rng.random(size))


def _tangent_offsets(cos_chi: np.ndarray, azimuth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A tilt's offsets (sin(chi) cos(azimuth), sin(chi) sin(azimuth)) along
    a tangent pair, worked in place so only the two returned arrays stay.

    The azimuth goes through the half-angle map: with t = tan(azimuth / 2),
    (cos, sin)(azimuth) = (1 - t^2, 2t) / (1 + t^2), one tan in place of a
    cos and a sin.  tan of a finite double is finite (|t| is at most about
    1.6e16, at azimuth = pi), so t^2 cannot overflow and no azimuth needs a
    guard."""
    sin_chi = cos_chi * cos_chi
    np.subtract(1.0, sin_chi, out=sin_chi)
    np.clip(sin_chi, 0.0, None, out=sin_chi)
    np.sqrt(sin_chi, out=sin_chi)
    t = np.multiply(azimuth, 0.5)
    np.tan(t, out=t)
    x = t * t
    x += 1.0
    sin_chi /= x  # sin(chi) / (1 + t^2)
    np.subtract(2.0, x, out=x)  # 1 - t^2, exact
    x *= sin_chi
    t *= sin_chi
    t += t
    return x, t


def _tilt(
    units: np.ndarray, t1: np.ndarray, t2: np.ndarray, cos_chi: np.ndarray, azimuth: np.ndarray
) -> np.ndarray:
    """Tilt each unit row away by chi towards cos(azimuth) t1 + sin(azimuth) t2,
    with (t1, t2) an orthonormal tangent pair of the row."""
    x, y = _tangent_offsets(cos_chi, azimuth)
    return cos_chi[:, None] * units + x[:, None] * t1 + y[:, None] * t2


def _tilt_draws(rng: np.random.Generator, density: ChiDensity, take: int) -> tuple:
    """cos(chi) of take tilts drawn from density, then their uniform tangent
    azimuths."""
    return sample_chi(density, rng, take), rng.uniform(0.0, 2.0 * math.pi, take)


class _Accumulator:
    """Exact cross-batch accumulation of per-batch (sum, sum of squares); a
    batch of 0/1 hits adds its hit count, an exact float, as both."""

    def __init__(self):
        self.sums = []
        self.sumsqs = []
        self.count = 0

    def add(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        self.sums.append(float(np.sum(v)))
        self.sumsqs.append(float(np.sum(v * v)))
        self.count += v.size

    def add_hits(self, hits: np.ndarray):
        n = float(np.count_nonzero(hits))
        self.sums.append(n)
        self.sumsqs.append(n)
        self.count += hits.size

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


def _plurality(counts: np.ndarray, tie: np.ndarray | None) -> np.ndarray:
    """The most frequent outcome of each column of (6, take) outcome counts.
    A tie goes to the lowest index, or, given the column's uniform tie draw,
    to the floor(tie * #leaders)-th leader, counted from 0."""
    lead = counts == counts.max(axis=0)
    if tie is None:
        return np.argmax(lead, axis=0)
    pick = (tie * lead.sum(axis=0, dtype=np.uint8)).astype(np.uint8)  # floors: tie >= 0
    seen, winner = np.zeros((2, pick.size), dtype=np.uint8)
    for row in lead:  # the winner is the number of outcomes with <= pick leaders up to them
        seen += row
        winner += seen <= pick
    return winner


def _run_d3_finite(config: RunConfig) -> _Accumulator:
    """A d3-single, d3-covariant or d3-repeated run, tallied per batch.  A
    shot's outcome is the cell k = (cum[k - 1], cum[k]] of its true row's
    cumulative outcome table that holds its draw, with cum[-1] = -inf and
    cum[5] = +inf (the sixth boundary is 1 only to rounding).  A one-shot
    trial hits when its draw lies in its true row's cell.  A vote's shots
    each measure one spin, and above[j], its shots above boundary j < 5,
    give its outcome counts repeats - above[0], above[j - 1] - above[j] and
    above[4]."""
    spec = config.protocol
    spins_per_shot = 1 if spec.kind == "d3-repeated" else spec.num_spins
    bounds = np.cumsum(d3_outcome_matrix(spins_per_shot), axis=1)[:, :5].T  # [j, row]
    if np.any(np.diff(bounds, axis=0) < 0.0):  # the cells and unsigned differences need it
        raise RuntimeError("a row of the cumulative outcome table decreases")
    lower = np.append(-np.inf, np.diagonal(bounds, 1))  # row t's cell t is (lower[t], upper[t]]
    upper = np.append(np.diagonal(bounds), np.inf)
    repeats = spec.num_spins if spec.kind == "d3-repeated" else 1
    random_ties = spec.kind == "d3-repeated" and spec.tie_break == "random"
    # shots are drawn trial-minor into (repeats, take) rows of one per-run
    # buffer; random(out=) needs a contiguous array, and the leading
    # repeats * take entries are one for the last, partial batch too
    shot_buf = np.empty(repeats * min(config.trials, BATCH_TRIALS))
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take)
        draws = shot_buf[: repeats * take].reshape(repeats, take)
        rng.random(out=draws)
        if repeats == 1:
            hits = (draws[0] > lower[true]) & (draws[0] <= upper[true])
        else:
            counts = np.empty((6, take), dtype=np.min_scalar_type(repeats))
            for j in range(5):  # row j + 1 holds above[j] until the differences
                np.add.reduce(draws > bounds[j][true], axis=0, dtype=counts.dtype, out=counts[j + 1])
            np.subtract(repeats, counts[1], out=counts[0])
            counts[1:5] -= counts[2:6]
            # the tie draw is the batch's last, so skipping it moves nothing
            hits = _plurality(counts, rng.random(take) if random_ties else None) == true
        acc.add_hits(hits)
    return acc


def _coherent_hits(cos_chi: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Whether each tilt by (chi, azimuth) decodes to the true direction.

    Read in direction 0's frame (see groups.d3_local_frame): the tilt is
    cos(chi) d0 + x t1 + y t2, with (x, y) its tangent offsets, and it is a
    hit when its dot with d0 is at least its dot with each other direction
    (argmax == 0).  The dots are taken one row at a time into one scratch
    buffer, which keeps a full batch's heap peak near 580 KiB: at about
    1 MiB, glibc could trim the heap top after a batch, and the next batch
    faulted its pages back in (about 750 faults per 32768-trial run)."""
    coefficients = d3_local_frame()
    x, y = _tangent_offsets(cos_chi, azimuth)
    tmp = np.empty_like(x)

    def dot(c, p, q):
        d = c * cos_chi
        d += np.multiply(p, x, out=tmp)
        d += np.multiply(q, y, out=tmp)
        return d

    dots = (dot(c, p, q) for c, p, q in coefficients)
    own = next(dots)
    rival = next(dots)
    for d in dots:
        np.maximum(rival, d, out=rival)
    return own >= rival


def _run_d3_coherent(config: RunConfig) -> _Accumulator:
    density = chi_density(coherent_code(SpinJ(config.protocol.num_spins)))
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        acc.add_hits(_coherent_hits(*_tilt_draws(rng, density, take)))
    return acc


def _naive_frames(z_est: np.ndarray, x_est: np.ndarray) -> tuple[Frame, int]:
    """Naive-decode each row pair; return the stacked frames and the number
    of failed (clamped) trials.

    The rows are normalised once for the whole batch, then
    naive_euler_estimate runs once per trial on the two unit axes, zipped
    as row tuples from one list per component column: perfbench's tracer
    counts a clamp for each call that fails and checks that count against
    naive_failures.  A failed trial comes back with phi clamped to
    +-pi/2, so every trial still yields a frame; one stacked forward map
    builds them all."""
    z, x = (zip(*unit_rows(a).T.tolist()) for a in (z_est, x_est))
    phi, theta, psi, failed = zip(*map(naive_euler_estimate, z, x))
    phi, theta, psi = (np.fromiter(a, float) for a in (phi, theta, psi))
    return euler_to_axes(EulerAngles(phi=phi, theta=theta, psi=psi)), sum(failed)


def _frame_batch(rng: np.random.Generator, take: int, density: ChiDensity, decoder: str):
    """One batch of frame trials: per-trial infidelities, the z and x cos(chi)
    draws, and the number of clamped naive decodes."""
    true = sample_haar_frame(rng, take)
    # each axis is tilted towards a uniform azimuth in the plane of the true
    # frame's other two axes: z in (x, y), x in (y, z); the draws come in the
    # order cos chi_z, azimuth_z, cos chi_x, azimuth_x
    cos_z, azimuth_z = _tilt_draws(rng, density, take)
    cos_x, azimuth_x = _tilt_draws(rng, density, take)
    z_est = _tilt(true.z_axis, true.x_axis, true.y_axis, cos_z, azimuth_z)
    x_est = _tilt(true.x_axis, true.y_axis, true.z_axis, cos_x, azimuth_x)
    failures = 0
    if decoder == "naive-euler":
        fitted, failures = _naive_frames(z_est, x_est)
    else:
        fitted, _ = best_fit_frame(z_est, x_est)
    return frame_infidelity(true, fitted), cos_z, cos_x, failures


def _run_frame(config: RunConfig) -> tuple[dict, dict]:
    """(estimates, stderrs) of a frame run: the full-frame infidelity, each
    axis's, and, for the naive decoder, its clamp count."""
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
    infidelity = total.mean()
    estimates = {
        "infidelity": infidelity,
        "fidelity": 1.0 - infidelity,
        "per_axis": [axis_z.mean(), axis_x.mean()],
    }
    if spec.decoder == "naive-euler":
        estimates["naive_failures"] = failures
    stderrs = {"fidelity": total.stderr(), "per_axis": [axis_z.stderr(), axis_x.stderr()]}
    return estimates, stderrs


def run_experiment(config: RunConfig) -> RunResult:
    """Execute the configured protocol.  Deterministic given (config, seed)."""
    start = time.perf_counter()
    kind = config.protocol.kind
    if kind == "frame-two-axis":
        estimates, stderrs = _run_frame(config)
    else:
        acc = (_run_d3_coherent if kind == "d3-coherent" else _run_d3_finite)(config)
        fidelity = acc.mean()
        estimates = {"fidelity": fidelity, "infidelity": 1.0 - fidelity}
        stderrs = {"fidelity": acc.stderr()}
    wall = time.perf_counter() - start
    return RunResult(estimates=estimates, stderrs=stderrs, wall_time=wall)


def reference_score(config: RunConfig) -> ProtocolScore | None:
    """The deterministic (exact or quadrature) score for the configured
    protocol, when one exists.  None for frame runs, whose full-frame score
    is only defined by sampling."""
    spec = config.protocol
    if spec.kind in ("d3-single", "d3-covariant"):
        return d3_covariant_score(spec.num_spins)
    if spec.kind == "d3-repeated":
        return d3_repeated_single_score(spec.num_spins, tie_break=spec.tie_break)
    if spec.kind == "d3-coherent":
        return d3_coherent_score(spec.num_spins)
    return None
