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
# the most vote shots drawn at once: 128 rows of a full batch, 8 MiB, so a
# vote's memory stays bounded whatever its number of shots
SHOT_BLOCK = 2 ** 20
# the largest d3-repeated vote reference_score computes exactly; one exact
# reference took 0.64 s at n = 128 (lowest-index rule) and 35 s at n = 600
VOTE_REFERENCE_MAX_SHOTS = 128
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
    azimuths: 2 pi u, the doubles uniform(0, 2 pi) draws (0 + 2 pi u), in
    one pass less."""
    cos_chi = sample_chi(density, rng, take)
    azimuth = rng.random(take)
    azimuth *= 2.0 * math.pi
    return cos_chi, azimuth


class _Accumulator:
    """Exact cross-batch accumulation of per-batch (sum, sum of squares); a
    batch of 0/1 hits adds its hit count, an exact float, as both."""

    def __init__(self):
        self.sums = []
        self.sumsqs = []
        self.count = 0

    def add(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        # np.sum's pairwise sums, without its dispatch
        self.sums.append(float(np.add.reduce(v, axis=None)))
        self.sumsqs.append(float(np.add.reduce(v * v, axis=None)))
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


def _vote_hits(counts: np.ndarray, true, tie: np.ndarray | None) -> np.ndarray:
    """Whether each column of (6, take) outcome counts elects true.  A tie
    goes to the lowest index, or, given uniform tie draws and true = 0, to
    the floor(tie * #leaders)-th leader: direction 0 when that floor is 0."""
    lead = counts == counts.max(axis=0)
    if tie is None:
        return np.argmax(lead, axis=0) == true
    return lead[0] & (tie * lead.sum(axis=0, dtype=np.uint8) < 1.0)


def _run_d3_finite(config: RunConfig) -> _Accumulator:
    """A d3-single, d3-covariant or d3-repeated run, tallied per batch.  A
    shot's outcome is the cell k = (cum[k - 1], cum[k]] of its true row's
    cumulative outcome table holding its draw (cum[-1] = -inf, cum[5] = +inf:
    the sixth boundary is 1 only to rounding).  A vote's one-spin shots above
    boundary j < 5, above[j], give repeats - above[0], above[j - 1] -
    above[j] and above[4].  Covariance (checked: a constant diagonal and, for
    a random-rule vote, each row row 0 permuted with the diagonal in place)
    makes every true direction hit alike, so a run sends direction 0; only a
    lowest-index vote, whose tie rule favours low indices, draws them."""
    spec = config.protocol
    matrix = d3_outcome_matrix(1 if spec.kind == "d3-repeated" else spec.num_spins)
    bounds = np.cumsum(matrix, axis=1)[:, :5].T  # [j, row]
    if np.any(np.diff(bounds, axis=0) < 0.0):  # the cells and unsigned differences need it
        raise RuntimeError("a row of the cumulative outcome table decreases")
    repeats = spec.num_spins if spec.kind == "d3-repeated" else 1
    lowest_index = repeats > 1 and spec.tie_break == "lowest-index"
    permuted = repeats == 1 or lowest_index or np.all(np.sort(matrix, axis=1) == np.sort(matrix[0]))
    if np.any(np.diagonal(matrix) != matrix[0, 0]) or not permuted:
        raise RuntimeError("the outcome table is not covariant")
    # shots are drawn trial-minor, in (rows, take) blocks of at most
    # SHOT_BLOCK floats, into one per-run buffer: random(out=) needs a
    # contiguous array, and consecutive blocks draw the doubles one call would
    width = min(config.trials, BATCH_TRIALS)
    rows = min(repeats, max(1, SHOT_BLOCK // width))
    shot_buf = np.empty(rows * width)
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take) if lowest_index else 0
        if repeats == 1:
            draws = shot_buf[:take]
            rng.random(out=draws)
            hits = draws <= bounds[0, 0]
        else:
            counts = np.zeros((6, take), dtype=np.min_scalar_type(repeats))
            for start in range(0, repeats, rows):
                draws = shot_buf[: min(rows, repeats - start) * take].reshape(-1, take)
                rng.random(out=draws)
                for j in range(5):  # row j + 1 holds above[j] until the differences
                    counts[j + 1] += np.add.reduce(draws > bounds[j][true], axis=0, dtype=counts.dtype)
            np.subtract(repeats, counts[1], out=counts[0])
            counts[1:5] -= counts[2:6]
            # the tie draw is the batch's last, so skipping it moves nothing
            hits = _vote_hits(counts, true, None if lowest_index else rng.random(take))
        acc.add_hits(hits)
    return acc


def _coherent_hits(cos_chi: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Whether each tilt by (chi, azimuth) decodes to the true direction.

    Read in direction 0's frame (see groups.d3_local_frame): with
    s = sin(chi), the tilt is (cos chi, s cos a, s sin a), and it is a hit
    when it lies on direction 0's side of the three faces that bound the
    cell, those of d1, d2 and d3.  With t = tan(a/2) and A = 1 + t^2,
    (cos a, sin a) = (1 - t^2, 2t) / A, so times A > 0 the tests are
        d3:      cos(chi) A + 2st >= 0,
        d1, d2:  (1 - c1) cos(chi) A - q1 2st >= p1 s |1 - t^2|,
    with (c1, p1, q1) d1's row (d2's is its mirror in t1): no divide, and no
    offsets are formed.  At most four float arrays are live, a full batch's
    heap peak near 260 KiB: at about 1 MiB, glibc could trim the heap top
    after a batch, and the next batch faulted its pages back in."""
    c1, p1, q1 = d3_local_frame()[1].tolist()
    t = np.multiply(azimuth, 0.5)
    np.tan(t, out=t)
    big_a = t * t
    big_a += 1.0
    s = cos_chi * cos_chi
    np.subtract(1.0, s, out=s)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    t *= s
    t += t  # 2st
    cos_a = cos_chi * big_a
    np.subtract(2.0, big_a, out=big_a)  # 1 - t^2
    np.abs(big_a, out=big_a)
    big_a *= s
    hits = np.add(cos_a, t, out=s) >= 0.0
    cos_a *= 1.0 - c1
    t *= q1
    cos_a -= t
    big_a *= p1
    hits &= cos_a >= big_a
    return hits


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
        for acc, cos_chi in ((axis_z, cos_z), (axis_x, cos_x)):
            # 0.5 * (1 - cos chi) in place: the draws are not read again
            np.subtract(1.0, cos_chi, out=cos_chi)
            cos_chi *= 0.5
            acc.add(cos_chi)
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
    is only defined by sampling, and for votes of more than
    VOTE_REFERENCE_MAX_SHOTS shots, whose exact score would take longer than
    the run (d3_repeated_single_score itself takes any n)."""
    spec = config.protocol
    if spec.kind in ("d3-single", "d3-covariant"):
        return d3_covariant_score(spec.num_spins)
    if spec.kind == "d3-repeated":
        if spec.num_spins > VOTE_REFERENCE_MAX_SHOTS:
            return None
        return d3_repeated_single_score(spec.num_spins, tie_break=spec.tie_break)
    if spec.kind == "d3-coherent":
        return d3_coherent_score(spec.num_spins)
    return None
