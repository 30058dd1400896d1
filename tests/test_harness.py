import math
from collections import Counter

import numpy as np
import pytest

from spindir import harness
from spindir.frames import (
    EulerAngles,
    Frame,
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from spindir.geometry import Direction
from spindir.groups import d3_directions
from spindir.harness import (
    BATCH_TRIALS,
    RunConfig,
    _Accumulator,
    _batch_rng,
    _batches,
    _frame_batch,
    _naive_frames,
    _plurality,
    _quaternion_matrices,
    _tangent_basis,
    _tilt,
    reference_score,
    run_experiment,
    sample_chi,
    sample_haar_direction,
    sample_haar_frame,
    sample_haar_rotation,
)
from spindir.optimize import (
    CHI_GRID_POINTS,
    ChiDensity,
    chi_density,
    coherent_code,
    d3_coherent_error,
    optimal_direction_encoding,
)
from spindir.protocols import (
    ProtocolSpec,
    d3_outcome_matrix,
    frame_two_axis_score,
)
from spindir.states import SpinJ


def spec(kind="d3-single", num_spins=1, **kw) -> ProtocolSpec:
    return ProtocolSpec(kind=kind, num_spins=num_spins, **kw)


def _perturb_units(units: np.ndarray, cos_chi: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Tilt each unit row away by chi at the given tangent azimuth, with the
    tangent basis built for these rows: the tilt of a frame run."""
    return _tilt(units, *_tangent_basis(units), cos_chi, azimuth)


def _interp_cos_chi(density: ChiDensity, u: np.ndarray) -> np.ndarray:
    """cos(chi) for the uniforms u, inverted inline on a freshly built table,
    as the runs drew it before sample_chi was their one chi draw."""
    grid, cdf = density.cumulative_in_cos(CHI_GRID_POINTS)
    return np.interp(u, cdf, grid)


class TestRunConfig:
    def test_rejects_bad_trials(self):
        for bad in (0, -5, 2.5, True):
            with pytest.raises(ValueError):
                RunConfig(protocol=spec(), trials=bad, seed=1)

    def test_rejects_bad_seed(self):
        for bad in (-1, 2**64, 1.5, True, False):
            with pytest.raises(ValueError):
                RunConfig(protocol=spec(), trials=10, seed=bad)


class TestSamplers:
    def test_haar_direction_moments(self):
        rng = np.random.default_rng(5150)
        vecs = sample_haar_direction(rng, size=20000)
        assert vecs.shape == (20000, 3)
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, atol=1e-12)
        # each component: mean 0, variance 1/3
        sigma = math.sqrt(1.0 / 3.0 / len(vecs))
        assert np.max(np.abs(vecs.mean(axis=0))) < 4.0 * sigma
        assert np.mean(vecs[:, 2] ** 2) == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_haar_direction_scalar_form(self):
        one = sample_haar_direction(np.random.default_rng(3))
        assert one.shape == (3,)
        assert float(np.linalg.norm(one)) == pytest.approx(1.0, abs=1e-12)
        # a batch of one: the first row of a stack drawn at the same seed
        assert np.array_equal(one, sample_haar_direction(np.random.default_rng(3), size=5)[0])

    def test_haar_rotation_trace_mean_zero(self):
        # angle density (1 - cos)/pi makes E[tr R] = E[1 + 2 cos] = 0 and
        # Var[tr R] = 1
        rng = np.random.default_rng(4241)
        n = 20000
        frames = sample_haar_frame(rng, size=n)
        traces = np.trace(frames.axes_matrix(), axis1=1, axis2=2)
        assert abs(traces.mean()) < 4.0 / math.sqrt(n)
        assert traces.var() == pytest.approx(1.0, abs=0.05)

    def test_haar_rotation_is_first_row_of_batch(self):
        stack = sample_haar_frame(np.random.default_rng(8), size=5)
        one = sample_haar_frame(np.random.default_rng(8))
        for name in ("z_axis", "x_axis", "y_axis"):
            assert np.array_equal(getattr(one, name), getattr(stack, name)[0])
        assert sample_haar_rotation(np.random.default_rng(8)) == axes_to_euler(one)

    def test_haar_rotation_axis_is_uniform(self):
        rng = np.random.default_rng(77)
        zs = np.empty(4000)
        for i in range(zs.size):
            frame = euler_to_axes(sample_haar_rotation(rng))
            zs[i] = frame.z_axis[2]
        # cos(theta) of the rotated z axis should be uniform on [-1, 1]
        assert abs(zs.mean()) < 4.0 / math.sqrt(3.0 * zs.size)
        assert np.mean(zs**2) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_sample_chi_matches_density_mean(self):
        density = chi_density(coherent_code(SpinJ(8)))
        x, w = np.polynomial.legendre.leggauss(64)
        p = density.pdf_cos(x)
        mean = float(np.sum(w * p * x))
        var = float(np.sum(w * p * x * x)) - mean * mean
        assert mean == pytest.approx(2.0 * 0.9 - 1.0, abs=1e-9)
        rng = np.random.default_rng(99)
        cos_chi = sample_chi(density, rng, size=40000)
        sample_mean = float(np.mean(cos_chi))
        assert abs(sample_mean - mean) < 4.0 * math.sqrt(var / cos_chi.size) + 1e-3

    def test_sample_chi_scalar_form(self):
        density = chi_density(optimal_direction_encoding(SpinJ(4)))
        cos_chi = sample_chi(density, np.random.default_rng(12))
        assert isinstance(cos_chi, float)
        assert -1.0 <= cos_chi <= 1.0
        assert cos_chi == sample_chi(density, np.random.default_rng(12), size=3)[0]

    @pytest.mark.parametrize("chi", [0.0, 0.3, 1.2, math.pi / 2, 2.9, math.pi])
    def test_perturb_direction_exact_angle(self, chi):
        # compare cosines: arccos near the endpoints turns 1e-16 of dot
        # product into 1e-8 of angle
        base = Direction(theta=0.9, phi=2.2).unit_vector
        azimuths = np.array([0.0, 1.0, 4.5])
        moved = _perturb_units(np.tile(base, (3, 1)), np.full(3, math.cos(chi)), azimuths)
        np.testing.assert_allclose(np.linalg.norm(moved, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(moved @ base, math.cos(chi), atol=1e-12)

    def test_perturb_direction_azimuth_spreads(self):
        base = Direction(theta=0.0, phi=0.0).unit_vector
        a, b = _perturb_units(
            np.tile(base, (2, 1)), np.full(2, math.cos(0.5)), np.array([0.0, math.pi / 2.0])
        )
        assert Direction.from_vector(a).angle_to(Direction.from_vector(b)) > 0.1


class TestAccumulator:
    def test_matches_numpy_across_batches(self):
        rng = np.random.default_rng(62)
        data = rng.random(10000)
        acc = _Accumulator()
        for part in np.array_split(data, 7):
            acc.add(part)
        assert acc.count == data.size
        assert acc.mean() == pytest.approx(float(np.mean(data)), abs=1e-14)
        want = math.sqrt(float(np.var(data, ddof=1)) / data.size)
        assert acc.stderr() == pytest.approx(want, rel=1e-10)

    def test_single_value_has_zero_stderr(self):
        acc = _Accumulator()
        acc.add(np.array([0.7]))
        assert acc.stderr() == 0.0


class TestReproducibility:
    def test_identical_runs_bitwise_equal(self):
        config = RunConfig(protocol=spec("d3-coherent", 4), trials=12000, seed=31)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.estimates == b.estimates
        assert a.stderrs == b.stderrs

    def test_seed_changes_the_estimate(self):
        base = RunConfig(protocol=spec("d3-coherent", 4), trials=12000, seed=31)
        other = RunConfig(protocol=spec("d3-coherent", 4), trials=12000, seed=32)
        assert run_experiment(base).estimates != run_experiment(other).estimates

    def test_batch_split_covers_all_trials(self):
        config = RunConfig(protocol=spec(), trials=BATCH_TRIALS + 7, seed=5)
        result = run_experiment(config)
        assert result.trials == BATCH_TRIALS + 7


def _per_shot_d3_finite(config: RunConfig) -> _Accumulator:
    """A d3-single, d3-covariant or d3-repeated run as the harness ran it
    before it counted whole batches: every batch draws true, shots and tie,
    and each shot is compared with all six cumulative boundaries of its row
    and scattered into float counts."""
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
    return acc


def _per_batch_basis_d3_coherent(config: RunConfig) -> _Accumulator:
    """A d3-coherent run as the harness ran it before it built the tangent
    basis once per run: the basis of every trial's true direction is built
    again in each batch."""
    density = chi_density(coherent_code(SpinJ(config.protocol.num_spins)))
    units = np.array([d.unit_vector for d in d3_directions()])
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take)
        u_chi = rng.random(take)
        azimuth = rng.uniform(0.0, 2.0 * math.pi, take)
        cos_chi = _interp_cos_chi(density, u_chi)
        est = _perturb_units(units[true], cos_chi, azimuth)
        guess = np.argmax(est @ units.T, axis=1)
        acc.add((guess == true).astype(float))
    return acc


_D3_SPECS = (
    [spec(), spec("d3-covariant", 2)]
    + [
        spec("d3-repeated", n, tie_break=tie_break)
        for n in (1, 2, 3, 5, 9, 12, 20, 255, 256, 300)
        for tie_break in ("random", "lowest-index")
    ]
    + [spec("d3-coherent", n) for n in (1, 2, 4, 8, 24, 60)]
)


class TestD3BatchKernels:
    # 20001 trials end in a 3617-trial remainder batch
    @pytest.mark.parametrize(
        "protocol", _D3_SPECS, ids=lambda p: f"{p.kind}-{p.num_spins}-{p.tie_break}"
    )
    def test_runs_match_the_per_shot_oracle(self, protocol):
        oracle = (
            _per_batch_basis_d3_coherent
            if protocol.kind == "d3-coherent"
            else _per_shot_d3_finite
        )
        for seed in (0, 5, 123456789):
            for trials in (1, 7, BATCH_TRIALS, 20001):
                config = RunConfig(protocol=protocol, trials=trials, seed=seed)
                want = oracle(config)
                got = run_experiment(config)
                assert got.estimates == {
                    "fidelity": want.mean(),
                    "infidelity": 1.0 - want.mean(),
                }
                assert got.stderrs == {"fidelity": want.stderr()}

    def test_one_spin_boundaries_cover_every_draw(self):
        # the kernels compare with the first five cumulative boundaries only;
        # the sixth of the one-spin table is never below 1, so no draw in
        # [0, 1) passes it and dropping it moves no outcome
        cum = np.cumsum(d3_outcome_matrix(1), axis=1)
        assert np.all(cum[:, -1] >= 1.0)

    def test_two_spin_last_boundary_is_one_to_rounding(self):
        cum = np.cumsum(d3_outcome_matrix(2), axis=1)
        assert np.all(np.abs(cum[:, -1] - 1.0) <= 8 * np.finfo(float).eps)

    @pytest.mark.parametrize("row", range(6))
    def test_draw_past_every_boundary_is_outcome_five(self, monkeypatch, row):
        # some two-spin rows sum to a few ulps below 1; the largest draw
        # random() returns passed all six boundaries of such a row, and the
        # six-boundary compare scattered it to a seventh count (IndexError)
        top = np.nextafter(1.0, 0.0)
        monkeypatch.setattr(harness, "_batch_rng", lambda seed, batch: _FixedStream(row, top))
        result = run_experiment(RunConfig(protocol=spec("d3-covariant", 2), trials=3, seed=1))
        assert result.estimates["fidelity"] == float(row == 5)


def _counter_vote(column, tie) -> int:
    """The plurality of one column of shots by collections.Counter: the
    leaders in index order, then the first, or the floor(tie * #leaders)-th."""
    counts = Counter(int(o) for o in column)
    top = max(counts.values())
    leaders = [k for k in range(6) if counts[k] == top]
    return leaders[0] if tie is None else leaders[math.floor(tie * len(leaders))]


_VOTE_COLUMNS = {
    "six-way-tie": [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]],
    "two-way-tie-from-0": [[0, 3, 3, 0, 1, 2], [4, 0, 0, 4, 5, 1]],
    "two-way-tie-to-5": [[5, 2, 5, 2, 1, 0], [5, 5, 0, 3, 0, 4]],
    "unanimous": [[k] * 6 for k in range(6)],
    # past 255 shots the counts leave uint8: a unanimous column counts 256
    "unanimous-256": [[4] * 256, [0] * 255 + [5]],
}


class TestPlurality:
    @pytest.mark.parametrize("name", sorted(_VOTE_COLUMNS))
    @pytest.mark.parametrize("tie", [None, 0.0, 0.5, np.nextafter(1.0, 0.0)])
    def test_matches_a_counter_vote(self, name, tie):
        columns = _VOTE_COLUMNS[name]
        outcomes = np.array(columns, dtype=np.uint8).T.copy()  # (repeats, take)
        draws = None if tie is None else np.full(len(columns), tie)
        got = _plurality(outcomes, draws)
        assert got.tolist() == [_counter_vote(c, tie) for c in columns]


class _FixedStream:
    """A batch stream whose true directions are all `row` and whose uniform
    draws are all `value`."""

    def __init__(self, row: int, value: float):
        self.row, self.value = row, value

    def integers(self, low, high, size):
        return np.full(size, self.row)

    def random(self, size):
        return np.full(size, self.value)


class TestAgainstReferences:
    def check(self, config: RunConfig, margin: float = 0.0):
        result = run_experiment(config)
        ref = reference_score(config)
        err = abs(result.estimates["fidelity"] - ref.fidelity)
        bound = 4.0 * result.stderrs["fidelity"] + margin
        assert err < bound, f"{err} >= {bound} for {config.protocol.kind}"
        return result, ref

    def test_single_spin(self):
        self.check(RunConfig(protocol=spec(), trials=60000, seed=11))

    def test_covariant_two_spin(self):
        self.check(
            RunConfig(protocol=spec("d3-covariant", 2), trials=60000, seed=12)
        )

    def test_repeated_vote_random_ties(self):
        config = RunConfig(
            protocol=spec("d3-repeated", 3, tie_break="random"), trials=60000, seed=13
        )
        result, ref = self.check(config)
        assert ref.fidelity == pytest.approx(53.0 / 144.0, abs=1e-14)

    def test_repeated_vote_lowest_index(self):
        self.check(
            RunConfig(
                protocol=spec("d3-repeated", 3, tie_break="lowest-index"),
                trials=60000,
                seed=14,
            )
        )

    @pytest.mark.parametrize(
        "n,tie_break,seed",
        [(12, "random", 16), (12, "lowest-index", 17)]
        + [(n, "random", 31) for n in (13, 24, 48)]
        + [(n, "lowest-index", 32) for n in (13, 24, 48)],
    )
    def test_repeated_vote_matches_exact_reference(self, n, tie_break, seed):
        config = RunConfig(
            protocol=spec("d3-repeated", n, tie_break=tie_break),
            trials=200000,
            seed=seed,
        )
        result = run_experiment(config)
        ref = reference_score(config)
        assert ref.method == "exact"
        z = (result.estimates["fidelity"] - ref.fidelity) / result.stderrs["fidelity"]
        assert abs(z) <= 5.0

    def test_coherent_six_spins(self):
        # quadrature reference carries a small node-membership bias
        self.check(
            RunConfig(protocol=spec("d3-coherent", 6), trials=60000, seed=15),
            margin=1e-3,
        )


class TestFrameRuns:
    def test_best_fit_per_axis_matches_eigenvalue(self):
        config = RunConfig(
            protocol=spec("frame-two-axis", 4, encoding="optimal"),
            trials=20000,
            seed=21,
        )
        result = run_experiment(config)
        want = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
        for est, err in zip(result.estimates["per_axis"], result.stderrs["per_axis"]):
            assert abs(est - want) < 4.0 * err
        assert "naive_failures" not in result.estimates
        assert 0.0 < result.estimates["infidelity"] < 3.0
        score = result.score()
        assert score.method == "monte-carlo"
        assert score.per_axis is not None and len(score.per_axis) == 2

    def test_naive_decoder_fails_sometimes_and_loses(self):
        naive = run_experiment(
            RunConfig(
                protocol=spec(
                    "frame-two-axis", 4, encoding="optimal", decoder="naive-euler"
                ),
                trials=4000,
                seed=22,
            )
        )
        best = run_experiment(
            RunConfig(
                protocol=spec("frame-two-axis", 4, encoding="optimal"),
                trials=4000,
                seed=22,
            )
        )
        assert naive.estimates["naive_failures"] > 0
        assert isinstance(naive.estimates["naive_failures"], int)
        # same seed, same noisy axis estimates; only the decoder differs
        assert naive.estimates["per_axis"] == best.estimates["per_axis"]
        assert best.estimates["infidelity"] < naive.estimates["infidelity"]


def _naive_frame(z_dir: Direction, x_dir: Direction) -> tuple[Frame, bool]:
    """One trial of the naive decode as the harness ran it before it decoded
    whole batches: the closed-form inversion, |sin phi| clamped to 1 when it
    fails, and the forward map evaluated on one frame with math."""
    est = naive_euler_estimate(z_dir.theta, z_dir.phi, x_dir.theta, x_dir.phi)
    if est.failed:
        angles = EulerAngles(
            phi=math.copysign(0.5 * math.pi, est.sin_phi),
            theta=z_dir.theta,
            psi=0.5 * math.pi - z_dir.phi,
        )
    else:
        angles = est.angles
    sphi, cphi = math.sin(angles.phi), math.cos(angles.phi)
    sth, cth = math.sin(angles.theta), math.cos(angles.theta)
    spsi, cpsi = math.sin(angles.psi), math.cos(angles.psi)
    z = np.array([spsi * sth, cpsi * sth, cth])
    x = np.array(
        [
            cpsi * cphi - spsi * cth * sphi,
            -spsi * cphi - cpsi * cth * sphi,
            sth * sphi,
        ]
    )
    y = np.cross(z, x)
    frame = Frame(
        z_axis=z, x_axis=x / np.linalg.norm(x), y_axis=y / np.linalg.norm(y)
    )
    return frame, est.failed


def _per_trial_reference(seed: int, batch: int, take: int, density: ChiDensity, decoder: str):
    """Batch `batch` of a frame run decoded one trial at a time, as the harness
    did before it decoded whole batches: same draws in the same order, a
    Direction round trip per estimate, a 3-vector decode and score per trial."""
    rng = _batch_rng(seed, batch)
    quats = rng.standard_normal((take, 4))
    u_z = rng.random(take)
    az_z = rng.uniform(0.0, 2.0 * math.pi, take)
    u_x = rng.random(take)
    az_x = rng.uniform(0.0, 2.0 * math.pi, take)
    mats = _quaternion_matrices(quats)
    cos_z = _interp_cos_chi(density, u_z)
    cos_x = _interp_cos_chi(density, u_x)
    z_est = _perturb_units(mats[:, :, 2], cos_z, az_z)
    x_est = _perturb_units(mats[:, :, 0], cos_x, az_x)
    scores = np.empty(take)
    failures = 0
    for i in range(take):
        true_frame = Frame(
            z_axis=mats[i, :, 2], x_axis=mats[i, :, 0], y_axis=mats[i, :, 1]
        )
        z_dir = Direction.from_vector(z_est[i])
        x_dir = Direction.from_vector(x_est[i])
        if decoder == "naive-euler":
            fitted, failed = _naive_frame(z_dir, x_dir)
            failures += int(failed)
        else:
            fitted, _ = best_fit_frame(z_dir.unit_vector, x_dir.unit_vector)
        scores[i] = frame_infidelity(true_frame, fitted)
    return scores, cos_z, cos_x, failures


class TestFrameBatchDecode:
    TAKE = 300

    @pytest.mark.parametrize("decoder", ["best-fit", "naive-euler"])
    @pytest.mark.parametrize("encoding", ["optimal", "coherent"])
    def test_matches_per_trial_decode(self, monkeypatch, encoding, decoder):
        monkeypatch.setattr(harness, "BATCH_TRIALS", self.TAKE)
        config = RunConfig(
            protocol=spec("frame-two-axis", 4, encoding=encoding, decoder=decoder),
            trials=2 * self.TAKE,
            seed=22,
        )
        proto = frame_two_axis_score(4, encoding=encoding, fitter=decoder)
        total, axis_z, axis_x = _Accumulator(), _Accumulator(), _Accumulator()
        failures = 0
        for b in range(2):
            scores, cos_z, cos_x, failed = _per_trial_reference(
                config.seed, b, self.TAKE, proto.chi, decoder
            )
            got = _frame_batch(_batch_rng(config.seed, b), self.TAKE, proto.chi, decoder)
            np.testing.assert_allclose(got[0], scores, rtol=0.0, atol=1e-13)
            assert np.array_equal(got[1], cos_z) and np.array_equal(got[2], cos_x)
            assert got[3] == failed
            total.add(scores)
            axis_z.add(0.5 * (1.0 - cos_z))
            axis_x.add(0.5 * (1.0 - cos_x))
            failures += failed
        result = run_experiment(config)
        assert result.estimates["per_axis"] == [axis_z.mean(), axis_x.mean()]
        assert result.stderrs["per_axis"] == [axis_z.stderr(), axis_x.stderr()]
        assert result.estimates["infidelity"] == pytest.approx(total.mean(), rel=1e-14)
        if decoder == "naive-euler":
            assert failures > 0
            assert result.estimates["naive_failures"] == failures

    def test_clamp_rows_decode_to_fallback_frame(self):
        # x at a pole and z tilted 0.1 off the equator gives
        # |cos(theta_x)/sin(theta_z)| = 1/cos(0.1) > 1 (rows 1, 4: sin phi > 1;
        # row 6: sin phi < -1); the other rows are noise-free frames, which
        # decode normally
        true = sample_haar_frame(_batch_rng(5, 0), 8)
        z_est, x_est = true.z_axis.copy(), true.x_axis.copy()
        tilt = math.cos(0.1)
        for row, alpha, pole in ((1, 0.3, 1.0), (4, 2.0, 1.0), (6, -1.1, -1.0)):
            z_est[row] = [tilt * math.cos(alpha), tilt * math.sin(alpha), math.sin(0.1)]
            x_est[row] = [0.0, 0.0, pole]
        frames, failures = _naive_frames(z_est, x_est)
        assert failures == 3
        for i in range(8):
            z_dir, x_dir = Direction.from_vector(z_est[i]), Direction.from_vector(x_est[i])
            want, failed = _naive_frame(z_dir, x_dir)
            assert failed == (i in (1, 4, 6))
            # the inversion itself returns the clamped phi of a failed trial
            est = naive_euler_estimate(z_dir.theta, z_dir.phi, x_dir.theta, x_dir.phi)
            if failed:
                assert est.phi == math.copysign(0.5 * math.pi, est.sin_phi)
                assert est.sin_phi > 1.0 if i in (1, 4) else est.sin_phi < -1.0
            for name in ("z_axis", "x_axis", "y_axis"):
                np.testing.assert_allclose(
                    getattr(frames, name)[i], getattr(want, name), rtol=0.0, atol=1e-15
                )

    def test_naive_decoder_runs_once_per_trial(self, monkeypatch):
        # perfbench's tracer counts a clamp for each failed naive_euler_estimate
        # call and compares that count with naive_failures
        calls = []

        def counting(*args):
            out = naive_euler_estimate(*args)
            calls.append(out.failed)
            return out

        monkeypatch.setattr(harness, "naive_euler_estimate", counting)
        monkeypatch.setattr(harness, "BATCH_TRIALS", 256)
        result = run_experiment(
            RunConfig(
                protocol=spec(
                    "frame-two-axis", 4, encoding="optimal", decoder="naive-euler"
                ),
                trials=700,
                seed=22,
            )
        )
        assert len(calls) == 700
        assert sum(calls) == result.estimates["naive_failures"] > 0


@pytest.mark.parametrize(
    "protocol",
    [
        spec("d3-coherent", 4),
        spec("frame-two-axis", 4, encoding="optimal"),
        spec("frame-two-axis", 8, encoding="coherent", decoder="naive-euler"),
    ],
    ids=lambda p: f"{p.kind}-{p.encoding}-{p.decoder}",
)
def test_chi_table_is_built_once_per_run(monkeypatch, protocol):
    # every batch draws through sample_chi, which reads the density's table;
    # building it again per batch would cost each short run a grid evaluation
    calls = []
    build = ChiDensity.cumulative_in_cos

    def counting(self, n):
        calls.append(n)
        return build(self, n)

    monkeypatch.setattr(ChiDensity, "cumulative_in_cos", counting)
    monkeypatch.setattr(harness, "BATCH_TRIALS", 256)
    run_experiment(RunConfig(protocol=protocol, trials=3 * 256, seed=1))
    assert calls == [CHI_GRID_POINTS]


class TestStderrScaling:
    def test_inverse_root_n(self):
        small = run_experiment(
            RunConfig(protocol=spec(), trials=2000, seed=41)
        ).stderrs["fidelity"]
        large = run_experiment(
            RunConfig(protocol=spec(), trials=20000, seed=41)
        ).stderrs["fidelity"]
        assert small / large == pytest.approx(math.sqrt(10.0), rel=0.15)
        p = 1.0 / 3.0
        assert large == pytest.approx(math.sqrt(p * (1 - p) / 20000), rel=0.1)


class TestReferenceScore:
    def test_frame_runs_have_no_closed_reference(self):
        config = RunConfig(
            protocol=spec("frame-two-axis", 4, encoding="optimal"), trials=10, seed=1
        )
        assert reference_score(config) is None

    def test_large_vote_has_exact_reference(self):
        config = RunConfig(protocol=spec("d3-repeated", 13), trials=10, seed=1)
        assert reference_score(config).method == "exact"

    def test_coherent_reference_is_the_exact_integral(self):
        config = RunConfig(protocol=spec("d3-coherent", 4), trials=10, seed=1)
        ref = reference_score(config)
        assert ref.method == "quadrature"
        assert ref.fidelity == 1.0 - d3_coherent_error(SpinJ(4))
        with pytest.raises(TypeError):
            RunConfig(protocol=spec("d3-coherent", 4), trials=10, seed=1, n_theta=48)

    def test_exact_references(self):
        assert reference_score(
            RunConfig(protocol=spec(), trials=10, seed=1)
        ).fidelity == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert reference_score(
            RunConfig(protocol=spec("d3-covariant", 2), trials=10, seed=1)
        ).fidelity == pytest.approx(2.0 / 3.0, abs=1e-12)
