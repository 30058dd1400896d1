import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from spindir import groups, harness
from spindir.cli import record_from_run
from spindir.frames import (
    EulerAngles,
    Frame,
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from spindir.geometry import Direction, quaternion_matrices
from spindir.groups import d3_directions, d3_local_frame, dihedral_d3
from spindir.harness import (
    BATCH_TRIALS,
    VOTE_REFERENCE_MAX_SHOTS,
    RunConfig,
    _Accumulator,
    _batch_rng,
    _batches,
    _coherent_hits,
    _frame_batch,
    _naive_frames,
    _tangent_offsets,
    _tilt,
    _tilt_draws,
    _vote_hits,
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
    d3_repeated_single_score,
    frame_two_axis_score,
)
from spindir.states import SpinJ
from spin_fixtures import assert_same_bits, axes_matrix, unit_vector


def spec(kind="d3-single", num_spins=1, **kw) -> ProtocolSpec:
    return ProtocolSpec(kind=kind, num_spins=num_spins, **kw)


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

    def test_haar_rotation_trace_mean_zero(self):
        # angle density (1 - cos)/pi makes E[tr R] = E[1 + 2 cos] = 0 and
        # Var[tr R] = 1
        rng = np.random.default_rng(4241)
        n = 20000
        frames = sample_haar_frame(rng, size=n)
        traces = np.trace(axes_matrix(frames), axis1=1, axis2=2)
        assert abs(traces.mean()) < 4.0 / math.sqrt(n)
        assert traces.var() == pytest.approx(1.0, abs=0.05)

    def test_haar_rotation_is_first_row_of_batch(self):
        stack = sample_haar_frame(np.random.default_rng(8), size=5)
        one = sample_haar_frame(np.random.default_rng(8))
        for name in ("z_axis", "x_axis", "y_axis"):
            assert np.array_equal(getattr(one, name), getattr(stack, name)[0])
        got = sample_haar_rotation(np.random.default_rng(8))
        want = axes_to_euler(one)
        assert (got.phi, got.theta, got.psi) == (want.phi, want.theta, want.psi)

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

    @pytest.mark.parametrize("n_spins", [1, 2, 8, 24, 96, 192, 400])
    def test_coherent_inverse_round_trip(self, n_spins):
        # U = 0 gives cos chi = -1 with no RuntimeWarning (an error here);
        # 1 - 2^-53 is the largest uniform random() returns
        u = np.concatenate(
            ([0.0], np.logspace(-6.0, -1.0, 21), np.linspace(0.1, 1.0, 91)[:-1], [1.0 - 2.0**-53])
        )
        c = chi_density(coherent_code(SpinJ(n_spins))).quantile_cos(u)
        assert c[0] == -1.0
        assert np.all(np.diff(c) >= 0.0) and c[-1] <= 1.0
        np.testing.assert_allclose(((1.0 + c) / 2.0) ** (n_spins + 1), u, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_spins", [1, 8, 96, 401])
    def test_coherent_inverse_inverts_the_density(self, n_spins):
        # the closed-form CDF is the integral of pdf_cos, a polynomial of
        # degree n_spins that the Gauss rule integrates exactly on [-1, u]
        density = chi_density(coherent_code(SpinJ(n_spins)))
        x, w = np.polynomial.legendre.leggauss(n_spins // 2 + 2)
        for u in (-0.5, 0.0, 0.7, 0.99, 0.999):
            half = (u + 1.0) / 2.0
            integral = half * float(np.sum(w * density.pdf_cos(half * x + half - 1.0)))
            assert integral == pytest.approx(((1.0 + u) / 2.0) ** (n_spins + 1), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 300, BATCH_TRIALS])
    @pytest.mark.parametrize("carrier", ["m0", "coherent"])
    def test_sample_chi_takes_one_uniform_per_draw(self, carrier, n):
        j = SpinJ(8)
        code = optimal_direction_encoding(j) if carrier == "m0" else coherent_code(j)
        rng = np.random.default_rng(404)
        sample_chi(chi_density(code), rng, size=n)
        assert rng.random() == np.random.default_rng(404).random(n + 1)[n]

    @pytest.mark.parametrize("chi", [0.0, 0.3, 1.2, math.pi / 2, 2.9, math.pi])
    def test_perturb_direction_exact_angle(self, chi):
        # compare cosines: arccos near the endpoints turns 1e-16 of dot
        # product into 1e-8 of angle
        frame = sample_haar_frame(np.random.default_rng(9))
        base = frame.z_axis
        azimuths = np.array([0.0, 1.0, 4.5])
        moved = _tilt(base, frame.x_axis, frame.y_axis, np.full(3, math.cos(chi)), azimuths)
        np.testing.assert_allclose(np.linalg.norm(moved, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(moved @ base, math.cos(chi), atol=1e-12)

    def test_perturb_direction_azimuth_spreads(self):
        base, t1, t2 = np.eye(3)[[2, 0, 1]]
        a, b = _tilt(base, t1, t2, np.full(2, math.cos(0.5)), np.array([0.0, math.pi / 2.0]))
        assert a @ b < math.cos(0.1)


class TestTangentOffsets:
    # Error count for the half-angle map, with u = 2^-53 and per unit
    # sin(chi), which both sides share: the kernel rounds five times (t^2,
    # 1 + t^2, the divide, two products; 2 - (1 + t^2) and the doubling are
    # exact), and tan's error, a few ulp of t, reaches cos(a) damped by
    # sin^2(a) and sin(a) by |sin(a) cos(a)|; to first order, over every
    # azimuth, that is at most 4.4u with tan one ulp off and 6u with two.
    # The reference's cos or sin (one ulp) and its product add at most 3u,
    # so |diff| <= 7.6u = 8.4e-16 < 1e-15.
    BOUND = 1e-15

    @staticmethod
    def reference(cos_chi, azimuth):
        sin_chi = np.sqrt(1.0 - cos_chi * cos_chi)
        return sin_chi * np.cos(azimuth), sin_chi * np.sin(azimuth)

    def check(self, cos_chi, azimuth):
        got = _tangent_offsets(cos_chi, azimuth)
        for offset, want in zip(got, self.reference(cos_chi, azimuth)):
            assert offset.shape == cos_chi.shape
            assert np.all(np.isfinite(offset))
            assert np.max(np.abs(offset - want)) <= self.BOUND

    def test_matches_cos_and_sin_on_seeded_pairs(self):
        rng = np.random.default_rng(2024)
        n = 10**6
        self.check(rng.uniform(-1.0, 1.0, n), rng.uniform(0.0, 2.0 * math.pi, n))

    def test_matches_cos_and_sin_at_the_edges(self):
        # pi / 2 halves to pi / 4, pi to the double nearest pi / 2, where tan
        # is largest (about 1.6e16), and the top azimuth to just below pi
        azimuths = [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi, np.nextafter(2.0 * math.pi, 0.0)]
        cos_chi, azimuth = (g.ravel() for g in np.meshgrid([-1.0, 0.0, 1.0], azimuths))
        self.check(cos_chi, azimuth)


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

    def test_hit_counts_equal_the_float_sums(self):
        hits = np.random.default_rng(63).random(20001) < 0.3
        counted, summed = _Accumulator(), _Accumulator()
        for part in np.array_split(hits, 3):
            counted.add_hits(part)
            summed.add(part.astype(float))
        assert (counted.sums, counted.sumsqs, counted.count) == (
            summed.sums, summed.sumsqs, summed.count
        )

    def test_single_value_has_zero_stderr(self):
        acc = _Accumulator()
        acc.add(np.array([0.7]))
        assert acc.stderr() == 0.0


class TestBatchStreams:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_batch_is_a_seed_sequence_child(self, seed):
        for b in range(3):
            child = np.random.SeedSequence(seed).spawn(b + 1)[b]
            want = np.random.Generator(np.random.PCG64(child)).random(64)
            assert np.array_equal(_batch_rng(seed, b).random(64), want)

    def test_batches_draw_different_streams(self):
        assert not np.array_equal(_batch_rng(7, 0).random(64), _batch_rng(7, 1).random(64))


class TestReproducibility:
    def test_identical_runs_bitwise_equal(self):
        config = RunConfig(protocol=spec("d3-coherent", 4), trials=12000, seed=31)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.estimates == b.estimates
        assert a.stderrs == b.stderrs

    @pytest.mark.parametrize(
        "protocol, trials, pinned",
        [
            (spec(), 20000, {"fidelity": 0.3329, "stderr": 0.0033323317244440243}),
            (spec("d3-covariant", 2), 20000,
             {"fidelity": 0.66385, "stderr": 0.003340391711437342}),
            (spec("d3-repeated", 9, tie_break="random"), 20000,
             {"fidelity": 0.4976, "stderr": 0.0035355815669916094}),
            (spec("d3-repeated", 9, tie_break="lowest-index"), 20000,
             {"fidelity": 0.49675, "stderr": 0.0035355476067851204}),
            (spec("d3-coherent", 1), 20000,
             {"fidelity": 0.30585, "stderr": 0.0032581926993324535}),
            (spec("d3-coherent", 24), 20000,
             {"fidelity": 0.97655, "stderr": 0.0010700757581154753}),
            (spec("frame-two-axis", 8, encoding="optimal"), 20000,
             {"infidelity": 0.3629995156571387}),
            (spec("frame-two-axis", 8, encoding="optimal", decoder="naive-euler"), 20000,
             {"infidelity": 0.6284610671768156, "naive_failures": 4108}),
            # the benchmark's short frame runs: one partial batch of 128
            (spec("frame-two-axis", 8, encoding="optimal"), 128,
             {"infidelity": 0.3228702574395948, "stderr": 0.02331925187327193,
              "per_axis": [0.09737596329582837, 0.1123526326220419]}),
            (spec("frame-two-axis", 8, encoding="optimal", decoder="naive-euler"), 128,
             {"infidelity": 0.5964001048385744, "stderr": 0.04733049515893181,
              "naive_failures": 25}),
        ],
        ids=[
            "d3-single-1", "d3-covariant-2", "d3-repeated-9-random", "d3-repeated-9-lowest-index",
            "d3-coherent-1", "d3-coherent-24", "frame-best-fit-8", "frame-naive-euler-8",
            "frame-best-fit-8-128-trials", "frame-naive-euler-8-128-trials",
        ],
    )
    def test_seed_7_records_are_pinned(self, protocol, trials, pinned):
        # seed 7 at 20000 trials, two full batches and a partial one, and at
        # the 128 trials of a short run; a change of a tally or tilt kernel,
        # of a decoder or of the draws moves these bits
        result = run_experiment(RunConfig(protocol=protocol, trials=trials, seed=7))
        got = dict(result.estimates, stderr=result.stderrs["fidelity"])
        assert {key: got[key] for key in pinned} == pinned

    def test_seed_changes_the_estimate(self):
        base = RunConfig(protocol=spec("d3-coherent", 4), trials=12000, seed=31)
        other = RunConfig(protocol=spec("d3-coherent", 4), trials=12000, seed=32)
        assert run_experiment(base).estimates != run_experiment(other).estimates

    def test_batch_split_covers_all_trials(self):
        # full batches, then one partial batch for the remainder, never an
        # empty one; the indices count up from 0 and the sizes sum to trials
        splits = {
            1: [(0, 1)],
            BATCH_TRIALS: [(0, BATCH_TRIALS)],
            BATCH_TRIALS + 7: [(0, BATCH_TRIALS), (1, 7)],
            2 * BATCH_TRIALS: [(0, BATCH_TRIALS), (1, BATCH_TRIALS)],
        }
        for trials, want in splits.items():
            assert list(_batches(trials)) == want
            assert sum(take for _, take in want) == trials
        config = RunConfig(protocol=spec(), trials=BATCH_TRIALS + 7, seed=5)
        record = record_from_run(config, run_experiment(config))
        assert record.result["trials"] == BATCH_TRIALS + 7


def _per_shot_d3_finite(config: RunConfig) -> _Accumulator:
    """A d3-single, d3-covariant or d3-repeated run counted shot by shot:
    every batch draws true (a lowest-index vote of two or more shots; every
    other run sends direction 0), then the shots trial-minor as (repeats,
    take), then tie; each shot's outcome is the number of its true row's six
    cumulative boundaries below the draw, and one bincount tallies the
    outcomes of each trial."""
    spec = config.protocol
    matrix = d3_outcome_matrix(1 if spec.kind != "d3-covariant" else 2)
    cum = np.cumsum(matrix, axis=1)
    repeats = spec.num_spins if spec.kind == "d3-repeated" else 1
    lowest_index = repeats > 1 and spec.tie_break == "lowest-index"
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        true = rng.integers(0, 6, take) if lowest_index else np.zeros(take, dtype=int)
        draws = rng.random((repeats, take)).T
        tie = rng.random(take)
        outcome = np.empty((take, repeats), dtype=np.intp)
        for row in range(6):
            mask = true == row
            outcome[mask] = np.searchsorted(cum[row], draws[mask], side="left")
        if outcome.max() > 5:
            raise AssertionError("a shot passed all six boundaries of its row")
        flat = (6 * np.arange(take))[:, None] + outcome
        counts = np.bincount(flat.ravel(), minlength=6 * take).reshape(take, 6)
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


def _direction_zero_pair(units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direction 0's tangent pair: e_y, and d0 x e_y (d0 lies in the xz plane)."""
    e_y = np.array([0.0, 1.0, 0.0])
    return e_y, np.cross(units[0], e_y)


def _per_batch_basis_d3_coherent(config: RunConfig) -> _Accumulator:
    """A d3-coherent run as the 3-D tilt and six-way argmax oracle: each
    trial tilts direction 0 as a 3-vector, cos(chi) d0 + sin(chi) (cos(a) e_y
    + sin(a) d0 x e_y) with numpy's cos and sin of the azimuth a, and hits
    when the argmax of its six dots is direction 0.  By D3 covariance that
    is the hit of every true direction (see TestCoherentLocalFrame); the
    harness decodes the same draws by the three faces of direction 0's
    cell in its cached table, with the half-angle map of the azimuth
    instead."""
    density = chi_density(coherent_code(SpinJ(config.protocol.num_spins)))
    units = d3_directions()
    t1, t2 = _direction_zero_pair(units)
    acc = _Accumulator()
    for b, take in _batches(config.trials):
        rng = _batch_rng(config.seed, b)
        u_chi = rng.random(take)
        azimuth = rng.uniform(0.0, 2.0 * math.pi, take)
        cos_chi = density.quantile_cos(u_chi)
        sin_chi = np.sqrt(1.0 - cos_chi * cos_chi)
        est = (
            cos_chi[:, None] * units[0]
            + (sin_chi * np.cos(azimuth))[:, None] * t1
            + (sin_chi * np.sin(azimuth))[:, None] * t2
        )
        guess = np.argmax(est @ units.T, axis=1)
        acc.add((guess == 0).astype(float))
    return acc


_D3_SPECS = (
    [spec(), spec("d3-covariant", 2)]
    + [
        spec("d3-repeated", n, tie_break=tie_break)
        for n in (1, 2, 3, 5, 9, 12, 20, 255, 256, 300)
        for tie_break in ("random", "lowest-index")
    ]
    + [spec("d3-coherent", n) for n in (1, 2, 3, 4, 8, 24, 60, 200)]
)


class TestD3BatchKernels:
    # BATCH_TRIALS + 1 trials end in a one-trial batch and 20001 in a
    # 3617-trial one, each drawn into the front of the run's shot buffers
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
            for trials in (1, 7, BATCH_TRIALS, BATCH_TRIALS + 1, 20001):
                config = RunConfig(protocol=protocol, trials=trials, seed=seed)
                want = oracle(config)
                got = run_experiment(config)
                assert got.estimates == {
                    "fidelity": want.mean(),
                    "infidelity": 1.0 - want.mean(),
                }
                assert got.stderrs == {"fidelity": want.stderr()}

    def test_coherent_batch_heap_peak(self):
        # live (take,) arrays at the peak of _coherent_hits: t = tan(a/2)
        # (then 2st), 1 + t^2 (then s |1 - t^2|), sin chi (then
        # cos(chi) A + 2st) and cos(chi) A, four float64 arrays, then d3's
        # face test and the d1/d2 test as bools (an eighth of one each).
        # Six float64 arrays bound it
        cos_chi, azimuth = _tilt_draws(
            _batch_rng(7, 0), chi_density(coherent_code(SpinJ(24))), BATCH_TRIALS
        )
        d3_local_frame()  # the cached table is built before the count
        tracemalloc.start()
        try:
            hits = _coherent_hits(cos_chi, azimuth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert hits.shape == (BATCH_TRIALS,)
        assert peak <= 6 * 8 * BATCH_TRIALS

    def test_vote_shots_are_drawn_in_bounded_blocks(self):
        # a full batch of 1000-shot votes draws 8192000 shots: all at once
        # they took 62.5 MiB, and each boundary compare an eighth of that;
        # in blocks of SHOT_BLOCK floats the buffer is 8 MiB and a compare 1
        config = RunConfig(protocol=spec("d3-repeated", 1000), trials=BATCH_TRIALS, seed=7)
        d3_outcome_matrix(1)  # the cached table is built before the count
        tracemalloc.start()
        try:
            run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    @pytest.mark.parametrize("num_spins", [1, 2])
    def test_last_boundary_is_one_to_rounding(self, num_spins):
        # the kernels compare with the first five cumulative boundaries only;
        # a draw past a sixth that rounded below 1 is outcome 5
        cum = np.cumsum(d3_outcome_matrix(num_spins), axis=1)
        assert np.all(np.abs(cum[:, -1] - 1.0) <= 8 * np.finfo(float).eps)

    @pytest.mark.parametrize("row", range(6))
    def test_draw_past_every_boundary_is_outcome_five(self, monkeypatch, row):
        # a row may sum to a few ulps below 1; the largest draw random()
        # returns could pass all six boundaries of such a row, and a
        # six-boundary compare scattered it to a seventh count (IndexError).
        # A lowest-index vote reads its true row: two such shots elect 5.
        # A one-shot run sends direction 0, which outcome 5 misses
        top = np.nextafter(1.0, 0.0)
        monkeypatch.setattr(harness, "_batch_rng", lambda seed, batch: _FixedStream(row, top))
        vote = spec("d3-repeated", 2, tie_break="lowest-index")
        result = run_experiment(RunConfig(protocol=vote, trials=3, seed=1))
        assert result.estimates["fidelity"] == float(row == 5)
        result = run_experiment(RunConfig(protocol=spec("d3-covariant", 2), trials=3, seed=1))
        assert result.estimates["fidelity"] == 0.0

    @pytest.mark.parametrize("num_spins", [1, 2])
    def test_cell_test_matches_five_compares_at_the_boundaries(self, monkeypatch, num_spins):
        # on and next to every boundary a hit must agree with the outcome
        # the five compares give: a one-shot trial sends direction 0 and
        # hits when its draw is at most row 0's first boundary; a
        # lowest-index vote of two equal shots elects the outcome of its
        # true row's compares, on the single-spin table
        cum = np.cumsum(d3_outcome_matrix(num_spins), axis=1)
        runs = [(spec("d3-single" if num_spins == 1 else "d3-covariant", num_spins), [0])]
        if num_spins == 1:
            runs.append((spec("d3-repeated", 2, tie_break="lowest-index"), range(6)))
        for protocol, rows in runs:
            for row in rows:
                draws = {0.0, np.nextafter(1.0, 0.0)}
                for c in cum[row]:
                    draws |= {np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)}
                for draw in sorted(draws):
                    monkeypatch.setattr(harness, "_batch_rng", lambda seed, batch: _FixedStream(row, draw))
                    config = RunConfig(protocol=protocol, trials=1, seed=1)
                    outcome = int(np.sum(draw > cum[row, :5]))
                    assert run_experiment(config).estimates["fidelity"] == float(outcome == row), draw

    @pytest.mark.parametrize("kind", ["d3-single", "d3-repeated"])
    def test_decreasing_boundary_is_refused(self, monkeypatch, kind):
        # unsigned count differences would wrap, and the cells would overlap
        matrix = np.full((6, 6), 1.0 / 6.0)
        matrix[2, 3] = -0.01
        matrix[2, 4] += 0.01
        monkeypatch.setattr(harness, "d3_outcome_matrix", lambda num_spins: matrix)
        config = RunConfig(protocol=spec(kind, 1 if kind == "d3-single" else 3), trials=5, seed=1)
        with pytest.raises(RuntimeError, match="cumulative outcome table decreases"):
            run_experiment(config)

    def test_non_covariant_table_is_refused(self, monkeypatch):
        # the runs that send direction 0 stand for all six directions only
        # when each hits alike: a constant diagonal, and for a random-rule
        # vote each row a permutation of row 0 with the diagonal in place
        one_shot, random_vote = spec(), spec("d3-repeated", 3)
        lowest_vote = spec("d3-repeated", 3, tie_break="lowest-index")
        reweighted = np.array(d3_outcome_matrix(1))
        reweighted[1] = np.array([6, 8, 4, 4, 1, 1]) / 24  # diagonal kept, not a permutation
        moved = np.array(d3_outcome_matrix(1))
        moved[2, [2, 3]] = moved[2, [3, 2]]  # a permutation whose diagonal moved
        cases = ((reweighted, {random_vote}), (moved, {one_shot, random_vote, lowest_vote}))
        for table, refused in cases:
            monkeypatch.setattr(harness, "d3_outcome_matrix", lambda num_spins: table)
            for protocol in (one_shot, random_vote, lowest_vote):
                config = RunConfig(protocol=protocol, trials=5, seed=1)
                if protocol in refused:
                    with pytest.raises(RuntimeError, match="not covariant"):
                        run_experiment(config)
                else:
                    run_experiment(config)


class TestCoherentLocalFrame:
    # the harness decodes every d3-coherent trial in direction 0's frame;
    # these pin the cached table it reads against the group and the 3-D tilt

    units = d3_directions()
    t1, t2 = _direction_zero_pair(units)

    def clear_grid(self, t, est):
        """Which estimates lie farther than 1e-9 from every bisector, and
        which are nearest direction t."""
        dots = est @ self.units.T
        first, second = np.triu_indices(6, 1)
        clear = np.abs(dots[:, first] - dots[:, second]).min(axis=1) > 1e-9
        return clear, np.argmax(dots, axis=1) == t

    @staticmethod
    def grid():
        """The (cos chi, azimuth) grid the decision tests tilt by."""
        return (g.ravel() for g in np.meshgrid(
            np.linspace(-1.0, 1.0, 81), np.linspace(0.0, 2.0 * math.pi, 144, endpoint=False)
        ))

    @pytest.mark.parametrize("t", range(6))
    def test_rotation_sends_direction_zero_to_t_and_permutes_the_six(self, t):
        group = dihedral_d3()
        r = group.rotations[t]
        assert np.allclose(r @ self.units[0], self.units[t], rtol=0.0, atol=1e-12)
        images = self.units @ r.T
        nearest = np.argmax(images @ self.units.T, axis=1)
        assert sorted(nearest.tolist()) == list(range(6))
        assert np.allclose(images, self.units[nearest], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("t", range(6))
    def test_group_carries_the_direction_zero_decision_to_t(self, t):
        # element t applied to a tilt of direction 0 is nearest t exactly
        # where that tilt is a hit
        group = dihedral_d3()
        r = group.rotations[t]
        cos_chi, azimuth = self.grid()
        est0 = _tilt(self.units[0], self.t1, self.t2, cos_chi, azimuth)
        clear, want = self.clear_grid(t, est0 @ r.T)
        got = _coherent_hits(cos_chi, azimuth)
        assert clear.sum() > cos_chi.size // 2
        assert 0 < want[clear].sum() < clear.sum()  # hits and misses
        assert np.array_equal(got[clear], want[clear])

    def test_table_is_read_only(self):
        coefficients = d3_local_frame()
        assert not coefficients.flags.writeable
        frame = np.stack([self.units[0], self.t1, self.t2])
        assert_same_bits(coefficients, self.units @ frame.T)

    @pytest.mark.parametrize("t", range(6))
    def test_decision_matches_the_tilt_and_argmax(self, t):
        # direction t tilted as a 3-vector, in the tangent pair that element
        # t carries from direction 0
        group = dihedral_d3()
        r = group.rotations[t]
        cos_chi, azimuth = self.grid()
        est = _tilt(self.units[t], r @ self.t1, r @ self.t2, cos_chi, azimuth)
        clear, want = self.clear_grid(t, est)
        got = _coherent_hits(cos_chi, azimuth)
        assert got.dtype == bool and got.shape == cos_chi.shape
        assert clear.sum() > cos_chi.size // 2
        assert 0 < want[clear].sum() < clear.sum()  # hits and misses
        assert np.array_equal(got[clear], want[clear])

    def test_two_faces_are_sums_and_d1_d2_are_mirrors(self):
        # the decode tests only the faces of d1, d2 and d3
        c = d3_local_frame()
        tol = 4.0 * np.finfo(float).eps
        assert np.max(np.abs((c[0] - c[4]) - ((c[0] - c[1]) + (c[0] - c[3])))) <= tol
        assert np.max(np.abs((c[0] - c[5]) - ((c[0] - c[2]) + (c[0] - c[3])))) <= tol
        assert np.max(np.abs(c[2] - c[1] * [1.0, -1.0, 1.0])) <= tol
        assert np.max(np.abs(c[[0, 3]] - [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])) <= tol
        assert c[1, 0] == pytest.approx(0.25, abs=tol)

    @staticmethod
    def six_dot_decision(points):
        """The (cos chi, azimuth) of unit points in direction 0's frame, the
        argmax == 0 decision of the six dots of the tilt they give (numpy's
        cos and sin of the azimuth), and that decision's margin."""
        cos_chi = points[:, 0]
        azimuth = np.arctan2(points[:, 2], points[:, 1]) % (2.0 * math.pi)
        sin_chi = np.sqrt(1.0 - cos_chi * cos_chi)
        tilt = np.stack([cos_chi, sin_chi * np.cos(azimuth), sin_chi * np.sin(azimuth)], axis=-1)
        dots = tilt @ d3_local_frame().T
        rival = dots[:, 1:].max(axis=1)
        return cos_chi, azimuth, dots[:, 0] >= rival, np.abs(dots[:, 0] - rival)

    @staticmethod
    def cell_vertices():
        """Direction 0's cell vertices in its frame, each where two of the
        faces of d1, d2 and d3 meet, keyed by that pair."""
        c = d3_local_frame()
        verts = {}
        for a, b in ((1, 2), (1, 3), (2, 3)):
            v = np.cross(c[0] - c[a], c[0] - c[b])
            verts[a, b] = v * (np.sign(v[0]) / np.linalg.norm(v))
        return verts

    def check_probes(self, points):
        cos_chi, azimuth, want, margin = self.six_dot_decision(points)
        clear = margin > 1e-13
        got = _coherent_hits(cos_chi, azimuth)
        assert clear.sum() > 0.9 * len(points)
        assert 0 < want[clear].sum() < clear.sum()  # hits and misses
        assert np.array_equal(got[clear], want[clear])

    def test_decision_near_each_cell_vertex_is_the_six_dot_argmax(self):
        rng = np.random.default_rng(43)
        c = d3_local_frame()
        points = []
        for v in self.cell_vertices().values():
            dots = c @ v
            assert dots[0] == pytest.approx(dots.max(), abs=1e-15)  # a vertex of the cell
            # 1e-9 to 1e-6 from the vertex, in a uniform tangent direction
            step = rng.standard_normal((4000, 3))
            step -= (step @ v)[:, None] * v
            step /= np.linalg.norm(step, axis=1, keepdims=True)
            r = 10.0 ** rng.uniform(-9.0, -6.0, len(step))
            points.append(np.cos(r)[:, None] * v + np.sin(r)[:, None] * step)
        self.check_probes(np.concatenate(points))

    def test_decision_on_both_sides_of_each_face_is_the_six_dot_argmax(self):
        rng = np.random.default_rng(44)
        c = d3_local_frame()
        verts = self.cell_vertices()
        edges = {1: (verts[1, 2], verts[1, 3]), 2: (verts[1, 2], verts[2, 3]), 3: (verts[1, 3], verts[2, 3])}
        points = []
        for k, (v, w) in edges.items():
            # points along the edge, then 1e-12 to 1e-6 off it on either side
            f = rng.uniform(0.02, 0.98, 4000)[:, None]
            on = (1.0 - f) * v + f * w
            on /= np.linalg.norm(on, axis=1, keepdims=True)
            normal = c[0] - c[k]
            normal = normal - (on @ normal)[:, None] * on
            normal /= np.linalg.norm(normal, axis=1, keepdims=True)
            off = 10.0 ** rng.uniform(-12.0, -6.0, len(on)) * rng.choice([-1.0, 1.0], len(on))
            points.append(np.cos(off)[:, None] * on + np.sin(off)[:, None] * normal)
        self.check_probes(np.concatenate(points))

    def test_a_table_off_the_face_sums_is_refused(self, monkeypatch):
        # d4 turned by 1e-9 about z: d0 - d4 is no longer the sum of the
        # faces of d1 and d3, so three faces would not decide
        units = np.array(d3_directions())
        turn = 1e-9
        units[4] = [[math.cos(turn), -math.sin(turn), 0.0], [math.sin(turn), math.cos(turn), 0.0],
                    [0.0, 0.0, 1.0]] @ units[4]
        monkeypatch.setattr(groups, "d3_directions", lambda: units)
        d3_local_frame.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not bounded by the faces"):
                d3_local_frame()
        finally:
            monkeypatch.undo()
            d3_local_frame.cache_clear()


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
        dtype = np.min_scalar_type(len(columns[0]))  # the harness's count type
        counts = np.stack([np.bincount(c, minlength=6) for c in columns], axis=1).astype(dtype)
        if tie is None:
            # a lowest-index vote: each trial's own true direction
            for true in range(6):
                got = _vote_hits(counts, np.full(len(columns), true), None)
                assert got.tolist() == [_counter_vote(c, None) == true for c in columns]
        else:
            # a random-rule vote sends direction 0
            got = _vote_hits(counts, 0, np.full(len(columns), tie))
            assert got.tolist() == [_counter_vote(c, tie) == 0 for c in columns]


class _FixedStream:
    """A batch stream whose true directions are all `row` and whose uniform
    draws are all `value`."""

    def __init__(self, row: int, value: float):
        self.row, self.value = row, value

    def integers(self, low, high, size):
        return np.full(size, self.row)

    def random(self, size=None, out=None):
        if out is None:
            return np.full(size, self.value)
        out.fill(self.value)
        return out


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


def _naive_frame(z: np.ndarray, x: np.ndarray) -> tuple[Frame, bool]:
    """One trial of the naive decode on unit axes, as the harness ran it
    before it decoded whole batches: the closed-form inversion, |sin phi|
    clamped to 1 when it fails, and the forward map evaluated on one frame
    with math."""
    est = naive_euler_estimate(z, x)
    if est.failed:
        sin_phi = x[2] / math.hypot(z[0], z[1])
        angles = EulerAngles(
            phi=math.copysign(0.5 * math.pi, sin_phi),
            theta=math.acos(z[2]),
            psi=math.atan2(z[0], z[1]),
        )
    else:
        angles = EulerAngles(est.phi, est.theta, est.psi)
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
    return Frame(z_axis=z, x_axis=x / np.linalg.norm(x)), est.failed


def _unit(*vectors: np.ndarray) -> list[np.ndarray]:
    """Each vector scaled to unit length."""
    return [v / np.linalg.norm(v) for v in vectors]


def _per_trial_reference(seed: int, batch: int, take: int, density: ChiDensity, decoder: str):
    """Batch `batch` of a frame run decoded one trial at a time, as the harness
    did before it decoded whole batches: same draws in the same order, each
    axis tilted in the plane of the true frame's other two, a 3-vector decode
    and score per trial: the naive decode on the normalised estimates, the
    best fit on their Direction round trips."""
    rng = _batch_rng(seed, batch)
    quats = rng.standard_normal((take, 4))
    u_z = rng.random(take)
    az_z = rng.uniform(0.0, 2.0 * math.pi, take)
    u_x = rng.random(take)
    az_x = rng.uniform(0.0, 2.0 * math.pi, take)
    mats = quaternion_matrices(quats)
    cos_z = density.quantile_cos(u_z)
    cos_x = density.quantile_cos(u_x)
    # the true frame is its z and x columns, and y = z x x
    x_axis, z_axis = mats[:, :, 0], mats[:, :, 2]
    y_axis = np.cross(z_axis, x_axis)
    z_est = _tilt(z_axis, x_axis, y_axis, cos_z, az_z)
    x_est = _tilt(x_axis, y_axis, z_axis, cos_x, az_x)
    scores = np.empty(take)
    failures = 0
    for i in range(take):
        true_frame = Frame(z_axis=z_axis[i], x_axis=x_axis[i])
        if decoder == "naive-euler":
            fitted, failed = _naive_frame(*_unit(z_est[i], x_est[i]))
            failures += int(failed)
        else:
            z_dir, x_dir = Direction.from_vector(z_est[i]), Direction.from_vector(x_est[i])
            fitted, _ = best_fit_frame(unit_vector(z_dir), unit_vector(x_dir))
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

    def test_true_and_decoded_frames_are_right_handed(self):
        # y = z x x by construction, so z . (x x y) = 1 on every row of a full
        # batch's Haar, best-fit and naive-decoded stacks
        rng = _batch_rng(3, 0)
        density = frame_two_axis_score(8, encoding="optimal", fitter="best-fit").chi
        true = sample_haar_frame(rng, BATCH_TRIALS)
        z_est = _tilt(true.z_axis, true.x_axis, true.y_axis, *_tilt_draws(rng, density, BATCH_TRIALS))
        x_est = _tilt(true.x_axis, true.y_axis, true.z_axis, *_tilt_draws(rng, density, BATCH_TRIALS))
        for frame in (true, best_fit_frame(z_est, x_est)[0], _naive_frames(z_est, x_est)[0]):
            triple = np.sum(frame.z_axis * np.cross(frame.x_axis, frame.y_axis), axis=1)
            assert triple.shape == (BATCH_TRIALS,)
            np.testing.assert_allclose(triple, 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("take", [1, 300, BATCH_TRIALS])
    def test_each_axis_tilts_in_the_true_frame(self, monkeypatch, take):
        # z is tilted towards cos(a_z) x + sin(a_z) y and x towards
        # cos(a_x) y + sin(a_x) z, with the true frame's axes and the batch's
        # draws in the order cos chi_z, a_z, cos chi_x, a_x
        seen = []

        def capturing(z_est, x_est):
            seen.append((z_est, x_est))
            return best_fit_frame(z_est, x_est)

        monkeypatch.setattr(harness, "best_fit_frame", capturing)
        density = frame_two_axis_score(8, encoding="optimal", fitter="best-fit").chi
        _frame_batch(_batch_rng(7, 2), take, density, "best-fit")
        [(z_est, x_est)] = seen
        rng = _batch_rng(7, 2)
        true = sample_haar_frame(rng, take)
        planes = ((true.z_axis, true.x_axis, true.y_axis), (true.x_axis, true.y_axis, true.z_axis))
        for est, (axis, t1, t2) in zip((z_est, x_est), planes):
            cos_chi, azimuth = _tilt_draws(rng, density, take)
            sin_chi = np.sqrt(1.0 - cos_chi * cos_chi)
            offset = est - cos_chi[:, None] * axis
            for t, want in (
                (t1, sin_chi * np.cos(azimuth)),
                (t2, sin_chi * np.sin(azimuth)),
                (axis, np.zeros(take)),
            ):
                np.testing.assert_allclose(np.sum(offset * t, axis=1), want, rtol=0.0, atol=1e-12)

    def test_clamp_rows_decode_to_fallback_frame(self):
        # x at a pole and z tilted 0.1 off the equator gives
        # |x_z/sin(theta_z)| = 1/cos(0.1) > 1 (rows 1, 4: sin phi > 1;
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
            z, x = _unit(z_est[i], x_est[i])
            want, failed = _naive_frame(z, x)
            assert failed == (i in (1, 4, 6))
            # the inversion itself returns the clamped phi of a failed trial
            est = naive_euler_estimate(z, x)
            if failed:
                assert est.phi == (0.5 * math.pi if i in (1, 4) else -0.5 * math.pi)
            for name in ("z_axis", "x_axis", "y_axis"):
                np.testing.assert_allclose(
                    getattr(frames, name)[i], getattr(want, name), rtol=0.0, atol=1e-15
                )

    @pytest.mark.parametrize("row", [0, 4, 7])
    def test_pole_row_anywhere_in_the_batch_raises(self, row):
        # the rows reach the per-trial decode as zipped component columns;
        # a pole row first, in the middle or last must still be decoded
        true = sample_haar_frame(_batch_rng(5, 0), 8)
        z_est, x_est = true.z_axis.copy(), true.x_axis.copy()
        z_est[row], x_est[row] = [0.0, 0.0, -2.0], [1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="pole"):
            _naive_frames(z_est, x_est)

    def test_nan_z_z_row_is_refused(self):
        # normalising spreads a NaN z_z over its row; the decode passes the
        # NaN angles on, and the stacked Euler angles refuse them
        true = sample_haar_frame(_batch_rng(5, 0), 8)
        z_est = true.z_axis.copy()
        z_est[3, 2] = math.nan
        with pytest.raises(ValueError, match="Euler angles must be finite"):
            _naive_frames(z_est, true.x_axis)

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
    # every batch draws through sample_chi; an m0 code reads the density's
    # table, and building it again per batch would cost each short run a grid
    # evaluation; a coherent code is inverted exactly and builds no table
    calls = []
    build = ChiDensity.cumulative_in_cos

    def counting(self, n):
        calls.append(n)
        return build(self, n)

    monkeypatch.setattr(ChiDensity, "cumulative_in_cos", counting)
    monkeypatch.setattr(harness, "BATCH_TRIALS", 256)
    run_experiment(RunConfig(protocol=protocol, trials=3 * 256, seed=1))
    assert calls == ([] if protocol.encoding == "coherent" else [CHI_GRID_POINTS])


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

    def test_vote_reference_stops_at_the_cap(self, monkeypatch):
        # up to the cap the exact score; above it None, without computing it
        at_cap = RunConfig(protocol=spec("d3-repeated", VOTE_REFERENCE_MAX_SHOTS), trials=10, seed=1)
        assert reference_score(at_cap) == d3_repeated_single_score(VOTE_REFERENCE_MAX_SHOTS)
        # the kernel itself still takes any n
        assert d3_repeated_single_score(VOTE_REFERENCE_MAX_SHOTS + 1).method == "exact"

        def refuse(*args, **kwargs):
            raise AssertionError("the vote reference above the cap was computed")

        monkeypatch.setattr(harness, "d3_repeated_single_score", refuse)
        for n, tie_break in ((VOTE_REFERENCE_MAX_SHOTS + 1, "random"), (600, "lowest-index")):
            config = RunConfig(protocol=spec("d3-repeated", n, tie_break=tie_break), trials=10, seed=1)
            assert reference_score(config) is None

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
