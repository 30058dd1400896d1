import math
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from spin_fixtures import D3_ANGLE_DIRECTIONS, born_probabilities, coherent
from spindir import protocols
from spindir.groups import d3_directions, d3_qubit_blocks, dihedral_d3, lift_to_qubits
from spindir.harness import RunConfig, run_experiment
from spindir.povm import validate_povm
from spindir.protocols import (
    PROTOCOL_KINDS,
    FrameTwoAxisProtocol,
    ProtocolScore,
    ProtocolSpec,
    d3_coherent_score,
    d3_covariant_povm,
    d3_covariant_score,
    d3_covariant_two_spin_score,
    d3_outcome_matrix,
    d3_repeated_single_score,
    d3_single_spin_score,
    frame_two_axis_score,
    _d3_covariant,
    _vote_wins,
)
from spindir.states import SpinJ


class TestProtocolSpec:
    def test_default_decoders(self):
        assert ProtocolSpec(kind="d3-single", num_spins=1).decoder == "covariant"
        assert (
            ProtocolSpec(kind="d3-coherent", num_spins=4).decoder
            == "nearest-direction"
        )
        assert (
            ProtocolSpec(kind="frame-two-axis", num_spins=4).decoder == "best-fit"
        )

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ProtocolSpec(kind="d3-parallel", num_spins=1)

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "3", True])
    def test_bad_spin_count(self, bad):
        with pytest.raises(ValueError):
            ProtocolSpec(kind="d3-coherent", num_spins=bad)

    def test_decoder_must_match_kind(self):
        with pytest.raises(ValueError, match="decoder"):
            ProtocolSpec(kind="d3-single", num_spins=1, decoder="best-fit")
        with pytest.raises(ValueError, match="decoder"):
            ProtocolSpec(kind="frame-two-axis", num_spins=4, decoder="covariant")

    def test_fixed_size_kinds(self):
        with pytest.raises(ValueError, match="one spin"):
            ProtocolSpec(kind="d3-single", num_spins=2)
        with pytest.raises(ValueError, match="two spins"):
            ProtocolSpec(kind="d3-covariant", num_spins=4)

    def test_frame_spin_count_rules(self):
        ProtocolSpec(kind="frame-two-axis", num_spins=4, encoding="optimal")
        ProtocolSpec(kind="frame-two-axis", num_spins=6, encoding="coherent")
        with pytest.raises(ValueError, match="even N"):
            ProtocolSpec(kind="frame-two-axis", num_spins=5)
        with pytest.raises(ValueError, match="N/2 must be even"):
            ProtocolSpec(kind="frame-two-axis", num_spins=6, encoding="optimal")
        with pytest.raises(ValueError, match="encoding"):
            ProtocolSpec(kind="frame-two-axis", num_spins=4, encoding="m0")

    def test_encoding_restricted_to_frames(self):
        with pytest.raises(ValueError, match="encoding"):
            ProtocolSpec(kind="d3-coherent", num_spins=4, encoding="optimal")

    def test_tie_break_rules(self):
        ProtocolSpec(kind="d3-repeated", num_spins=3, tie_break="lowest-index")
        with pytest.raises(ValueError, match="tie_break"):
            ProtocolSpec(kind="d3-repeated", num_spins=3, tie_break="highest")
        with pytest.raises(ValueError, match="tie_break"):
            ProtocolSpec(kind="d3-coherent", num_spins=4, tie_break="lowest-index")

    def test_kind_listing_is_stable(self):
        assert PROTOCOL_KINDS == (
            "d3-single",
            "d3-repeated",
            "d3-covariant",
            "d3-coherent",
            "frame-two-axis",
        )


class TestProtocolScore:
    def test_consistency_checks(self):
        with pytest.raises(ValueError, match="method"):
            ProtocolScore(fidelity=0.5, method="guess")
        # a score is deterministic; Monte Carlo estimates live in RunResult
        with pytest.raises(ValueError, match="method"):
            ProtocolScore(fidelity=0.5, method="monte-carlo")
        score = ProtocolScore(fidelity=0.3, method="quadrature")
        assert score.infidelity == 1.0 - 0.3


class TestSingleSpin:
    def test_povm_labels_and_completeness(self):
        povm = d3_covariant_povm(1)
        # outcome k is direction k: the spinor along direction k gives k most often
        probs = born_probabilities(povm, coherent(SpinJ(1), D3_ANGLE_DIRECTIONS))
        assert np.argmax(probs, axis=1).tolist() == list(range(6))
        report = validate_povm(povm)
        assert report.max_completeness_dev <= 1e-12 and report.min_eigenvalue >= -1e-12
        ops = povm.operators
        np.testing.assert_allclose(ops, ops.conj().transpose(0, 2, 1), rtol=0, atol=1e-12)
        for op in povm.operators:
            assert np.trace(op).real == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_outcome_matrix_is_overlap_law(self):
        matrix = d3_outcome_matrix(1)
        units = d3_directions()
        for i in range(6):
            assert matrix[i].sum() == pytest.approx(1.0, abs=1e-12)
            for k in range(6):
                want = (1.0 + float(np.dot(units[i], units[k]))) / 6.0
                assert matrix[i, k] == pytest.approx(want, abs=1e-12)
                # the dots are exactly 1, 1/4, 0 or -3/4: half the sum of the
                # azimuths' cosine (1 or -1/2) and the cones' sign
                cos_azimuth = 1 if i % 3 == k % 3 else Fraction(-1, 2)
                dot = (cos_azimuth + (1 if i // 3 == k // 3 else -1)) / 2
                assert matrix[i, k] == float((1 + dot) / 6)

    @pytest.mark.parametrize("num_spins", [1, 2])
    def test_outcome_matrix_is_cached_and_read_only(self, num_spins):
        matrix = d3_outcome_matrix(num_spins)
        assert d3_outcome_matrix(num_spins) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_score_is_one_third(self):
        score = d3_single_spin_score()
        assert score.method == "exact"
        assert score.fidelity == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert score.infidelity == pytest.approx(2.0 / 3.0, abs=1e-14)


def _fraction_vote_score(n: int, tie_break: str) -> Fraction:
    """Exact-rational oracle for the plurality vote: walks every outcome
    multiset in Fraction arithmetic, with the table built from the direction
    dot products (1 + n.m)/6 independently of the package's int64 table.
    Only the true directions that a multiset scores for are weighted."""
    units = d3_directions()
    table = [
        [Fraction(4 + round(4.0 * float(np.dot(a, b))), 24) for b in units]
        for a in units
    ]
    fact = [math.factorial(k) for k in range(n + 1)]
    total = Fraction(0)
    for combo in combinations_with_replacement(range(6), n):
        counts = [combo.count(k) for k in range(6)]
        top = max(counts)
        winners = [k for k, ck in enumerate(counts) if ck == top]
        scoring = winners if tie_break == "random" else winners[:1]
        for true in scoring:
            weight = Fraction(fact[n])
            for k, ck in enumerate(counts):
                if ck:
                    weight = weight * table[true][k] ** ck / fact[ck]
            total += weight / len(winners) if tie_break == "random" else weight
    return total / 6


def _int64_vote_score(n: int, tie_break: str) -> float:
    """Second oracle for the plurality vote: sums the int64 weights
    n!/prod(c_k!) prod(num_k^c_k) over all C(n+5, 5) outcome count vectors
    (stars and bars).  Every partial sum is at most 60 * 24^n, below 2^63
    only for n <= 12."""
    assert n <= 12
    num = _d3_covariant(1)[3]
    vectors = math.comb(n + 5, 5)
    bars = np.fromiter(
        combinations(range(n + 5), 5), dtype=np.dtype((np.int8, 5)), count=vectors
    )
    counts = (np.diff(bars, axis=1, prepend=-1, append=n + 5) - 1).astype(np.int64)
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=np.int64)
    multinomial = fact[n] // np.prod(fact[counts], axis=1)
    scores = counts == counts.max(axis=1, keepdims=True)
    if tie_break == "random":
        share = 60 // scores.sum(axis=1)
    else:
        scores &= np.cumsum(scores, axis=1, dtype=np.int8) == 1
        share = 60
    total = 0
    for true in range(6):
        weight = multinomial.copy()
        for k in range(6):
            weight *= num[true, k] ** counts[:, k]
        total += int(np.sum(weight * share, where=scores[:, true]))
    return total / (6 * 60 * 24**n)


class TestRepeatedVote:
    def test_integer_table_is_the_outcome_matrix(self):
        num = _d3_covariant(1)[3]
        assert num.dtype == np.int64
        matrix = d3_outcome_matrix(1)
        for i in range(6):
            assert num[i].sum() == 24
            assert sorted(num[i].tolist()) == [1, 1, 4, 5, 5, 8]
            assert (num[i] / 24).tolist() == matrix[i].tolist()

    def test_random_rule_weights_are_equal_for_every_true_row(self):
        # the random rule does not see the order of the other outcomes, so
        # row 0 stands for all six: the harness's random-rule votes send
        # direction 0
        num = _d3_covariant(1)[3].tolist()
        for n in range(1, 13):
            assert len({_vote_wins(n, num[t], t, True) for t in range(6)}) == 1

    def test_lowest_index_weights_tell_the_rows_apart(self):
        # one shot is its outcome, whatever the rule; from two shots on the
        # lowest-index rule favours low indices, so the harness draws each
        # trial's true direction
        num = _d3_covariant(1)[3].tolist()
        assert len({_vote_wins(1, num[t], t, False) for t in range(6)}) == 1
        for n in range(2, 13):
            assert len({_vote_wins(n, num[t], t, False) for t in range(6)}) > 1

    @pytest.mark.parametrize(
        "n,rule",
        [(n, rule) for n in range(1, 10) for rule in ("random", "lowest-index")]
        + [(12, "random")],
    )
    def test_matches_fraction_oracle(self, n, rule):
        score = d3_repeated_single_score(n, rule)
        assert score.method == "exact"
        assert score.fidelity == float(_fraction_vote_score(n, rule))

    @pytest.mark.parametrize(
        "n,rule", [(n, rule) for n in (10, 11, 12) for rule in ("random", "lowest-index")]
    )
    def test_matches_int64_oracle(self, n, rule):
        assert d3_repeated_single_score(n, rule).fidelity == _int64_vote_score(n, rule)

    def test_one_and_two_shots_stay_at_one_third(self):
        for n in (1, 2):
            for rule in ("random", "lowest-index"):
                score = d3_repeated_single_score(n, rule)
                assert score.fidelity == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_three_shots_exact_values(self):
        random_rule = d3_repeated_single_score(3, "random")
        assert random_rule.fidelity == pytest.approx(float(Fraction(53, 144)),
                                                     abs=1e-14)
        lowest = d3_repeated_single_score(3, "lowest-index")
        assert lowest.fidelity == pytest.approx(float(Fraction(205, 576)), abs=1e-14)
        # ties fall on the true direction 1/k of the time under the random
        # rule but only when it happens to carry the lowest index otherwise
        assert lowest.fidelity < random_rule.fidelity

    def test_vote_improves_with_more_shots(self):
        shots = (1, 3, 5, 7, 9, 11, 13, 24, 48)
        values = [d3_repeated_single_score(n).fidelity for n in shots]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_enumeration_refusal(self):
        for bad in (0, True, 2.0):
            with pytest.raises(ValueError, match="positive integer"):
                d3_repeated_single_score(bad)
        with pytest.raises(ValueError, match="tie_break"):
            d3_repeated_single_score(3, "coin-flip")


@pytest.mark.parametrize("num_spins", [1, 2])
class TestCovariantOrbit:
    def test_cached_orbit_povm_is_read_only(self, num_spins):
        povm = d3_covariant_povm(num_spins)
        with pytest.raises(ValueError, match="read-only"):
            povm.operators[0, 0, 0] += 1.0
        assert d3_covariant_povm(num_spins) is povm
        assert validate_povm(povm).passed

    def test_cached_family_is_read_only(self, num_spins):
        # one cache holds the orbit, POVM and tables, and every caller shares
        # its arrays; a write would change the POVM, outcome matrix and score
        # for the rest of the process
        orbit, dims, povm, numerators, table = _d3_covariant(num_spins)
        blocks = d3_qubit_blocks(num_spins)
        assert orbit.shape == (6, 2**num_spins)
        assert dims == tuple(b.shape[1] for b in blocks)
        assert povm is d3_covariant_povm(num_spins)
        assert table is d3_outcome_matrix(num_spins)
        for a in (*blocks, orbit, povm.operators, numerators, table):
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] += 1
        again = _d3_covariant(np.int64(num_spins))
        assert all(x is y for x, y in zip(again, (orbit, dims, povm, numerators, table)))
        assert protocols._build_d3_covariant.cache_info().currsize <= 2

    def test_outcome_matrix_is_the_born_law(self, num_spins):
        # <psi_i|E_k|psi_i> of the validated POVM, the signal along i being
        # the lift of element i applied to the normalised Schur fiducial
        fid = sum(math.sqrt(b.shape[1] / 6.0) * b[:, 0] for b in d3_qubit_blocks(num_spins))
        signals = np.array([u @ fid for u in lift_to_qubits(dihedral_d3(), num_spins)])
        born = born_probabilities(d3_covariant_povm(num_spins), signals / np.linalg.norm(fid))
        # the table holds the nearest doubles of its rationals; the Born
        # probabilities carry the rounding of the lifts' +-120 degree
        # entries, 3 ulps of 2/3 on two spins
        assert np.max(np.abs(d3_outcome_matrix(num_spins) - born)) <= 4 * np.finfo(float).eps

    def test_run_refuses_an_incomplete_orbit(self, num_spins, monkeypatch):
        # blocks whose first column carries 1.5 times the Schur weight, as
        # test_scaled_block_breaks_completeness builds the fiducial: the run
        # must stop at the POVM's validation, not draw from a wrong table
        blocks = d3_qubit_blocks(num_spins)
        scaled = (np.concatenate((1.5 * blocks[0][:, :1], blocks[0][:, 1:]), axis=1), *blocks[1:])
        monkeypatch.setattr(protocols, "d3_qubit_blocks", lambda n: scaled)
        kind = ("d3-single", "d3-covariant")[num_spins - 1]
        config = RunConfig(ProtocolSpec(kind, num_spins), trials=5, seed=1)
        protocols._build_d3_covariant.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="failed validation"):
                run_experiment(config)
        finally:
            monkeypatch.undo()
            protocols._build_d3_covariant.cache_clear()

    def test_table_off_its_denominator_is_refused(self, num_spins, monkeypatch):
        monkeypatch.setitem(protocols._OUTCOME_DENOMINATORS, num_spins, 25)
        protocols._build_d3_covariant.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="not an integer over 25"):
                d3_outcome_matrix(num_spins)
        finally:
            monkeypatch.undo()
            protocols._build_d3_covariant.cache_clear()

    def test_score_is_the_nearest_double(self, num_spins):
        # the mean of the exact diagonal, rounded once: 1/3 and 2/3
        assert d3_covariant_score(num_spins).fidelity == num_spins / 3

    def test_score_reaches_the_finite_group_optimum(self, num_spins):
        # the Schur bound sum_i d_i / |G|, at block coefficients sqrt(d_i / sum d)
        dims = [b.shape[1] for b in d3_qubit_blocks(num_spins)]
        score = d3_covariant_score(num_spins)
        assert score.method == "exact"
        assert score.fidelity == pytest.approx(sum(dims) / 6, abs=1e-15)
        assert score.coefficients == tuple(math.sqrt(d / sum(dims)) for d in dims)
        named = (d3_single_spin_score, d3_covariant_two_spin_score)[num_spins - 1]()
        assert named == score


@pytest.mark.parametrize("reader", [d3_covariant_povm, d3_outcome_matrix, d3_covariant_score])
@pytest.mark.parametrize("bad", [0, 3, True, 2.0])
def test_covariant_readers_refuse_other_spin_counts(reader, bad):
    # True and 2.0 would hash to a cached entry, or reach the qubit lift
    with pytest.raises(ValueError, match=f"1 or 2 spins, got {bad!r}"):
        reader(bad)


class TestCovariantTwoSpin:
    def test_povm_completeness(self):
        povm = d3_covariant_povm(2)
        assert povm.operators.shape == (6, 4, 4)
        assert validate_povm(povm).passed

    def test_score_two_thirds_with_coefficients(self):
        score = d3_covariant_two_spin_score()
        assert score.method == "exact"
        assert score.fidelity == pytest.approx(2.0 / 3.0, abs=1e-12)
        coeffs = np.array(score.coefficients)
        np.testing.assert_allclose(
            coeffs, [0.5, 0.5, math.sqrt(0.5)], atol=1e-9
        )

    def test_outcome_matrix_symmetric_diagonal(self):
        matrix = d3_outcome_matrix(2)
        for i in range(6):
            assert matrix[i].sum() == pytest.approx(1.0, abs=1e-10)
            assert matrix[i, i] == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_outcome_matrix_is_integer_over_six(self):
        # the E block's fiducial weight is the projection of |00>, which makes
        # every outcome probability a multiple of 1/6
        scaled = 6.0 * d3_outcome_matrix(2)
        assert np.max(np.abs(scaled - np.round(scaled))) <= 1e-12
        triangle = [[4, 1, 1], [1, 4, 1], [1, 1, 4]]
        zeros = [[0, 0, 0]] * 3
        want = [a + b for a, b in zip(triangle, zeros)] + [a + b for a, b in zip(zeros, triangle)]
        assert np.round(scaled).astype(int).tolist() == want
        exact = [[float(Fraction(w, 6)) for w in row] for row in want]
        assert d3_outcome_matrix(2).tolist() == exact

    def test_outcome_matrix_size_guard(self):
        with pytest.raises(ValueError):
            d3_outcome_matrix(3)


class TestCoherentStrategy:
    def test_frozen_four_spin_score(self):
        score = d3_coherent_score(4)
        assert score.method == "quadrature"
        # exact cell-boundary integral; the grid oracle in test_optimize
        # converges to it
        assert score.infidelity == pytest.approx(0.4204489193341643, rel=1e-12)

    def test_two_spin_comparison_favors_covariant(self):
        coherent, covariant = d3_coherent_score(2), d3_covariant_two_spin_score()
        assert coherent.fidelity == pytest.approx(0.41294741596277384, rel=1e-12)
        assert covariant.fidelity > coherent.fidelity

    def test_crossover_at_six_spins(self):
        target = d3_covariant_two_spin_score().fidelity
        assert d3_coherent_score(5).fidelity < target
        assert d3_coherent_score(6).fidelity > target

    def test_rejects_empty_bundle(self):
        with pytest.raises(ValueError):
            d3_coherent_score(0)

    @pytest.mark.parametrize("num_spins", ["3", None, 2.5, True, 3.0, -1])
    def test_rejects_a_spin_count_that_is_not_a_positive_integer(self, num_spins):
        # a string or None once raised a TypeError from `<`, and 2.5, True
        # and 3.0 reached SpinJ, whose message is about 2j
        with pytest.raises(ValueError, match=f"got {re.escape(repr(num_spins))}$"):
            d3_coherent_score(num_spins)

    def test_accepts_a_numpy_integer(self):
        assert d3_coherent_score(np.int64(3)) == d3_coherent_score(3)


class TestFrameProtocol:
    def test_optimal_four_spins(self):
        proto = frame_two_axis_score(4, encoding="optimal", fitter="best-fit")
        assert isinstance(proto, FrameTwoAxisProtocol)
        want = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0
        assert proto.expected_per_axis_infidelity == pytest.approx(want, abs=1e-12)
        assert proto.chi.code.infidelity == pytest.approx(want, abs=1e-12)
        # the fitter is validated only: the harness applies the decoder
        with pytest.raises(ValueError, match="decoder"):
            frame_two_axis_score(4, encoding="optimal", fitter="covariant")

    def test_optimal_eight_spins(self):
        proto = frame_two_axis_score(8, encoding="optimal")
        want = (1.0 - math.sqrt(0.6)) / 2.0
        assert proto.expected_per_axis_infidelity == pytest.approx(want, abs=1e-12)

    def test_coherent_expected_infidelity(self):
        proto = frame_two_axis_score(4, encoding="coherent")
        assert proto.expected_per_axis_infidelity == pytest.approx(0.25, abs=1e-12)
        assert proto.chi.code.infidelity == pytest.approx(0.25, abs=1e-12)
        assert proto.chi.code.carrier == "coherent"

    def test_chi_density_matches_code(self):
        proto = frame_two_axis_score(8, encoding="optimal")
        assert proto.chi.expected_fidelity() == pytest.approx(
            proto.chi.code.fidelity, abs=1e-12
        )

    def test_spin_count_rules_propagate(self):
        with pytest.raises(ValueError, match="even N"):
            frame_two_axis_score(5)
        with pytest.raises(ValueError, match="N/2 must be even"):
            frame_two_axis_score(6, encoding="optimal")
