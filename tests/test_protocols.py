import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from spin_fixtures import D3_ANGLE_DIRECTIONS, coherent
from spindir.groups import d3_directions, d3_qubit_blocks
from spindir.optimize import finite_group_optimum
from spindir.povm import state_probabilities, validate_povm
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
    _d3_family,
    _single_spin_numerators,
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
        probs = state_probabilities(povm, coherent(SpinJ(1), D3_ANGLE_DIRECTIONS))
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
    num = _single_spin_numerators()
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
        num = _single_spin_numerators()
        assert num.dtype == np.int64
        matrix = d3_outcome_matrix(1)
        for i in range(6):
            assert num[i].sum() == 24
            assert sorted(num[i].tolist()) == [1, 1, 4, 5, 5, 8]
            assert np.max(np.abs(num[i] / 24 - matrix[i])) <= 1e-15

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
        # every caller shares these arrays; a write would change the POVM,
        # outcome matrix and score for the rest of the process
        rep, fiducial = _d3_family(num_spins)
        blocks = d3_qubit_blocks(num_spins)
        arrays = [*blocks, *rep, fiducial]
        assert len(arrays) == len(blocks) + 6 + 1
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] += 1.0
        assert _d3_family(num_spins)[0] is rep

    def test_score_reaches_the_finite_group_optimum(self, num_spins):
        score = d3_covariant_score(num_spins)
        optimum = finite_group_optimum([b.shape[1] for b in d3_qubit_blocks(num_spins)], 6)
        assert score.method == "exact"
        assert score.fidelity == pytest.approx(optimum.fidelity, abs=1e-15)
        assert score.coefficients == optimum.optimal_coefficients
        named = (d3_single_spin_score, d3_covariant_two_spin_score)[num_spins - 1]()
        assert named == score


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
