import math

import numpy as np
import pytest

from spindir.geometry import Direction, sphere_quadrature
from spindir.groups import d3_directions, dihedral_d3
from spin_fixtures import (
    D3_ANGLE_DIRECTIONS,
    born_probabilities,
    coherent,
    orbit_povm,
    unit_vector,
)
from spindir.povm import Povm, covariant_direction_povm, validate_povm
from spindir.states import SpinJ


def six_direction_povm() -> Povm:
    # E_m = (1 + m.sigma)/6 realized as (1/3)|n_m><n_m| on spin 1/2
    vecs = coherent(SpinJ(1), D3_ANGLE_DIRECTIONS)
    return Povm(vecs[:, :, None] * vecs.conj()[:, None, :] / 3.0)


def test_six_direction_povm_passes():
    povm = six_direction_povm()
    report = validate_povm(povm)
    assert report.passed
    ops = povm.operators
    np.testing.assert_allclose(ops, ops.conj().transpose(0, 2, 1), rtol=0, atol=1e-12)
    assert report.max_completeness_dev < 1e-12
    assert report.min_eigenvalue > -1e-12


def test_validation_flags_scaled_element():
    povm = six_direction_povm()
    bad = povm.operators.copy()
    bad[0] *= 1.01
    report = validate_povm(Povm(bad))
    assert not report.passed
    assert report.max_completeness_dev > 1e-3


def test_validation_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        Povm([np.eye(2), np.eye(3)])


@pytest.mark.parametrize(
    "operators",
    [np.zeros((0, 2, 2)), np.zeros((2, 2, 3)), np.eye(2)],
    ids=["empty", "non-square", "unstacked"],
)
def test_povm_rejects_malformed_stack(operators):
    with pytest.raises(ValueError):
        Povm(operators)


def test_povm_operators_are_read_only_copies():
    ops = np.stack([np.eye(2), np.zeros((2, 2))])
    povm = Povm(ops)
    ops[0, 0, 0] = 5.0  # the caller's array stays its own
    assert povm.operators[0, 0, 0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        povm.operators[0, 0, 0] += 1.0


def test_validation_reports_first_non_hermitian_element():
    ops = np.stack([np.eye(2), np.eye(2), np.eye(2)]).astype(complex)
    ops[1, 0, 1] = 0.25
    ops[2, 0, 1] = 0.5
    report = validate_povm(Povm(ops))
    assert report.min_eigenvalue == -0.25
    assert not report.passed


def test_outcome_probability_six_directions():
    povm = six_direction_povm()
    units = d3_directions()
    probs = born_probabilities(povm, coherent(SpinJ(1), D3_ANGLE_DIRECTIONS[:1]))[0]
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    for k, d in enumerate(units):
        expected = (1.0 + units[0] @ d) / 6.0
        assert probs[k] == pytest.approx(expected, abs=1e-12)
    # the correct outcome always has probability 1/3
    assert probs[0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_covariant_povm_finite_six_rank_one_elements():
    group = dihedral_d3()
    fid = coherent(SpinJ(1), D3_ANGLE_DIRECTIONS[:1])[0] / math.sqrt(3.0)
    povm = orbit_povm(group.su2, fid)
    assert povm.operators.shape == (6, 2, 2)
    for op in povm.operators:
        vals = np.linalg.eigvalsh(op)
        assert np.sum(vals > 1e-12) == 1  # rank one
    assert validate_povm(povm).passed


def test_covariant_povm_wrong_norm_fails_validation():
    group = dihedral_d3()
    fid = coherent(SpinJ(1), D3_ANGLE_DIRECTIONS[:1])[0]  # unit norm, not 1/sqrt(3)
    povm = orbit_povm(group.su2, fid)
    assert not validate_povm(povm).passed


@pytest.mark.parametrize("twice_j,n_theta,n_phi,tol", [(1, 2, 3, 1e-10), (20, 21, 41, 1e-8)])
def test_direction_povm_completeness(twice_j, n_theta, n_phi, tol):
    j = SpinJ(twice_j)
    povm = covariant_direction_povm(j, sphere_quadrature(n_theta, n_phi))
    report = validate_povm(povm)
    assert report.passed
    assert report.max_completeness_dev < tol


def test_direction_povm_rejects_coarse_grid():
    with pytest.raises(ValueError):
        covariant_direction_povm(SpinJ(10), sphere_quadrature(3, 5))


def test_direction_povm_probabilities_follow_overlap_law():
    j = SpinJ(4)
    quad = sphere_quadrature(6, 11)
    povm = covariant_direction_povm(j, quad)
    signal_dir = Direction(0.8, 0.3)
    probs = born_probabilities(povm, coherent(j, [signal_dir]))[0]
    cos_chi = quad.unit_vectors @ unit_vector(signal_dir)
    u = 0.5 * (1.0 + cos_chi)
    expected = quad.weights * (j.twice_j + 1) / (4.0 * math.pi) * u**j.twice_j
    np.testing.assert_allclose(probs, expected, atol=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_born_probabilities_sum_to_one_random_states():
    rng = np.random.default_rng(14)
    j = SpinJ(3)
    povm = covariant_direction_povm(j, sphere_quadrature(4, 7))
    for _ in range(10):
        a = rng.standard_normal(j.dim) + 1j * rng.standard_normal(j.dim)
        state = (a / np.linalg.norm(a))[None]
        assert born_probabilities(povm, state).sum() == pytest.approx(1.0, abs=1e-9)


def test_every_constructed_povm_is_positive():
    povms = [
        six_direction_povm(),
        covariant_direction_povm(SpinJ(2), sphere_quadrature(3, 5)),
    ]
    for povm in povms:
        report = validate_povm(povm)
        assert report.min_eigenvalue >= -1e-10
