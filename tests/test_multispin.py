import numpy as np
import pytest

from spin_fixtures import basis_state, product_state, state_from_terms
from spindir.groups import dihedral_d3, lift_to_qubits
from spindir.multispin import (
    attainable_spins,
    j_squared,
    total_j_projector,
    total_spin_ops,
)
from spindir.states import SpinJ


def test_attainable_spins():
    assert [s.j for s in attainable_spins(2)] == [1.0, 0.0]
    assert [s.j for s in attainable_spins(3)] == [1.5, 0.5]
    assert [s.j for s in attainable_spins(4)] == [2.0, 1.0, 0.0]


def test_total_spin_ops_commutation():
    jx, jy, jz = total_spin_ops(3)
    np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
    jj = j_squared(3)
    np.testing.assert_allclose(jj, jx @ jx + jy @ jy + jz @ jz, atol=1e-12)


def test_j_squared_is_cached_and_read_only():
    # every projector of the register is built from the shared cached J^2
    jj = j_squared(3)
    assert j_squared(3) is jj
    with pytest.raises(ValueError, match="read-only"):
        jj[0, 0] = 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_projectors_idempotent_hermitian_complete(n):
    spins = attainable_spins(n)
    projectors = [total_j_projector(n, j) for j in spins]
    dim = 2**n
    total = sum(projectors)
    np.testing.assert_allclose(total, np.eye(dim), atol=1e-10)
    for k, p in enumerate(projectors):
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)
        for q in projectors[k + 1 :]:
            np.testing.assert_allclose(p @ q, np.zeros_like(p), atol=1e-10)


def test_projector_eigenvalue_property():
    # P_j projects onto the j(j+1) eigenspace of J^2
    jj = j_squared(3)
    p = total_j_projector(3, SpinJ(3))
    np.testing.assert_allclose(jj @ p, (1.5 * 2.5) * p, atol=1e-10)


def test_projector_rejects_unattainable_j():
    with pytest.raises(ValueError):
        total_j_projector(3, SpinJ(2))  # j=1 not attainable for 3 qubits
    with pytest.raises(ValueError):
        total_j_projector(2, SpinJ(4))


def test_three_spin_fixture_vectors():
    # |001> splits into a symmetric part and the orthogonal remainder
    state = basis_state("001")
    p_high = total_j_projector(3, SpinJ(3))
    p_low = total_j_projector(3, SpinJ(1))
    high = p_high @ state
    low = p_low @ state
    expected_high = state_from_terms(3, {"001": 1 / 3, "010": 1 / 3, "100": 1 / 3})
    expected_low = state_from_terms(3, {"001": 2 / 3, "010": -1 / 3, "100": -1 / 3})
    np.testing.assert_allclose(high, expected_high, atol=1e-10)
    np.testing.assert_allclose(low, expected_low, atol=1e-10)
    assert np.vdot(high, high).real == pytest.approx(1 / 3, abs=1e-12)
    assert np.vdot(low, low).real == pytest.approx(2 / 3, abs=1e-12)


def test_two_spin_singlet_fixture():
    state = basis_state("01")
    p0 = total_j_projector(2, SpinJ(0))
    expected = state_from_terms(2, {"01": 0.5, "10": -0.5})
    np.testing.assert_allclose(p0 @ state, expected, atol=1e-12)


def test_lift_rotation_acts_per_qubit():
    # the runtime lift of each D3 element is its SU(2) matrix on every qubit
    group = dihedral_d3()
    rng = np.random.default_rng(8)
    singles = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    singles = [s / np.linalg.norm(s) for s in singles]
    for g, lifted in enumerate(lift_to_qubits(group, 3)):
        u = group.su2[g]
        rotated = product_state([u @ s for s in singles])
        direct = lifted @ product_state(singles)
        np.testing.assert_allclose(direct, rotated, atol=1e-12)


def test_lift_rotation_commutes_with_projectors():
    group = dihedral_d3()
    for lifted in lift_to_qubits(group, 3):
        for j in attainable_spins(3):
            p = total_j_projector(3, j)
            np.testing.assert_allclose(lifted @ p, p @ lifted, atol=1e-10)
