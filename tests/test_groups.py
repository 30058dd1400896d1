import math

import numpy as np
import pytest

from spin_fixtures import (
    D3_ANGLE_DIRECTIONS,
    coherent,
    orbit_povm,
    rotation_oracle,
    spin_matrices,
    unit_vector,
)
from spindir.geometry import Direction
from spindir.groups import (
    FiniteGroup,
    d3_directions,
    d3_qubit_blocks,
    dihedral_d3,
    lift_to_qubits,
)
from spindir.povm import validate_povm
from spindir.protocols import _d3_covariant, d3_covariant_povm
from spindir.states import SpinJ

GROUP = dihedral_d3()

# reference data for D3 in direction order: TABLE[g][h] is the element g h,
# CLASSES its conjugacy classes, and CHARACTERS, by (irrep, class), the
# characters of A1, A2 and E, whose first column is each irrep's dimension
TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 2, 0, 4, 5, 3],
    [2, 0, 1, 5, 3, 4],
    [3, 5, 4, 0, 2, 1],
    [4, 3, 5, 1, 0, 2],
    [5, 4, 3, 2, 1, 0],
]
CLASSES = ((0,), (1, 2), (3, 4, 5))
CHARACTERS = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [2.0, -1.0, 0.0]])


def test_d3_structure():
    assert GROUP.order == 6
    # the inverse of g is the column holding the identity in row g: the two
    # turns invert each other, flips are involutions
    inverse = [row.index(0) for row in TABLE]
    assert inverse == [0, 2, 1, 3, 4, 5]
    # the class of g is {h g h^-1}, from the table and from the rotations
    classes = {tuple(sorted({TABLE[TABLE[h][g]][inverse[h]] for h in range(6)})) for g in range(6)}
    assert sorted(classes) == sorted(CLASSES)
    mats = GROUP.rotations
    for cl in CLASSES:
        for g in cl:
            conjugates = mats @ mats[g] @ mats.transpose(0, 2, 1)  # h g h^T, one per h
            matches = np.abs(conjugates[:, None] - mats).max(axis=(-2, -1)) < 1e-12
            assert set(np.nonzero(matches)[1].tolist()) == set(cl)


def vector_characters():
    # character of the vector (spin-1) representation: the trace of each rotation
    return np.trace(GROUP.rotations, axis1=1, axis2=2)


def test_rotation_characters_values():
    # identity 3, 120-degree turns 0 (trace = 1 + 2 cos), in-plane flips -1
    np.testing.assert_allclose(
        vector_characters(), [3.0, 0.0, 0.0, -1.0, -1.0, -1.0], atol=1e-12
    )


def test_su2_lift_is_projective():
    # u(g) u(h) = +- u(gh) for every pair
    us = GROUP.su2
    for g in range(6):
        for h in range(6):
            prod = us[g] @ us[h]
            target = us[TABLE[g][h]]
            dev = min(
                np.max(np.abs(prod - target)), np.max(np.abs(prod + target))
            )
            assert dev < 1e-12


def test_rotations_follow_table_exactly():
    for g in range(6):
        for h in range(6):
            prod = GROUP.rotations[g] @ GROUP.rotations[h]
            np.testing.assert_allclose(
                prod, GROUP.rotations[TABLE[g][h]], atol=1e-12
            )


H = math.sqrt(3.0) / 2.0
# D3's SU(2) lifts, element by element, as the zyz-Euler construction gave them
D3_SU2 = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.5 - H * 1j, 0.0], [0.0, 0.5 + H * 1j]],
    [[-0.5 - H * 1j, 0.0], [0.0, -0.5 + H * 1j]],
    [[0.0, 1j], [1j, 0.0]],
    [[0.0, -H - 0.5j], [H - 0.5j, 0.0]],
    [[0.0, H - 0.5j], [-H - 0.5j, 0.0]],
])
# the same elements as zyz Euler triples (alpha, beta, gamma)
D3_EULER = [
    (0.0, 0.0, 0.0),
    (2.0 * math.pi / 3.0, 0.0, 0.0),
    (4.0 * math.pi / 3.0, 0.0, 0.0),
    (3.0 * math.pi / 2.0, math.pi, math.pi / 2.0),
    (5.0 * math.pi / 6.0, math.pi, 7.0 * math.pi / 6.0),
    (math.pi / 6.0, math.pi, 11.0 * math.pi / 6.0),
]


def test_su2_lift_keeps_the_zyz_phases():
    # each quaternion's sign reproduces the projective phase of the zyz lift
    np.testing.assert_allclose(GROUP.su2, D3_SU2, rtol=0, atol=1e-15)
    assert not GROUP.su2.flags.writeable and not GROUP.rotations.flags.writeable


def test_su2_lift_is_the_spin_half_rotation():
    for u, euler in zip(GROUP.su2, D3_EULER):
        assert np.max(np.abs(u - rotation_oracle(SpinJ(1), *euler))) <= 1e-15


def test_su2_conjugates_the_pauli_matrices_by_the_rotation():
    # U sigma_j U^dagger = sum_i R_ij sigma_i ties the two derived fields together
    sigma = 2.0 * np.array(spin_matrices(SpinJ(1)))
    for u, r in zip(GROUP.su2, GROUP.rotations):
        for j in range(3):
            want = np.tensordot(r[:, j], sigma, axes=1)
            np.testing.assert_allclose(u @ sigma[j] @ u.conj().T, want, rtol=0, atol=1e-15)


def test_d3_directions_are_the_angle_list():
    units = d3_directions()
    assert not units.flags.writeable
    want = np.array([unit_vector(d) for d in D3_ANGLE_DIRECTIONS])
    np.testing.assert_allclose(units, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("scale", [0.5, 1.0 + 1e-6, 0.0])
def test_non_unit_quaternion_row_is_refused(scale):
    rotations = np.array(GROUP.element_rotations)
    rotations[4] *= scale
    with pytest.raises(ValueError, match="unit quaternion rows"):
        FiniteGroup(rotations)


def test_signal_directions_are_the_group_orbit():
    # the elements come in direction order: element g sends direction 0 to
    # direction g, so the orbit is the six directions, each once
    vecs = d3_directions()
    assert vecs.shape == (6, 3)
    for g in range(6):
        dots = vecs @ (GROUP.rotations[g] @ vecs[0])
        assert int(np.argmax(dots)) == g
        assert dots[g] > 1.0 - 1e-12


def test_one_spin_orbit_is_coherent_spinors():
    # the lifted orbit of the first signal spinor lands on the coherent state
    # of the rotated direction, up to phase
    j = SpinJ(1)
    n0 = D3_ANGLE_DIRECTIONS[0]
    fid = coherent(j, [n0])[0]
    for g in range(6):
        rotated = GROUP.su2[g] @ fid
        image = GROUP.rotations[g] @ unit_vector(n0)
        target = coherent(j, [Direction.from_vector(image)])[0]
        assert abs(np.vdot(target, rotated)) == pytest.approx(1.0, abs=1e-12)


def test_single_spin_is_one_projective_block():
    assert [b.shape[1] for b in d3_qubit_blocks(1)] == [2]


def test_two_spin_blocks_have_dims_1_1_2():
    assert [b.shape[1] for b in d3_qubit_blocks(2)] == [1, 1, 2]


@pytest.mark.parametrize("num_spins", [1, 2])
def test_blocks_are_invariant(num_spins):
    blocks = d3_qubit_blocks(num_spins)
    # together the blocks are an orthonormal basis of the product space
    basis = np.hstack(blocks)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(2**num_spins), atol=1e-15)
    for b in blocks:
        assert not b.flags.writeable
        for u in lift_to_qubits(GROUP, num_spins):
            leak = u @ b - b @ (b.conj().T @ u @ b)
            assert np.max(np.abs(leak)) <= 1e-14


def test_block_multiplicities_match_characters():
    # the two-spin blocks carry the characters tr(B^dagger U B) of A1, A2 and
    # E, in that order: each irrep exactly once (Schur orthogonality)
    rep = lift_to_qubits(GROUP, 2)
    per_element = np.zeros((3, GROUP.order))
    for ci, cl in enumerate(CLASSES):
        per_element[:, list(cl)] = CHARACTERS[:, [ci]]
    hits = [
        i
        for b in d3_qubit_blocks(2)
        for i, row in enumerate(per_element)
        if np.max(np.abs([np.trace(b.conj().T @ u @ b) for u in rep] - row)) < 1e-12
    ]
    assert hits == [0, 1, 2]


def test_qubit_blocks_stop_at_two_qubits():
    with pytest.raises(ValueError, match="1 or 2 qubits"):
        d3_qubit_blocks(3)


def test_one_qubit_block_starts_at_the_direction_0_spinor():
    block = d3_qubit_blocks(1)[0]
    np.testing.assert_array_equal(block[:, 0], coherent(SpinJ(1), D3_ANGLE_DIRECTIONS[:1])[0])
    fid = _d3_covariant(1)[0][0]  # the identity's row of the orbit
    np.testing.assert_allclose(fid, block[:, 0] / math.sqrt(3.0), rtol=0, atol=1e-15)


def test_two_spin_fiducial_norms_and_completeness():
    fid = _d3_covariant(2)[0][0]
    np.testing.assert_allclose(fid, np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(3.0), atol=1e-15)
    # block projections carry norm sqrt(d_i/6)
    for block in d3_qubit_blocks(2):
        proj = block.conj().T @ fid
        assert np.linalg.norm(proj) == pytest.approx(
            math.sqrt(block.shape[1] / 6.0), abs=1e-12
        )
    assert np.linalg.norm(fid) == pytest.approx(math.sqrt(4.0 / 6.0), abs=1e-12)
    assert validate_povm(d3_covariant_povm(2)).passed


def test_scaled_block_breaks_completeness():
    blocks = d3_qubit_blocks(2)
    coeffs = [math.sqrt(b.shape[1] / 6.0) for b in blocks]
    coeffs[0] *= 1.5
    amps = sum(c * b[:, 0] for c, b in zip(coeffs, blocks))
    povm = orbit_povm(lift_to_qubits(GROUP, 2), amps)
    assert not validate_povm(povm).passed


def test_rotations_and_lifts_derive_from_the_quaternions():
    group = FiniteGroup(GROUP.element_rotations)
    assert group.order == 6
    for name in ("element_rotations", "rotations", "su2"):
        np.testing.assert_array_equal(getattr(group, name), getattr(GROUP, name))
        assert not getattr(group, name).flags.writeable


def test_dihedral_d3_is_built_once_with_a_read_only_table():
    assert dihedral_d3() is dihedral_d3()
    for table in (GROUP.rotations, GROUP.su2):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0, 0] = 1


def test_validate_requires_the_identity_first():
    # the swapped set is still closed under products; construction refuses it
    rotations = list(GROUP.element_rotations)
    rotations[0], rotations[1] = rotations[1], rotations[0]
    with pytest.raises(ValueError, match="element 0 is not the identity"):
        FiniteGroup(tuple(rotations))


def test_validate_checks_rotation_consistency():
    # element 3 as a 0.3 rad z-turn: its products with the others match none
    # of the six rotations
    rotations = list(GROUP.element_rotations)
    rotations[3] = (math.cos(0.15), 0.0, 0.0, math.sin(0.15))
    with pytest.raises(ValueError, match="not closed under products"):
        FiniteGroup(tuple(rotations))


def test_table_refuses_a_rotation_set_not_closed_under_products():
    # without the +240 degree turn, the +120 turn squared has no match
    rotations = np.delete(GROUP.element_rotations, 2, axis=0)
    with pytest.raises(ValueError, match="not closed under products"):
        FiniteGroup(rotations)
