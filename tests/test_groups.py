import math

import numpy as np
import pytest

from spin_fixtures import coherent
from spindir.geometry import Direction
from spindir.groups import (
    FiniteGroup,
    block_characters,
    build_signal_family,
    conjugacy_classes,
    d3_directions,
    dihedral_d3,
    find_invariant_blocks,
    lift_to_qubits,
    repeated_equivalent_blocks,
    schur_fiducial,
)
from spindir.povm import covariant_povm_finite, validate_povm
from spindir.states import SpinJ

GROUP, IRREPS = dihedral_d3()


def test_d3_structure():
    GROUP.validate()
    assert GROUP.order == 6
    assert tuple(tuple(sorted(cl)) for cl in GROUP.classes) == ((0,), (4, 5), (1, 2, 3))
    assert GROUP.inverse[0] == 0
    # flips are involutions, the two turns invert each other
    assert GROUP.inverse[1] == 1 and GROUP.inverse[2] == 2 and GROUP.inverse[3] == 3
    assert GROUP.inverse[4] == 5 and GROUP.inverse[5] == 4


def test_d3_character_table():
    assert IRREPS.dims == (1, 1, 2)
    np.testing.assert_array_equal(
        IRREPS.characters,
        np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [2.0, -1.0, 0.0]]),
    )


def test_character_orthogonality():
    sizes = np.array([len(cl) for cl in GROUP.classes], dtype=float)
    gram = (IRREPS.characters * sizes) @ IRREPS.characters.T / GROUP.order
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)


def vector_characters():
    # character of the vector (spin-1) representation: the trace of each rotation
    return np.array([np.trace(GROUP.rotation_matrix(g)) for g in range(6)])


def test_rotation_characters_values():
    # identity 3, in-plane flips -1, 120-degree turns 0 (trace = 1 + 2 cos)
    np.testing.assert_allclose(
        vector_characters(), [3.0, -1.0, -1.0, -1.0, 0.0, 0.0], atol=1e-12
    )


def test_su2_lift_is_projective():
    # u(g) u(h) = +- u(gh) for every pair
    us = [GROUP.su2_matrix(g) for g in range(6)]
    for g in range(6):
        for h in range(6):
            prod = us[g] @ us[h]
            target = us[GROUP.mult_table[g, h]]
            dev = min(
                np.max(np.abs(prod - target)), np.max(np.abs(prod + target))
            )
            assert dev < 1e-12


def test_rotations_follow_table_exactly():
    for g in range(6):
        for h in range(6):
            prod = GROUP.rotation_matrix(g) @ GROUP.rotation_matrix(h)
            np.testing.assert_allclose(
                prod, GROUP.rotation_matrix(GROUP.mult_table[g, h]), atol=1e-12
            )


def test_signal_directions_are_the_group_orbit():
    dirs = d3_directions()
    assert len(dirs) == 6
    vecs = np.array([d.unit_vector for d in dirs])
    n0 = vecs[0]
    hit = set()
    for g in range(6):
        image = GROUP.rotation_matrix(g) @ n0
        dots = vecs @ image
        k = int(np.argmax(dots))
        assert dots[k] > 1.0 - 1e-12
        hit.add(k)
    assert hit == set(range(6))


def test_one_spin_orbit_is_coherent_spinors():
    # the lifted orbit of the first signal spinor lands on the coherent state
    # of the rotated direction, up to phase
    j = SpinJ(1)
    n0 = d3_directions()[0]
    fid = coherent(j, [n0])[0]
    for g in range(6):
        rotated = GROUP.su2_matrix(g) @ fid
        image = GROUP.rotation_matrix(g) @ n0.unit_vector
        target = coherent(j, [Direction.from_vector(image)])[0]
        assert abs(np.vdot(target, rotated)) == pytest.approx(1.0, abs=1e-12)


def test_two_spin_blocks_have_dims_1_1_2():
    family = build_signal_family(GROUP, 2)
    dims = sorted(b.shape[1] for b in family.block_structure)
    assert dims == [1, 1, 2]
    assert not repeated_equivalent_blocks(family)


def test_blocks_are_invariant():
    family = build_signal_family(GROUP, 2)
    for b in family.block_structure:
        # orthonormal columns
        np.testing.assert_allclose(b.conj().T @ b, np.eye(b.shape[1]), atol=1e-10)
        for u in family.rep_matrices:
            leak = u @ b - b @ (b.conj().T @ u @ b)
            assert np.max(np.abs(leak)) < 1e-8


def test_block_multiplicities_match_characters():
    # each two-spin block carries the character of exactly one irrep, and
    # every irrep occurs once
    family = build_signal_family(GROUP, 2)
    per_element = np.zeros((3, GROUP.order))
    for ci, cl in enumerate(GROUP.classes):
        per_element[:, list(cl)] = IRREPS.characters[:, [ci]]
    hits = [
        i
        for chi in block_characters(family)
        for i, row in enumerate(per_element)
        if np.max(np.abs(chi - row)) < 1e-9
    ]
    assert sorted(hits) == [0, 1, 2]


def test_single_spin_is_one_projective_block():
    blocks = find_invariant_blocks(lift_to_qubits(GROUP, 1))
    assert [b.shape[1] for b in blocks] == [2]


def test_three_spin_blocks_repeat():
    # spin content 3/2 + 1/2 + 1/2; the m = +-3/2 extremes carry opposite flip
    # eigenvalues and split off as one-dimensional projective blocks, while the
    # two spin-1/2 copies are equivalent, which rules out a Schur fiducial
    family = build_signal_family(GROUP, 3)
    dims = sorted(b.shape[1] for b in family.block_structure)
    assert dims == [1, 1, 2, 2, 2]
    assert repeated_equivalent_blocks(family)
    weights = [np.zeros(b.shape[1]) for b in family.block_structure]
    for w in weights:
        w[0] = 1.0
    with pytest.raises(ValueError, match="repeated"):
        schur_fiducial(family, weights)


def test_schur_fiducial_norms_and_completeness():
    family = build_signal_family(GROUP, 2)
    weights = []
    for block in family.block_structure:
        w = np.zeros(block.shape[1])
        w[0] = 1.0
        weights.append(w)
    fid = schur_fiducial(family, weights)
    # block projections carry norm sqrt(d_i/6)
    for block in family.block_structure:
        proj = block.conj().T @ fid
        assert np.linalg.norm(proj) == pytest.approx(
            math.sqrt(block.shape[1] / 6.0), abs=1e-12
        )
    assert np.linalg.norm(fid) == pytest.approx(math.sqrt(4.0 / 6.0), abs=1e-12)
    povm = covariant_povm_finite(family.rep_matrices, fid)
    report = validate_povm(povm)
    assert report.passed


def test_schur_weight_validation():
    family = build_signal_family(GROUP, 2)
    with pytest.raises(ValueError, match="one weight"):
        schur_fiducial(family, [np.array([1.0])])
    bad = []
    for block in family.block_structure:
        w = np.zeros(block.shape[1])
        w[0] = 2.0  # not unit
        bad.append(w)
    with pytest.raises(ValueError, match="unit"):
        schur_fiducial(family, bad)


def test_scaled_block_breaks_completeness():
    family = build_signal_family(GROUP, 2)
    amps = np.zeros(4, dtype=complex)
    for k, block in enumerate(family.block_structure):
        w = np.zeros(block.shape[1])
        w[0] = 1.0
        coeff = math.sqrt(block.shape[1] / 6.0)
        if k == 0:
            coeff *= 1.5
        amps += coeff * (block @ w)
    povm = covariant_povm_finite(family.rep_matrices, amps)
    assert not validate_povm(povm).passed


def test_from_table_derives_inverses_and_classes():
    group = FiniteGroup.from_table(GROUP.mult_table.tolist(), rotations=GROUP.element_rotations)
    np.testing.assert_array_equal(group.mult_table, GROUP.mult_table)
    assert group.order == 6
    assert group.inverse == GROUP.inverse == (0, 1, 2, 3, 5, 4)
    assert group.classes == GROUP.classes == tuple(conjugacy_classes(GROUP.mult_table))
    group.validate()


def test_from_table_rejects_missing_inverse():
    with pytest.raises(ValueError, match="element 1 has no inverse"):
        FiniteGroup.from_table([[0, 1], [1, 1]], rotations=GROUP.element_rotations[:2])


def test_validate_checks_rotation_consistency():
    # the table says A is an involution; a z-turn in its rotation row is not
    rotations = list(GROUP.element_rotations)
    rotations[1] = (0.3, 0.0, 0.0)
    group = FiniteGroup.from_table(GROUP.mult_table, rotations=tuple(rotations))
    with pytest.raises(ValueError, match="rotations do not follow the table"):
        group.validate()
