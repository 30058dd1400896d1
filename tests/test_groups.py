import math

import numpy as np
import pytest

from spindir.groups import (
    FiniteGroup,
    block_characters,
    build_signal_family,
    characters_per_element,
    conjugacy_classes,
    d3_directions,
    dihedral_d3,
    find_invariant_blocks,
    irrep_content,
    lift_to_qubits,
    load_group_file,
    repeated_equivalent_blocks,
    schur_fiducial,
)
from spindir.povm import covariant_povm_finite, validate_povm
from spindir.spins import coherent_state
from spindir.states import ProductBasis, SpinJ, StateVector

GROUP, IRREPS = dihedral_d3()


def test_d3_structure():
    GROUP.validate()
    assert GROUP.order == 6
    assert GROUP.names == ("E", "A", "B", "C", "D", "F")
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


def test_irrep_matrices_follow_table():
    for i in range(IRREPS.n_irreps):
        mats = IRREPS.matrices[i]
        for g in range(6):
            for h in range(6):
                prod = mats[g] @ mats[h]
                np.testing.assert_allclose(
                    prod, mats[GROUP.mult_table[g, h]], atol=1e-12
                )


def vector_characters():
    # character of the vector (spin-1) representation: the trace of each rotation
    return np.array([np.trace(GROUP.rotation_matrix(g)) for g in range(6)])


def test_rotation_characters_values():
    # identity 3, in-plane flips -1, 120-degree turns 0 (trace = 1 + 2 cos)
    np.testing.assert_allclose(
        vector_characters(), [3.0, -1.0, -1.0, -1.0, 0.0, 0.0], atol=1e-12
    )


def test_vector_rep_content():
    assert irrep_content(vector_characters(), IRREPS, GROUP) == (0, 1, 1)


def test_trivial_and_regular_content():
    assert irrep_content(np.ones(6), IRREPS, GROUP) == (1, 0, 0)
    regular = np.array([6.0, 0, 0, 0, 0, 0])
    assert irrep_content(regular, IRREPS, GROUP) == IRREPS.dims


def test_irrep_content_rejects_non_integer():
    chi = np.array([2.0, 0.5, 0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="multiplicity"):
        irrep_content(chi, IRREPS, GROUP)


def test_irrep_content_rejects_non_class_function():
    chi = np.array([3.0, 1.0, 1.0, 1.0, 0.0, 0.5])
    with pytest.raises(ValueError, match="conjugacy"):
        irrep_content(chi, IRREPS, GROUP)


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
    fid = coherent_state(j, n0).amplitudes
    for g in range(6):
        rotated = GROUP.su2_matrix(g) @ fid
        image = GROUP.rotation_matrix(g) @ n0.unit_vector
        from spindir.geometry import Direction

        target = coherent_state(j, Direction.from_vector(image)).amplitudes
        assert abs(np.vdot(target, rotated)) == pytest.approx(1.0, abs=1e-12)


def qubit_fiducial(num_spins: int) -> StateVector:
    amps = np.zeros(2**num_spins, dtype=complex)
    amps[0] = 1.0
    return StateVector(basis=ProductBasis(num_qubits=num_spins), amplitudes=amps)


def test_two_spin_blocks_have_dims_1_1_2():
    family = build_signal_family(GROUP, 2, qubit_fiducial(2), IRREPS)
    dims = sorted(b.dim for b in family.block_structure)
    assert dims == [1, 1, 2]
    tags = sorted(b.irrep for b in family.block_structure)
    assert tags == [0, 1, 2]


def test_blocks_are_invariant():
    family = build_signal_family(GROUP, 2, qubit_fiducial(2), IRREPS)
    for block in family.block_structure:
        b = block.basis
        # orthonormal columns
        np.testing.assert_allclose(b.conj().T @ b, np.eye(block.dim), atol=1e-10)
        for u in family.rep_matrices:
            leak = u @ b - b @ (b.conj().T @ u @ b)
            assert np.max(np.abs(leak)) < 1e-8


def test_block_multiplicities_match_characters():
    # counts of numeric block tags reproduce the character inner products
    family = build_signal_family(GROUP, 2, qubit_fiducial(2), IRREPS)
    chi = np.array([np.trace(u) for u in family.rep_matrices])
    content = irrep_content(chi, IRREPS, GROUP)
    counts = [sum(1 for b in family.block_structure if b.irrep == i) for i in range(3)]
    assert tuple(counts) == content == (1, 1, 1)


def test_single_spin_is_one_projective_block():
    blocks = find_invariant_blocks(lift_to_qubits(GROUP, 1))
    assert [b.shape[1] for b in blocks] == [2]


def test_three_spin_blocks_repeat():
    # spin content 3/2 + 1/2 + 1/2; the m = +-3/2 extremes carry opposite flip
    # eigenvalues and split off as one-dimensional projective blocks, while the
    # two spin-1/2 copies are equivalent, which rules out a Schur fiducial
    family = build_signal_family(GROUP, 3, qubit_fiducial(3), IRREPS)
    dims = sorted(b.dim for b in family.block_structure)
    assert dims == [1, 1, 2, 2, 2]
    assert repeated_equivalent_blocks(family)
    weights = [np.zeros(b.dim) for b in family.block_structure]
    for w in weights:
        w[0] = 1.0
    with pytest.raises(ValueError, match="repeated"):
        schur_fiducial(family, weights)


@pytest.mark.parametrize("num_spins", [1, 2, 3, 4, 5, 6])
def test_block_tags_follow_block_characters(num_spins):
    # even N: a block is tagged by the one irrep its character contains;
    # odd N (projective): by dimension, 2 for the unique two-dim irrep and -1
    # for one-dim blocks, which the two one-dim irreps leave ambiguous
    family = build_signal_family(GROUP, num_spins, qubit_fiducial(num_spins), IRREPS)
    for block, chi in zip(family.block_structure, block_characters(family)):
        if num_spins % 2 == 0:
            content = irrep_content(chi, IRREPS, GROUP)
            assert sum(content) == 1
            assert block.irrep == content.index(1)
        else:
            assert block.irrep == {1: -1, 2: 2}[block.dim]


def test_schur_fiducial_norms_and_completeness():
    family = build_signal_family(GROUP, 2, qubit_fiducial(2), IRREPS)
    weights = []
    for block in family.block_structure:
        w = np.zeros(block.dim)
        w[0] = 1.0
        weights.append(w)
    fid = schur_fiducial(family, weights)
    # block projections carry norm sqrt(d_i/6)
    for block in family.block_structure:
        proj = block.basis.conj().T @ fid.amplitudes
        assert np.linalg.norm(proj) == pytest.approx(
            math.sqrt(block.dim / 6.0), abs=1e-12
        )
    assert fid.norm() == pytest.approx(math.sqrt(4.0 / 6.0), abs=1e-12)
    povm = covariant_povm_finite(family.rep_matrices, fid)
    report = validate_povm(povm, tol=1e-10)
    assert report.passed


def test_schur_weight_validation():
    family = build_signal_family(GROUP, 2, qubit_fiducial(2), IRREPS)
    with pytest.raises(ValueError, match="one weight"):
        schur_fiducial(family, [np.array([1.0])])
    bad = []
    for block in family.block_structure:
        w = np.zeros(block.dim)
        w[0] = 2.0  # not unit
        bad.append(w)
    with pytest.raises(ValueError, match="unit"):
        schur_fiducial(family, bad)


def test_scaled_block_breaks_completeness():
    family = build_signal_family(GROUP, 2, qubit_fiducial(2), IRREPS)
    amps = np.zeros(4, dtype=complex)
    for k, block in enumerate(family.block_structure):
        w = np.zeros(block.dim)
        w[0] = 1.0
        coeff = math.sqrt(block.dim / 6.0)
        if k == 0:
            coeff *= 1.5
        amps += coeff * (block.basis @ w)
    fid = StateVector(basis=ProductBasis(num_qubits=2), amplitudes=amps)
    povm = covariant_povm_finite(family.rep_matrices, fid)
    assert not validate_povm(povm, tol=1e-10).passed


def test_characters_per_element_expand_classes():
    per_el = characters_per_element(IRREPS, GROUP)
    assert per_el.shape == (3, 6)
    for ci, cl in enumerate(GROUP.classes):
        for g in cl:
            np.testing.assert_array_equal(per_el[:, g], IRREPS.characters[:, ci])


def d3_file_text(names=True, rotations=True) -> str:
    lines = ["# six-element dihedral group", f"order {GROUP.order}"]
    if names:
        lines.append("names " + " ".join(GROUP.names))
    lines.append("table  # row g, column h: index of g*h")
    for row in np.asarray(GROUP.mult_table):
        lines.append(" ".join(str(int(x)) for x in row))
    if rotations:
        lines.append("rotations")
        for alpha, beta, gamma in GROUP.element_rotations:
            lines.append(f"{alpha!r} {beta!r} {gamma!r}")
    return "\n".join(lines) + "\n"


def test_load_group_file_round_trip(tmp_path):
    path = tmp_path / "d3.group"
    path.write_text(d3_file_text())
    loaded = load_group_file(path)
    assert loaded.order == GROUP.order
    assert loaded.names == GROUP.names
    np.testing.assert_array_equal(loaded.mult_table, GROUP.mult_table)
    assert loaded.inverse == GROUP.inverse
    assert tuple(sorted(loaded.classes)) == tuple(sorted(GROUP.classes))
    for g in range(6):
        np.testing.assert_allclose(
            loaded.rotation_matrix(g), GROUP.rotation_matrix(g), atol=1e-12
        )


def test_load_group_file_without_rotations(tmp_path):
    path = tmp_path / "bare.group"
    path.write_text(d3_file_text(names=False, rotations=False))
    loaded = load_group_file(path)
    assert loaded.names is None
    with pytest.raises(ValueError):
        loaded.rotation_matrix(0)


@pytest.mark.parametrize(
    "text,message",
    [
        ("table\n0 1\n1 0\n", "order"),
        ("order 2\n", "no multiplication table"),
        ("order 2\ntable\n0 1\n1 2\n", "bad multiplication table"),
        ("order 2\nnames a\ntable\n0 1\n1 0\n", "one name per element"),
        ("order 2\nspin up\n", "unexpected line"),
        ("order 2\ntable\n0 1\n1 1\n", "element 1 has no inverse"),
    ],
)
def test_load_group_file_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "broken.group"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_group_file(path)


def test_from_table_derives_inverses_and_classes():
    group = FiniteGroup.from_table(
        GROUP.mult_table.tolist(), rotations=GROUP.element_rotations, names=GROUP.names
    )
    np.testing.assert_array_equal(group.mult_table, GROUP.mult_table)
    assert group.order == 6
    assert group.inverse == GROUP.inverse == (0, 1, 2, 3, 5, 4)
    assert group.classes == GROUP.classes == tuple(conjugacy_classes(GROUP.mult_table))
    group.validate()


def test_load_group_file_checks_rotation_consistency(tmp_path):
    # table says flips are involutions; a wrong rotation row must be caught
    lines = d3_file_text().splitlines()
    k = lines.index("rotations") + 2  # rotation row of element A
    lines[k] = "0.3 0.0 0.0"
    path = tmp_path / "twisted.group"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="rotations do not follow the table"):
        load_group_file(path)
