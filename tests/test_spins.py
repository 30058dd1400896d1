import math

import numpy as np
import pytest
from scipy.linalg import expm

from spindir.geometry import Direction
from spindir.groups import euler_zyz_matrix, su2_from_euler
from spindir.spins import (
    coherent_state,
    jx_matrix,
    jy_matrix,
    jz_matrix,
    rotate_spin_state,
    wigner_d_matrix,
)
from spindir.states import SpinBasis, SpinJ, StateVector, spin_basis_state

RNG = np.random.default_rng(2143)


def random_direction(rng=RNG) -> Direction:
    u = rng.uniform(-1.0, 1.0)
    return Direction(math.acos(u), rng.uniform(0.0, 2.0 * math.pi))


def random_euler(rng=RNG) -> tuple:
    return (rng.uniform(0.0, 2.0 * math.pi), math.acos(rng.uniform(-1.0, 1.0)),
            rng.uniform(0.0, 2.0 * math.pi))


def test_small_d_identity_rotation():
    assert wigner_d_matrix(SpinJ(1), 0.0)[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_small_d_j1_middle_is_cos():
    for beta in np.linspace(0.0, math.pi, 17):
        # d^1_00 sits at row and column m = 0, index 1
        assert wigner_d_matrix(SpinJ(2), beta)[1, 1] == pytest.approx(
            math.cos(beta), abs=1e-13
        )


@pytest.mark.parametrize("twice_j", [1, 2, 5, 10, 20])
def test_small_d_highest_weight_power_law(twice_j):
    j = SpinJ(twice_j)
    for beta in (0.1, 0.7, 1.9, 2.9):
        expected = math.cos(beta / 2.0) ** twice_j
        # d^j_jj is the top-left entry in the m-descending order
        assert wigner_d_matrix(j, beta)[0, 0] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("twice_j", [1, 3, 8, 17])
def test_d_matrix_orthogonal(twice_j):
    d = wigner_d_matrix(SpinJ(twice_j), 1.234)
    np.testing.assert_allclose(d @ d.T, np.eye(twice_j + 1), atol=1e-12)


def test_d_matrix_against_matrix_exponential():
    # independent oracle: d(beta) = exp(-i beta Jy) in the m-descending basis
    for twice_j in (1, 2, 4, 7):
        j = SpinJ(twice_j)
        beta = 0.83
        oracle = expm(-1j * beta * jy_matrix(j))
        np.testing.assert_allclose(wigner_d_matrix(j, beta), oracle.real, atol=1e-12)


def test_large_j_path_consistent_with_sum():
    # large j against the matrix exponential, entry by entry
    j = SpinJ(44)
    beta = 1.1
    d_fast = wigner_d_matrix(j, beta)
    oracle = expm(-1j * beta * jy_matrix(j)).real
    for tm1, tm2 in ((44, 44), (44, 0), (0, 0), (-2, 6)):
        i1, i2 = (44 - tm1) // 2, (44 - tm2) // 2
        assert d_fast[i1, i2] == pytest.approx(oracle[i1, i2], abs=1e-13)
    # and with numpy's Legendre series at full precision
    assert d_fast[22, 22] == pytest.approx(
        np.polynomial.legendre.legval(math.cos(beta), [0] * 22 + [1]), abs=1e-13
    )


SWEEP_ANGLES = (0.0, 1e-8, 1e-3, 0.05, 0.3, 1.1, math.pi / 2, 2.5, math.pi - 1e-3, math.pi)


def test_d_matrix_sweep_against_matrix_exponential():
    # every j up to 30 at every angle class, both poles included
    for twice_j in range(1, 61):
        j = SpinJ(twice_j)
        jy = jy_matrix(j)
        for beta in SWEEP_ANGLES:
            oracle = expm(-1j * beta * jy).real
            dev = np.max(np.abs(wigner_d_matrix(j, beta) - oracle))
            assert dev <= 1e-13, (twice_j, beta, dev)


def test_rotate_zero_angles_is_identity():
    j = SpinJ(3)
    state = spin_basis_state(j, 0.5)
    out = rotate_spin_state(j, state, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_rotate_spin_half_gives_coherent_amplitudes():
    # rotating |1/2,+1/2> by (phi, theta, 0) points it along (theta, phi)
    j = SpinJ(1)
    theta, phi = 0.9, 2.3
    out = rotate_spin_state(j, spin_basis_state(j, 0.5), phi, theta, 0.0)
    expected = np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
    phase = out.amplitudes[0] / abs(out.amplitudes[0])
    np.testing.assert_allclose(out.amplitudes / phase, expected, atol=1e-12)


def test_rotate_dimension_mismatch():
    with pytest.raises(ValueError):
        rotate_spin_state(SpinJ(2), spin_basis_state(SpinJ(4), 0.0), 0.1, 0.2, 0.3)


@pytest.mark.parametrize("twice_j", [1, 2, 6, 20])
def test_rotation_unitary_preserves_inner_products(twice_j):
    j = SpinJ(twice_j)
    a = RNG.standard_normal(j.dim) + 1j * RNG.standard_normal(j.dim)
    b = RNG.standard_normal(j.dim) + 1j * RNG.standard_normal(j.dim)
    sa = StateVector(SpinBasis(j), a / np.linalg.norm(a))
    sb = StateVector(SpinBasis(j), b / np.linalg.norm(b))
    angles = (0.4, 1.7, -2.2)
    ra = rotate_spin_state(j, sa, *angles)
    rb = rotate_spin_state(j, sb, *angles)
    assert ra.norm() == pytest.approx(1.0, abs=1e-12)
    assert ra.inner(rb) == pytest.approx(sa.inner(sb), abs=1e-12)


@pytest.mark.parametrize("twice_j", [1, 2, 3, 8, 17])
def test_euler_rotation_moves_coherent_state_by_zyz_matrix(twice_j):
    # the groups convention: the triple (alpha, beta, gamma) acts on spin states
    # as rotate_spin_state and on directions as euler_zyz_matrix
    rng = np.random.default_rng(40 + twice_j)
    j = SpinJ(twice_j)
    for _ in range(20):
        d, euler = random_direction(rng), random_euler(rng)
        rotated = rotate_spin_state(j, coherent_state(j, d), *euler).amplitudes
        moved = Direction.from_vector(euler_zyz_matrix(*euler) @ d.unit_vector)
        expected = coherent_state(j, moved).amplitudes
        phase = np.vdot(expected, rotated)
        np.testing.assert_allclose(rotated, phase / abs(phase) * expected, atol=1e-13)


def test_su2_from_euler_is_the_spin_half_rotation():
    rng = np.random.default_rng(41)
    j = SpinJ(1)
    for _ in range(50):
        euler = random_euler(rng)
        columns = [rotate_spin_state(j, spin_basis_state(j, m), *euler).amplitudes
                   for m in (0.5, -0.5)]
        dev = np.max(np.abs(su2_from_euler(*euler) - np.column_stack(columns)))
        assert dev <= 1e-15


def test_coherent_state_along_z():
    j = SpinJ(5)
    s = coherent_state(j, Direction(0.0, 0.0))
    expected = np.zeros(j.dim, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(s.amplitudes, expected, atol=1e-15)


def test_coherent_state_spin_half_formula():
    theta, phi = 1.2, 4.0
    s = coherent_state(SpinJ(1), Direction(theta, phi))
    np.testing.assert_allclose(
        s.amplitudes,
        [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)],
        atol=1e-14,
    )


def test_coherent_state_highest_weight_eigenvector():
    rng = np.random.default_rng(77)
    for _ in range(100):
        twice_j = int(rng.integers(1, 13))
        j = SpinJ(twice_j)
        d = random_direction(rng)
        s = coherent_state(j, d)
        n = d.unit_vector
        n_j = n[0] * jx_matrix(j) + n[1] * jy_matrix(j) + n[2] * jz_matrix(j)
        resid = n_j @ s.amplitudes - j.j * s.amplitudes
        assert np.linalg.norm(resid) < 1e-10
        assert s.norm() == pytest.approx(1.0, abs=1e-12)
        assert s.amplitudes[0].imag == pytest.approx(0.0, abs=1e-15)
        assert s.amplitudes[0].real >= 0.0


def overlap_sq(j: SpinJ, d1: Direction, d2: Direction) -> float:
    return abs(coherent_state(j, d1).inner(coherent_state(j, d2))) ** 2


def test_overlap_trivial_cases():
    d = Direction(0.7, 1.1)
    assert overlap_sq(SpinJ(6), d, d) == pytest.approx(1.0, abs=1e-15)
    assert overlap_sq(SpinJ(1), d, d.antipode()) == pytest.approx(0.0, abs=1e-15)


def test_overlap_matches_inner_product():
    # |<n1|n2>|^2 = ((1 + n1.n2)/2)^{2j}
    rng = np.random.default_rng(5)
    for twice_j in range(1, 21):
        j = SpinJ(twice_j)
        d1, d2 = random_direction(rng), random_direction(rng)
        closed = (0.5 * (1.0 + d1.cos_angle_to(d2))) ** twice_j
        assert overlap_sq(j, d1, d2) == pytest.approx(closed, abs=1e-10)


def test_overlap_rotation_invariant_and_symmetric():
    rng = np.random.default_rng(6)
    j = SpinJ(7)
    for _ in range(25):
        d1, d2 = random_direction(rng), random_direction(rng)
        rot = euler_zyz_matrix(*random_euler(rng))
        r1 = Direction.from_vector(rot @ d1.unit_vector)
        r2 = Direction.from_vector(rot @ d2.unit_vector)
        base = overlap_sq(j, d1, d2)
        assert overlap_sq(j, r1, r2) == pytest.approx(base, abs=1e-10)
        assert overlap_sq(j, d2, d1) == pytest.approx(base, abs=1e-12)


def test_legendre_matches_wigner_d00():
    for n in (2, 5, 9):
        for x in (-0.8, 0.3, 0.99):
            # d^n_00 sits at row and column m = 0, index n
            assert np.polynomial.legendre.legval(x, [0] * n + [1]) == pytest.approx(
                wigner_d_matrix(SpinJ(2 * n), math.acos(x))[n, n], abs=1e-10
            )


def test_spin_operator_algebra():
    j = SpinJ(4)
    jx, jy, jz = jx_matrix(j), jy_matrix(j), jz_matrix(j)
    np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
    jj = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(jj, j.j * (j.j + 1) * np.eye(j.dim), atol=1e-12)
