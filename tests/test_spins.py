import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from spin_fixtures import coherent, rotation_oracle, spin_matrices, unit_vector
from spindir.geometry import Direction
from spindir.spins import coherent_states
from spindir.states import SpinJ

RNG = np.random.default_rng(2143)


def random_direction(rng=RNG) -> Direction:
    u = rng.uniform(-1.0, 1.0)
    return Direction(math.acos(u), rng.uniform(0.0, 2.0 * math.pi))


def random_euler(rng=RNG) -> tuple:
    return (rng.uniform(0.0, 2.0 * math.pi), math.acos(rng.uniform(-1.0, 1.0)),
            rng.uniform(0.0, 2.0 * math.pi))


def zyz_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SO(3) matrix Rz(alpha) Ry(beta) Rz(gamma): scipy's intrinsic ZYZ."""
    return Rotation.from_euler("ZYZ", [alpha, beta, gamma]).as_matrix()


@pytest.mark.parametrize("twice_j", [1, 2, 3, 8, 17])
def test_euler_rotation_moves_coherent_state_by_zyz_matrix(twice_j):
    # the zyz convention: the triple (alpha, beta, gamma) acts on spin states
    # as e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz} and on directions as
    # Rz(alpha) Ry(beta) Rz(gamma)
    rng = np.random.default_rng(40 + twice_j)
    j = SpinJ(twice_j)
    for _ in range(20):
        d, euler = random_direction(rng), random_euler(rng)
        rotated = rotation_oracle(j, *euler) @ coherent(j, [d])[0]
        moved = Direction.from_vector(zyz_matrix(*euler) @ unit_vector(d))
        expected = coherent(j, [moved])[0]
        phase = np.vdot(expected, rotated)
        np.testing.assert_allclose(rotated, phase / abs(phase) * expected, atol=1e-13)


def test_coherent_state_along_z():
    j = SpinJ(5)
    s = coherent_states(j, [0.0], [0.0])[0]
    expected = np.zeros(j.dim, dtype=complex)
    expected[0] = 1.0
    np.testing.assert_allclose(s, expected, atol=1e-15)


def test_coherent_state_spin_half_formula():
    theta, phi = 1.2, 4.0
    s = coherent_states(SpinJ(1), [theta], [phi])[0]
    np.testing.assert_allclose(
        s,
        [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)],
        atol=1e-14,
    )


def test_coherent_state_highest_weight_eigenvector():
    # random directions, both poles, and azimuths just below 2 pi, in one call per j
    rng = np.random.default_rng(77)
    below = math.nextafter(2.0 * math.pi, 0.0)
    theta = [*np.arccos(rng.uniform(-1.0, 1.0, 40)), 0.0, math.pi, 0.0, math.pi, 1.3]
    phi = [*rng.uniform(0.0, 2.0 * math.pi, 40), 0.7, 2.1, below, below, below]
    sin_t = np.sin(theta)
    n = np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), np.cos(theta)])
    for twice_j in range(1, 13):
        j = SpinJ(twice_j)
        s = coherent_states(j, theta, phi)
        n_j = np.einsum("ka,aij->kij", n, np.array(spin_matrices(j)))
        resid = (n_j @ s[:, :, None])[:, :, 0] - j.j * s
        assert np.max(np.linalg.norm(resid, axis=1)) < 1e-10
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(s[:, 0].imag, 0.0, rtol=0, atol=1e-15)
        assert np.all(s[:, 0].real >= 0.0)


def overlap_sq(j: SpinJ, d1: Direction, d2: Direction) -> float:
    a, b = coherent(j, [d1, d2])
    return abs(np.vdot(a, b)) ** 2


def test_overlap_trivial_cases():
    d = Direction(0.7, 1.1)
    antipode = Direction(math.pi - d.theta, d.phi + math.pi)
    assert overlap_sq(SpinJ(6), d, d) == pytest.approx(1.0, abs=1e-15)
    assert overlap_sq(SpinJ(1), d, antipode) == pytest.approx(0.0, abs=1e-15)


def test_overlap_matches_inner_product():
    # |<n1|n2>|^2 = ((1 + n1.n2)/2)^{2j}
    rng = np.random.default_rng(5)
    for twice_j in range(1, 21):
        j = SpinJ(twice_j)
        d1, d2 = random_direction(rng), random_direction(rng)
        closed = (0.5 * (1.0 + unit_vector(d1) @ unit_vector(d2))) ** twice_j
        assert overlap_sq(j, d1, d2) == pytest.approx(closed, abs=1e-10)


def test_overlap_rotation_invariant_and_symmetric():
    rng = np.random.default_rng(6)
    j = SpinJ(7)
    for _ in range(25):
        d1, d2 = random_direction(rng), random_direction(rng)
        rot = zyz_matrix(*random_euler(rng))
        r1 = Direction.from_vector(rot @ unit_vector(d1))
        r2 = Direction.from_vector(rot @ unit_vector(d2))
        base = overlap_sq(j, d1, d2)
        assert overlap_sq(j, r1, r2) == pytest.approx(base, abs=1e-10)
        assert overlap_sq(j, d2, d1) == pytest.approx(base, abs=1e-12)


def test_spin_operator_algebra():
    # the test oracle's J matrices obey [Jx, Jy] = i Jz and J^2 = j(j+1)
    j = SpinJ(4)
    jx, jy, jz = spin_matrices(j)
    np.testing.assert_allclose(jx @ jy - jy @ jx, 1j * jz, atol=1e-12)
    jj = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(jj, j.j * (j.j + 1) * np.eye(j.dim), atol=1e-12)
