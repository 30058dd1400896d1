"""Test oracles and fixture states, as plain complex arrays: a Direction's
unit vector, the D3 signal directions as polar angles, a Frame's axes as a
rotation matrix, the Born rule, an orbit POVM, and a bit-for-bit array
comparison.

Spin-j amplitudes are ordered m = j down to -j. On an N-qubit register the
leftmost symbol of a ket string like "001" is qubit 0, and qubit k is bit k of
the amplitude index, as in spindir.multispin.
"""

import math
from functools import reduce

import numpy as np
from scipy.linalg import expm

from spindir.geometry import Direction
from spindir.povm import Povm
from spindir.spins import coherent_states

# the six D3 signal directions as an angle list, upper cone (theta = 45 deg)
# then lower (135 deg), each at azimuths 0, +120, -120 deg
D3_ANGLE_DIRECTIONS = tuple(
    Direction(theta=theta, phi=phi)
    for theta in (math.pi / 4.0, 3.0 * math.pi / 4.0)
    for phi in (0.0, 2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0)
)


def unit_vector(d: Direction) -> np.ndarray:
    """The unit 3-vector of a Direction, from its polar angles."""
    st = math.sin(d.theta)
    return np.array([st * math.cos(d.phi), st * math.sin(d.phi), math.cos(d.theta)])


def coherent(j, directions) -> np.ndarray:
    """coherent_states along a list of Directions, one row each."""
    return coherent_states(j, [d.theta for d in directions], [d.phi for d in directions])


def spin_matrices(j) -> tuple:
    """(Jx, Jy, Jz) of one spin-j multiplet, built from J+ entry by entry."""
    m = (j.twice_j - 2 * np.arange(j.dim)) / 2.0
    # J+|j, m> = sqrt(j(j+1) - m(m+1)) |j, m+1>, one row up in descending order
    jp = np.diag(np.sqrt(j.j * (j.j + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    return 0.5 * (jp + jp.conj().T), -0.5j * (jp - jp.conj().T), np.diag(m).astype(complex)


def rotation_oracle(j, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz} by matrix exponentials."""
    _, jy, jz = spin_matrices(j)
    return expm(-1j * alpha * jz) @ expm(-1j * beta * jy) @ expm(-1j * gamma * jz)


def state_from_terms(num_qubits: int, terms: dict) -> np.ndarray:
    """Superposition from {bit string: amplitude} terms (not normalized)."""
    amps = np.zeros(2**num_qubits, dtype=complex)
    for bits, coeff in terms.items():
        amps[sum(int(b) << k for k, b in enumerate(bits))] += coeff
    return amps


def basis_state(bits: str) -> np.ndarray:
    """Computational basis ket from a bit string, e.g. basis_state("001")."""
    return state_from_terms(len(bits), {bits: 1.0})


def assert_same_bits(got: np.ndarray, want: np.ndarray):
    """array_equal, and the sign of every zero."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def born_probabilities(povm: Povm, states) -> np.ndarray:
    """<psi_i|E_k|psi_i> of an (M, d) stack of states, as an (M, K) array,
    summed term by term."""
    psi = np.asarray(states)
    return np.einsum("ma,kab,mb->mk", psi.conj(), povm.operators, psi).real


def orbit_povm(unitaries, fiducial) -> Povm:
    """E_g = U(g)|f><U(g)f|, outcome g, over a list of unitaries; the
    fiducial's norm is the caller's, so the result may be incomplete."""
    vecs = np.asarray(unitaries) @ np.asarray(fiducial)
    return Povm(np.einsum("ka,kb->kab", vecs, vecs.conj()))


def axes_matrix(frame) -> np.ndarray:
    """Columns (x, y, z) of a Frame as an orthogonal matrix ((n, 3, 3) for a stack)."""
    return np.stack([frame.x_axis, frame.y_axis, frame.z_axis], axis=-1)


def product_state(factors) -> np.ndarray:
    """Tensor product of single-qubit amplitude pairs, factor k on qubit k."""
    # qubit k is bit k of the index, so numpy's MSB-first kron runs backwards
    return reduce(np.kron, [np.asarray(f, dtype=complex) for f in reversed(factors)])
