"""Single-multiplet angular momentum machinery.

Wigner small-d functions, spin-j rotation operators, spin coherent states, and
the SU(2) lift of classical rotations. Conventions used throughout:

* |j, m> amplitude vectors are ordered m = j, j-1, ..., -j (see states.SpinBasis).
* rotate_spin_state applies D(alpha, beta, gamma) =
  exp(-i alpha Jz) exp(-i beta Jy) exp(-i gamma Jz), the standard z-y-z active
  rotation, so rotating |j, j> by (phi, theta, 0) yields the coherent state
  pointing along (theta, phi) up to a global phase.
* coherent_state fixes the m = j amplitude real and non-negative.
"""

from __future__ import annotations

import math
from math import lgamma

import numpy as np

from .geometry import Direction
from .states import SpinBasis, SpinJ, StateVector


def _check_m(j: SpinJ, m: float) -> int:
    twice_m = round(2 * m)
    if abs(2 * m - twice_m) > 1e-9:
        raise ValueError(f"m must be integer or half-integer, got {m}")
    twice_m = int(twice_m)
    if (twice_m - j.twice_j) % 2 != 0:
        raise ValueError(f"m={m} has the wrong integrality for j={j.j}")
    if abs(twice_m) > j.twice_j:
        raise ValueError(f"|m|={abs(m)} exceeds j={j.j}")
    return twice_m


_JY_EIG_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def wigner_d_matrix(j: SpinJ, beta: float) -> np.ndarray:
    """Full d^j(beta) matrix, rows/columns ordered m = j down to -j.

    Computed as V exp(-i beta m) V^H from the eigensystem of Jy, cached per j
    (exact diagonalisation, Feng et al., Phys. Rev. E 92, 043307 (2015)); it
    is backward stable at every j and angle, poles included. A three-term
    recurrence in m was tried first, seeded from the closed-form m2 = -j edge,
    but the physical row is the recessive solution of that recurrence and
    forward recursion loses all digits past 2j ~ 20.
    """
    tj = j.twice_j
    if tj not in _JY_EIG_CACHE:
        _JY_EIG_CACHE[tj] = np.linalg.eigh(jy_matrix(j))
    vals, vecs = _JY_EIG_CACHE[tj]
    return ((vecs * np.exp(-1j * beta * vals)) @ vecs.conj().T).real


def wigner_small_d(j: SpinJ, m1: float, m2: float, beta: float) -> float:
    """Wigner d^j_{m1 m2}(beta) = <j m1| exp(-i beta Jy) |j m2>."""
    tm1 = _check_m(j, m1)
    tm2 = _check_m(j, m2)
    tj = j.twice_j
    return float(wigner_d_matrix(j, beta)[(tj - tm1) // 2, (tj - tm2) // 2])


def rotate_spin_state(
    j: SpinJ, state: StateVector, alpha: float, beta: float, gamma: float
) -> StateVector:
    """Apply D^j(alpha, beta, gamma) = e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz}."""
    if not isinstance(state.basis, SpinBasis) or state.basis.spin != j:
        raise ValueError(f"state basis does not match j={j.j}")
    m = j.m_values()
    d = wigner_d_matrix(j, beta)
    amps = np.exp(-1j * alpha * m) * (d @ (np.exp(-1j * gamma * m) * state.amplitudes))
    return StateVector(state.basis, amps)


def coherent_state(j: SpinJ, direction: Direction) -> StateVector:
    """Spin coherent state |j; n> with (n.J)|psi> = j|psi>.

    Amplitudes <j,m|j;n> = sqrt(C(2j, j+m)) cos^{j+m}(theta/2) sin^{j-m}(theta/2)
    e^{i(j-m)phi}; the m = j component is real and non-negative.
    """
    tj = j.twice_j
    ch = math.cos(direction.theta / 2)
    sh = math.sin(direction.theta / 2)
    mag = np.zeros(j.dim)
    for k in range(j.dim):  # m = j - k
        e_c, e_s = tj - k, k
        if (ch == 0.0 and e_c > 0) or (sh == 0.0 and e_s > 0):
            continue
        lm = 0.5 * (lgamma(tj + 1) - lgamma(k + 1) - lgamma(tj - k + 1))
        if e_c:
            lm += e_c * math.log(ch)
        if e_s:
            lm += e_s * math.log(sh)
        mag[k] = math.exp(lm)
    amps = mag * np.exp(1j * direction.phi * np.arange(j.dim))
    return StateVector(SpinBasis(j), amps)


def coherent_overlap_sq(j: SpinJ, d1: Direction, d2: Direction) -> float:
    """|<j; n1 | j; n2>|^2 = cos^{4j}(chi/2) with chi the angle between n1 and n2."""
    u = 0.5 * (1.0 + d1.cos_angle_to(d2))  # cos^2(chi/2)
    if j.twice_j == 0:
        return 1.0
    return float(u**j.twice_j)


# spin operator matrices, m descending to match SpinBasis


def jz_matrix(j: SpinJ) -> np.ndarray:
    return np.diag(j.m_values().astype(complex))


def jplus_matrix(j: SpinJ) -> np.ndarray:
    m = j.m_values()
    jj1 = j.j * (j.j + 1)
    op = np.zeros((j.dim, j.dim), dtype=complex)
    for i in range(1, j.dim):
        # J+|j, m_i> = a |j, m_i + 1>, landing one row up in descending order
        op[i - 1, i] = math.sqrt(jj1 - m[i] * (m[i] + 1))
    return op


def jminus_matrix(j: SpinJ) -> np.ndarray:
    return jplus_matrix(j).conj().T


def jx_matrix(j: SpinJ) -> np.ndarray:
    jp = jplus_matrix(j)
    return 0.5 * (jp + jp.conj().T)


def jy_matrix(j: SpinJ) -> np.ndarray:
    jp = jplus_matrix(j)
    return -0.5j * (jp - jp.conj().T)


def n_dot_j(j: SpinJ, direction: Direction) -> np.ndarray:
    n = direction.unit_vector
    return n[0] * jx_matrix(j) + n[1] * jy_matrix(j) + n[2] * jz_matrix(j)


# classical rotations and their SU(2) lift


def axis_angle_from_matrix(rot) -> tuple[np.ndarray, float]:
    """Canonical (axis, angle) of a rotation matrix: angle in [0, pi], and at
    angle pi the axis sign is pinned by its first nonzero component."""
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3) or np.max(np.abs(rot @ rot.T - np.eye(3))) > 1e-9:
        raise ValueError("expected an orthogonal 3x3 matrix")
    if np.linalg.det(rot) < 0:
        raise ValueError("expected a proper rotation (det +1)")
    cos_angle = min(1.0, max(-1.0, (np.trace(rot) - 1.0) / 2.0))
    angle = math.acos(cos_angle)
    if angle < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    if math.pi - angle < 1e-6:
        # R = 2 n n^T - 1; recover |n| from the diagonal, signs from off-diagonals
        nn = np.clip((np.diag(rot) + 1.0) / 2.0, 0.0, None)
        k = int(np.argmax(nn))
        axis = np.zeros(3)
        axis[k] = math.sqrt(nn[k])
        for other in range(3):
            if other != k:
                axis[other] = (rot[k, other] + rot[other, k]) / (4.0 * axis[k])
        first = np.nonzero(np.abs(axis) > 1e-12)[0][0]
        if axis[first] < 0:
            axis = -axis
        return axis / np.linalg.norm(axis), math.pi
    axis = np.array(
        [rot[2, 1] - rot[1, 2], rot[0, 2] - rot[2, 0], rot[1, 0] - rot[0, 1]]
    ) / (2.0 * math.sin(angle))
    return axis / np.linalg.norm(axis), angle


def rotation_about(axis, angle: float) -> np.ndarray:
    """Active rotation matrix about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=float)
    n = axis / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]])
    return c * np.eye(3) + s * cross + (1 - c) * np.outer(n, n)


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def su2_from_rotation(rot) -> np.ndarray:
    """SU(2) element exp(-i angle n.sigma/2) for a rotation matrix, with the
    canonical axis-angle pinning so the lift (and its sign) is deterministic."""
    axis, angle = axis_angle_from_matrix(rot)
    ndots = axis[0] * PAULI[0] + axis[1] * PAULI[1] + axis[2] * PAULI[2]
    return math.cos(angle / 2) * np.eye(2, dtype=complex) - 1j * math.sin(angle / 2) * ndots
