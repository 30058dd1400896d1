"""Single-multiplet angular momentum machinery.

The Wigner small-d matrix, spin-j rotation operators, spin operator matrices
and spin coherent states. Conventions used throughout:

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


def jx_matrix(j: SpinJ) -> np.ndarray:
    jp = jplus_matrix(j)
    return 0.5 * (jp + jp.conj().T)


def jy_matrix(j: SpinJ) -> np.ndarray:
    jp = jplus_matrix(j)
    return -0.5j * (jp - jp.conj().T)


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
