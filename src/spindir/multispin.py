"""Total angular momentum on registers of spin-1/2 systems.

Collective spin operators and projectors onto the total-spin-j eigenspaces of
N qubits; qubit k is bit k of the amplitude index. Dense matrices throughout;
intended for small registers (N <= 12 or so).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .spins import PAULI
from .states import SpinJ


def op_on_qubit(op: np.ndarray, k: int, num_qubits: int) -> np.ndarray:
    """Embed a single-qubit operator on qubit k of an N-qubit register."""
    if not 0 <= k < num_qubits:
        raise ValueError(f"qubit index {k} out of range")
    # qubit k is bit k of the index; numpy's kron stacks most-significant first
    return np.kron(np.eye(2 ** (num_qubits - 1 - k)), np.kron(op, np.eye(2**k)))


def total_spin_ops(num_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collective (Jx, Jy, Jz) = sum_k sigma_k/2 on the register."""
    dim = 2**num_qubits
    ops = [np.zeros((dim, dim), dtype=complex) for _ in range(3)]
    for k in range(num_qubits):
        for a in range(3):
            ops[a] += 0.5 * op_on_qubit(PAULI[a], k, num_qubits)
    return tuple(ops)


@lru_cache(maxsize=4)
def j_squared(num_qubits: int) -> np.ndarray:
    """Total J^2 operator.  Cached and read-only."""
    jx, jy, jz = total_spin_ops(num_qubits)
    j2 = jx @ jx + jy @ jy + jz @ jz
    j2.flags.writeable = False
    return j2


def attainable_spins(num_qubits: int) -> list[SpinJ]:
    """Total-spin values of N qubits, descending: N/2, N/2 - 1, ..., 1/2 or 0."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    return [SpinJ(t) for t in range(num_qubits, -1, -2)]


def total_j_projector(num_qubits: int, j: SpinJ) -> np.ndarray:
    """Projector onto the total-spin-j eigenspace of J^2.

    Built as the Lagrange polynomial in J^2 that is 1 at j(j+1) and 0 at every
    other attainable k(k+1).
    """
    spins = attainable_spins(num_qubits)
    if j not in spins:
        raise ValueError(f"j={j.j} is not attainable for {num_qubits} qubits")
    j2 = j_squared(num_qubits)
    eye = np.eye(2**num_qubits)
    target = j.j * (j.j + 1)
    proj = eye.astype(complex)
    for k in spins:
        if k == j:
            continue
        other = k.j * (k.j + 1)
        proj = proj @ (j2 - other * eye) / (target - other)
    return proj

