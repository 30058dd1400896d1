"""State vectors over labeled finite bases.

Two basis families are used throughout: the computational basis of a register of
spin-1/2 systems (``ProductBasis``) and the |j, m> basis of a single spin-j
multiplet (``SpinBasis``, ordered m = j down to -j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


def is_integer(value) -> bool:
    """A Python or numpy integer; bool is refused, though Python counts it."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SpinJ:
    """Angular momentum quantum number, stored as 2j so half-integers stay exact."""

    twice_j: int

    def __post_init__(self):
        if not is_integer(self.twice_j) or self.twice_j < 0:
            raise ValueError(f"2j must be a non-negative integer, got {self.twice_j!r}")

    @classmethod
    def from_j(cls, j: float) -> "SpinJ":
        twice = round(2 * j)
        if abs(2 * j - twice) > 1e-9:
            raise ValueError(f"j must be integer or half-integer, got {j}")
        return cls(int(twice))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    @property
    def is_integer(self) -> bool:
        return self.twice_j % 2 == 0

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers m = j, j-1, ..., -j (descending)."""
        return (self.twice_j - 2 * np.arange(self.dim)) / 2.0

    def __repr__(self):
        return f"SpinJ(j={self.twice_j / 2:g})"


@dataclass(frozen=True)
class ProductBasis:
    """Computational basis of ``num_qubits`` spin-1/2 systems.

    Indexing is little-endian: qubit k occupies bit k of the amplitude index
    (index = sum_k b_k 2^k), and the leftmost symbol of a ket string like "001"
    is qubit 0.
    """

    num_qubits: int

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")

    @property
    def dim(self) -> int:
        return 2 ** self.num_qubits

    def index_of(self, bits: str) -> int:
        if len(bits) != self.num_qubits or any(b not in "01" for b in bits):
            raise ValueError(f"expected a {self.num_qubits}-character bit string, got {bits!r}")
        return sum(int(b) << k for k, b in enumerate(bits))

    def bits_of(self, index: int) -> str:
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range for {self.num_qubits} qubits")
        return "".join("1" if (index >> k) & 1 else "0" for k in range(self.num_qubits))


@dataclass(frozen=True)
class SpinBasis:
    """|j, m> basis of one spin-j multiplet, ordered m = j, j-1, ..., -j."""

    spin: SpinJ

    @property
    def dim(self) -> int:
        return self.spin.dim

    def index_of_m(self, m: float) -> int:
        twice_m = round(2 * m)
        if abs(2 * m - twice_m) > 1e-9 or (twice_m - self.spin.twice_j) % 2 != 0:
            raise ValueError(f"m={m} is not a magnetic number for j={self.spin.j}")
        if abs(twice_m) > self.spin.twice_j:
            raise ValueError(f"|m|={abs(m)} exceeds j={self.spin.j}")
        return (self.spin.twice_j - int(twice_m)) // 2


@dataclass(eq=False)
class StateVector:
    """Complex amplitudes over a labeled basis."""

    basis: ProductBasis | SpinBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.dim,):
            raise ValueError(
                f"amplitude shape {amps.shape} does not match basis dimension {self.basis.dim}"
            )
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.basis.dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def inner(self, other: "StateVector") -> complex:
        """<self|other>, conjugating self."""
        if self.basis != other.basis:
            raise ValueError("states live in different bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n < NORM_TOL:
            raise ValueError("cannot normalize a (near-)zero state")
        return StateVector(self.basis, self.amplitudes / n)

    def require_normalized(self, tol: float = 1e-9):
        if abs(self.norm() - 1.0) > tol:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(self.norm() - 1.0):.3e}")


def basis_state(bits: str) -> StateVector:
    """Computational basis ket from a bit string, e.g. basis_state("001")."""
    basis = ProductBasis(len(bits))
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of(bits)] = 1.0
    return StateVector(basis, amps)


def state_from_terms(num_qubits: int, terms: dict[str, complex]) -> StateVector:
    """Superposition from {bit string: amplitude} terms (not normalized)."""
    basis = ProductBasis(num_qubits)
    amps = np.zeros(basis.dim, dtype=complex)
    for bits, coeff in terms.items():
        amps[basis.index_of(bits)] += coeff
    return StateVector(basis, amps)


def product_state(factors) -> StateVector:
    """Tensor product of single-qubit amplitude pairs, factor k acting on qubit k."""
    factors = [np.asarray(f, dtype=complex) for f in factors]
    if not factors or any(f.shape != (2,) for f in factors):
        raise ValueError("need a list of (2,) single-qubit amplitude arrays")
    # qubit k is bit k of the index, so numpy's MSB-first kron runs backwards
    full = factors[-1]
    for f in factors[-2::-1]:
        full = np.kron(full, f)
    return StateVector(ProductBasis(len(factors)), full)


def spin_basis_state(j: SpinJ, m: float) -> StateVector:
    """|j, m> as a StateVector over SpinBasis(j)."""
    basis = SpinBasis(j)
    amps = np.zeros(basis.dim, dtype=complex)
    amps[basis.index_of_m(m)] = 1.0
    return StateVector(basis, amps)
