"""POVMs: validation, Born-rule probabilities, covariant constructions.

A POVM is a list of labeled positive operators that sum to the identity. Two
covariant families are built here: the finite orbit of a fiducial projector
under a unitary (group) representation, and the quadrature discretization of the
continuous direction measurement on a single spin-j multiplet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SphereQuadrature
from .spins import coherent_state
from .states import SpinJ, StateVector

NEGATIVE_PROB_TOL = 1e-12


@dataclass(frozen=True)
class PovmElement:
    operator: np.ndarray = field(repr=False)
    label: object

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("POVM element must be a square matrix")
        object.__setattr__(self, "operator", op)

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


@dataclass(frozen=True)
class Povm:
    """Labeled POVM. kind is 'finite' (discrete outcome set), 'quadrature'
    (nodes of a sphere grid), or 'coarse' (grouped outcomes)."""

    elements: tuple
    kind: str = "finite"

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))
        dim = self.elements[0].dim
        if any(e.dim != dim for e in self.elements):
            raise ValueError("POVM elements have mismatched dimensions")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def labels(self) -> list:
        return [e.label for e in self.elements]

    def element_sum(self) -> np.ndarray:
        return np.sum([e.operator for e in self.elements], axis=0)


@dataclass(frozen=True)
class PovmValidation:
    max_completeness_dev: float
    min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_completeness_dev <= self.tol and self.min_eigenvalue >= -self.tol


def validate_povm(povm: Povm, tol: float = 1e-10) -> PovmValidation:
    """Check completeness (max |sum E - 1| entry) and positivity (global min
    eigenvalue over elements, after symmetrizing away roundoff)."""
    dev = float(np.max(np.abs(povm.element_sum() - np.eye(povm.dim))))
    min_eig = math.inf
    for e in povm.elements:
        herm_dev = float(np.max(np.abs(e.operator - e.operator.conj().T)))
        if herm_dev > tol:
            return PovmValidation(max_completeness_dev=dev, min_eigenvalue=-herm_dev, tol=tol)
        sym = 0.5 * (e.operator + e.operator.conj().T)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(sym)[0]))
    return PovmValidation(max_completeness_dev=dev, min_eigenvalue=min_eig, tol=tol)


def outcome_probability(element: PovmElement, state: StateVector) -> float:
    """Born probability <psi|E|psi>, clamped into [0, 1] after a small-negative
    tolerance check; negatives beyond the tolerance raise."""
    if element.dim != state.dim:
        raise ValueError("element and state dimensions differ")
    p = float(np.real(np.vdot(state.amplitudes, element.operator @ state.amplitudes)))
    if p < -NEGATIVE_PROB_TOL:
        raise ValueError(f"negative probability {p:.3e} from a non-positive element")
    return min(1.0, max(0.0, p))


def state_probabilities(povm: Povm, state: StateVector) -> np.ndarray:
    return np.array([outcome_probability(e, state) for e in povm.elements])


def covariant_povm_finite(unitaries, fiducial: StateVector, labels=None) -> Povm:
    """Orbit POVM E_g = U(g) |B><B| U(g)^dagger over a finite set of unitaries.

    The fiducial's normalization is the caller's responsibility (a Schur-weighted
    fiducial makes the orbit complete); completeness is checked by validate_povm,
    not here.
    """
    unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
    if labels is None:
        labels = list(range(len(unitaries)))
    if len(labels) != len(unitaries):
        raise ValueError("labels and unitaries differ in length")
    dim = fiducial.dim
    elements = []
    for u, label in zip(unitaries, labels):
        if u.shape != (dim, dim):
            raise ValueError("unitary and fiducial dimensions differ")
        vec = u @ fiducial.amplitudes
        elements.append(PovmElement(operator=np.outer(vec, vec.conj()), label=label))
    return Povm(elements=tuple(elements), kind="finite")


def covariant_direction_povm(j: SpinJ, quad: SphereQuadrature) -> Povm:
    """Discretized covariant direction measurement on one spin-j multiplet:
    E_k = w_k (2j+1)/(4 pi) |j; n_k><j; n_k| over the quadrature nodes.

    Requires the grid to integrate degree-2j spherical polynomials exactly
    (2*n_theta - 1 >= 2j and n_phi - 1 >= 2j), which makes the element sum the
    identity to machine precision.
    """
    if quad.max_exact_degree < j.twice_j:
        raise ValueError(
            f"quadrature exact to degree {quad.max_exact_degree} cannot resolve 2j={j.twice_j}; "
            f"need 2*n_theta - 1 and n_phi - 1 both >= {j.twice_j}"
        )
    return _direction_povm_nodes(j, quad)


def _direction_povm_nodes(j: SpinJ, quad: SphereQuadrature) -> Povm:
    # split out so diagnostics can build a deliberately under-resolved POVM
    scale = (j.twice_j + 1) / (4.0 * math.pi)
    elements = []
    for k, node in enumerate(quad.nodes()):
        vec = coherent_state(j, node).amplitudes
        op = (quad.weights[k] * scale) * np.outer(vec, vec.conj())
        elements.append(PovmElement(operator=op, label=k))
    return Povm(elements=tuple(elements), kind="quadrature")


def coarse_grain_povm(povm: Povm, decode) -> Povm:
    """Group outcomes under a label-to-symbol map (dict or callable).

    Probabilities commute with grouping exactly: the element of a symbol is the
    sum of the elements mapped to it. Every label must be covered.
    """
    if callable(decode):
        mapping = {e.label: decode(e.label) for e in povm.elements}
    else:
        mapping = dict(decode)
    sums: dict = {}
    for e in povm.elements:
        if e.label not in mapping:
            raise ValueError(f"decode map does not cover label {e.label!r}")
        symbol = mapping[e.label]
        if symbol in sums:
            sums[symbol] = sums[symbol] + e.operator
        else:
            sums[symbol] = e.operator.copy()
    elements = [PovmElement(operator=op, label=symbol) for symbol, op in sums.items()]
    return Povm(elements=tuple(elements), kind="coarse")
