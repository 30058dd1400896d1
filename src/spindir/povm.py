"""POVMs: validation, rank-one elements, the sampled direction measurement.

A POVM is a read-only stack of K positive d x d operators that sum to the
identity; outcome k is operator k. One covariant family is built here: the
quadrature discretization of the continuous direction measurement on a
single spin-j multiplet.  The D3 orbit POVM is built in protocols from the
same rank-one `projectors`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SphereQuadrature
from .spins import coherent_states
from .states import SpinJ

POVM_TOL = 1e-10  # validate_povm's bound on completeness, positivity and hermiticity


@dataclass(frozen=True, eq=False)
class Povm:
    """POVM as a read-only complex (K, d, d) array of operators; outcome k
    is operator k."""

    operators: np.ndarray = field(repr=False)

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)  # a copy, so no caller keeps write access
        if ops.ndim != 3 or ops.shape[0] == 0 or ops.shape[1] != ops.shape[2]:
            raise ValueError("POVM operators must be a non-empty (K, d, d) stack")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[1]


@dataclass(frozen=True)
class PovmValidation:
    max_completeness_dev: float
    min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return self.max_completeness_dev <= POVM_TOL and self.min_eigenvalue >= -POVM_TOL


def validate_povm(povm: Povm) -> PovmValidation:
    """Check completeness (max |sum E - 1| entry) and positivity (global min
    eigenvalue over elements, after symmetrizing away roundoff). If an element
    is not Hermitian, min_eigenvalue is minus the first such deviation."""
    ops = povm.operators
    dev = float(np.max(np.abs(ops.sum(axis=0) - np.eye(povm.dim))))
    adjoints = ops.conj().transpose(0, 2, 1)
    herm_devs = np.max(np.abs(ops - adjoints), axis=(1, 2))
    non_hermitian = np.flatnonzero(herm_devs > POVM_TOL)
    if non_hermitian.size:
        return PovmValidation(dev, -float(herm_devs[non_hermitian[0]]))
    min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (ops + adjoints))[:, 0]))
    return PovmValidation(max_completeness_dev=dev, min_eigenvalue=min_eig)


def projectors(vecs: np.ndarray) -> np.ndarray:
    """Stacked outer products |v_k><v_k| of the rows of vecs."""
    return vecs[:, :, None] * vecs.conj()[:, None, :]


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
    nodes = quad.nodes()
    vecs = coherent_states(j, [n.theta for n in nodes], [n.phi for n in nodes])
    weights = quad.weights * ((j.twice_j + 1) / (4.0 * math.pi))
    return Povm(weights[:, None, None] * projectors(vecs))

