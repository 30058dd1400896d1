"""Finite rotation groups and their representations.

Covers the dihedral group D3 as six unit quaternions, its lifts to N-qubit
product spaces, and the invariant blocks of the one- and two-qubit lifts in
closed form; the six signal directions are the orbit of direction 0.  The
rotation by angle a about unit axis n is the quaternion
(w, x, y, z) = (cos a/2, sin a/2 n), and its SU(2) lift
w 1 - i (x sx + y sy + z sz) takes the quaternion's sign as its projective
phase.  States, fiducials included, are plain complex amplitude arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .geometry import quaternion_matrices

MATCH_TOL = 1e-9
# 4 ulps of 1, the scale of the dot products of unit directions
FACE_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of rotations, one unit quaternion row (w, x, y, z) per
    element, with the read-only (n, 3, 3) rotations and (n, 2, 2) SU(2)
    lifts derived on construction.  Refused: a row whose norm is off 1 by
    more than MATCH_TOL, an element 0 that is not the identity, and a set in
    which a product of two rotations does not match exactly one of them
    within MATCH_TOL.  The rotations are then distinct and closed under
    products, hence a group: inverses are powers, and products associate.
    """

    element_rotations: np.ndarray
    rotations: np.ndarray = field(init=False, repr=False)
    su2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        q = np.array(self.element_rotations, dtype=float)
        off = np.abs(np.linalg.norm(q, axis=-1) - 1.0)
        if q.ndim != 2 or q.shape[1] != 4 or np.any(off > MATCH_TOL):
            raise ValueError("elements must be unit quaternion rows (w, x, y, z)")
        m = quaternion_matrices(q)
        w, x, y, z = q.T  # the lift w 1 - i (x sx + y sy + z sz), row-major
        su2 = np.stack([w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z], axis=-1)
        su2 = su2.reshape(-1, 2, 2)
        prods = m[:, None] @ m[None, :]
        # hits[a, b, c]: product a b matches rotation c
        hits = np.max(np.abs(prods[:, :, None] - m), axis=(-2, -1)) < MATCH_TOL
        if not np.all(np.count_nonzero(hits, axis=-1) == 1):
            raise ValueError("rotation set is not closed under products")
        if np.max(np.abs(m[0] - np.eye(3))) >= MATCH_TOL:
            raise ValueError("element 0 is not the identity")
        for name, value in (("element_rotations", q), ("rotations", m), ("su2", su2)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.element_rotations)


@lru_cache(maxsize=1)
def dihedral_d3() -> FiniteGroup:
    """The six-element dihedral group in direction order, built once per
    process: element k sends direction 0 of `d3_directions` to direction k.
    Elements: identity, +120 and +240 degree turns about z, half turns about
    the in-plane axes at azimuths 0, -120 and +120 degrees."""
    h = math.sqrt(3.0) / 2.0
    return FiniteGroup([[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, h], [-0.5, 0.0, 0.0, h],
                        [0.0, -1.0, 0.0, 0.0], [0.0, 0.5, h, 0.0], [0.0, 0.5, -h, 0.0]])


def d3_directions() -> np.ndarray:
    """The six signal directions as read-only (6, 3) unit rows: row k is
    element k applied to direction 0, at polar angle 45 degrees in the xz
    plane (the upper cone at azimuths 0, +120, -120 degrees, then the lower)."""
    d0 = np.array([math.sin(math.pi / 4.0), 0.0, math.cos(math.pi / 4.0)])
    units = dihedral_d3().rotations @ d0
    units.flags.writeable = False
    return units


@lru_cache(maxsize=1)
def d3_local_frame() -> np.ndarray:
    """Direction 0's frame for the nearest-direction decode: the read-only
    (6, 3) coefficients of each direction along (d0, t1, t2).  Direction 0
    lies in the xz plane, so its tangent pair is t1 = e_y and
    t2 = d0 x e_y = (-d0_z, 0, d0_x).

    Group element t sends direction 0 to t and permutes the six, so a tilt
    of direction t in the tangent pair it carries from direction 0 is nearest
    t exactly when the same tilt of direction 0 is nearest direction 0:
    every decision, and every decoding cell, is read in this one frame.

    Three bisector faces bound direction 0's cell: d1's and d2's, mirrors
    of each other in t1, at cos 1/4, and d3's at cos 0 (d3 = -t2).  The
    other two are their sums, d0 - d4 = (d0 - d1) + (d0 - d3) and
    d0 - d5 = (d0 - d2) + (d0 - d3), so they never decide.  The decode tests
    only the three, and a table on which this reduction does not hold to
    FACE_TOL is refused (RuntimeError)."""
    units = d3_directions()
    d0 = units[0]
    coefficients = units @ np.array([d0, [0.0, 1.0, 0.0], [-d0[2], 0.0, d0[0]]]).T
    c = coefficients
    pairs = (
        (c[0], [1.0, 0.0, 0.0]),
        (c[3], [0.0, 0.0, -1.0]),
        (c[2], c[1] * [1.0, -1.0, 1.0]),
        (c[0] - c[4], (c[0] - c[1]) + (c[0] - c[3])),
        (c[0] - c[5], (c[0] - c[2]) + (c[0] - c[3])),
    )
    if any(np.max(np.abs(got - want)) > FACE_TOL for got, want in pairs):
        raise RuntimeError("direction 0's cell is not bounded by the faces of d1, d2 and d3")
    coefficients.flags.writeable = False
    return coefficients


def lift_to_qubits(group: FiniteGroup, num_spins: int) -> tuple:
    """Per-element unitaries u(g)^{tensor num_spins} on the 2^N product
    space, the first factor most significant (numpy's kron)."""
    return tuple(reduce(np.kron, [u] * num_spins) for u in group.su2)


def d3_qubit_blocks(num_spins: int) -> tuple:
    """Orthonormal bases of the invariant blocks of D3's spin-1/2 lift on one
    or two qubits, as read-only (2^N, d) complex arrays; qubit k is bit k of
    the basis index.

    One qubit is a single (projective) two-dimensional block, whose first
    column is the spin-1/2 coherent state along direction 0,
    (cos pi/8, sin pi/8), and second (-sin pi/8, cos pi/8).  Two qubits split
    into the singlet (e_1 - e_2)/sqrt2 (A1), the triplet's m = 0 state
    (e_1 + e_2)/sqrt2 (A2), which the in-plane flips negate, and
    span{|00>, |11>} (E), which the z turns rotate by opposite phases and the
    flips swap.  Each block's first column is the direction the covariant
    fiducial weights.
    """
    if num_spins == 1:
        c, s = math.cos(math.pi / 8.0), math.sin(math.pi / 8.0)
        blocks = (np.array([[c, -s], [s, c]], dtype=complex),)
    elif num_spins == 2:
        r = 1.0 / math.sqrt(2.0)
        basis = np.array([[0.0, 0.0, 1.0, 0.0], [r, r, 0.0, 0.0],
                          [-r, r, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], dtype=complex)
        blocks = (basis[:, :1], basis[:, 1:2], basis[:, 2:])
    else:
        raise ValueError("the D3 qubit blocks are written out for 1 or 2 qubits")
    for b in blocks:
        b.flags.writeable = False
    return blocks
