"""Finite rotation groups and their representations.

Covers the dihedral group D3 realized as concrete SO(3) rotations, its
character table, its lifts to N-qubit product spaces, and the invariant
blocks of the one- and two-qubit lifts in closed form.

Element rotations are stored as zyz Euler angles (alpha, beta, gamma) in
[0, 2pi), the active rotation e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz};
the SU(2) lift is composed directly from those angles, which pins the
projective phase deterministically. States, fiducials included, are plain
complex amplitude arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import TWO_PI, Direction
from .multispin import tensor_power

MATCH_TOL = 1e-9


def euler_zyz_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """SO(3) matrix Rz(alpha) Ry(beta) Rz(gamma)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    rz_a = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry_b = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz_g = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return rz_a @ ry_b @ rz_g


def su2_from_euler(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Spin-1/2 unitary e^{-i alpha Jz} e^{-i beta Jy} e^{-i gamma Jz}."""
    c, s = math.cos(beta / 2.0), math.sin(beta / 2.0)
    uy = np.array([[c, -s], [s, c]], dtype=complex)
    pa = np.exp(-0.5j * alpha * np.array([1.0, -1.0]))
    pg = np.exp(-0.5j * gamma * np.array([1.0, -1.0]))
    return (pa[:, None] * uy) * pg[None, :]


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of rotations: multiplication table plus concrete geometry.

    Identity is element 0. classes is a partition of element indices, identity
    class first, then ascending by size. element_rotations holds one zyz Euler
    triple per element.
    """

    order: int
    mult_table: np.ndarray = field(repr=False)
    inverse: tuple
    classes: tuple
    element_rotations: tuple

    @classmethod
    def from_table(cls, table, rotations) -> FiniteGroup:
        """Group from its table, deriving inverses and classes (not validated)."""
        table = np.asarray(table, dtype=int)
        return cls(order=table.shape[0], mult_table=table, inverse=_inverses(table),
                   classes=tuple(conjugacy_classes(table)),
                   element_rotations=rotations)

    def rotation_matrix(self, i: int) -> np.ndarray:
        return euler_zyz_matrix(*self.element_rotations[i])

    def su2_matrix(self, i: int) -> np.ndarray:
        return su2_from_euler(*self.element_rotations[i])

    def validate(self) -> None:
        t = np.asarray(self.mult_table)
        n = self.order
        if t.shape != (n, n):
            raise ValueError("multiplication table shape mismatch")
        if not (np.all(t[0] == np.arange(n)) and np.all(t[:, 0] == np.arange(n))):
            raise ValueError("element 0 is not the identity")
        for g in range(n):
            if t[g, self.inverse[g]] != 0 or t[self.inverse[g], g] != 0:
                raise ValueError(f"inverse of element {g} is wrong")
        # t[t][a, b, c] = (ab)c and t[:, t][a, b, c] = a(bc)
        if not np.array_equal(t[t], t[:, t]):
            raise ValueError("multiplication table is not associative")
        if sorted(i for cl in self.classes for i in cl) != list(range(n)):
            raise ValueError("classes do not partition the elements")
        expected = conjugacy_classes(t)
        got = tuple(tuple(sorted(cl)) for cl in self.classes)
        if tuple(sorted(got)) != tuple(sorted(expected)):
            raise ValueError("classes inconsistent with conjugation")
        m = np.array([self.rotation_matrix(g) for g in range(n)])
        if np.max(np.abs(m[:, None] @ m[None, :] - m[t])) > MATCH_TOL:
            raise ValueError("rotations do not follow the table")


def _inverses(table: np.ndarray) -> tuple:
    """Each element's inverse: the column holding the identity in its row."""
    out = []
    for g, row in enumerate(table):
        hits = np.flatnonzero(row == 0)
        if hits.size == 0:
            raise ValueError(f"element {g} has no inverse: its table row lacks the identity 0")
        out.append(int(hits[0]))
    return tuple(out)


def conjugacy_classes(table: np.ndarray) -> list:
    n = table.shape[0]
    inv = _inverses(table)
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {int(table[table[h, g], inv[h]]) for h in range(n)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda cl: (0 not in cl, len(cl), cl))
    return classes


def _mult_table_from_rotations(mats: list) -> np.ndarray:
    m = np.asarray(mats)
    prods = m[:, None] @ m[None, :]
    # hits[a, b, c]: product a b matches rotation c
    hits = np.max(np.abs(prods[:, :, None] - m), axis=(-2, -1)) < MATCH_TOL
    if not np.all(np.count_nonzero(hits, axis=-1) == 1):
        raise ValueError("rotation set is not closed under products")
    return np.argmax(hits, axis=-1)


def dihedral_d3() -> tuple:
    """The six-element dihedral group in direction order: element k sends
    direction 0 of `d3_directions` to direction k.

    Returns (FiniteGroup, characters). Elements: identity, +120 and +240
    degree turns about z, half turns about the in-plane axes at azimuths 0,
    -120 and +120 degrees; classes {0}, {1, 2}, {3, 4, 5}. The read-only
    character table is indexed by (irrep, class), rows (1,1,1), (1,1,-1),
    (2,-1,0), and its first column is each irrep's dimension.
    """
    def flip_euler(az):
        # pi turn about the in-plane axis at azimuth az, as zyz angles
        return ((az - math.pi / 2.0) % TWO_PI, math.pi, (math.pi / 2.0 - az) % TWO_PI)

    eulers = (
        (0.0, 0.0, 0.0),
        (TWO_PI / 3.0, 0.0, 0.0),
        (2.0 * TWO_PI / 3.0, 0.0, 0.0),
        flip_euler(0.0),
        flip_euler(-TWO_PI / 3.0),
        flip_euler(TWO_PI / 3.0),
    )
    mats = [euler_zyz_matrix(*e) for e in eulers]
    group = FiniteGroup.from_table(_mult_table_from_rotations(mats), rotations=eulers)
    characters = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -1.0], [2.0, -1.0, 0.0]])
    characters.flags.writeable = False
    return group, characters


def d3_directions() -> list:
    """The six signal directions: orbit of (theta=45deg, phi=0) under the
    dihedral rotations, upper cone first, azimuths 0, +120, -120 degrees."""
    quarter = math.pi / 4.0
    out = []
    for theta in (quarter, math.pi - quarter):
        for phi in (0.0, TWO_PI / 3.0, -TWO_PI / 3.0):
            out.append(Direction(theta=theta, phi=phi))
    return out


@lru_cache(maxsize=1)
def d3_local_frame() -> np.ndarray:
    """Direction 0's frame for the nearest-direction decode: the read-only
    (6, 3) coefficients of each direction along (d0, t1, t2).  Direction 0
    lies in the xz plane, so its tangent pair is t1 = e_y and
    t2 = d0 x e_y = (-d0_z, 0, d0_x).

    Group element t sends direction 0 to t and permutes the six, so a tilt
    of direction t in the tangent pair it carries from direction 0 is nearest
    t exactly when the same tilt of direction 0 is nearest direction 0:
    every decision, and every decoding cell, is read in this one frame."""
    units = np.array([d.unit_vector for d in d3_directions()])
    d0 = units[0]
    coefficients = units @ np.array([d0, [0.0, 1.0, 0.0], [-d0[2], 0.0, d0[0]]]).T
    coefficients.flags.writeable = False
    return coefficients


def lift_to_qubits(group: FiniteGroup, num_spins: int) -> tuple:
    """Per-element unitaries u(g)^{tensor num_spins} on the 2^N product space."""
    return tuple(tensor_power(group.su2_matrix(g), num_spins) for g in range(group.order))


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
