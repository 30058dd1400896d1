"""Finite rotation groups and their representations.

Covers the dihedral group D3 realized as concrete SO(3) rotations, character
tables, character-based irrep content of reducible representations, lifts to
N-qubit product spaces, numeric invariant-block decomposition, and the
Schur-weighted fiducial whose group orbit forms a complete POVM.

Element rotations are stored as zyz Euler angles (alpha, beta, gamma) in
[0, 2pi), the same convention as rotate_spin_state; the SU(2) lift is composed
directly from those angles, which pins the projective phase deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TWO_PI, Direction
from .multispin import tensor_power
from .states import StateVector, ProductBasis

MATCH_TOL = 1e-9
BLOCK_CLUSTER_TOL = 1e-8
_BLOCK_SEED = 0x5D1EB


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
    element_rotations: tuple | None = None
    names: tuple | None = None

    @classmethod
    def from_table(cls, table, rotations=None, names=None) -> FiniteGroup:
        """Group from its table, deriving inverses and classes (not validated)."""
        table = np.asarray(table, dtype=int)
        return cls(order=table.shape[0], mult_table=table, inverse=_inverses(table),
                   classes=tuple(conjugacy_classes(table)),
                   element_rotations=rotations, names=names)

    def rotation_matrix(self, i: int) -> np.ndarray:
        if self.element_rotations is None:
            raise ValueError("group has no element rotations")
        return euler_zyz_matrix(*self.element_rotations[i])

    def su2_matrix(self, i: int) -> np.ndarray:
        if self.element_rotations is None:
            raise ValueError("group has no element rotations")
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
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if t[t[a, b], c] != t[a, t[b, c]]:
                        raise ValueError("multiplication table is not associative")
        if sorted(i for cl in self.classes for i in cl) != list(range(n)):
            raise ValueError("classes do not partition the elements")
        expected = conjugacy_classes(t)
        got = tuple(tuple(sorted(cl)) for cl in self.classes)
        if tuple(sorted(got)) != tuple(sorted(expected)):
            raise ValueError("classes inconsistent with conjugation")
        if self.element_rotations is not None:
            for g in range(n):
                for h in range(n):
                    prod = self.rotation_matrix(g) @ self.rotation_matrix(h)
                    if np.max(np.abs(prod - self.rotation_matrix(t[g, h]))) > MATCH_TOL:
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


@dataclass(frozen=True, eq=False)
class IrrepData:
    """Irreducible representation data, characters indexed by (irrep, class)."""

    dims: tuple
    characters: np.ndarray = field(repr=False)  # (n_irreps, n_classes)
    matrices: tuple = field(repr=False)  # matrices[i][g] unitary
    classes: tuple = ()
    names: tuple | None = None

    @property
    def n_irreps(self) -> int:
        return len(self.dims)


def _mult_table_from_rotations(mats: list) -> np.ndarray:
    n = len(mats)
    table = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            prod = mats[a] @ mats[b]
            hits = [c for c in range(n) if np.max(np.abs(prod - mats[c])) < MATCH_TOL]
            if len(hits) != 1:
                raise ValueError("rotation set is not closed under products")
            table[a, b] = hits[0]
    return table


def dihedral_d3() -> tuple:
    """The six-element dihedral group: identity, three two-fold axes in the
    xy-plane at azimuths 0 and +-120 degrees, and +-120 degree turns about z.

    Returns (FiniteGroup, IrrepData). Element order E, A, B, C, D, F; classes
    {E}, {D, F}, {A, B, C}; character rows (1,1,1), (1,1,-1), (2,-1,0).
    """
    def flip_euler(az):
        # pi turn about the in-plane axis at azimuth az, as zyz angles
        return ((az - math.pi / 2.0) % TWO_PI, math.pi, (math.pi / 2.0 - az) % TWO_PI)

    eulers = (
        (0.0, 0.0, 0.0),
        flip_euler(0.0),
        flip_euler(TWO_PI / 3.0),
        flip_euler(-TWO_PI / 3.0),
        (TWO_PI / 3.0, 0.0, 0.0),
        (2.0 * TWO_PI / 3.0, 0.0, 0.0),
    )
    mats = [euler_zyz_matrix(*e) for e in eulers]
    group = FiniteGroup.from_table(
        _mult_table_from_rotations(mats),
        rotations=eulers,
        names=("E", "A", "B", "C", "D", "F"),
    )

    # two-dimensional irrep: the in-plane 2x2 block of the rotation matrices
    # (the xy-plane is invariant under every element)
    two_dim = tuple(m[:2, :2].copy() for m in mats)
    alt = (1.0, -1.0, -1.0, -1.0, 1.0, 1.0)
    irreps = IrrepData(
        dims=(1, 1, 2),
        characters=np.array([
            [1.0, 1.0, 1.0],
            [1.0, 1.0, -1.0],
            [2.0, -1.0, 0.0],
        ]),
        matrices=(
            tuple(np.array([[1.0]]) for _ in range(6)),
            tuple(np.array([[alt[g]]]) for g in range(6)),
            two_dim,
        ),
        classes=group.classes,
        names=("trivial", "alternating", "two_dim"),
    )
    return group, irreps


def d3_directions() -> list:
    """The six signal directions: orbit of (theta=45deg, phi=0) under the
    dihedral rotations, upper cone first, azimuths 0, +120, -120 degrees."""
    quarter = math.pi / 4.0
    out = []
    for theta in (quarter, math.pi - quarter):
        for phi in (0.0, TWO_PI / 3.0, -TWO_PI / 3.0):
            out.append(Direction(theta=theta, phi=phi))
    return out


def characters_per_element(irreps: IrrepData, group: FiniteGroup) -> np.ndarray:
    """Expand the per-class character table to per-element columns."""
    out = np.zeros((irreps.n_irreps, group.order))
    for ci, cl in enumerate(group.classes):
        for g in cl:
            out[:, g] = irreps.characters[:, ci]
    return out


def irrep_content(characters, irreps: IrrepData, group: FiniteGroup) -> tuple:
    """Multiplicities of each irrep in a representation given per-element
    characters, via the character inner product.

    The character vector must be constant on conjugacy classes (1e-9) and the
    multiplicities must come out as non-negative integers within 1e-6.
    """
    chi = np.asarray(characters, dtype=complex)
    if chi.shape != (group.order,):
        raise ValueError("need one character per element")
    for cl in group.classes:
        vals = chi[list(cl)]
        if np.max(np.abs(vals - vals[0])) > 1e-9:
            raise ValueError("characters are not constant on conjugacy classes")
    per_el = characters_per_element(irreps, group)
    mult = []
    for i in range(irreps.n_irreps):
        m = np.sum(np.conj(per_el[i]) * chi) / group.order
        if abs(m.imag) > 1e-6 or abs(m.real - round(m.real)) > 1e-6 or round(m.real) < 0:
            raise ValueError(
                f"multiplicity of irrep {i} is {m:.6g}, not a non-negative integer; "
                "character vector is inconsistent with this group"
            )
        mult.append(int(round(m.real)))
    return tuple(mult)


@dataclass(frozen=True, eq=False)
class Block:
    """One invariant subspace: columns of basis span it; irrep tags its type.

    irrep is an index into the group's IrrepData, or -1 for a projective block
    (half-integer total spin) that matches no linear irrep and whose dimension
    alone does not single one out."""

    irrep: int
    basis: np.ndarray = field(repr=False)  # (dim, block_dim), orthonormal columns

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SignalFamily:
    """Group orbit of a fiducial state under a (possibly projective) unitary
    representation, with its invariant-block decomposition."""

    group: FiniteGroup
    rep_matrices: tuple = field(repr=False)
    fiducial: StateVector
    block_structure: tuple

    def signal(self, g: int) -> StateVector:
        amps = self.rep_matrices[g] @ self.fiducial.amplitudes
        return StateVector(basis=self.fiducial.basis, amplitudes=amps)

    def signals(self) -> list:
        return [self.signal(g) for g in range(self.group.order)]


def lift_to_qubits(group: FiniteGroup, num_spins: int) -> tuple:
    """Per-element unitaries u(g)^{tensor num_spins} on the 2^N product space."""
    return tuple(tensor_power(group.su2_matrix(g), num_spins) for g in range(group.order))


def find_invariant_blocks(matrices) -> list:
    """Simultaneous invariant subspaces of a set of unitaries.

    Diagonalizes the conjugation average of a fixed-seed random Hermitian; the
    average lies in the commutant, so eigenvalue clusters span invariant
    subspaces (projective phases cancel in U H U^dagger). Generic H splits
    isotypic multiplicity, so each cluster is a single irreducible block.
    """
    dim = matrices[0].shape[0]
    rng = np.random.Generator(np.random.Philox(key=_BLOCK_SEED))
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = h + h.conj().T
    avg = np.zeros((dim, dim), dtype=complex)
    for u in matrices:
        avg += u @ h @ u.conj().T
    avg /= len(matrices)
    evals, vecs = np.linalg.eigh(avg)
    blocks = []
    start = 0
    for k in range(1, dim + 1):
        if k == dim or evals[k] - evals[k - 1] > BLOCK_CLUSTER_TOL:
            blocks.append(vecs[:, start:k].copy())
            start = k
    for basis in blocks:
        for u in matrices:
            leak = u @ basis - basis @ (basis.conj().T @ u @ basis)
            if np.max(np.abs(leak)) > 1e-8:
                raise ValueError("block clustering failed to produce invariant subspaces")
    return blocks


def _block_character(basis: np.ndarray, matrices) -> np.ndarray:
    """Character vector tr(B^dagger U_g B) of the block spanned by basis."""
    return np.array([np.trace(basis.conj().T @ u @ basis) for u in matrices])


def _tag_block(basis: np.ndarray, matrices, irreps: IrrepData, group: FiniteGroup) -> int:
    try:
        mults = irrep_content(_block_character(basis, matrices), irreps, group)
    except ValueError:
        mults = ()
    if sum(mults) == 1:
        return mults.index(1)
    # projective block (half-integer total spin): characters need not match any
    # linear irrep; tag by dimension when that is unambiguous, else -1
    dim_hits = [i for i, d in enumerate(irreps.dims) if d == basis.shape[1]]
    if len(dim_hits) == 1:
        return dim_hits[0]
    return -1


def block_characters(family: SignalFamily) -> list:
    """Per-block character vectors tr(B^dagger U_g B); equal vectors mean
    equivalent blocks (same irrep of the lifted group, phase-pinned lift)."""
    return [_block_character(b.basis, family.rep_matrices) for b in family.block_structure]


def repeated_equivalent_blocks(family: SignalFamily) -> bool:
    chars = block_characters(family)
    for i in range(len(chars)):
        for k in range(i + 1, len(chars)):
            if np.max(np.abs(chars[i] - chars[k])) < 1e-6:
                return True
    return False


def build_signal_family(group: FiniteGroup, num_spins: int, fiducial: StateVector,
                        irreps: IrrepData) -> SignalFamily:
    """Lift the group to num_spins qubits, orbit the fiducial, and decompose
    the space into irrep-tagged invariant blocks."""
    if fiducial.dim != 2 ** num_spins:
        raise ValueError("fiducial does not live on the product space")
    rep = lift_to_qubits(group, num_spins)
    bases = find_invariant_blocks(rep)
    blocks = tuple(Block(irrep=_tag_block(b, rep, irreps, group), basis=b) for b in bases)
    return SignalFamily(group=group, rep_matrices=rep, fiducial=fiducial,
                        block_structure=blocks)


def schur_fiducial(family: SignalFamily, block_weights) -> StateVector:
    """Fiducial |B> = sum_i sqrt(d_i/|G|) basis_i w_i over the family's blocks.

    block_weights supplies one unit vector per block (in block coordinates).
    The group orbit of the result is a complete POVM by Schur orthogonality.
    Repeated equivalent blocks are refused: cross terms between copies of the
    same irrep survive the group average, so per-block weights alone cannot
    guarantee completeness there.
    """
    blocks = family.block_structure
    if repeated_equivalent_blocks(family):
        raise ValueError("signal space contains repeated equivalent blocks")
    if len(block_weights) != len(blocks):
        raise ValueError(f"need one weight vector per block ({len(blocks)})")
    dim = family.fiducial.dim
    amps = np.zeros(dim, dtype=complex)
    for block, w in zip(blocks, block_weights):
        if w is None:
            raise ValueError("missing block direction")
        w = np.asarray(w, dtype=complex)
        if w.shape != (block.dim,):
            raise ValueError("weight vector shape does not match block dimension")
        if abs(np.linalg.norm(w) - 1.0) > 1e-9:
            raise ValueError("block weight vectors must be unit")
        amps += math.sqrt(block.dim / family.group.order) * (block.basis @ w)
    return StateVector(basis=ProductBasis(num_qubits=int(math.log2(dim))), amplitudes=amps)


def load_group_file(path) -> FiniteGroup:
    """Read a finite rotation group from the plain-text table format.

    Lines (after stripping comments starting with '#'):
      order N
      names n0 n1 ...        (optional)
      table                  followed by N rows of N indices
      rotations              followed by N rows "alpha beta gamma" (zyz, radians)
    The rotations block is optional. Classes are recomputed from the table and
    the whole structure is validated.
    """
    with open(path) as fh:
        lines = []
        for raw in fh:
            txt = raw.split("#", 1)[0].strip()
            if txt:
                lines.append(txt)
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("group file ended early")
        out = lines[pos]
        pos += 1
        return out

    head = take().split()
    if len(head) != 2 or head[0] != "order":
        raise ValueError("group file must start with 'order N'")
    n = int(head[1])
    names = None
    table = None
    rotations = None
    while pos < len(lines):
        word = take()
        if word.startswith("names"):
            names = tuple(word.split()[1:])
            if len(names) != n:
                raise ValueError("names line must list one name per element")
        elif word == "table":
            rows = [list(map(int, take().split())) for _ in range(n)]
            table = np.array(rows, dtype=int)
            if table.shape != (n, n) or table.min() < 0 or table.max() >= n:
                raise ValueError("bad multiplication table")
        elif word == "rotations":
            rotations = tuple(tuple(map(float, take().split())) for _ in range(n))
            if any(len(r) != 3 for r in rotations):
                raise ValueError("each rotation line needs three Euler angles")
        else:
            raise ValueError(f"unexpected line in group file: {word!r}")
    if table is None:
        raise ValueError("group file has no multiplication table")
    group = FiniteGroup.from_table(table, rotations=rotations, names=names)
    group.validate()
    return group
