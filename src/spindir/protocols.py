"""End-to-end transmission protocols over the six dihedral directions and
the two-axis frame scheme.

Deterministic evaluators live here: exact sums for the finite-outcome
strategies, quadrature for the coherent one.  Monte Carlo execution is the
simulation harness's job; this module only assembles what it needs (outcome
matrices, chi densities, decoders).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import (
    SignalFamily,
    build_signal_family,
    d3_directions,
    dihedral_d3,
    schur_fiducial,
)
from .optimize import (
    ChiDensity,
    DirectionCode,
    chi_density,
    coherent_code,
    d3_coherent_error,
    finite_group_optimum,
    optimal_direction_encoding,
)
from .povm import Povm, covariant_povm_finite, state_probabilities, validate_povm
from .spins import SpinJ, coherent_state
from .states import ProductBasis, StateVector, is_integer

PROTOCOL_KINDS = (
    "d3-single",
    "d3-repeated",
    "d3-covariant",
    "d3-coherent",
    "frame-two-axis",
)
_DEFAULT_DECODERS = {
    "d3-single": "covariant",
    "d3-repeated": "covariant",
    "d3-covariant": "covariant",
    "d3-coherent": "nearest-direction",
    "frame-two-axis": "best-fit",
}
_ALLOWED_DECODERS = {
    "d3-single": ("covariant",),
    "d3-repeated": ("covariant",),
    "d3-covariant": ("covariant",),
    "d3-coherent": ("nearest-direction",),
    "frame-two-axis": ("naive-euler", "best-fit"),
}


@dataclass(frozen=True)
class ProtocolSpec:
    """What is sent, how many spins, and how the receiver decodes."""

    kind: str
    num_spins: int
    encoding: str = "coherent"
    decoder: str = ""
    tie_break: str = "random"

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if not is_integer(self.num_spins) or self.num_spins < 1:
            raise ValueError("num_spins must be a positive integer")
        if self.decoder == "":
            object.__setattr__(self, "decoder", _DEFAULT_DECODERS[self.kind])
        if self.decoder not in _ALLOWED_DECODERS[self.kind]:
            raise ValueError(
                f"decoder {self.decoder!r} does not apply to {self.kind}"
            )
        if self.kind == "d3-single" and self.num_spins != 1:
            raise ValueError("d3-single uses exactly one spin")
        if self.kind == "d3-covariant" and self.num_spins != 2:
            raise ValueError("the covariant block strategy is defined for two spins")
        if self.kind == "frame-two-axis":
            if self.num_spins % 2:
                raise ValueError("frame transmission splits spins evenly; need even N")
            if self.encoding == "optimal" and (self.num_spins // 2) % 2:
                raise ValueError(
                    "optimal per-axis encoding needs integer j blocks: N/2 must be even"
                )
            if self.encoding not in ("coherent", "optimal"):
                raise ValueError(f"unknown encoding {self.encoding!r}")
        elif self.encoding != "coherent":
            raise ValueError(f"{self.kind} does not take encoding {self.encoding!r}")
        if self.tie_break not in ("random", "lowest-index"):
            raise ValueError(f"unknown tie_break {self.tie_break!r}")
        if self.tie_break != "random" and self.kind != "d3-repeated":
            raise ValueError("tie_break only applies to d3-repeated")


@dataclass(frozen=True)
class ProtocolScore:
    """A protocol's figure of merit with the method that produced it."""

    fidelity: float
    infidelity: float
    method: str
    stderr: float | None = None
    per_axis: tuple | None = None
    coefficients: tuple | None = None

    def __post_init__(self):
        if self.method not in ("exact", "quadrature", "monte-carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if abs(self.fidelity + self.infidelity - 1.0) > 1e-12:
            raise ValueError("fidelity and infidelity must sum to 1")
        if (self.stderr is not None) != (self.method == "monte-carlo"):
            raise ValueError("standard error is present exactly for monte-carlo scores")


def _score(fidelity: float, method: str, **kw) -> ProtocolScore:
    return ProtocolScore(fidelity=fidelity, infidelity=1.0 - fidelity, method=method, **kw)


@lru_cache(maxsize=1)
def _d3() -> tuple:
    return dihedral_d3()


@lru_cache(maxsize=1)
def _element_to_direction() -> tuple:
    """Index of the direction each group element sends direction 0 to."""
    group, _ = _d3()
    dirs = d3_directions()
    units = np.array([d.unit_vector for d in dirs])
    base = units[0]
    out = []
    for g in range(group.order):
        img = group.rotation_matrix(g) @ base
        dots = units @ img
        k = int(np.argmax(dots))
        if dots[k] < 1.0 - 1e-9:
            raise RuntimeError("group element does not map onto the direction orbit")
        out.append(k)
    if sorted(out) != list(range(6)):
        raise RuntimeError("element-to-direction map is not a bijection")
    return tuple(out)


def _direction_orbit_povm(unitaries, fiducial: StateVector, what: str) -> Povm:
    """Orbit POVM of the fiducial under the D3 unitaries, its elements
    ordered by the direction label of each group element, validated."""
    labels = list(_element_to_direction())
    povm = covariant_povm_finite(unitaries, fiducial, labels=labels)
    order = np.argsort(labels)
    povm = Povm(elements=tuple(povm.elements[i] for i in order), kind=povm.kind)
    if not validate_povm(povm).passed:
        raise RuntimeError(f"{what} dihedral POVM failed validation")
    return povm


@lru_cache(maxsize=1)
def d3_single_spin_povm() -> Povm:
    """Covariant one-spin POVM: orbit of sqrt(1/3) times the spin-1/2 coherent
    state along direction 0.  Outcome labels are direction indices."""
    group, _ = _d3()
    dirs = d3_directions()
    fid = coherent_state(SpinJ(1), dirs[0])
    fid = StateVector(basis=fid.basis, amplitudes=fid.amplitudes / math.sqrt(3.0))
    unitaries = [group.su2_matrix(g) for g in range(group.order)]
    return _direction_orbit_povm(unitaries, fid, "one-spin")


@lru_cache(maxsize=1)
def _d3_two_spin_family() -> tuple:
    """Signal family for the optimal two-spin strategy plus its optimum.

    The fiducial spreads Schur weight sqrt(d_i/6) over the three invariant
    blocks of the two-qubit representation; per-block unit weights are the
    first basis column of each block (any choice works up to block phases).
    """
    group, irreps = _d3()
    placeholder = StateVector(
        basis=ProductBasis(2), amplitudes=np.array([1.0, 0.0, 0.0, 0.0])
    )
    family = build_signal_family(group, 2, placeholder, irreps)
    weights = []
    for block in family.block_structure:
        w = np.zeros(block.dim)
        w[0] = 1.0
        weights.append(w)
    fid = schur_fiducial(family, weights)
    family = SignalFamily(
        group=group,
        rep_matrices=family.rep_matrices,
        fiducial=fid,
        block_structure=family.block_structure,
    )
    optimum = finite_group_optimum(family)
    return family, optimum


@lru_cache(maxsize=1)
def d3_two_spin_povm() -> Povm:
    """Orbit POVM of the Schur fiducial on the four-dim two-spin space."""
    family, _ = _d3_two_spin_family()
    return _direction_orbit_povm(family.rep_matrices, family.fiducial, "two-spin")


@lru_cache(maxsize=2)
def d3_outcome_matrix(num_spins: int) -> np.ndarray:
    """Row i: probabilities of the six guessed directions given true direction
    i, for the covariant strategy on num_spins spins (1 or 2).  Cached and
    read-only."""
    if num_spins == 1:
        povm = d3_single_spin_povm()
        dirs = d3_directions()
        signals = {i: coherent_state(SpinJ(1), d) for i, d in enumerate(dirs)}
    elif num_spins == 2:
        povm = d3_two_spin_povm()
        family, _ = _d3_two_spin_family()
        e2d = _element_to_direction()
        norm = family.fiducial.norm()
        signals = {}
        for g in range(family.group.order):
            sig = family.signal(g)
            signals[e2d[g]] = StateVector(
                basis=sig.basis, amplitudes=sig.amplitudes / norm
            )
    else:
        raise ValueError("outcome matrices exist for the 1- and 2-spin strategies")
    matrix = np.array([state_probabilities(povm, signals[i]) for i in range(6)])
    matrix.flags.writeable = False
    return matrix


def d3_single_spin_score() -> ProtocolScore:
    """Success probability of the covariant single-spin strategy; the guess is
    the measurement outcome itself and only direction hits score."""
    matrix = d3_outcome_matrix(1)
    fid = float(np.mean(np.diag(matrix)))
    return _score(fid, "exact")


@lru_cache(maxsize=1)
def _single_spin_numerators() -> np.ndarray:
    """The single-spin outcome table in units of 1/24, as read-only int64.

    The six directions pairwise dot to 1, 1/4, 0 or -3/4, so every entry of
    (1 + n.m)/6 is an integer over 24 (each row is a permutation of
    8, 5, 5, 4, 1, 1); vote weights can then be summed without rounding."""
    scaled = 24.0 * d3_outcome_matrix(1)
    rounded = np.round(scaled)
    if np.max(np.abs(scaled - rounded)) > 1e-12:
        raise RuntimeError("outcome probability is not an integer over 24")
    table = rounded.astype(np.int64)
    table.flags.writeable = False
    return table


def _vote_wins(n: int, row: list, true: int, ties: bool) -> int:
    """Weight of the n-shot votes won by direction ``true`` of outcome
    numerators ``row``, in units of 1/(60 * 24^n).

    Levin's representation of the multinomial maximum (Ann. Stat. 9, 1123,
    1981): condition on the true count m, of weight C(n, m) row[true]^m, and
    place the other n - m shots one outcome at a time.  w[e][s] is the weight
    s!/prod(c_k!) prod(row[k]^c_k) of s shots over the outcomes placed so
    far, e of which tie the true one at m; counts are capped at m.  With
    ``ties`` a win shared by e + 1 leaders is worth 60 // (e + 1); without,
    lower-index outcomes are capped at m - 1 and e stays 0 (worth 60)."""
    binom = [[math.comb(s, c) for c in range(s + 1)] for s in range(n + 1)]
    total = 0
    for m in range(n + 1):
        rest = n - m
        w = [[1] + [0] * rest]
        for k, num in enumerate(row):
            if k == true:
                continue
            cap = min(m - 1 if k < true and not ties else m, rest)
            power = [num**c for c in range(cap + 1)]
            new = [[0] * (rest + 1) for _ in range(len(w) + ties)]
            for e, placed in enumerate(w):
                for s, x in enumerate(placed):
                    if x:
                        for c in range(min(cap, rest - s) + 1):
                            tied = e + 1 if ties and c == m else e
                            new[tied][s + c] += x * binom[s + c][c] * power[c]
            w = new
        won = sum(60 // (e + 1) * placed[rest] for e, placed in enumerate(w))
        total += math.comb(n, m) * row[true] ** m * won
    return total


def d3_repeated_single_score(n: int, tie_break: str = "random") -> ProtocolScore:
    """Plurality vote over n independent single-spin measurements, exact for
    every n: the fidelity is an integer over 6 * 60 * 24^n (`_vote_wins`).
    With the random tie-break a tie among k leaders containing the true
    direction scores 1/k; lowest-index awards the tied set's smallest index.
    """
    if not is_integer(n) or n < 1:
        raise ValueError(f"need a positive integer number of measurements, got {n!r}")
    if tie_break not in ("random", "lowest-index"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    n = int(n)
    num = _single_spin_numerators().tolist()
    if tie_break == "random":
        # every row is a permutation of 8, 5, 5, 4, 1, 1 with 8 on the
        # diagonal, and the random rule does not see the order of the others
        wins = 6 * _vote_wins(n, num[0], 0, True)
    else:
        wins = sum(_vote_wins(n, num[t], t, False) for t in range(6))
    # int / int rounds the exact rational to the nearest float, once
    return _score(wins / (6 * 60 * 24**n), "exact")


def d3_covariant_two_spin_score() -> ProtocolScore:
    """Optimal covariant two-spin strategy: Schur-weighted fiducial orbit."""
    family, optimum = _d3_two_spin_family()
    matrix = d3_outcome_matrix(2)
    fid = float(np.mean(np.diag(matrix)))
    if abs(fid - optimum.fidelity) > 1e-9:
        raise RuntimeError("orbit POVM does not realize the computed optimum")
    dims = [b.dim for b in family.block_structure]
    coeffs = tuple(
        c for _, c in sorted(zip(dims, optimum.optimal_coefficients))
    )
    return _score(fid, "exact", coefficients=coeffs)


def d3_coherent_score(num_spins: int) -> ProtocolScore:
    """Coherent strategy: all spins aligned with the signalled direction,
    continuous direction estimate decoded to the nearest of the six."""
    if num_spins < 1:
        raise ValueError("need at least one spin")
    return _score(1.0 - d3_coherent_error(SpinJ(num_spins)), "quadrature")


def d3_coherent_crossover(max_spins: int = 24) -> int:
    """Smallest N at which the coherent strategy beats the two-spin covariant
    optimum, checked to stay ahead through max_spins."""
    target = d3_covariant_two_spin_score().fidelity
    crossover = None
    for n in range(1, max_spins + 1):
        f = d3_coherent_score(n).fidelity
        if crossover is None and f > target:
            crossover = n
        elif crossover is not None and f <= target:
            raise RuntimeError(
                f"coherent fidelity dips back below the covariant optimum at N={n}"
            )
    if crossover is None:
        raise RuntimeError(f"no crossover found up to N={max_spins}")
    return crossover


def d3_two_spin_comparison() -> tuple:
    """(coherent at N=2, covariant optimum); the ordering is reported, not
    presumed."""
    return d3_coherent_score(2), d3_covariant_two_spin_score()


@dataclass(frozen=True)
class FrameTwoAxisProtocol:
    """Composed two-axis frame protocol: what each axis carries and how the
    pair of estimates is fitted back into a frame.

    The per-axis expected infidelity is deterministic (Beta integral for the
    coherent encoding, eigenvalue for the optimal one); the full frame score
    depends on the fitter's nonlinearity and is sampled by the harness.
    """

    num_spins: int
    encoding: str
    fitter: str
    axis_code: DirectionCode
    chi: ChiDensity
    expected_per_axis_infidelity: float

    @property
    def per_axis_spins(self) -> int:
        return self.num_spins // 2


def frame_two_axis_score(
    num_spins: int, encoding: str = "optimal", fitter: str = "best-fit"
) -> FrameTwoAxisProtocol:
    """Assemble the two-axis protocol: half the spins indicate z, half x.

    encoding 'coherent' aligns each axis's bundle with its direction;
    'optimal' uses the tridiagonal-eigenvector code on integer-j blocks,
    which needs N/2 even.  fitter picks the decoder the harness applies.
    """
    spec = ProtocolSpec(
        kind="frame-two-axis", num_spins=num_spins, encoding=encoding, decoder=fitter
    )
    per_axis = spec.num_spins // 2
    if encoding == "coherent":
        code = coherent_code(SpinJ(per_axis))
        expected = 1.0 / (per_axis + 2.0)
    else:
        code = optimal_direction_encoding(SpinJ.from_j(per_axis / 2))
        expected = code.infidelity
    return FrameTwoAxisProtocol(
        num_spins=spec.num_spins,
        encoding=encoding,
        fitter=spec.decoder,
        axis_code=code,
        chi=chi_density(code),
        expected_per_axis_infidelity=expected,
    )
