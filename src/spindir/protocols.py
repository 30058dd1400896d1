"""End-to-end transmission protocols over the six dihedral directions and
the two-axis frame scheme.

Deterministic evaluators live here: exact sums for the finite-outcome
strategies, quadrature for the coherent one; each returns a ProtocolScore
with method 'exact' or 'quadrature'.  Monte Carlo execution is the
simulation harness's job; this module only assembles what it needs (outcome
matrices, chi densities and per-axis references).

The covariant strategy on one spin (d3-single) and on two (d3-covariant) is
one construction, built once per spin count behind one cache: the orbit of a
Schur-weighted fiducial under D3's lift to the qubits, with the six orbit
states as signals; its POVM, validated before anything is read from it; and
the exact outcome table, the orbit's squared Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import d3_qubit_blocks, dihedral_d3, lift_to_qubits
from .optimize import (
    ChiDensity,
    chi_density,
    coherent_code,
    d3_coherent_error,
    optimal_direction_encoding,
)
from .povm import Povm, projectors, validate_povm
from .states import SpinJ, is_integer

# decoders each kind accepts; the first is its default
_DECODERS = {
    "d3-single": ("covariant",),
    "d3-repeated": ("covariant",),
    "d3-covariant": ("covariant",),
    "d3-coherent": ("nearest-direction",),
    "frame-two-axis": ("best-fit", "naive-euler"),
}
PROTOCOL_KINDS = tuple(_DECODERS)


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
        object.__setattr__(self, "num_spins", int(self.num_spins))
        if self.decoder == "":
            object.__setattr__(self, "decoder", _DECODERS[self.kind][0])
        if self.decoder not in _DECODERS[self.kind]:
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
    """A protocol's deterministic figure of merit with the method (exact or
    quadrature) that produced it."""

    fidelity: float
    method: str
    coefficients: tuple | None = None

    def __post_init__(self):
        if self.method not in ("exact", "quadrature"):
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def infidelity(self) -> float:
        return 1.0 - self.fidelity


_OUTCOME_DENOMINATORS = {1: 24, 2: 6}  # of the covariant tables on one and two spins


def _d3_covariant(num_spins: int) -> tuple:
    """`_build_d3_covariant(num_spins)`, refusing all but the integers 1 and 2
    before the cache lookup: lru_cache would match True or 1.0 against 1."""
    if not is_integer(num_spins) or num_spins not in _OUTCOME_DENOMINATORS:
        raise ValueError(f"the covariant strategy takes 1 or 2 spins, got {num_spins!r}")
    return _build_d3_covariant(int(num_spins))


@lru_cache(maxsize=2)
def _build_d3_covariant(num_spins: int) -> tuple:
    """(orbit, dims, povm, numerators, table) of the covariant strategy, every
    array read-only, built in this order.  (1) Row k of the orbit is
    o_k = U(g_k) f, the lift of the element sending direction 0 to k
    (`dihedral_d3`'s order) applied to the fiducial f = sum_i sqrt(d_i/6) b_i,
    which spreads Schur weight over the first column b_i of each block of
    dimension d_i in dims (`d3_qubit_blocks`): sqrt(1/3) times the direction-0
    spinor on one spin, (e_0 + e_1)/sqrt3 on two.  (2) The POVM |o_k><o_k|,
    complete by Schur orthogonality, must validate.  (3) The numerators
    |<o_k|o_i>|^2 / <f|f> times 24 or 6 (the squared Gram matrix; the signal
    along i is o_i / |f|) must lie within 1e-12 of integers: a row is
    8, 5, 5, 4, 1, 1 permuted on one spin ((1 + n.m)/6) and 4, 1, 1, 0, 0, 0
    on two.  (4) The table is the numerators over 24 or 6, the nearest doubles."""
    group = dihedral_d3()
    blocks = d3_qubit_blocks(num_spins)
    fiducial = sum(math.sqrt(b.shape[1] / group.order) * b[:, 0] for b in blocks)
    orbit = np.asarray(lift_to_qubits(group, num_spins)) @ fiducial
    povm = Povm(projectors(orbit))
    if not validate_povm(povm).passed:
        raise RuntimeError(f"{num_spins}-spin dihedral POVM failed validation")
    gram = orbit @ orbit.conj().T
    denominator = _OUTCOME_DENOMINATORS[num_spins]
    scaled = denominator * np.abs(gram) ** 2 / gram[0, 0].real
    rounded = np.round(scaled)
    if np.max(np.abs(scaled - rounded)) > 1e-12:
        raise RuntimeError(f"outcome probability is not an integer over {denominator}")
    numerators = rounded.astype(np.int64)
    table = numerators / denominator
    for a in (orbit, numerators, table):
        a.flags.writeable = False
    return orbit, tuple(b.shape[1] for b in blocks), povm, numerators, table


def d3_covariant_povm(num_spins: int) -> Povm:
    """The orbit POVM E_k = |o_k><o_k| on one or two spins, validated.
    Outcome k is direction k."""
    return _d3_covariant(num_spins)[2]


def d3_outcome_matrix(num_spins: int) -> np.ndarray:
    """Row i: P(guess k | true direction i) of the covariant strategy on 1 or
    2 spins, the nearest doubles of integers over 24 or 6.  Cached, read-only."""
    return _d3_covariant(num_spins)[4]


def d3_covariant_score(num_spins: int) -> ProtocolScore:
    """Covariant strategy on one or two spins: the guess is the outcome of
    the Schur-weighted fiducial's orbit POVM, and only direction hits score:
    the exact mean of the diagonal, rounded once by int / int.  It is checked
    against the Schur bound sum_i d_i / |G|: with unit block coefficients a_i
    the overlap is sum_i a_i sqrt(d_i / |G|), largest at a_i = sqrt(d_i / sum d),
    the coefficients returned (in ascending block dimension, as the blocks)."""
    _, dims, _, numerators, _ = _d3_covariant(num_spins)
    fid = int(np.trace(numerators)) / (6 * _OUTCOME_DENOMINATORS[num_spins])
    if abs(fid - sum(dims) / dihedral_d3().order) > 1e-9:
        raise RuntimeError("orbit POVM does not realize the computed optimum")
    return ProtocolScore(fid, "exact", coefficients=tuple(math.sqrt(d / sum(dims)) for d in dims))


def d3_single_spin_score() -> ProtocolScore:
    """The covariant strategy on one spin: success probability 1/3."""
    return d3_covariant_score(1)


def d3_covariant_two_spin_score() -> ProtocolScore:
    """The covariant strategy on two spins: success probability 2/3."""
    return d3_covariant_score(2)


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
    num = _d3_covariant(1)[3].tolist()
    if tie_break == "random":
        # each row is row 0 permuted, diagonal in place: one row stands for all
        wins = 6 * _vote_wins(n, num[0], 0, True)
    else:
        wins = sum(_vote_wins(n, num[t], t, False) for t in range(6))
    # int / int rounds the exact rational to the nearest float, once
    return ProtocolScore(wins / (6 * 60 * 24**n), "exact")


def d3_coherent_score(num_spins: int) -> ProtocolScore:
    """Coherent strategy: all spins aligned with the signalled direction,
    continuous direction estimate decoded to the nearest of the six."""
    if num_spins < 1:
        raise ValueError("need at least one spin")
    return ProtocolScore(1.0 - d3_coherent_error(SpinJ(num_spins)), "quadrature")


@dataclass(frozen=True)
class FrameTwoAxisProtocol:
    """What a two-axis frame run draws from: the chi density of each axis's
    estimate, and its expected per-axis infidelity.

    The per-axis expected infidelity is the code's deterministic infidelity
    (1/(N/2 + 2) for the coherent encoding, an eigenvalue for the optimal
    one); the full frame score depends on the decoder's nonlinearity and is
    sampled by the harness.
    """

    chi: ChiDensity

    @property
    def expected_per_axis_infidelity(self) -> float:
        return self.chi.code.infidelity


def frame_two_axis_score(
    num_spins: int, encoding: str = "optimal", fitter: str = "best-fit"
) -> FrameTwoAxisProtocol:
    """Assemble the two-axis protocol: half the spins indicate z, half x.

    encoding 'coherent' aligns each axis's bundle with its direction;
    'optimal' uses the tridiagonal-eigenvector code on integer-j blocks,
    which needs N/2 even.  fitter is only validated as a frame-two-axis
    decoder: the harness applies the decoder itself, and neither the chi
    density nor the per-axis reference depends on it.
    """
    spec = ProtocolSpec(
        kind="frame-two-axis", num_spins=num_spins, encoding=encoding, decoder=fitter
    )
    per_axis = spec.num_spins // 2
    if encoding == "coherent":
        code = coherent_code(SpinJ(per_axis))
    else:
        code = optimal_direction_encoding(SpinJ.from_j(per_axis / 2))
    return FrameTwoAxisProtocol(chi=chi_density(code))
