"""Optimal measurement figures of merit.

Two settings share this module: the closed-form optimum for finite signal
orbits (zero-one scoring over a group orbit, maximized jointly over signal
coefficients and the Schur-weighted fiducial), and direction encoding on the
sphere, where the fidelity <cos^2(chi/2)> of a multi-block code is an
eigenvalue problem for a symmetric tridiagonal matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import TWO_PI
from .groups import SignalFamily, d3_directions, repeated_equivalent_blocks
from .states import SpinJ


@dataclass(frozen=True)
class CovariantOptimum:
    fidelity: float
    optimal_coefficients: tuple
    score_rule: str


@dataclass(frozen=True)
class DirectionCode:
    """Direction-encoding state written in total-spin blocks.

    For the 'm0' carrier the amplitudes run over integer j = 0..j_max and the
    block functions are the normalized Legendre kernels; for the 'coherent'
    carrier there is a single block at j_max (any half-integer) with the
    highest-weight kernel cos^{2j}(chi/2), and amplitudes has length 1.
    """

    j_max: SpinJ
    amplitudes: np.ndarray = field(repr=False)
    fidelity: float
    effective_dimension: int
    carrier: str = "m0"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "amplitudes", amps)
        if self.carrier not in ("m0", "coherent"):
            raise ValueError(f"unknown carrier {self.carrier!r}")
        n_expected = self.j_max.twice_j // 2 + 1 if self.carrier == "m0" else 1
        if amps.shape != (n_expected,):
            raise ValueError("amplitude vector has the wrong length")
        if abs(np.sum(amps * amps) - 1.0) > 1e-9:
            raise ValueError("amplitudes must have unit norm")

    @property
    def infidelity(self) -> float:
        return 1.0 - self.fidelity


def finite_group_optimum(family: SignalFamily) -> CovariantOptimum:
    """Best zero-one fidelity over a multiplicity-free block structure.

    Aligning the fiducial with the signal block-by-block reduces the overlap
    to sum_i a_i sqrt(d_i/|G|); maximizing over unit (a_i) gives
    F = sum_i d_i/|G| with a_i = sqrt(d_i / sum d).
    """
    if repeated_equivalent_blocks(family):
        raise ValueError("repeated equivalent irreps are not supported")
    dims = np.array([b.dim for b in family.block_structure], dtype=float)
    order = family.group.order
    fidelity = float(np.sum(dims) / order)
    coeffs = np.sqrt(dims / np.sum(dims))
    return CovariantOptimum(fidelity=fidelity, optimal_coefficients=tuple(coeffs),
                            score_rule="zero-one")


def direction_cos_matrix(j_max: SpinJ) -> np.ndarray:
    """Matrix of <cos chi> between the normalized m = 0 block functions
    sqrt(2j+1) P_j, j = 0..j_max. Tridiagonal: diagonal zero, off-diagonal
    (j+1)/sqrt((2j+1)(2j+3))."""
    if not j_max.is_integer:
        raise ValueError("direction codes use integer j blocks")
    n = j_max.twice_j // 2 + 1
    mat = np.zeros((n, n))
    for k in range(n - 1):
        off = (k + 1.0) / math.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0))
        mat[k, k + 1] = off
        mat[k + 1, k] = off
    return mat


def optimal_direction_encoding(j_max: SpinJ) -> DirectionCode:
    """Best fidelity F = (1 + lambda_max)/2 over codes with blocks up to j_max
    (N = 2 j_max spins), with the top eigenvector as amplitudes.

    Only integer j_max is supported: odd spin counts would need a half-integer
    carrier with a different kernel recurrence.
    """
    if not j_max.is_integer:
        raise ValueError(
            "optimal direction encoding needs integer j (an even number of spins); "
            "odd spin counts are not supported"
        )
    vals, vecs = np.linalg.eigh(direction_cos_matrix(j_max))
    vec = vecs[:, -1]
    if vec[0] < 0:
        vec = -vec
    fidelity = (1.0 + float(vals[-1])) / 2.0
    return DirectionCode(j_max=j_max, amplitudes=vec, fidelity=fidelity,
                         effective_dimension=vec.size**2)


def coherent_code(j: SpinJ) -> DirectionCode:
    """Single-block code of N = 2j parallel spins: kernel cos^{2j}(chi/2),
    fidelity 1 - 1/(2j+2)."""
    fidelity = 1.0 - 1.0 / (j.twice_j + 2.0)
    return DirectionCode(j_max=j, amplitudes=np.array([1.0]), fidelity=fidelity,
                         effective_dimension=j.twice_j + 1, carrier="coherent")


CHI_GRID_POINTS = 2048  # points of the even cos(chi) grid that sample_chi inverts on


@dataclass(frozen=True)
class ChiDensity:
    """Distribution of the angle chi between true and estimated directions for
    a direction code measured with the covariant direction POVM:
    p(chi) = 2 pi sin(chi) |sum_j sqrt((2j+1)/4pi) A_j k_j(cos chi)|^2."""

    code: DirectionCode

    def amplitude(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        code = self.code
        if code.carrier == "coherent":
            tj = code.j_max.twice_j
            k = ((1.0 + u) / 2.0) ** (tj / 2.0)
            return math.sqrt((tj + 1.0) / (4.0 * math.pi)) * code.amplitudes[0] * k
        j_top = code.j_max.twice_j // 2
        rows = np.polynomial.legendre.legvander(u, j_top).T
        scale = np.sqrt((2.0 * np.arange(j_top + 1) + 1.0) / (4.0 * math.pi))
        return (code.amplitudes * scale) @ rows

    def pdf_cos(self, u) -> np.ndarray:
        """Density in u = cos chi on [-1, 1]."""
        g = self.amplitude(u)
        return 2.0 * math.pi * g * g

    def pdf(self, chi) -> np.ndarray:
        chi = np.atleast_1d(np.asarray(chi, dtype=float))
        return np.sin(chi) * self.pdf_cos(np.cos(chi))

    def _gauss(self):
        tj = self.code.j_max.twice_j
        n = max(16, tj + 4)
        return np.polynomial.legendre.leggauss(n)

    def normalization(self) -> float:
        x, w = self._gauss()
        return float(np.sum(w * self.pdf_cos(x)))

    def expected_fidelity(self) -> float:
        """<cos^2(chi/2)> = (1 + <cos chi>)/2 under this density."""
        x, w = self._gauss()
        return float(np.sum(w * self.pdf_cos(x) * (1.0 + x) / 2.0))

    def expected_infidelity(self) -> float:
        return 1.0 - self.expected_fidelity()

    def cumulative_in_cos(self, n: int) -> tuple:
        """(u grid, CDF values) on n points even in cos chi, trapezoid cumulative."""
        u = np.linspace(-1.0, 1.0, n)
        p = self.pdf_cos(u)
        cdf = np.concatenate(([0.0], np.cumsum((p[1:] + p[:-1]) * 0.5 * np.diff(u))))
        cdf /= cdf[-1]
        return u, cdf

    @cached_property
    def cdf_table(self) -> tuple:
        """sample_chi's inverse-CDF table, built once per density."""
        return self.cumulative_in_cos(CHI_GRID_POINTS)


def chi_density(code: DirectionCode) -> ChiDensity:
    return ChiDensity(code=code)


D3_ARC_NODES = 64


def _d3_cell_radii(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance r(phi) from each signal direction d0 to the edge of its
    nearest-direction cell along tangent azimuth phi, at Gauss-Legendre nodes.

    Along t(phi) the great circle cos(r) d0 + sin(r) t crosses the bisector
    plane (d0 - d_k).x = 0 once in (0, pi), at r_k = atan2(1 - d0.d_k, t.d_k);
    the cell edge is the first crossing, min_k r_k.  The cell's vertices
    v ~ (d0 - d_a) x (d0 - d_b) split the azimuth into arcs on which one
    bisector is nearest, so r(phi) is analytic on each arc and each arc gets
    its own Gauss-Legendre rule.  Returns (6, M) radii and (6, M) azimuth
    weights summing to 2 pi per cell.
    """
    dirs = np.stack([d.unit_vector for d in d3_directions()])
    x, w = np.polynomial.legendre.leggauss(nodes)
    radii, weights = [], []
    for g, d0 in enumerate(dirs):
        others = np.delete(dirs, g, axis=0)
        diffs = d0 - others
        e1 = np.cross(d0, diffs[0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(d0, e1)
        # cell vertices: equidistant from d0 and two neighbours, and no
        # nearer to any other neighbour
        a, b = np.triu_indices(len(others), 1)
        verts = np.cross(diffs[a], diffs[b])
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
        verts *= np.sign(verts @ d0)[:, None]
        on_cell = verts @ d0 >= (verts @ others.T).max(axis=1) - 1e-12
        phis = np.sort(np.arctan2(verts[on_cell] @ e2, verts[on_cell] @ e1))
        breaks = phis[np.concatenate(([True], np.diff(phis) > 1e-9))]
        breaks = np.append(breaks, breaks[0] + TWO_PI)
        half = 0.5 * np.diff(breaks)
        phi = (0.5 * (breaks[1:] + breaks[:-1]))[:, None] + half[:, None] * x
        t = np.cos(phi).ravel()[:, None] * e1 + np.sin(phi).ravel()[:, None] * e2
        r = np.arctan2(1.0 - others @ d0, t @ others.T).min(axis=1)
        radii.append(r)
        weights.append((half[:, None] * w).ravel())
    return np.array(radii), np.array(weights)


def _d3_cell_errors(j: SpinJ, nodes: int) -> np.ndarray:
    """Per-direction error of the nearest-direction decode of a spin-j
    coherent signal: the estimate leaves the cap of half-angle r with
    probability ((1 + cos r)/2)^(2j+1), so 1 - F = (1/2pi) int over phi of
    ((1 + cos r(phi))/2)^(2j+1)."""
    radii, weights = _d3_cell_radii(nodes)
    tail = ((1.0 + np.cos(radii)) / 2.0) ** (j.twice_j + 1)
    return np.sum(weights * tail, axis=1) / TWO_PI


def d3_coherent_error(j: SpinJ) -> float:
    """Error probability of sending a spin-j coherent state along one of the
    six dihedral directions and decoding the covariant direction measurement
    to the nearest of the six.

    Exact up to rounding: a one-dimensional integral over the azimuth around
    each signal direction (see _d3_cell_errors), split at the decoding cell's
    three vertices, with D3_ARC_NODES Gauss-Legendre nodes per arc.  The six
    error rates must agree; their mean is returned.
    """
    errors = _d3_cell_errors(j, D3_ARC_NODES)
    if errors.max() - errors.min() > 1e-12:
        raise ValueError("the six decoding cells give different error rates")
    return float(errors.mean())
