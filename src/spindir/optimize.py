"""Optimal measurement figures of merit.

Two settings share this module: the closed-form optimum for finite signal
orbits (zero-one scoring over a group orbit, maximized jointly over signal
coefficients and the Schur-weighted fiducial), and direction encoding on the
sphere, where the fidelity <cos^2(chi/2)> of a multi-block code is an
eigenvalue problem for a symmetric tridiagonal matrix, the Legendre Jacobi
matrix, whose top eigenpair follows from the largest root of a Legendre
polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .geometry import TWO_PI
from .groups import d3_local_frame
from .states import SpinJ


@dataclass(frozen=True)
class CovariantOptimum:
    fidelity: float
    optimal_coefficients: tuple


@dataclass(frozen=True, eq=False)
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


def finite_group_optimum(block_dims, order: int) -> CovariantOptimum:
    """Best zero-one fidelity over a multiplicity-free block structure with
    block dimensions block_dims, for a group of the given order.

    Aligning the fiducial with the signal block-by-block reduces the overlap
    to sum_i a_i sqrt(d_i/|G|); maximizing over unit (a_i) gives
    F = sum_i d_i/|G| with a_i = sqrt(d_i / sum d).
    """
    dims = np.array(block_dims, dtype=float)
    fidelity = float(np.sum(dims) / order)
    coeffs = np.sqrt(dims / np.sum(dims))
    return CovariantOptimum(fidelity=fidelity, optimal_coefficients=tuple(coeffs))


def direction_cos_matrix(j_max: SpinJ) -> np.ndarray:
    """Matrix of <cos chi> between the normalized m = 0 block functions
    sqrt(2j+1) P_j, j = 0..j_max. Tridiagonal: diagonal zero, off-diagonal
    (j+1)/sqrt((2j+1)(2j+3))."""
    if not j_max.is_integer:
        raise ValueError("direction codes use integer j blocks")
    n = j_max.twice_j // 2 + 1
    k = np.arange(n - 1)
    off = (k + 1.0) / np.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0))
    mat = np.zeros((n, n))
    mat[k, k + 1] = off
    mat[k + 1, k] = off
    return mat


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], by
    Golub-Welsch: the nodes are the eigenvalues of the n x n Legendre Jacobi
    matrix (direction_cos_matrix of 2n - 2 spins) and the weights are 2 v_0^2,
    with v_0 the first component of each unit eigenvector."""
    x, vecs = np.linalg.eigh(direction_cos_matrix(SpinJ(2 * n - 2)))
    return x, 2.0 * vecs[0] ** 2


BESSEL_J0_FIRST_ZERO = 2.404825557695773
NEWTON_MAX_STEPS = 20
NEWTON_RTOL = 1e-8


def _legendre_values(x: float, n: int) -> list:
    """[P_0(x), ..., P_n(x)] by the three-term recurrence, in Python floats."""
    p = [1.0, x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p


def optimal_direction_encoding(j_max: SpinJ) -> DirectionCode:
    """Best fidelity F = (1 + lambda_max)/2 over codes with blocks up to j_max
    (N = 2 j_max spins), with the top eigenvector as amplitudes.

    The eigenvalues of direction_cos_matrix are the roots of P_n, n = j_max + 1
    (Golub-Welsch), so lambda_max = cos(theta) for the smallest root theta of
    P_n(cos theta).  Newton finds it in theta from the Bessel-zero estimate
    j_{0,1} / sqrt((n + 1/2)^2 + 1/4), with dP_n/dtheta = n (x P_n - P_{n-1})
    / sin(theta); the eigenvector is sqrt(2k + 1) P_k(lambda_max),
    k = 0..j_max, normalized (its leading entry P_0 = 1 keeps it positive),
    and F = 1 - sin^2(theta/2).

    Only integer j_max is supported: odd spin counts would need a half-integer
    carrier with a different kernel recurrence.
    """
    if not j_max.is_integer:
        raise ValueError(
            "optimal direction encoding needs integer j (an even number of spins); "
            "odd spin counts are not supported"
        )
    n = j_max.twice_j // 2 + 1
    if n == 1:  # P_1 = x: the single-block code, F = 1/2 exactly
        return DirectionCode(j_max=j_max, amplitudes=np.array([1.0]), fidelity=0.5)
    theta = BESSEL_J0_FIRST_ZERO / math.sqrt((n + 0.5) ** 2 + 0.25)
    for _ in range(NEWTON_MAX_STEPS):
        x = math.cos(theta)
        p = _legendre_values(x, n)
        step = p[n] * math.sin(theta) / (n * (x * p[n] - p[n - 1]))
        theta -= step
        # near the root a step of relative size r leaves about r^2/2, so
        # r <= 1e-8 puts theta at the recurrence's rounding floor
        if abs(step) <= NEWTON_RTOL * theta:
            break
    else:
        raise RuntimeError(f"Newton did not converge on the top root of P_{n}")
    p = _legendre_values(math.cos(theta), n)
    vec = np.sqrt(2.0 * np.arange(n) + 1.0) * p[:n]
    vec /= math.sqrt(vec @ vec)
    fidelity = 1.0 - math.sin(theta / 2.0) ** 2
    return DirectionCode(j_max=j_max, amplitudes=vec, fidelity=fidelity)


def coherent_code(j: SpinJ) -> DirectionCode:
    """Single-block code of N = 2j parallel spins: kernel cos^{2j}(chi/2),
    fidelity 1 - 1/(2j+2)."""
    fidelity = 1.0 - 1.0 / (j.twice_j + 2.0)
    return DirectionCode(j_max=j, amplitudes=np.array([1.0]), fidelity=fidelity,
                         carrier="coherent")


CHI_GRID_POINTS = 2048  # points of the even cos(chi) grid that quantile_cos inverts m0 codes on


@lru_cache(maxsize=2)
def _even_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point even grid on [-1, 1] (linspace) and its n - 1 steps
    (diff), read-only: every density's cumulative_in_cos(n) shares them."""
    u = np.linspace(-1.0, 1.0, n)
    steps = np.diff(u)
    u.flags.writeable = False
    steps.flags.writeable = False
    return u, steps


@dataclass(frozen=True, eq=False)
class ChiDensity:
    """Distribution of the angle chi between true and estimated directions for
    a direction code measured with the covariant direction POVM:
    p(chi) = 2 pi sin(chi) |sum_j sqrt((2j+1)/4pi) A_j k_j(cos chi)|^2."""

    code: DirectionCode

    def amplitude(self, u) -> np.ndarray:
        """The kernel sum at u = cos chi, a float or an array of any shape,
        in u's shape (at least 1-D).  An m0 code runs numpy's legvander
        recurrence, its `+ 0.0` included, on the n flattened values into one
        C-contiguous (j_top + 1, n) array of P_j(u)."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        code = self.code
        if code.carrier == "coherent":
            tj = code.j_max.twice_j
            k = ((1.0 + u) / 2.0) ** (tj / 2.0)
            return math.sqrt((tj + 1.0) / (4.0 * math.pi)) * code.amplitudes[0] * k
        j_top = code.j_max.twice_j // 2
        x = u.ravel() + 0.0  # -0.0 reads as +0.0
        rows = np.empty((j_top + 1, x.size))
        np.multiply(x, 0, out=rows[0])
        rows[0] += 1  # x * 0 + 1: NaN where x is not finite
        if j_top > 0:
            rows[1] = x
            tmp = np.empty_like(x)
            for i in range(2, j_top + 1):
                row = np.multiply(rows[i - 1], x, out=rows[i])
                row *= 2 * i - 1
                row -= np.multiply(rows[i - 2], i - 1, out=tmp)
                row /= i
        scale = np.sqrt((2.0 * np.arange(j_top + 1) + 1.0) / (4.0 * math.pi))
        return ((code.amplitudes * scale) @ rows).reshape(u.shape)

    def quantile_cos(self, p) -> np.ndarray:
        """cos chi at CDF values p in [0, 1): sample_chi's inverse.  The
        coherent CDF ((1 + u)/2)^(2j+1) inverts exactly, p = 0 giving -1; an
        m0 code interpolates in cdf_table."""
        code = self.code
        if code.carrier == "coherent":
            return 2.0 * np.asarray(p, dtype=float) ** (1.0 / (code.j_max.twice_j + 1)) - 1.0
        grid, cdf = self.cdf_table
        return np.interp(p, cdf, grid)

    def pdf_cos(self, u) -> np.ndarray:
        """Density in u = cos chi on [-1, 1], in amplitude's shape."""
        g = self.amplitude(u)
        p = g * TWO_PI
        p *= g
        return p

    @cached_property
    def gauss_rule(self) -> tuple:
        """The gauss_legendre rule on n = twice_j // 2 + 2 nodes, exact to
        degree 2n - 1 >= twice_j + 2.  The density is a polynomial of degree
        twice_j in cos chi, so the moment below is exact up to rounding,
        for either carrier and for odd twice_j too."""
        return gauss_legendre(self.code.j_max.twice_j // 2 + 2)

    def expected_fidelity(self) -> float:
        """<cos^2(chi/2)> = (1 + <cos chi>)/2 under this density."""
        x, w = self.gauss_rule
        p = self.pdf_cos(x)
        p *= w
        p *= 1.0 + x
        p /= 2.0
        return float(np.add.reduce(p))

    def cumulative_in_cos(self, n: int) -> tuple:
        """(u grid, CDF values) on n points even in cos chi, trapezoid
        cumulative.  The grid is _even_grid's shared read-only one."""
        u, steps = _even_grid(n)
        p = self.pdf_cos(u)
        cdf = np.empty(n)
        cdf[0] = 0.0
        area = np.add(p[1:], p[:-1], out=cdf[1:])
        area *= 0.5
        area *= steps
        np.cumsum(area, out=area)
        cdf /= cdf[-1]
        return u, cdf

    @cached_property
    def cdf_table(self) -> tuple:
        """quantile_cos's table for the m0 carrier, built once per density
        (a coherent code is inverted exactly and never reads it)."""
        return self.cumulative_in_cos(CHI_GRID_POINTS)


def chi_density(code: DirectionCode) -> ChiDensity:
    return ChiDensity(code=code)


D3_ARC_NODES = 64


@lru_cache(maxsize=2)
def _d3_cell_radii(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Distance r(phi) from direction 0 to the edge of its nearest-direction
    cell along tangent azimuth phi, at Gauss-Legendre nodes.

    Worked in direction 0's frame (`d3_local_frame`): d0 = (1, 0, 0),
    t(phi) = (0, cos phi, sin phi), and the neighbours d_k are the table's
    rows 1-5.  Along t(phi) the great circle cos(r) d0 + sin(r) t crosses
    the bisector plane (d0 - d_k).x = 0 once in (0, pi), at
    r_k = atan2(1 - d0.d_k, t.d_k); the cell edge is the first crossing,
    min_k r_k.  The cell's vertices v ~ (d0 - d_a) x (d0 - d_b) split the
    azimuth into arcs on which one bisector is nearest, so r(phi) is
    analytic on each arc and each arc gets its own Gauss-Legendre rule.
    Returns (M,) radii and (M,) azimuth weights summing to 2 pi.  Cached
    per node count and read-only.
    """
    others = d3_local_frame()[1:]
    diffs = np.array([1.0, 0.0, 0.0]) - others
    # cell vertices: equidistant from d0 and two neighbours, and no nearer
    # to any other neighbour
    a, b = np.triu_indices(len(others), 1)
    verts = np.cross(diffs[a], diffs[b])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    verts *= np.sign(verts[:, :1])
    on_cell = verts[:, 0] >= (verts @ others.T).max(axis=1) - 1e-12
    phis = np.sort(np.arctan2(verts[on_cell, 2], verts[on_cell, 1]))
    breaks = phis[np.concatenate(([True], np.diff(phis) > 1e-9))]
    breaks = np.append(breaks, breaks[0] + TWO_PI)
    half = 0.5 * np.diff(breaks)
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi = ((0.5 * (breaks[1:] + breaks[:-1]))[:, None] + half[:, None] * x).ravel()
    t_dots = np.cos(phi)[:, None] * others[:, 1] + np.sin(phi)[:, None] * others[:, 2]
    radii = np.arctan2(1.0 - others[:, 0], t_dots).min(axis=1)
    weights = (half[:, None] * w).ravel()
    radii.flags.writeable = False
    weights.flags.writeable = False
    return radii, weights


def d3_coherent_error(j: SpinJ) -> float:
    """Error probability of sending a spin-j coherent state along one of the
    six dihedral directions and decoding the covariant direction measurement
    to the nearest of the six.

    The six decoding cells are rotated copies of direction 0's, so one cell
    gives the error.  The estimate leaves the cap of half-angle r with
    probability ((1 + cos r)/2)^(2j+1), so 1 - F = (1/2pi) int over phi of
    ((1 + cos r(phi))/2)^(2j+1): exact up to rounding, with r(phi) from
    _d3_cell_radii, split at the cell's three vertices, on D3_ARC_NODES
    Gauss-Legendre nodes per arc.
    """
    radii, weights = _d3_cell_radii(D3_ARC_NODES)
    tail = ((1.0 + np.cos(radii)) / 2.0) ** (j.twice_j + 1)
    return float(np.sum(weights * tail) / TWO_PI)
