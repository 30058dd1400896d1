"""Directions on the unit sphere, unit-quaternion rotation matrices and
product quadrature grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def unit_rows(a: np.ndarray) -> np.ndarray:
    """a scaled to unit length, row by row for a stack."""
    return (a.T / np.sqrt(np.vecdot(a, a))).T


def reduce_azimuth(phi):
    """phi mod 2*pi in [0, 2*pi); a float or an array.

    A tiny negative phi reduces to exactly 2*pi in floating point; that
    value, and only that one, becomes 0.0 (2*pi - 2*pi)."""
    phi = phi % TWO_PI
    return phi - TWO_PI * (phi == TWO_PI)


# quaternion_matrices: entry k of the row-major 3x3 matrix is
# mult * (A + sign * B), plus 1 on the diagonal, where A and B are products
# q_a q_b of quaternion components (w, x, y, z) = (0, 1, 2, 3), stored at
# a * 4 + b of the flattened outer product
_QUAT_A = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])  # yy xy xz xy xx yz xz yz xx
_QUAT_B = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])  # zz wz wy wz zz wx wy wx yy
_QUAT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])[:, None]
_QUAT_MULT = np.array([-2.0, 2.0, 2.0, 2.0, -2.0, 2.0, 2.0, 2.0, -2.0])[:, None]


def quaternion_matrices(q: np.ndarray) -> np.ndarray:
    """Rotation matrices for unit quaternion rows (w, x, y, z).

    Built component-major from one (4, 4, n) outer product of the
    normalised quaternions, so the returned (n, 3, 3) stack is a view whose
    entries are each contiguous over the n rotations."""
    q = q.T.copy()  # a copy even where q.T is already contiguous (one row)
    c0, c1, c2, c3 = q * q
    q /= np.sqrt(((c0 + c1) + c2) + c3)
    outer = (q[:, None] * q).reshape(16, -1)
    out = outer[_QUAT_A]
    b = outer[_QUAT_B]
    b *= _QUAT_SIGN
    out += b
    out *= _QUAT_MULT
    out[::4] += 1.0
    return out.T.reshape(-1, 3, 3)


@dataclass(frozen=True)
class Direction:
    """A point on the unit sphere stored as polar angles.

    theta is the polar angle in [0, pi]; phi is reduced mod 2*pi into [0, 2*pi).
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("angles must be finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", reduce_azimuth(self.phi))

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError("expected a 3-vector")
        norm = float(np.linalg.norm(v))
        if not math.isfinite(norm) or norm < 1e-12:
            raise ValueError("cannot take the direction of a (near-)zero vector")
        x, y, z = (v / norm).tolist()
        return cls(math.acos(min(1.0, max(-1.0, z))), math.atan2(y, x))


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Gauss-Legendre x uniform-azimuth product grid on the sphere.

    Node (i, k) sits at polar angle arccos(x_i) (x_i the i-th Gauss-Legendre node)
    and azimuth 2*pi*k/n_phi, with weight w_i * 2*pi/n_phi, flattened to index
    i * n_phi + k. Weights are positive and sum to 4*pi. Spherical polynomials are
    integrated exactly up to degree min(2*n_theta - 1, n_phi - 1).
    """

    n_theta: int
    n_phi: int
    unit_vectors: np.ndarray = field(repr=False)  # (K, 3)
    weights: np.ndarray = field(repr=False)  # (K,)

    @property
    def max_exact_degree(self) -> int:
        return min(2 * self.n_theta - 1, self.n_phi - 1)

    def nodes(self) -> list[Direction]:
        return [Direction.from_vector(v) for v in self.unit_vectors]


def sphere_quadrature(n_theta: int, n_phi: int) -> SphereQuadrature:
    """Build the product quadrature grid; see SphereQuadrature for the layout."""
    if n_theta < 1 or n_phi < 1:
        raise ValueError("n_theta and n_phi must both be at least 1")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phis = TWO_PI * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(np.clip(1.0 - x**2, 0.0, None))
    ux = np.outer(sin_t, np.cos(phis)).ravel()
    uy = np.outer(sin_t, np.sin(phis)).ravel()
    uz = np.outer(x, np.ones(n_phi)).ravel()
    vectors = np.column_stack([ux, uy, uz])
    weights = np.repeat(w, n_phi) * (TWO_PI / n_phi)
    return SphereQuadrature(n_theta=n_theta, n_phi=n_phi, unit_vectors=vectors, weights=weights)
