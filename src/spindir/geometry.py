"""Directions on the unit sphere and product quadrature grids."""

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


def polar_angles(vectors: np.ndarray) -> tuple[list, list]:
    """Polar angles (theta, phi) of the direction of each row, as lists.

    libm's acos and atan2 run through map, since numpy's SIMD arccos and
    arctan2 can differ in the last bit.  phi is the raw atan2 value in
    [-pi, pi]; reduce_azimuth takes it into [0, 2*pi)."""
    u = unit_rows(vectors)
    theta = list(map(math.acos, np.clip(u[:, 2], -1.0, 1.0).tolist()))
    return theta, list(map(math.atan2, u[:, 1].tolist(), u[:, 0].tolist()))


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
        (theta,), (phi,) = polar_angles(v[None])
        return cls(theta, phi)

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


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
