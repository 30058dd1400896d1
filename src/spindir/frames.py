"""Cartesian frame recovery from two estimated axis directions.

A transmitted frame is described by zxz Euler angles (phi, theta, psi).
The receiver sees two noisy directions, one for the z axis and one for
the x axis, and has to invert the (overdetermined) four-equation system
relating polar angles to matrix columns.  Two decoders are provided: the
naive closed-form inversion, which ignores one equation and can fail
outright, and a geometric best fit that first locks the y axis and then
splits the orthogonality defect evenly between z and x.

Frame, euler_to_axes, axes_to_euler, best_fit_frame and frame_infidelity
work on one frame (3-vector axes, float angles) or on a stack of n frames
((n, 3) axes, one row per frame; (n,) angles); a one-frame call is a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import TWO_PI, unit_rows

ORTHO_TOL = 1e-10
DEGENERATE_CROSS_TOL = 1e-8
GIMBAL_SIN_TOL = 1e-9

# Frame validation: the Gram entries (z, x, y = 0, 1, 2; entry 3a + b) of
# the checked dot products zx, zy and xy, the cyclic component shifts of a
# cross product, and the target of each checked value and its error message
_DOTS = np.array([1, 2, 5])
_AHEAD = np.array([1, 2, 0])
_BEHIND = np.array([2, 0, 1])
_TARGETS = np.array([[1.0], [1.0], [1.0], [0.0], [0.0], [0.0], [1.0]])
_FAILURES = (
    "z_axis must be unit length, |v| = {}",
    "x_axis must be unit length, |v| = {}",
    "y_axis must be unit length, |v| = {}",
    "axes not orthogonal: |z.x| = {}",
    "axes not orthogonal: |z.y| = {}",
    "axes not orthogonal: |x.y| = {}",
    "frame must be right-handed, x.y,z triple = {}",
)


def _wrap_pi(a):
    # reduce to [-pi, pi); a float or an array
    return (a + math.pi) % TWO_PI - math.pi


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b with np.cross's arithmetic, without its set-up cost."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


@dataclass(frozen=True)
class EulerAngles:
    """zxz Euler triple; the axis columns below define the convention.

    theta lies in [0, pi]; phi and psi are stored wrapped to [-pi, pi).
    Each angle is a float, or an (n,) array for a stack of n rotations.
    """

    phi: float | np.ndarray
    theta: float | np.ndarray
    psi: float | np.ndarray

    def __post_init__(self):
        if not all(np.isfinite(a).all() for a in (self.phi, self.theta, self.psi)):
            raise ValueError("Euler angles must be finite")
        if not np.all((self.theta >= 0.0) & (self.theta <= math.pi)):
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "phi", _wrap_pi(self.phi))
        object.__setattr__(self, "psi", _wrap_pi(self.psi))


@dataclass(frozen=True, eq=False)
class Frame:
    """Right-handed orthonormal triad (z_axis, x_axis, y_axis).

    Each axis is a 3-vector, or an (n, 3) array whose rows are the axes
    of n frames; every row is validated.
    """

    z_axis: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray

    def __post_init__(self):
        axes = []
        for name in ("z_axis", "x_axis", "y_axis"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.ndim not in (1, 2) or v.shape[-1] != 3:
                raise ValueError(f"{name} must be a 3-vector or an (n, 3) stack")
            object.__setattr__(self, name, v)
            axes.append(v)
        z, x, y = axes
        if not z.shape == x.shape == y.shape:
            raise ValueError("the three axes must have the same shape")
        # (axis, component, frame) columns: numpy's per-row dot over three
        # components is its slow path
        c = np.array((z.T, x.T, y.T)).reshape(3, 3, -1)
        gram = np.einsum("ajk,bjk->abk", c, c).reshape(9, -1)
        # one row per check, in the order the checks are reported:
        # three norms, three |dot products|, the x.y,z triple product
        values = np.empty((7, c.shape[-1]))
        np.sqrt(gram[::4], out=values[:3])
        np.abs(gram.take(_DOTS, axis=0), out=values[3:6])
        # z . (x cross y), the cross product from cyclically shifted components
        cross = c[1].take(_AHEAD, axis=0) * c[2].take(_BEHIND, axis=0)
        cross -= c[1].take(_BEHIND, axis=0) * c[2].take(_AHEAD, axis=0)
        cross *= c[0]
        cross.sum(axis=0, out=values[6])
        # written as not-within so that a NaN value fails its check
        within = np.abs(values - _TARGETS) <= ORTHO_TOL
        if not within.all():
            # the first failing check, at the first row that fails it
            bad = ~within
            check = int(np.argmax(bad.any(axis=1)))
            value = float(values[check, np.argmax(bad[check])])
            raise ValueError(_FAILURES[check].format(value))


def euler_to_axes(euler: EulerAngles) -> Frame:
    """Forward map: Euler angles -> frame axes (a stack for (n,) angles).

    The z axis is the column (sin(psi)sin(theta), cos(psi)sin(theta),
    cos(theta)); the x axis is the matching column of the zxz matrix;
    y completes the right-handed triad.
    """
    sphi, cphi = np.sin(euler.phi), np.cos(euler.phi)
    sth, cth = np.sin(euler.theta), np.cos(euler.theta)
    spsi, cpsi = np.sin(euler.psi), np.cos(euler.psi)
    z = np.stack([spsi * sth, cpsi * sth, cth], axis=-1)
    x = np.stack(
        [
            cpsi * cphi - spsi * cth * sphi,
            -spsi * cphi - cpsi * cth * sphi,
            sth * sphi,
        ],
        axis=-1,
    )
    return Frame(z_axis=z, x_axis=unit_rows(x), y_axis=unit_rows(_cross(z, x)))


def axes_to_euler(frame: Frame) -> EulerAngles:
    """Extract zxz Euler angles from an orthonormal frame (or a stack).

    Inverse of euler_to_axes away from the gimbal-locked poles; at
    sin(theta) ~ 0 the azimuths degenerate to their sum (theta = 0) or
    difference (theta = pi), so phi is set to 0 and psi carries the
    whole in-plane rotation.
    """
    z0, z1, z2 = frame.z_axis.T
    x0, x1, x2 = frame.x_axis.T
    y2 = frame.y_axis.T[2]
    theta = np.arccos(np.clip(z2, -1.0, 1.0))
    pole = np.sin(theta) < GIMBAL_SIN_TOL
    # off the poles: psi from the z column; the third-row identities
    # x_z = sin(theta)sin(phi), y_z = -sin(theta)cos(phi) give phi.
    # At a pole x = (cos(psi +/- phi), -sin(psi +/- phi), 0); fold into psi.
    psi = np.arctan2(np.where(pole, -x1, z0), np.where(pole, x0, z1))
    phi = np.arctan2(np.where(pole, 0.0, x2), np.where(pole, 1.0, -y2))
    return EulerAngles(phi=phi, theta=theta, psi=psi)


class NaiveEstimate(NamedTuple):
    """Outcome of the closed-form inversion, as floats.

    failed is True when the measured directions imply |sin(phi)| > 1 and
    the arcsine has no real solution; phi is then clamped to pi/2 with the
    sign of that sine.  phi and psi are wrapped to [-pi, pi).
    """

    phi: float
    theta: float
    psi: float
    failed: bool


def naive_euler_estimate(
    theta_z: float, phi_z: float, theta_x: float, phi_x: float
) -> NaiveEstimate:
    """Closed-form inversion of measured z and x directions (not required to
    be perpendicular), given by their polar angles, using three of the four
    equations.  Each azimuth must already lie in [0, 2*pi), as
    geometry.reduce_azimuth leaves it.

    theta = theta_z and psi = pi/2 - phi_z come from the z column alone;
    phi = asin(cos(theta_x)/sin(theta_z)) uses only the last row of the
    x column.  The ignored first-row equation resolves the asin quadrant.
    Noisy inputs can push |sin(phi)| above 1; that is reported as a
    failure.  Raises ValueError when theta_z is at a pole.
    """
    sth = math.sin(theta_z)
    if sth < GIMBAL_SIN_TOL:
        raise ValueError("z estimate at a pole: naive inversion is degenerate")
    # the wraps to [-pi, pi) are _wrap_pi written out, three calls fewer per trial
    psi = (0.5 * math.pi - phi_z + math.pi) % TWO_PI - math.pi
    s = math.cos(theta_x) / sth
    if abs(s) > 1.0:
        return NaiveEstimate(math.copysign(0.5 * math.pi, s), theta_z, psi, True)
    phi0 = math.asin(s)
    phi1 = (math.pi - phi0 + math.pi) % TWO_PI - math.pi
    # the first row of the x column predicted by each branch, against the
    # measured sin(theta_x)cos(phi_x); phi0 wins ties
    cpsi, spsi_cth = math.cos(psi), math.sin(psi) * math.cos(theta_z)
    x_first = math.sin(theta_x) * math.cos(phi_x)
    r0 = abs(cpsi * math.cos(phi0) - spsi_cth * math.sin(phi0) - x_first)
    r1 = abs(cpsi * math.cos(phi1) - spsi_cth * math.sin(phi1) - x_first)
    phi = phi1 if r1 < r0 else phi0
    return NaiveEstimate((phi + math.pi) % TWO_PI - math.pi, theta_z, psi, False)


def best_fit_frame(z_est, x_est) -> tuple[Frame, EulerAngles]:
    """Geometric best fit of estimated z and x directions (or stacks of them).

    The estimates need not be unit length.  y is taken along
    z_est x x_est, fixing the zx plane.  Within that plane the two
    estimates are rotated toward each other by equal amounts until
    exactly perpendicular (both axes carry the same spin budget, so
    neither is trusted more).  Raises ValueError if any pair is
    (anti)parallel.
    """
    u = unit_rows(np.asarray(z_est, dtype=float))
    v = unit_rows(np.asarray(x_est, dtype=float))
    cross = _cross(u, v)
    cn = np.sqrt(np.vecdot(cross, cross))
    if (cn < DEGENERATE_CROSS_TOL).any():
        raise ValueError("z and x estimates are (anti)parallel; no plane is defined")
    y = (cross.T / cn).T
    b = unit_rows(u + v)
    t = unit_rows(u - v)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    z_fit = (b + t) * inv_sqrt2
    x_fit = (b - t) * inv_sqrt2
    frame = Frame(z_axis=z_fit, x_axis=x_fit, y_axis=y)
    return frame, axes_to_euler(frame)


def frame_infidelity(true: Frame, est: Frame):
    """Sum over the three axes of sin^2(chi_i / 2) = (1 - r_i . r_hat_i)/2.

    A float for one frame pair, an (n,) array for stacks of n.
    """
    total = 0.0
    for name in ("x_axis", "y_axis", "z_axis"):
        c = np.vecdot(getattr(true, name), getattr(est, name))
        total += 0.5 * (1.0 - np.minimum(1.0, np.maximum(-1.0, c)))
    return total
