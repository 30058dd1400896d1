"""Cartesian frame recovery from two estimated axis directions.

A transmitted frame is described by zxz Euler angles (phi, theta, psi), or
by its z and x axes: a Frame stores those two and derives y = z x x, which
is right-handed by construction.  The receiver sees two noisy directions,
one for the z axis and one for the x axis, and has to invert the
(overdetermined) system of four equations, two per measured axis, for the
three Euler angles.  Two decoders are provided: the naive closed-form
inversion, which ignores one equation and can fail outright, and a
geometric best fit that first locks the zx plane and then splits the
orthogonality defect evenly between z and x.

Frame, euler_to_axes, axes_to_euler, best_fit_frame and frame_infidelity
work on one frame (3-vector axes, float angles) or on a stack of n frames
((n, 3) axes, one row per frame; (n,) angles); a one-frame call is a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import TWO_PI, unit_rows

ORTHO_TOL = 1e-10
DEGENERATE_CROSS_TOL = 1e-8
GIMBAL_SIN_TOL = 1e-9

# Frame validation: the target of each checked value and its error message
_TARGETS = np.array([[1.0], [1.0], [0.0]])
_FAILURES = (
    "z_axis must be unit length, |v| = {}",
    "x_axis must be unit length, |v| = {}",
    "axes not orthogonal: |z.x| = {}",
)


def _wrap_pi(a):
    # reduce to [-pi, pi); a float or an array
    return (a + math.pi) % TWO_PI - math.pi


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b with np.cross's arithmetic, without its set-up cost."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]).T


@dataclass(frozen=True, eq=False)
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
    """Right-handed orthonormal frame given by its z and x axes.

    Each axis is a 3-vector, or an (n, 3) array whose rows are the axes
    of n frames; every row is validated.  y_axis = z_axis x x_axis is
    derived, so it is unit, orthogonal and right-handed by construction.
    """

    z_axis: np.ndarray
    x_axis: np.ndarray
    y_axis: np.ndarray = field(init=False)

    def __post_init__(self):
        z, x = np.asarray(self.z_axis, dtype=float), np.asarray(self.x_axis, dtype=float)
        if z.shape != x.shape or z.ndim not in (1, 2) or z.shape[-1] != 3:
            raise ValueError("the axes must be 3-vectors or (n, 3) stacks of the same shape")
        object.__setattr__(self, "z_axis", z)
        object.__setattr__(self, "x_axis", x)
        # (axis, component, frame) columns: numpy's per-row dot over three
        # components is its slow path
        c = np.array((z.T, x.T)).reshape(2, 3, -1)
        zz, zx, _, xx = np.einsum("ajk,bjk->abk", c, c).reshape(4, -1)
        # one row per check, in the order the checks are reported
        values = np.array((np.sqrt(zz), np.sqrt(xx), np.abs(zx)))
        # written as not-within so that a NaN value fails its check
        within = np.abs(values - _TARGETS) <= ORTHO_TOL
        if not within.all():
            # the first failing check, at the first row that fails it
            bad = ~within
            check = int(np.argmax(bad.any(axis=1)))
            value = float(values[check, np.argmax(bad[check])])
            raise ValueError(_FAILURES[check].format(value))
        object.__setattr__(self, "y_axis", _cross(z, x))


def euler_to_axes(euler: EulerAngles) -> Frame:
    """Forward map: Euler angles -> frame axes (a stack for (n,) angles).

    The z axis is the column (sin(psi)sin(theta), cos(psi)sin(theta),
    cos(theta)); the x axis is the matching column of the zxz matrix.
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
    return Frame(z_axis=z, x_axis=unit_rows(x))


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
    sign of that sine.  phi and psi lie in [-pi, pi].
    """

    phi: float
    theta: float
    psi: float
    failed: bool


def naive_euler_estimate(z, x) -> NaiveEstimate:
    """Closed-form inversion of measured z and x directions, given as unit
    3-vectors (not required to be perpendicular), using three of the four
    equations.

    theta = acos(z_z) and psi = atan2(z_x, z_y) come from the z column
    alone; sin(phi) = x_z / sin(theta) uses only the last row of the x
    column.  The ignored first-row equation resolves the asin quadrant.
    Noisy inputs can push |sin(phi)| above 1; that is reported as a
    failure.  Raises ValueError when z is at a pole.  Finiteness is not
    checked: a NaN passes the z_z clamp, so a NaN z_z gives a NaN theta,
    not a pole angle, and EulerAngles refuses such angles.
    """
    zx, zy, zz = z
    xx, _, xz = x
    sth = math.hypot(zx, zy)
    if sth < GIMBAL_SIN_TOL:
        raise ValueError("z estimate at a pole: naive inversion is degenerate")
    theta = math.acos(1.0 if zz > 1.0 else -1.0 if zz < -1.0 else zz)
    psi = math.atan2(zx, zy)
    s = xz / sth
    # tuple.__new__ skips the named tuple's Python-level __new__
    if abs(s) > 1.0:
        return tuple.__new__(NaiveEstimate, (math.copysign(0.5 * math.pi, s), theta, psi, True))
    phi = math.asin(s)
    # phi0 = asin(s) and pi - phi0 share sin(phi) = s and have opposite
    # cos(phi), so the unused first-row equation,
    # x_x = cos(psi)cos(phi) - sin(psi)cos(theta)s, misses by |c - r| and
    # |c + r|, with c = cos(psi)cos(phi0) and r = sin(psi)cos(theta)s + x_x.
    # pi - phi0 fits better exactly when c r < 0; as cos(phi0) >= 0 and
    # cos(psi) = z_y/sin(theta), that is z_y r < 0.  phi0 wins ties
    if zy * (zx / sth * zz * s + xx) < 0.0:
        phi = math.copysign(math.pi, phi) - phi
    return tuple.__new__(NaiveEstimate, (phi, theta, psi, False))


def best_fit_frame(z_est, x_est) -> tuple[Frame, EulerAngles]:
    """Geometric best fit of estimated z and x directions (or stacks of them).

    The estimates need not be unit length.  The fit stays in their
    plane, so its y lies along z_est x x_est.  Within that plane the two
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
    b = unit_rows(u + v)
    t = unit_rows(u - v)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    frame = Frame(z_axis=(b + t) * inv_sqrt2, x_axis=(b - t) * inv_sqrt2)
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
