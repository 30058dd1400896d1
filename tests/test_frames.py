import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays
from spin_fixtures import assert_same_bits, axes_matrix, unit_vector

from spindir.frames import (
    GIMBAL_SIN_TOL,
    ORTHO_TOL,
    EulerAngles,
    Frame,
    NaiveEstimate,
    _wrap_pi,
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from spindir.geometry import Direction, reduce_azimuth, unit_rows

RNG = np.random.default_rng(977)


def random_euler() -> EulerAngles:
    return EulerAngles(
        phi=RNG.uniform(-math.pi, math.pi),
        theta=math.acos(RNG.uniform(-1.0, 1.0)),
        psi=RNG.uniform(-math.pi, math.pi),
    )


def _pair(frame: Frame) -> tuple[Direction, Direction]:
    """The polar angles of a frame's z and x axes, as a receiver measures them."""
    return Direction.from_vector(frame.z_axis), Direction.from_vector(frame.x_axis)


def _frame_angles(frame: Frame) -> tuple[float, float, float, float]:
    """The polar angles (theta_z, phi_z, theta_x, phi_x) of a frame's axes."""
    z_dir, x_dir = _pair(frame)
    return z_dir.theta, z_dir.phi, x_dir.theta, x_dir.phi


def test_euler_angle_ranges():
    e = EulerAngles(phi=3.0 * math.pi + 0.1, theta=1.0, psi=-5.0 * math.pi)
    assert -math.pi <= e.phi < math.pi
    assert e.phi == pytest.approx(math.pi + 0.1 - 2.0 * math.pi)
    assert e.psi == pytest.approx(-math.pi)
    assert EulerAngles(phi=4, theta=1, psi=0).phi == pytest.approx(4.0 - 2.0 * math.pi)
    stack = EulerAngles(phi=np.array([4.0, 0.5]), theta=np.array([1.0, 0.0]), psi=np.zeros(2))
    np.testing.assert_allclose(stack.phi, [4.0 - 2.0 * math.pi, 0.5])
    with pytest.raises(ValueError, match="theta"):
        EulerAngles(phi=np.zeros(2), theta=np.array([1.0, -0.1]), psi=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        EulerAngles(phi=np.array([0.0, math.inf]), theta=np.ones(2), psi=np.zeros(2))
    with pytest.raises(ValueError):
        EulerAngles(phi=0.0, theta=-0.1, psi=0.0)
    with pytest.raises(ValueError):
        EulerAngles(phi=math.nan, theta=1.0, psi=0.0)


def test_frame_validation():
    eye = np.eye(3)
    Frame(z_axis=eye[2], x_axis=eye[0])
    with pytest.raises(ValueError, match="unit"):
        Frame(z_axis=2.0 * eye[2], x_axis=eye[0])
    with pytest.raises(ValueError, match="orthogonal"):
        v = np.array([0.1, 0.0, 1.0])
        Frame(z_axis=v / np.linalg.norm(v), x_axis=eye[0])
    with pytest.raises(ValueError, match="shape"):
        Frame(z_axis=eye[2], x_axis=eye[:2])
    with pytest.raises(TypeError):
        Frame(z_axis=eye[2], x_axis=eye[0], y_axis=eye[1])
    # NaN compares false with any tolerance; it must still fail a check
    with pytest.raises(ValueError, match=r"z_axis must be unit length, \|v\| = nan"):
        Frame(z_axis=[math.nan] * 3, x_axis=eye[0])


def test_frame_y_is_z_cross_x():
    # y is derived, so it is right-handed: a flipped z flips y with it
    eye = np.eye(3)
    flipped = Frame(z_axis=-eye[2], x_axis=eye[0])
    assert_same_bits(flipped.y_axis, np.cross(-eye[2], eye[0]))
    np.testing.assert_array_equal(flipped.y_axis, -eye[1])
    z, x = _frame_stack(64)
    stack = Frame(z_axis=z, x_axis=x)
    assert_same_bits(stack.y_axis, np.cross(z, x))
    for i in (0, 17, 63):
        assert_same_bits(Frame(z_axis=z[i], x_axis=x[i]).y_axis, stack.y_axis[i])


def _frame_stack(n: int) -> list:
    """Axes of n valid frames, as (n, 3) arrays z, x."""
    frames = [euler_to_axes(random_euler()) for _ in range(n)]
    return [np.array([getattr(f, a) for f in frames]) for a in ("z_axis", "x_axis")]


@pytest.mark.parametrize(
    "bad_z, message",
    [
        (2.0 * np.eye(3)[2], "unit"),
        (np.array([0.1, 0.0, 1.0]) / math.sqrt(1.01), "orthogonal"),
        # fails the norm and the zx check; the norm is checked first
        (2.0 * np.array([0.1, 0.0, 1.0]) / math.sqrt(1.01), r"unit length, \|v\| = 2\.0"),
        (np.full(3, math.nan), r"z_axis must be unit length, \|v\| = nan"),
    ],
)
def test_frame_stack_validates_every_row(bad_z, message):
    # bad frames, as row 3 of a stack of good ones
    eye = np.eye(3)
    z, x = _frame_stack(6)
    assert Frame(z_axis=z, x_axis=x).z_axis.shape == (6, 3)
    z[3], x[3] = bad_z, eye[0]
    with pytest.raises(ValueError, match=message):
        Frame(z_axis=z, x_axis=x)


# each Frame check in the order they are reported, and a fault that fails it
# after every earlier check passes: (message, axis to change, faulty axis as
# a function of the fault size a, the value the message names)
_FRAME_CHECKS = [
    (r"z_axis must be unit length, \|v\|", 0, lambda a: (1.0 + a) * np.eye(3)[2], lambda a: 1.0 + a),
    (r"x_axis must be unit length, \|v\|", 1, lambda a: (1.0 + a) * np.eye(3)[0], lambda a: 1.0 + a),
    (r"axes not orthogonal: \|z.x\|", 1, lambda a: np.array([math.cos(a), 0.0, math.sin(a)]), math.sin),
    (r"z_axis must be unit length, \|v\|", 0, lambda a: np.array([math.nan, 0.0, 1.0]), lambda a: math.nan),
]


def _message_value(err: pytest.ExceptionInfo) -> float:
    return float(str(err.value).rsplit("= ", 1)[1])


@pytest.mark.parametrize("n", [1, 128])
@pytest.mark.parametrize("check", range(len(_FRAME_CHECKS)), ids=[
    "z-norm", "x-norm", "zx-dot", "nan"
])
def test_each_frame_check_names_its_first_failing_row(check, n):
    # the lab frame with one axis replaced fails exactly this check (and maybe
    # later ones); in a stack, rows 40 and 90 carry the fault with different
    # sizes, and row 10 fails only the zx check, which is reported later
    message, axis, faulty, value = _FRAME_CHECKS[check]
    eye = np.eye(3)
    if n == 1:
        axes = [eye[2].copy(), eye[0].copy()]
        axes[axis] = faulty(0.25)
    else:
        axes = _frame_stack(n)
        for row, a in ((40, 0.25), (90, 0.5)):
            axes[0][row], axes[1][row] = eye[2], eye[0]
            axes[axis][row] = faulty(a)
        if check != 2:
            axes[0][10], axes[1][10] = eye[2], _FRAME_CHECKS[2][2](0.125)
    with pytest.raises(ValueError, match=f"^{message} = ") as err:
        Frame(z_axis=axes[0], x_axis=axes[1])
    got, want = _message_value(err), value(0.25)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


def _reference_frame_failure(z, x) -> str | None:
    """The message of the first failing Frame check, computed as the check
    did before it took the misfits' maximum first; None when all pass."""
    c = np.array((z.T, x.T)).reshape(2, 3, -1)
    zz, zx, _, xx = np.einsum("ajk,bjk->abk", c, c).reshape(4, -1)
    values = np.array((np.sqrt(zz), np.sqrt(xx), np.abs(zx)))
    within = np.abs(values - np.array([[1.0], [1.0], [0.0]])) <= ORTHO_TOL
    if within.all():
        return None
    bad = ~within
    check = int(np.argmax(bad.any(axis=1)))
    value = float(values[check, np.argmax(bad[check])])
    return (
        "z_axis must be unit length, |v| = {}",
        "x_axis must be unit length, |v| = {}",
        "axes not orthogonal: |z.x| = {}",
    )[check].format(value)


# one row's fault: (axis, faulty axis); the last two stay within ORTHO_TOL
_ROW_FAULTS = [
    (0, np.array([0.0, 0.0, 1.0 + 3e-10])),
    (1, np.array([1.0 - 3e-10, 0.0, 0.0])),
    (1, np.array([math.cos(3e-10), 0.0, math.sin(3e-10)])),
    (0, np.array([0.0, math.nan, 1.0])),
    (1, np.array([math.inf, 0.0, 0.0])),
    (1, np.array([-math.inf, 0.0, 0.0])),
    (0, np.array([0.0, 0.0, 1.0 + 5e-11])),
    (1, np.array([math.cos(5e-11), 0.0, math.sin(5e-11)])),
]


@pytest.mark.parametrize("n", [1, 2, 128, 1000])
@pytest.mark.parametrize("fault", range(len(_ROW_FAULTS)))
def test_frame_with_one_bad_row_fails_as_the_reference(fault, n):
    # the fault in the first, a middle or the last row of valid frames
    axis, bad = _ROW_FAULTS[fault]
    eye = np.eye(3)
    for row in sorted({0, n // 2, n - 1}):
        axes = _frame_stack(n) if n > 1 else [eye[2].copy(), eye[0].copy()]
        if n > 1:
            axes[0][row], axes[1][row] = eye[2], eye[0]
            axes[axis][row] = bad
        else:
            axes[axis] = bad
        want = _reference_frame_failure(axes[0], axes[1])
        if want is None:
            assert Frame(z_axis=axes[0], x_axis=axes[1]).y_axis.shape == axes[0].shape
        else:
            with pytest.raises(ValueError) as err:
                Frame(z_axis=axes[0], x_axis=axes[1])
            assert str(err.value) == want


@pytest.mark.parametrize("n", [1, 128])
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("phi", math.nan, "Euler angles must be finite"),
        ("psi", math.inf, "Euler angles must be finite"),
        ("theta", math.nan, "Euler angles must be finite"),
        ("theta", -math.inf, "Euler angles must be finite"),
        ("theta", -5e-324, "theta must lie in"),
        ("theta", math.nextafter(math.pi, 4.0), "theta must lie in"),
        ("theta", 7.0, "theta must lie in"),
    ],
)
def test_euler_stack_refuses_a_bad_last_row(name, value, message, n):
    angles = {
        "phi": np.linspace(-3.0, 3.0, n),
        "theta": np.linspace(0.0, math.pi, n),
        "psi": np.linspace(3.0, -3.0, n),
    }
    EulerAngles(**angles)  # -0.0 and pi are within [0, pi]
    angles[name][-1] = value
    want = message if message.endswith("finite") else f"theta must lie in [0, pi], got {angles['theta']}"
    with pytest.raises(ValueError) as err:
        EulerAngles(**angles)
    assert str(err.value) == want


def test_euler_checks_keep_their_order_and_take_large_finite_angles():
    # a non-finite phi is reported before a theta out of range
    with pytest.raises(ValueError, match="finite"):
        EulerAngles(phi=np.array([0.0, math.nan]), theta=np.array([-1.0, 1.0]), psi=np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        EulerAngles(phi=0.0, theta=math.nan, psi=0.0)
    big = EulerAngles(phi=np.array([1e308, -1e308]), theta=np.array([-0.0, math.pi]), psi=np.zeros(2))
    assert np.all(np.abs(big.phi) <= math.pi)
    assert EulerAngles(phi=np.empty(0), theta=np.empty(0), psi=np.empty(0)).phi.shape == (0,)


def _where_axes_to_euler(frame: Frame) -> tuple:
    """(phi, theta, psi) as axes_to_euler took them with np.where on every
    row and np.clip: the reference for its pole-free branch."""
    z0, z1, z2 = frame.z_axis.T
    x0, x1, x2 = frame.x_axis.T
    y2 = frame.y_axis.T[2]
    theta = np.arccos(np.clip(z2, -1.0, 1.0))
    pole = np.sin(theta) < GIMBAL_SIN_TOL
    psi = np.arctan2(np.where(pole, -x1, z0), np.where(pole, x0, z1))
    phi = np.arctan2(np.where(pole, 0.0, x2), np.where(pole, 1.0, -y2))
    return _wrap_pi(phi), theta, _wrap_pi(psi)


@pytest.mark.parametrize("poles", ["none", "one", "all"])
@pytest.mark.parametrize("n", [1, 7, 128])
def test_axes_to_euler_matches_the_where_reference(poles, n):
    rng = np.random.default_rng(n)
    theta = np.arccos(rng.uniform(-1.0, 1.0, n))
    if poles == "one":
        theta[n // 2] = 0.0 if n % 2 else math.pi
    elif poles == "all":
        theta[:] = np.where(np.arange(n) % 2, 0.0, math.pi)
        theta[0] = 1e-10  # inside GIMBAL_SIN_TOL of the pole
    angles = EulerAngles(phi=rng.uniform(-3.0, 3.0, n), theta=theta, psi=rng.uniform(-3.0, 3.0, n))
    frame = euler_to_axes(angles)
    got = axes_to_euler(frame)
    for a, b in zip((got.phi, got.theta, got.psi), _where_axes_to_euler(frame)):
        assert_same_bits(a, b)
    one = Frame(z_axis=frame.z_axis[0], x_axis=frame.x_axis[0])
    for a, b in zip(axes_to_euler(one).__dict__.values(), _where_axes_to_euler(one)):
        assert_same_bits(np.asarray(a), np.asarray(b))


def test_best_fit_stack_rejects_one_parallel_pair():
    frames = _frame_stack(5)
    z, x = frames[0].copy(), frames[1].copy()
    fit, angles = best_fit_frame(z, x)
    assert fit.z_axis.shape == (5, 3) and angles.theta.shape == (5,)
    for twin in (z[2], -z[2]):
        x[2] = twin
        with pytest.raises(ValueError, match="plane"):
            best_fit_frame(z, x)


def test_forward_map_produces_orthonormal_frame():
    for _ in range(200):
        frame = euler_to_axes(random_euler())
        z_dir, x_dir = _pair(frame)
        m = axes_matrix(frame)
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(unit_vector(z_dir), frame.z_axis, atol=1e-12)
        np.testing.assert_allclose(unit_vector(x_dir), frame.x_axis, atol=1e-12)


def test_identity_angles_give_lab_frame():
    frame = euler_to_axes(EulerAngles(phi=0.0, theta=0.0, psi=0.0))
    np.testing.assert_allclose(frame.z_axis, [0.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(frame.x_axis, [1.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(frame.y_axis, [0.0, 1.0, 0.0], atol=1e-15)


def test_forward_map_stack_matches_rows():
    # pole rows (theta = 0, pi) mixed with off-pole rows, one stacked call
    rows = [random_euler() for _ in range(12)]
    for i, theta in ((0, 0.0), (3, math.pi), (4, 0.0), (11, math.pi)):
        rows[i] = EulerAngles(phi=rows[i].phi, theta=theta, psi=rows[i].psi)
    stack = euler_to_axes(
        EulerAngles(
            phi=np.array([e.phi for e in rows]),
            theta=np.array([e.theta for e in rows]),
            psi=np.array([e.psi for e in rows]),
        )
    )
    assert stack.z_axis.shape == (12, 3)
    for i, e in enumerate(rows):
        one = euler_to_axes(e)
        assert one.z_axis.shape == (3,)
        for name in ("z_axis", "x_axis", "y_axis"):
            np.testing.assert_allclose(
                getattr(stack, name)[i], getattr(one, name), rtol=0.0, atol=1e-15
            )


def test_round_trip_away_from_poles():
    frames = []
    for _ in range(500):
        e = random_euler()
        if math.sin(e.theta) < 1e-6:
            continue
        frame = euler_to_axes(e)
        back = axes_to_euler(frame)
        assert back.theta == pytest.approx(e.theta, abs=1e-9)
        assert _angle_diff(back.phi, e.phi) < 1e-9
        assert _angle_diff(back.psi, e.psi) < 1e-9
        frames.append(frame)
    # the same frames as one stack, with pole rows mixed in
    for k, theta in enumerate([0.0, math.pi, 0.0]):
        pole = euler_to_axes(EulerAngles(phi=0.3 * k, theta=theta, psi=1.2 - k))
        frames.insert(100 * k + 1, pole)
    _assert_stack_matches_rows(frames)


def _angle_diff(a: float, b: float) -> float:
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _assert_stack_matches_rows(frames: list[Frame]) -> EulerAngles:
    """axes_to_euler on the stacked frames gives each frame's own angles."""
    stack = Frame(
        z_axis=np.array([f.z_axis for f in frames]),
        x_axis=np.array([f.x_axis for f in frames]),
    )
    got = axes_to_euler(stack)
    assert got.theta.shape == (len(frames),)
    for i, frame in enumerate(frames):
        one = axes_to_euler(frame)
        assert got.theta[i] == pytest.approx(one.theta, abs=1e-14)
        assert _angle_diff(got.phi[i], one.phi) < 1e-14
        assert _angle_diff(got.psi[i], one.psi) < 1e-14
    return got


@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_gimbal_pole_round_trip(theta):
    # at the poles only the sum (or difference) of the azimuths survives;
    # the extraction pins phi = 0 and must still reproduce the frame
    frames = []
    for phi, psi in [(0.3, 1.2), (-2.0, 0.7), (1.0, -1.0)]:
        frame = euler_to_axes(EulerAngles(phi=phi, theta=theta, psi=psi))
        back = axes_to_euler(frame)
        assert back.phi == 0.0
        assert back.theta == pytest.approx(theta, abs=1e-9)
        frame2 = euler_to_axes(back)
        assert frame_infidelity(frame, frame2) < 1e-15
        frames.append(frame)
    # stacked between off-pole rows, each pole row keeps phi = 0
    off_pole = euler_to_axes(EulerAngles(phi=0.3, theta=1.0, psi=1.2))
    frames = [off_pole] + frames[:2] + [off_pole] + frames[2:]
    got = _assert_stack_matches_rows(frames)
    assert (got.phi[[1, 2, 4]] == 0.0).all()


def test_naive_estimate_exact_on_clean_data():
    failures = 0
    for _ in range(300):
        e = random_euler()
        if math.sin(e.theta) < 1e-3:
            continue
        frame = euler_to_axes(e)
        out = naive_euler_estimate(frame.z_axis, frame.x_axis)
        assert not out.failed
        rec = euler_to_axes(EulerAngles(out.phi, out.theta, out.psi))
        assert frame_infidelity(frame, rec) < 1e-10
        assert _angle_diff(out.phi, e.phi) < 1e-8
        assert _angle_diff(out.psi, e.psi) < 1e-8
        failures += out.failed
    assert failures == 0


def test_naive_estimate_quadrant_choice():
    # |phi| beyond pi/2 exercises the branch that the bare arcsine misses
    for phi in (2.0, -2.5, 3.0):
        frame = euler_to_axes(EulerAngles(phi=phi, theta=1.1, psi=0.4))
        out = naive_euler_estimate(frame.z_axis, frame.x_axis)
        assert not out.failed
        assert _angle_diff(out.phi, phi) < 1e-9


def test_naive_estimate_failure_fixture():
    # phi = pi/2 puts the x axis at the pole and z on the equator; tilting the
    # measured z inward by 0.1 gives x_z/sin(theta) = 1/cos(0.1) > 1
    z = [math.cos(0.1), 0.0, math.sin(0.1)]
    out = naive_euler_estimate(z, [0.0, 0.0, 1.0])
    assert out.failed
    assert out.phi == 0.5 * math.pi


def test_naive_estimate_pole_raises():
    with pytest.raises(ValueError, match="pole"):
        naive_euler_estimate([0.0, 0.0, 1.0], unit_vector(Direction(0.5, 0.2)))


def test_naive_estimate_nan_z_z_gives_nan_theta():
    # the clamp of z_z must not turn a NaN into the pole angle pi (or 0)
    for zz in (math.nan, -math.nan):
        out = naive_euler_estimate((0.6, 0.8, zz), (0.8, -0.6, 0.0))
        assert math.isnan(out.theta)
        assert math.isnan(out.psi)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("axis, component", [("z", 0), ("z", 1), ("z", 2), ("x", 0), ("x", 2)])
def test_naive_estimate_non_finite_component_gives_nan_angles(axis, component, bad):
    # each component the decoder reads: an infinite one must not yield a
    # plausible frame, nor a NaN x_x slip past the quadrant rule
    axes = {"z": [0.6, 0.8, 0.0], "x": [0.8, -0.6, 0.0]}
    axes[axis][component] = bad
    out = naive_euler_estimate(axes["z"], axes["x"])
    assert all(math.isnan(a) for a in out[:3])
    assert out.failed is False


def test_naive_estimate_does_not_read_x_y():
    for bad in (math.inf, math.nan):
        assert naive_euler_estimate((0.6, 0.8, 0.0), (0.8, bad, 0.0)) == \
            naive_euler_estimate((0.6, 0.8, 0.0), (0.8, -0.6, 0.0))


def _zx(phi: float) -> tuple[np.ndarray, np.ndarray]:
    """The z and x axes of a clean frame with the given phi."""
    frame = euler_to_axes(EulerAngles(phi=phi, theta=1.1, psi=0.4))
    return frame.z_axis, frame.x_axis


@pytest.mark.parametrize(
    "z, x, failed",
    [
        (*_zx(0.7), False),
        (*_zx(2.5), False),
        # x at the pole, z tilted 0.1 off the equator: |sin phi| > 1
        (np.array([math.cos(0.1), 0.0, math.sin(0.1)]), np.array([0.0, 0.0, 1.0]), True),
    ],
    ids=["asin-branch", "pi-minus-asin-branch", "clamped"],
)
def test_naive_estimate_is_the_same_for_every_input_type(z, x, failed):
    # the harness passes tuples of floats, other callers lists or arrays;
    # perfbench's tracer reads out.failed as a truth value
    outs = [
        naive_euler_estimate(convert(z), convert(x))
        for convert in (lambda a: a.tolist(), lambda a: tuple(a.tolist()), lambda a: a)
    ]
    for out in outs:
        assert type(out) is NaiveEstimate
        assert out.failed is failed
        assert tuple(out) == tuple(outs[0])


def _polar(u) -> tuple[float, float]:
    """The polar angles of a unit 3-vector, the azimuth in [0, 2*pi)."""
    return math.acos(min(1.0, max(-1.0, u[2]))), reduce_azimuth(math.atan2(u[1], u[0]))


def _polar_naive_estimate(theta_z, phi_z, theta_x, phi_x) -> NaiveEstimate:
    """Test-only oracle: the closed-form inversion on the polar angles of
    the measured z and x, each azimuth in [0, 2*pi), as the package
    computed it before it read the unit axes.  theta = theta_z, psi =
    pi/2 - phi_z, sin(phi) = cos(theta_x)/sin(theta_z) (phi clamped to
    +-pi/2 past 1), and the first row of x picks the asin branch, phi0
    winning ties."""
    sth = math.sin(theta_z)
    if sth < GIMBAL_SIN_TOL:
        raise ValueError("z estimate at a pole: naive inversion is degenerate")
    psi = _wrap_pi(0.5 * math.pi - phi_z)
    s = math.cos(theta_x) / sth
    if abs(s) > 1.0:
        return NaiveEstimate(math.copysign(0.5 * math.pi, s), theta_z, psi, True)
    phi0 = math.asin(s)
    x_first = math.sin(theta_x) * math.cos(phi_x)
    best = None
    for phi in (phi0, _wrap_pi(math.pi - phi0)):
        pred = math.cos(psi) * math.cos(phi) - math.sin(psi) * math.cos(theta_z) * math.sin(phi)
        r = abs(pred - x_first)
        if best is None or r < best[0]:
            best = (r, phi)
    return NaiveEstimate(best[1], theta_z, psi, False)


def _check_against_oracle(z, x) -> tuple[NaiveEstimate, NaiveEstimate]:
    """naive_euler_estimate on unit axes against the oracle on their polar
    angles: the same failed flag, and theta and psi within 1e-12 (mod
    2*pi).  Both outcomes are returned for the caller's phi check."""
    got = naive_euler_estimate(z, x)
    want = _polar_naive_estimate(*_polar(z), *_polar(x))
    assert got.failed == want.failed
    assert _angle_diff(got.theta, want.theta) <= 1e-12
    assert _angle_diff(got.psi, want.psi) <= 1e-12
    return got, want


def test_naive_estimate_matches_direction_oracle():
    rng = np.random.default_rng(2024)
    n = 100_000
    zs = unit_rows(rng.standard_normal((n, 3))).tolist()
    xs = unit_rows(rng.standard_normal((n, 3))).tolist()
    outs = []
    for z, x in zip(zs, xs):
        got, want = _check_against_oracle(z, x)
        assert _angle_diff(got.phi, want.phi) <= 1e-12
        outs.append(got)
    assert all(-math.pi <= a <= math.pi for o in outs for a in (o.phi, o.psi))
    ok = [o for o in outs if not o.failed]
    failed = [o for o in outs if o.failed]
    # both quadrant branches and both failure signs occur
    assert sum(abs(o.phi) > 0.5 * math.pi for o in ok) > 10_000
    assert sum(abs(o.phi) < 0.5 * math.pi for o in ok) > 10_000
    # a failed phi is clamped to pi/2 with the sign of sin(phi)
    assert sum(o.phi > 0.0 for o in failed) > 10_000
    assert sum(o.phi < 0.0 for o in failed) > 10_000


@pytest.mark.parametrize(
    "theta_z, phi_z, theta_x, phi_x",
    [
        # |phi| > pi/2: the quadrant branch
        *(
            _frame_angles(euler_to_axes(EulerAngles(phi=phi, theta=1.1, psi=0.4)))
            for phi in (2.0, -2.5, 3.0)
        ),
        # psi = +-pi/2: both branches predict the same first row, phi0 wins
        (1.977, 0.0, 0.589, 1.407),
        (1.302, math.pi, 0.602, 3.403),
        # x at a pole, z tilted off the equator: sin phi = +-1/cos(0.1)
        (0.5 * math.pi - 0.1, 0.0, 0.0, 0.5 * math.pi),
        (0.5 * math.pi - 0.1, 1.0, math.pi, 0.5 * math.pi),
        # azimuths that Direction reduces from exactly 2*pi to 0.0
        (1.0, -1e-20, 1.2, -1e-300),
        (0.5 * math.pi - 0.1, -1e-20, 0.0, -5e-324),
        (2.0, -4 * math.pi, 1.0, -1e-17),
    ],
)
def test_naive_estimate_matches_direction_oracle_on_edge_cases(theta_z, phi_z, theta_x, phi_x):
    # the sin(pi) and cos(pi/2) of the angles are the zeros they stand for:
    # at psi = -pi/2, z_y = 1.2e-16 would break the tie by its rounding
    z, x = (
        np.where(np.abs(v) < 1e-15, 0.0, v)
        for v in (unit_vector(Direction(theta_z, phi_z)), unit_vector(Direction(theta_x, phi_x)))
    )
    got, want = _check_against_oracle(z, x)
    assert _angle_diff(got.phi, want.phi) <= 1e-12


def test_naive_estimate_matches_direction_oracle_near_the_clamp():
    # |sin phi| = |x_z|/sin(theta) within 1e-12 of 1 on either side, then the
    # three clamp rows of the harness's fallback-frame test.  Near the clamp
    # d(phi) = d(sin phi)/cos(phi) grows without bound, so a last-bit change
    # in sin(phi) moves phi by up to 1e-9 here: phi is compared through its
    # sine and the sign of its cosine (the asin branch).  z stays off the
    # poles, where the oracle's sin(acos(z_z)) loses the digits that decide
    # the flag
    rng = np.random.default_rng(3)
    z = unit_rows(rng.standard_normal((4000, 3)))
    z = z[np.abs(z[:, 2]) < 0.8]
    n = len(z)
    gap = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-14.0, -12.0, n)
    xz = rng.choice([-1.0, 1.0], n) * (1.0 - gap) * np.hypot(z[:, 0], z[:, 1])
    azimuth = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(1.0 - xz * xz)
    x = np.stack([r * np.cos(azimuth), r * np.sin(azimuth), xz], axis=1)
    tilt = math.cos(0.1)
    clamp_rows = [
        ([tilt * math.cos(alpha), tilt * math.sin(alpha), math.sin(0.1)], [0.0, 0.0, pole])
        for alpha, pole in ((0.3, 1.0), (2.0, 1.0), (-1.1, -1.0))
    ]
    failures = 0
    for z_row, x_row in [*zip(z.tolist(), x.tolist()), *clamp_rows]:
        got, want = _check_against_oracle(z_row, x_row)
        assert abs(math.sin(got.phi) - math.sin(want.phi)) <= 1e-12
        assert (math.cos(got.phi) < 0.0) == (math.cos(want.phi) < 0.0)
        failures += got.failed
    # a pair fails exactly when |sin phi| > 1, and every clamp row fails
    assert failures == int(np.sum(gap < 0.0)) + 3
    assert 1000 < failures < n - 1000


@pytest.mark.parametrize("theta_z", [0.0, 1e-12, math.pi])
def test_naive_estimate_pole_raises_as_the_oracle(theta_z):
    z = unit_vector(Direction(theta_z, 0.3))
    x = unit_vector(Direction(0.5, 0.2))
    with pytest.raises(ValueError, match="pole"):
        _polar_naive_estimate(*_polar(z), *_polar(x))
    with pytest.raises(ValueError, match="pole"):
        naive_euler_estimate(z, x)


def test_best_fit_recovers_exact_frame():
    for _ in range(300):
        e = random_euler()
        frame = euler_to_axes(e)
        z_dir, x_dir = _pair(frame)
        fit, angles = best_fit_frame(unit_vector(z_dir), unit_vector(x_dir))
        assert frame_infidelity(frame, fit) < 1e-12
        rec = euler_to_axes(angles)
        assert frame_infidelity(frame, rec) < 1e-12


def test_best_fit_splits_defect_evenly():
    # close the zx angle to pi/2 - delta; each fitted axis moves back delta/2
    for delta in (0.02, 0.1, 0.2):
        z = np.array([0.0, 0.0, 1.0])
        x = np.array([math.cos(delta), 0.0, math.sin(delta)])  # tilted toward z
        fit, _ = best_fit_frame(z, x)
        gap_z = math.acos(float(np.dot(fit.z_axis, z)))
        gap_x = math.acos(float(np.dot(fit.x_axis, x)))
        assert gap_z == pytest.approx(delta / 2.0, abs=1e-6)
        assert gap_x == pytest.approx(delta / 2.0, abs=1e-6)
        assert float(np.dot(fit.z_axis, fit.x_axis)) == pytest.approx(0.0, abs=1e-12)


def test_best_fit_rejects_parallel_estimates():
    d = unit_vector(Direction(theta=0.7, phi=0.3))
    with pytest.raises(ValueError, match="plane"):
        best_fit_frame(d, d)
    anti = unit_vector(Direction(theta=math.pi - 0.7, phi=0.3 + math.pi))
    with pytest.raises(ValueError, match="plane"):
        best_fit_frame(d, anti)


def test_best_fit_beats_naive_on_noisy_data():
    # same noisy inputs; the geometric fit wins on average (per-trial wins are
    # not guaranteed, the naive branch choice sometimes lands closer)
    rng = np.random.default_rng(31)
    wins = 0
    total = 0
    fit_errs = []
    naive_errs = []
    for _ in range(200):
        e = EulerAngles(
            phi=rng.uniform(-math.pi, math.pi),
            theta=math.acos(rng.uniform(-0.95, 0.95)),
            psi=rng.uniform(-math.pi, math.pi),
        )
        frame = euler_to_axes(e)
        z_dir, x_dir = _pair(frame)
        noisy = (_jitter(z_dir, 0.15, rng), _jitter(x_dir, 0.15, rng))
        fit, _ = best_fit_frame(unit_vector(noisy[0]), unit_vector(noisy[1]))
        fit_err = frame_infidelity(frame, fit)
        out = naive_euler_estimate(unit_vector(noisy[0]), unit_vector(noisy[1]))
        if out.failed:
            continue
        rec = euler_to_axes(EulerAngles(out.phi, out.theta, out.psi))
        naive_err = frame_infidelity(frame, rec)
        wins += fit_err <= naive_err + 1e-12
        total += 1
        fit_errs.append(fit_err)
        naive_errs.append(naive_err)
    assert total > 100
    assert wins / total > 0.55
    assert np.mean(fit_errs) < np.mean(naive_errs)


def _jitter(d: Direction, eps: float, rng) -> Direction:
    v = unit_vector(d) + eps * rng.standard_normal(3)
    return Direction.from_vector(v)


def test_infidelity_zero_on_identical_frames():
    frame = euler_to_axes(random_euler())
    assert frame_infidelity(frame, frame) == pytest.approx(0.0, abs=1e-14)


def test_infidelity_maximal_on_flipped_frame():
    eye = np.eye(3)
    a = Frame(z_axis=eye[2], x_axis=eye[0])
    # rotate by pi about z: x and y flip, z stays
    b = Frame(z_axis=eye[2], x_axis=-eye[0])
    assert frame_infidelity(a, b) == pytest.approx(2.0, abs=1e-15)


def test_infidelity_range_and_rotation_invariance():
    from scipy.spatial.transform import Rotation

    rng = np.random.default_rng(8)
    for _ in range(100):
        fa = euler_to_axes(random_euler())
        fb = euler_to_axes(random_euler())
        val = frame_infidelity(fa, fb)
        assert 0.0 <= val <= 3.0
        r = Rotation.random(random_state=rng).as_matrix()
        ra = Frame(z_axis=r @ fa.z_axis, x_axis=r @ fa.x_axis)
        rb = Frame(z_axis=r @ fb.z_axis, x_axis=r @ fb.x_axis)
        assert frame_infidelity(ra, rb) == pytest.approx(val, abs=1e-12)


# Batched best fit: properties of fit(u, v) over stacks of estimate pairs.
# Pairs closer than ~0.6 degrees to (anti)parallel are excluded: there the
# normalisations of u + v or u - v lose digits and 1e-12 is not attainable.
MIN_SIN = 0.01


@st.composite
def estimate_pairs(draw):
    n = draw(st.integers(1, 8))
    coords = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    u = draw(arrays(np.float64, (n, 3), elements=coords))
    v = draw(arrays(np.float64, (n, 3), elements=coords))
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    assume(np.all(nu > 0.1) and np.all(nv > 0.1))
    sin = np.linalg.norm(np.cross(u, v), axis=1) / (nu * nv)
    assume(np.all(sin > MIN_SIN))
    return u, v


@st.composite
def rotations(draw):
    from scipy.spatial.transform import Rotation

    q = draw(arrays(np.float64, 4, elements=st.floats(-1.0, 1.0, allow_nan=False)))
    assume(np.linalg.norm(q) > 0.1)
    return Rotation.from_quat(q).as_matrix()


@given(estimate_pairs(), rotations())
def test_best_fit_rotation_equivariant(pair, r):
    u, v = pair
    fit, _ = best_fit_frame(u, v)
    turned, _ = best_fit_frame(u @ r.T, v @ r.T)
    for name in ("z_axis", "x_axis", "y_axis"):
        np.testing.assert_allclose(
            getattr(turned, name), getattr(fit, name) @ r.T, rtol=0.0, atol=1e-12
        )


@given(estimate_pairs())
def test_best_fit_orthonormal_right_handed(pair):
    fit, _ = best_fit_frame(*pair)
    m = axes_matrix(fit)
    gram = np.einsum("nij,nik->njk", m, m)
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape), atol=1e-12)
    np.testing.assert_allclose(np.linalg.det(m), 1.0, rtol=0.0, atol=1e-12)


@given(estimate_pairs())
def test_best_fit_y_along_cross_and_split_symmetric(pair):
    u, v = pair
    fit, _ = best_fit_frame(u, v)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = v / np.linalg.norm(v, axis=1, keepdims=True)
    normal = np.cross(u, v)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    np.testing.assert_allclose(np.sum(fit.y_axis * normal, axis=1), 1.0, rtol=0.0, atol=1e-12)
    # each estimate is rotated by the same angle onto its fitted axis
    np.testing.assert_allclose(
        np.sum(fit.z_axis * u, axis=1), np.sum(fit.x_axis * v, axis=1), rtol=0.0, atol=1e-12
    )
