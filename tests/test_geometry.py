import math

import numpy as np
import pytest

from spindir.geometry import TWO_PI, Direction, polar_angles, reduce_azimuth, sphere_quadrature

FOUR_PI = 4.0 * math.pi


def test_direction_validation():
    with pytest.raises(ValueError):
        Direction(-0.1, 0.0)
    with pytest.raises(ValueError):
        Direction(math.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        Direction(float("nan"), 0.0)


def test_direction_phi_wraps():
    d = Direction(1.0, -0.5)
    assert 0.0 <= d.phi < 2.0 * math.pi
    assert d.phi == pytest.approx(2.0 * math.pi - 0.5)


def test_direction_tiny_negative_phi_stays_below_two_pi():
    # -1e-20 % (2 pi) rounds to exactly 2 pi; it must come back as 0
    assert Direction.from_vector([1.0, -1e-20, 0.0]).phi == 0.0
    for tiny in (-1e-300, -1e-20, -1e-16, -4e-16):
        phi = Direction(1.0, tiny).phi
        assert 0.0 <= phi < 2.0 * math.pi
    assert Direction(1.0, -1e-15).phi == pytest.approx(2.0 * math.pi - 1e-15, abs=1e-18)
    assert Direction(1.0, 2.0 * math.pi).phi == 0.0


def test_reduce_azimuth_scalar_and_array_agree():
    tiny = 5e-324
    values = [-0.0, 0.0, tiny, -tiny, -1e-20, math.pi, -math.pi,
              math.nextafter(TWO_PI, 0.0), TWO_PI, FOUR_PI, -FOUR_PI]
    scalar = [reduce_azimuth(v) for v in values]
    array = reduce_azimuth(np.array(values))
    assert all(type(v) is float for v in scalar)
    assert [v.hex() for v in scalar] == [v.hex() for v in array.tolist()]
    assert all(0.0 <= v < TWO_PI for v in scalar)
    # -0.0 and the values that round to exactly 2 pi come back as +0.0
    for i in (0, 3, 4, 8, 9, 10):
        assert scalar[i].hex() == "0x0.0p+0"
    assert scalar[7] == math.nextafter(TWO_PI, 0.0)
    assert [Direction(1.0, v).phi.hex() for v in values] == [v.hex() for v in scalar]


def test_unit_vector_and_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
        v = d.unit_vector
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        back = Direction.from_vector(v)
        assert back.theta == pytest.approx(d.theta, abs=1e-12)
        assert np.allclose(back.unit_vector, v, atol=1e-12)


def test_from_vector_normalizes_and_rejects_zero():
    d = Direction.from_vector([0.0, 0.0, 5.0])
    assert d.theta == pytest.approx(0.0)
    with pytest.raises(ValueError):
        Direction.from_vector([0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        Direction.from_vector([1.0, 2.0])
    with pytest.raises(ValueError, match="zero"):
        Direction.from_vector([math.nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="zero"):
        Direction.from_vector([math.inf, 0.0, 1.0])


def _libm_polar(v: np.ndarray) -> tuple[float, float]:
    """The raw polar angles of one vector computed with math alone, as
    Direction.from_vector did before it became a batch of one."""
    v = v / np.linalg.norm(v)
    return math.acos(min(1.0, max(-1.0, v[2]))), math.atan2(v[1], v[0])


def test_polar_angles_match_the_one_vector_map_bit_for_bit():
    rng = np.random.default_rng(2024)
    scales = (1e-3, 1e-1, 1.0, 1e2, 1e5)
    special = [
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1e-3], [0.0, 0.0, -7e4],
        [1e-17, 0.0, 1.0], [-1e-17, -1e-17, -1.0],
        # a tiny negative y puts phi just below 0, which Direction reduces to 0
        [1.0, -1e-20, 0.0], [3.0, -1e-300, 0.5], [2.0, -0.0, -1.0],
    ]
    rows = np.concatenate(
        [rng.standard_normal((20000, 3)) * s for s in scales] + [np.array(special)]
    )
    theta, phi = polar_angles(rows)
    assert list(zip(theta, phi)) == [_libm_polar(v) for v in rows]
    # from_vector is the batch of one; every 10th row and the special rows
    picked = list(range(0, rows.shape[0], 10)) + list(range(-len(special), 0))
    got = [Direction.from_vector(rows[i]) for i in picked]
    assert got == [Direction(theta[i], phi[i]) for i in picked]
    assert all(d.phi == 0.0 for d in got[-3:])


def test_angles_between_directions():
    z = Direction(0.0, 0.0)
    x = Direction(math.pi / 2, 0.0)
    assert z.cos_angle_to(x) == pytest.approx(0.0, abs=1e-15)
    assert z.angle_to(x) == pytest.approx(math.pi / 2)
    anti = z.antipode()
    assert z.cos_angle_to(anti) == pytest.approx(-1.0)
    assert anti.theta == pytest.approx(math.pi)


def test_quadrature_weights_positive_sum_4pi():
    quad = sphere_quadrature(6, 13)
    assert np.all(quad.weights > 0)
    assert float(np.sum(quad.weights)) == pytest.approx(FOUR_PI, abs=1e-10)
    assert quad.size == 6 * 13
    assert quad.max_exact_degree == min(2 * 6 - 1, 13 - 1)


def test_quadrature_integrates_constants_and_moments():
    quad = sphere_quadrature(8, 17)
    ones = np.ones(quad.size)
    assert quad.integrate(ones) == pytest.approx(FOUR_PI, abs=1e-12)
    cos2 = quad.unit_vectors[:, 2] ** 2
    assert quad.integrate(cos2) == pytest.approx(FOUR_PI / 3.0, abs=1e-12)


def test_quadrature_polynomial_exactness():
    # exact up to degree min(2 n_theta - 1, n_phi - 1) in both angles
    quad = sphere_quadrature(5, 11)
    deg = quad.max_exact_degree
    z = quad.unit_vectors[:, 2]
    for k in range(deg + 1):
        analytic = 0.0 if k % 2 else FOUR_PI / (k + 1.0)
        assert quad.integrate(z**k) == pytest.approx(analytic, abs=1e-12)
    phi = np.arctan2(quad.unit_vectors[:, 1], quad.unit_vectors[:, 0])
    for m in range(1, deg + 1):
        assert abs(quad.integrate(np.exp(1j * m * phi))) < 1e-10


def test_quadrature_overlap_kernel_normalization():
    # (2j+1)/(4pi) cos^{4j}(chi/2) integrates to 1 over the sphere
    center = Direction(1.1, 0.4).unit_vector
    for twice_j in (1, 4, 11, 40):
        need = 2 * twice_j  # integrand is degree 2j in the unit vector
        quad = sphere_quadrature(need // 2 + 1, need + 1)
        u = 0.5 * (1.0 + quad.unit_vectors @ center)
        kernel = (twice_j + 1) / FOUR_PI * u**twice_j
        assert quad.integrate(kernel) == pytest.approx(1.0, abs=1e-10)


def test_quadrature_rejects_empty():
    with pytest.raises(ValueError):
        sphere_quadrature(0, 5)
    with pytest.raises(ValueError):
        sphere_quadrature(5, 0)


def test_integrate_shape_checked():
    quad = sphere_quadrature(3, 5)
    with pytest.raises(ValueError):
        quad.integrate(np.ones(7))


def test_nodes_match_unit_vectors():
    quad = sphere_quadrature(3, 5)
    nodes = quad.nodes()
    assert len(nodes) == quad.size
    stacked = np.array([n.unit_vector for n in nodes])
    np.testing.assert_allclose(stacked, quad.unit_vectors, atol=1e-12)
