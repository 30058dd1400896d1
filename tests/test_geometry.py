import math

import numpy as np
import pytest

from spin_fixtures import assert_same_bits, unit_vector
from spindir.geometry import (
    TWO_PI,
    Direction,
    quaternion_matrices,
    reduce_azimuth,
    sphere_quadrature,
)

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
        v = unit_vector(d)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        back = Direction.from_vector(v)
        assert back.theta == pytest.approx(d.theta, abs=1e-12)
        assert np.allclose(unit_vector(back), v, atol=1e-12)


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


def test_quadrature_weights_positive_sum_4pi():
    quad = sphere_quadrature(6, 13)
    assert np.all(quad.weights > 0)
    assert float(np.sum(quad.weights)) == pytest.approx(FOUR_PI, abs=1e-10)
    assert quad.weights.size == 6 * 13
    assert quad.max_exact_degree == min(2 * 6 - 1, 13 - 1)


def test_quadrature_integrates_constants_and_moments():
    quad = sphere_quadrature(8, 17)
    ones = np.ones(quad.weights.size)
    assert ones @ quad.weights == pytest.approx(FOUR_PI, abs=1e-12)
    cos2 = quad.unit_vectors[:, 2] ** 2
    assert cos2 @ quad.weights == pytest.approx(FOUR_PI / 3.0, abs=1e-12)


def test_quadrature_polynomial_exactness():
    # exact up to degree min(2 n_theta - 1, n_phi - 1) in both angles
    quad = sphere_quadrature(5, 11)
    deg = quad.max_exact_degree
    z = quad.unit_vectors[:, 2]
    for k in range(deg + 1):
        analytic = 0.0 if k % 2 else FOUR_PI / (k + 1.0)
        assert z**k @ quad.weights == pytest.approx(analytic, abs=1e-12)
    phi = np.arctan2(quad.unit_vectors[:, 1], quad.unit_vectors[:, 0])
    for m in range(1, deg + 1):
        assert abs(np.exp(1j * m * phi) @ quad.weights) < 1e-10


def test_quadrature_overlap_kernel_normalization():
    # (2j+1)/(4pi) cos^{4j}(chi/2) integrates to 1 over the sphere
    center = unit_vector(Direction(1.1, 0.4))
    for twice_j in (1, 4, 11, 40):
        need = 2 * twice_j  # integrand is degree 2j in the unit vector
        quad = sphere_quadrature(need // 2 + 1, need + 1)
        u = 0.5 * (1.0 + quad.unit_vectors @ center)
        kernel = (twice_j + 1) / FOUR_PI * u**twice_j
        assert kernel @ quad.weights == pytest.approx(1.0, abs=1e-10)


def test_quadrature_rejects_empty():
    with pytest.raises(ValueError):
        sphere_quadrature(0, 5)
    with pytest.raises(ValueError):
        sphere_quadrature(5, 0)


def test_nodes_match_unit_vectors():
    quad = sphere_quadrature(3, 5)
    nodes = quad.nodes()
    assert len(nodes) == quad.weights.size
    stacked = np.array([unit_vector(n) for n in nodes])
    np.testing.assert_allclose(stacked, quad.unit_vectors, atol=1e-12)


def _quaternion_matrices_by_entry(q: np.ndarray) -> np.ndarray:
    """The rotation matrices of quaternion rows (w, x, y, z), entry by entry:
    the row-major form quaternion_matrices must equal bit for bit."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1 - 2 * (y * y + z * z)
    out[:, 0, 1] = 2 * (x * y - w * z)
    out[:, 0, 2] = 2 * (x * z + w * y)
    out[:, 1, 0] = 2 * (x * y + w * z)
    out[:, 1, 1] = 1 - 2 * (x * x + z * z)
    out[:, 1, 2] = 2 * (y * z - w * x)
    out[:, 2, 0] = 2 * (x * z - w * y)
    out[:, 2, 1] = 2 * (y * z + w * x)
    out[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return out


_EDGE_QUATERNIONS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0], [-0.0, 1.0, -0.0, 0.0], [0.0, -0.0, -0.0, -1.0],
        [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [-2.0, 2.0, -2.0, 2.0],
        [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -3.0, 3.0], [1e-150, 0.0, 0.0, 0.0],
        [1e150, 1e150, 0.0, -0.0], [3.0, -4.0, 0.0, 12.0],
    ]
)


class TestColumnKernels:
    # the column form of the quaternion matrices is the same arithmetic as
    # the per-entry form above, so every bit matches

    @pytest.mark.parametrize("n", [1, 128, 8193])
    def test_quaternion_matrices_match_entrywise_form(self, n):
        q = np.random.default_rng(n).standard_normal((n, 4))
        drawn = q.copy()
        assert_same_bits(quaternion_matrices(q), _quaternion_matrices_by_entry(q))
        assert_same_bits(q, drawn)  # the input rows are not normalised in place

    def test_quaternion_matrices_edge_rows(self):
        q = _EDGE_QUATERNIONS
        assert_same_bits(quaternion_matrices(q), _quaternion_matrices_by_entry(q))
