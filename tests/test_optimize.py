import math
import subprocess
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spindir import optimize
from spindir.geometry import TWO_PI, SphereQuadrature, sphere_quadrature
from spin_fixtures import D3_ANGLE_DIRECTIONS, assert_same_bits, unit_vector
from spindir.groups import d3_qubit_blocks, dihedral_d3
from spindir.optimize import (
    BESSEL_J0_FIRST_ZERO,
    CHI_GRID_POINTS,
    D3_ARC_NODES,
    ChiDensity,
    DirectionCode,
    _d3_cell_radii,
    chi_density,
    coherent_code,
    d3_coherent_error,
    direction_cos_matrix,
    finite_group_optimum,
    gauss_legendre,
    optimal_direction_encoding,
)
from spindir.states import SpinJ

GROUP = dihedral_d3()


def block_dims(num_spins):
    return [b.shape[1] for b in d3_qubit_blocks(num_spins)]


class TestFiniteGroupOptimum:
    def test_single_spin_third(self):
        opt = finite_group_optimum(block_dims(1), GROUP.order)
        assert opt.fidelity == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert opt.optimal_coefficients == (1.0,)

    def test_two_spins_two_thirds(self):
        opt = finite_group_optimum(block_dims(2), GROUP.order)
        assert opt.fidelity == pytest.approx(2.0 / 3.0, abs=1e-15)
        got = sorted(opt.optimal_coefficients)
        want = sorted([0.5, 0.5, math.sqrt(0.5)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_single_trivial_block_one_sixth(self):
        # one one-dimensional block of a six-element group
        assert finite_group_optimum([1], 6).fidelity == pytest.approx(1.0 / 6.0)


class TestCosMatrix:
    def test_two_block_fixture(self):
        mat = direction_cos_matrix(SpinJ(2))
        want = np.array([[0.0, 1.0 / math.sqrt(3.0)], [1.0 / math.sqrt(3.0), 0.0]])
        np.testing.assert_allclose(mat, want, atol=1e-15)

    def test_band_structure(self):
        mat = direction_cos_matrix(SpinJ(20))
        assert np.max(np.abs(np.diag(mat))) == 0.0
        for k in range(10):
            off = (k + 1.0) / math.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0))
            assert mat[k, k + 1] == pytest.approx(off, abs=1e-15)
        band = np.triu(mat, 2)
        assert np.max(np.abs(band)) == 0.0

    def test_matches_quadrature_overlaps(self):
        # <p_j | u | p_j'> with p_j = sqrt((2j+1)/2) P_j(u) on [-1, 1]
        j_top = 30
        x, w = np.polynomial.legendre.leggauss(j_top + 4)
        rows = np.polynomial.legendre.legvander(x, j_top).T
        rows = rows * np.sqrt((2.0 * np.arange(j_top + 1) + 1.0) / 2.0)[:, None]
        oracle = (rows * (w * x)) @ rows.T
        mat = direction_cos_matrix(SpinJ(2 * j_top))
        np.testing.assert_allclose(mat, oracle, atol=1e-10)

    def test_rejects_half_integer(self):
        with pytest.raises(ValueError):
            direction_cos_matrix(SpinJ(3))

    def test_matches_loop_formula(self):
        # the per-row loop the array build replaced, kept as the reference
        for j in range(121):
            want = np.zeros((j + 1, j + 1))
            for k in range(j):
                off = (k + 1.0) / math.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0))
                want[k, k + 1] = off
                want[k + 1, k] = off
            assert np.array_equal(direction_cos_matrix(SpinJ(2 * j)), want)


def _gauss_normalization(density: ChiDensity) -> float:
    """The density's integral over cos chi by its own exact Gauss rule."""
    x, w = density.gauss_rule
    return float(np.sum(w * density.pdf_cos(x)))


class TestGaussLegendre:
    def test_matches_leggauss(self):
        # numpy's leggauss (Newton-polished roots) is the test-only oracle
        for n in range(1, 131):
            x, w = gauss_legendre(n)
            want_x, want_w = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(x - want_x)) <= 1e-14
            assert np.max(np.abs(w / want_w - 1.0)) <= 1e-10

    def test_optimal_code_moments_at_every_size(self):
        for n in range(2, 241, 2):
            density = chi_density(optimal_direction_encoding(SpinJ(n)))
            assert abs(_gauss_normalization(density) - 1.0) <= 1e-11
            assert abs(density.expected_fidelity() - density.code.fidelity) <= 1e-11

    def test_coherent_code_moments_at_every_size(self):
        for twice_j in range(1, 241):
            density = chi_density(coherent_code(SpinJ(twice_j)))
            assert abs(_gauss_normalization(density) - 1.0) <= 1e-11
            assert abs(density.expected_fidelity() - density.code.fidelity) <= 1e-11

    def test_rule_sized_to_the_density_degree(self):
        for twice_j in (0, 1, 2, 7, 240):
            x, w = chi_density(coherent_code(SpinJ(twice_j))).gauss_rule
            assert x.size == w.size == twice_j // 2 + 2


def _legendre_top_root_decimal(n: int) -> tuple:
    """(1 - F, amplitudes) of the optimal code with n blocks, by the Newton
    solve at 40 significant digits: x from the same Bessel-zero start,
    dP_n/dx = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    with localcontext() as ctx:
        ctx.prec = 40

        def legendre(x):
            p = [Decimal(1), x]
            for k in range(1, n):
                p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
            return p

        x = Decimal(math.cos(BESSEL_J0_FIRST_ZERO / math.sqrt((n + 0.5) ** 2 + 0.25)))
        for _ in range(20):
            p = legendre(x)
            step = p[n] * (x * x - 1) / (n * (x * p[n] - p[n - 1]))
            x -= step
            if abs(step) < Decimal("1e-25"):  # the next step is below 1e-40
                break
        else:
            raise AssertionError(f"decimal Newton did not converge for n = {n}")
        p = legendre(x)
        amps = [Decimal(2 * k + 1).sqrt() * p[k] for k in range(n)]
        norm = sum(a * a for a in amps).sqrt()
        return float((1 - x) / 2), np.array([float(a / norm) for a in amps])


class TestOptimalEncoding:
    def test_trivial_code(self):
        code = optimal_direction_encoding(SpinJ(0))
        assert code.fidelity == 0.5
        assert code.amplitudes.tolist() == [1.0]

    def test_two_spins_closed_form(self):
        code = optimal_direction_encoding(SpinJ(2))
        assert code.infidelity == pytest.approx((1.0 - 1.0 / math.sqrt(3.0)) / 2.0,
                                                abs=1e-14)

    def test_four_spins_closed_form(self):
        code = optimal_direction_encoding(SpinJ(4))
        assert code.infidelity == pytest.approx((1.0 - math.sqrt(0.6)) / 2.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 241, 2))
    def test_fidelity_is_rayleigh_quotient(self, n):
        code = optimal_direction_encoding(SpinJ(n))
        a = code.amplitudes
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        mat = direction_cos_matrix(SpinJ(n))
        assert (1.0 + a @ mat @ a) / 2.0 == pytest.approx(code.fidelity, abs=1e-12)
        assert a[0] > 0  # sign pinned on the leading entry
        # scipy's tridiagonal solver is the test-only reference
        vals, vecs = eigh_tridiagonal(np.diag(mat), np.diag(mat, 1), select="i",
                                      select_range=(n // 2, n // 2))
        assert abs(code.fidelity - (1.0 + vals[0]) / 2.0) <= 4e-16
        ref = vecs[:, 0] * np.sign(vecs[0, 0])
        assert np.max(np.abs(a - ref)) <= 1e-12

    def test_matches_forty_digit_newton(self):
        for n in range(2, 481, 2):
            infidelity, amps = _legendre_top_root_decimal(n // 2 + 1)
            code = optimal_direction_encoding(SpinJ(n))
            assert abs(code.infidelity / infidelity - 1.0) <= 1e-11
            assert np.max(np.abs(code.amplitudes - amps)) <= 1e-12

    @pytest.mark.parametrize(
        "n,value",
        [(40, 4.99826350368835), (50, 5.14287356797899), (60, 5.24253272494093)],
    )
    def test_scaled_infidelity_frozen(self, n, value):
        code = optimal_direction_encoding(SpinJ(n))
        assert n * n * code.infidelity == pytest.approx(value, rel=1e-10)

    def test_scaled_infidelity_increases(self):
        values = [
            n * n * optimal_direction_encoding(SpinJ(n)).infidelity
            for n in range(2, 61, 2)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_odd_spin_count(self):
        with pytest.raises(ValueError, match="integer j"):
            optimal_direction_encoding(SpinJ(3))

    def test_unconverged_newton_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            optimal_direction_encoding(SpinJ(40))

    def test_beats_coherent_at_same_size(self):
        for n in (6, 10, 20):
            assert (
                optimal_direction_encoding(SpinJ(n)).fidelity
                > coherent_code(SpinJ(n)).fidelity
            )


class TestCoherentCode:
    def test_fidelity_formula(self):
        assert coherent_code(SpinJ(1)).fidelity == pytest.approx(2.0 / 3.0)
        assert coherent_code(SpinJ(8)).fidelity == pytest.approx(0.9)
        code = coherent_code(SpinJ(8))
        assert code.carrier == "coherent"
        assert code.infidelity == pytest.approx(0.1)

    def test_code_validation(self):
        with pytest.raises(ValueError, match="carrier"):
            DirectionCode(j_max=SpinJ(2), amplitudes=np.array([1.0]), fidelity=0.5, carrier="m1")
        with pytest.raises(ValueError, match="length"):
            DirectionCode(j_max=SpinJ(4), amplitudes=np.array([1.0, 0.0]),
                          fidelity=0.5)
        with pytest.raises(ValueError, match="unit norm"):
            DirectionCode(j_max=SpinJ(2), amplitudes=np.array([1.0, 1.0]),
                          fidelity=0.5)


class TestChiDensity:
    @pytest.fixture(params=["m0", "coherent"])
    def density(self, request) -> ChiDensity:
        if request.param == "m0":
            return chi_density(optimal_direction_encoding(SpinJ(12)))
        return chi_density(coherent_code(SpinJ(9)))

    def test_normalized(self, density):
        assert _gauss_normalization(density) == pytest.approx(1.0, abs=1e-12)

    def test_expected_fidelity_matches_code(self, density):
        assert density.expected_fidelity() == pytest.approx(
            density.code.fidelity, abs=1e-12
        )
        assert 1.0 - density.expected_fidelity() == pytest.approx(
            density.code.infidelity, abs=1e-12
        )

    def test_pdf_non_negative_and_consistent(self, density):
        # the density in cos chi, and in chi through the Jacobian sin chi
        chi = np.linspace(0.0, math.pi, 301)
        u = np.cos(chi)
        assert np.all(density.pdf_cos(u) >= -1e-15)
        assert np.all(np.sin(chi) * density.pdf_cos(u) >= -1e-15)

    def test_pdf_integrates_to_one(self, density):
        chi = np.linspace(0.0, math.pi, 20001)
        total = np.trapezoid(np.sin(chi) * density.pdf_cos(np.cos(chi)), chi)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_cumulative_monotone(self, density):
        u, cdf = density.cumulative_in_cos(n=512)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert u[0] == -1.0 and u[-1] == 1.0


def _legvander_pdf_cos(density: ChiDensity, u) -> np.ndarray:
    """pdf_cos as numpy's legvander evaluated it: the reference for the
    package's own copy of the recurrence."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    code = density.code
    if code.carrier == "coherent":
        g = density.amplitude(u)
    else:
        j_top = code.j_max.twice_j // 2
        rows = np.polynomial.legendre.legvander(u, j_top).T
        scale = np.sqrt((2.0 * np.arange(j_top + 1) + 1.0) / (4.0 * math.pi))
        g = (code.amplitudes * scale) @ rows
    return 2.0 * math.pi * g * g


class TestOneLegendreEvaluation:
    """pdf_cos, cumulative_in_cos and expected_fidelity, bit for bit, against
    the legvander, linspace and concatenate formulas they replaced."""

    POINTS = np.array([-1.0, -0.75, -1e-300, -0.0, 0.0, 1e-300, 0.3, 0.999, 1.0])
    CODES = [optimal_direction_encoding(SpinJ(n)) for n in range(2, 401, 2)] + [
        coherent_code(SpinJ(twice_j)) for twice_j in (1, 2, 7, 60, 400)
    ]

    @staticmethod
    def reference_cdf(density: ChiDensity, n: int) -> tuple:
        u = np.linspace(-1.0, 1.0, n)
        p = _legvander_pdf_cos(density, u)
        cdf = np.concatenate(([0.0], np.cumsum((p[1:] + p[:-1]) * 0.5 * np.diff(u))))
        cdf /= cdf[-1]
        return u, cdf

    @staticmethod
    def reference_fidelity(density: ChiDensity) -> float:
        x, w = density.gauss_rule
        return float(np.sum(w * _legvander_pdf_cos(density, x) * (1.0 + x) / 2.0))

    def test_pdf_cos(self):
        for code in self.CODES:
            density = chi_density(code)
            assert_same_bits(density.pdf_cos(self.POINTS), _legvander_pdf_cos(density, self.POINTS))
            for u in (-0.0, 1.0, -1.0):  # a float is a batch of one
                assert_same_bits(density.pdf_cos(u), _legvander_pdf_cos(density, u))

    def test_any_shape_is_its_flat_evaluation(self):
        # both carriers take a grid of any shape and return it in that shape
        grid = self.POINTS[3:].reshape(2, 3)
        for code in self.CODES:
            density = chi_density(code)
            for carrier in (density.amplitude, density.pdf_cos):
                assert_same_bits(carrier(grid), carrier(grid.ravel()).reshape(2, 3))

    def test_cumulative_in_cos(self):
        for code in self.CODES:
            density = chi_density(code)
            for got, want in zip(
                density.cumulative_in_cos(CHI_GRID_POINTS),
                self.reference_cdf(density, CHI_GRID_POINTS),
            ):
                assert_same_bits(got, want)

    def test_expected_fidelity(self):
        for code in self.CODES:
            density = chi_density(code)
            assert density.expected_fidelity() == self.reference_fidelity(density)

    def test_grid_is_shared_and_read_only(self):
        a = chi_density(self.CODES[0]).cumulative_in_cos(CHI_GRID_POINTS)[0]
        b = chi_density(self.CODES[3]).cumulative_in_cos(CHI_GRID_POINTS)[0]
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0

    def test_frame_runs_import_no_polynomial_module(self):
        # both encodings and decoders in a fresh process: the recurrence is
        # the package's own, so numpy.polynomial is never loaded
        code = (
            "import sys; from spindir.harness import RunConfig, run_experiment; "
            "from spindir.protocols import ProtocolSpec\n"
            "for enc in ('optimal', 'coherent'):\n"
            "    for dec in ('best-fit', 'naive-euler'):\n"
            "        spec = ProtocolSpec('frame-two-axis', 8, encoding=enc, decoder=dec)\n"
            "        run_experiment(RunConfig(spec, 300, 7))\n"
            "print('numpy.polynomial' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


def _d3_grid(j: SpinJ, scale: int = 1) -> SphereQuadrature:
    """Tensor grid for the grid oracle below: polynomial degree at least
    4j+2, sharing the signal symmetry but keeping nodes off the decision
    boundaries.

    n_theta is even (odd Gauss grids put nodes on the equator, a boundary
    between the cones) and n_phi is an odd multiple of 3 (multiples of 6 put
    nodes on the mid-azimuths between signal directions); boundary nodes would
    be tie-broken by index and skew the six error rates.  The cell boundaries
    are not polynomial, so the oracle converges like 1/scale^2.
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    n_theta = (j.twice_j + 2 + (j.twice_j % 2)) * scale
    if n_theta % 2:
        n_theta += 1
    n_phi = (2 * j.twice_j + 3) * scale
    while n_phi % 6 != 3:
        n_phi += 1
    return sphere_quadrature(n_theta=n_theta, n_phi=n_phi)


def _grid_d3_error(j: SpinJ, quad: SphereQuadrature) -> float:
    """Grid oracle for d3_coherent_error: the estimate lands on a node; the
    success mass of a direction is the summed node probability
    w_k (2j+1)/(4pi) cos^{4j}(chi_k/2) over nodes whose nearest signal
    direction is the true one (ties go to the lowest index)."""
    need = 2 * j.twice_j + 2
    if quad.max_exact_degree < need:
        raise ValueError(
            f"quadrature exact to degree {quad.max_exact_degree} is insufficient; "
            f"the decoding kernel needs degree {need}"
        )
    dirs = np.array([unit_vector(d) for d in D3_ANGLE_DIRECTIONS])
    cos_table = dirs @ quad.unit_vectors.T  # (6, K)
    owner = np.argmax(cos_table, axis=0)
    scale = (j.twice_j + 1) / (4.0 * math.pi)
    kernel = ((1.0 + cos_table) / 2.0) ** j.twice_j  # |overlap|^2 per (dir, node)
    node_mass = quad.weights * scale * kernel  # (6, K)
    errors = 1.0 - np.array([node_mass[g, owner == g].sum() for g in range(6)])
    if errors.max() - errors.min() > 1e-12 + 1e-9 * errors.max():
        raise ValueError("quadrature grid breaks the six-direction symmetry")
    return float(errors.mean())


# d3_coherent_error pinned where the grid oracle confirms it (see
# test_grid_refinement_converges)
EXACT_D3_ERRORS = {
    4: 0.4204489193341643,
    8: 0.22423415582149944,
    24: 0.02416752857411919,
}


class TestSixDirectionDecoding:
    def test_default_grid_shape_rules(self):
        for twice_j, scale in [(4, 1), (4, 2), (8, 1), (24, 8), (2, 3)]:
            quad = _d3_grid(SpinJ(twice_j), scale=scale)
            n_theta = len(np.unique(np.round(quad.unit_vectors[:, 2], 14)))
            assert n_theta % 2 == 0
            assert quad.max_exact_degree >= 2 * twice_j + 2

    def test_default_grid_phi_count(self):
        quad = _d3_grid(SpinJ(4))
        # 6 even thetas x 15 azimuths (first count with 2n-1 >= 10, 15 = 3 mod 6)
        assert quad.weights.size == 6 * 15

    def test_default_grid_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            _d3_grid(SpinJ(4), scale=0)

    def test_error_rejects_coarse_grid(self):
        with pytest.raises(ValueError, match="degree"):
            _grid_d3_error(SpinJ(8), sphere_quadrature(5, 9))

    def test_error_rejects_boundary_nodes(self):
        # odd n_theta puts nodes on the equator, tie-broken by index, which
        # skews the six per-direction rates
        with pytest.raises(ValueError, match="symmetry"):
            _grid_d3_error(SpinJ(4), sphere_quadrature(11, 21))

    @pytest.mark.parametrize(
        "twice_j,value",
        [
            (4, 0.420266637526832),
            (8, 0.224129132441742),
            (24, 0.0241597207054172),
        ],
    )
    def test_frozen_scale8_errors(self, twice_j, value):
        # value is the grid oracle at scale 8; the exact error lies above it
        # by the oracle's O(h^2) boundary bias
        j = SpinJ(twice_j)
        assert _grid_d3_error(j, _d3_grid(j, scale=8)) == pytest.approx(value, rel=1e-10)
        exact = d3_coherent_error(j)
        assert exact == pytest.approx(EXACT_D3_ERRORS[twice_j], rel=1e-13)
        assert 0.0 < exact - value < 2.5e-4

    def test_error_decreases_with_spins(self):
        errs = [d3_coherent_error(SpinJ(n)) for n in (2, 4, 8, 12)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_grid_refinement_converges(self):
        # the grid oracle converges like 1/scale^2 toward the exact value:
        # each doubling divides its error by about 4
        for twice_j in (1, 4):
            j = SpinJ(twice_j)
            exact = d3_coherent_error(j)
            gaps = [
                abs(_grid_d3_error(j, _d3_grid(j, scale=s)) - exact) for s in (8, 16, 32)
            ]
            assert gaps[0] < 5e-4
            for coarse, fine in zip(gaps, gaps[1:]):
                assert 3.0 <= coarse / fine <= 5.0

    def test_matches_boundary_exact_constant(self):
        assert abs(d3_coherent_error(SpinJ(4)) - 0.4204489202377) < 2e-9

    def test_node_doubling_residual(self):
        radii, weights = _d3_cell_radii(2 * D3_ARC_NODES)
        for n in range(1, 61):
            fine = float(_rate(radii, weights, n))
            assert abs(fine - d3_coherent_error(SpinJ(n))) <= 1e-14

    def test_cell_geometry_is_cached_and_read_only(self):
        radii, weights = _d3_cell_radii(D3_ARC_NODES)
        again = _d3_cell_radii(D3_ARC_NODES)
        assert again[0] is radii and again[1] is weights
        for arr in (radii, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_cached_geometry_matches_a_rebuild(self):
        radii, weights = _d3_cell_radii.__wrapped__(D3_ARC_NODES)
        for n in range(1, 61):
            rebuilt = float(_rate(radii, weights, n))
            assert d3_coherent_error(SpinJ(n)).hex() == rebuilt.hex()

    def test_cells_are_triangles_between_the_caps(self):
        # the edge distance r(phi) lies between the inradius (bisector with
        # an upper-cone neighbour, cos r = sqrt(5/8)) and the circumradius
        # (a vertex, cos r = 1/(2 sqrt 2)); both bounds are attained
        radii, weights = _d3_cell_radii(D3_ARC_NODES)
        assert radii.shape == weights.shape == (3 * D3_ARC_NODES,)
        np.testing.assert_allclose(weights.sum(), 2.0 * math.pi, rtol=1e-14)
        inner = math.acos(math.sqrt(5.0 / 8.0))
        outer = math.acos(1.0 / (2.0 * math.sqrt(2.0)))
        assert radii.min() >= inner - 1e-12
        assert radii.max() <= outer + 1e-12
        assert radii.min() == pytest.approx(inner, abs=1e-4)
        assert radii.max() == pytest.approx(outer, abs=1e-3)

    def test_six_cells_agree_with_direction_zero(self):
        # each direction's cell, built in a tangent basis of its own from the
        # angle list of the six directions, gives the error of direction 0's cell
        radii, weights = _six_cell_radii(D3_ARC_NODES)
        for n in range(1, 61):
            rates = _rate(radii, weights, n)
            assert rates.max() - rates.min() <= 1e-12
            assert abs(float(rates.mean()) - d3_coherent_error(SpinJ(n))) <= 2.2e-16


def _rate(radii: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Cap law of d3_coherent_error on the last axis: the error rate of n
    spins over a cell given by its edge radii and quadrature weights."""
    tail = ((1.0 + np.cos(radii)) / 2.0) ** (n + 1)
    return np.sum(weights * tail, axis=-1) / TWO_PI


def _six_cell_radii(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Test-only oracle for _d3_cell_radii: every direction's cell in a
    tangent basis of its own, (e1, e2) = (d0 x (d0 - d_1), d0 x e1)
    normalised, with the bisector crossings and vertex arcs of
    _d3_cell_radii.  Returns (6, M) radii and (6, M) weights."""
    dirs = np.array([unit_vector(d) for d in D3_ANGLE_DIRECTIONS])
    x, w = np.polynomial.legendre.leggauss(nodes)
    radii, weights = [], []
    for g, d0 in enumerate(dirs):
        others = np.delete(dirs, g, axis=0)
        diffs = d0 - others
        e1 = np.cross(d0, diffs[0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(d0, e1)
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
        radii.append(np.arctan2(1.0 - others @ d0, t @ others.T).min(axis=1))
        weights.append((half[:, None] * w).ravel())
    return np.array(radii), np.array(weights)
