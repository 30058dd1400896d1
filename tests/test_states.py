import numpy as np
import pytest

from spindir.frames import Frame
from spindir.geometry import sphere_quadrature
from spindir.groups import build_signal_family, dihedral_d3
from spindir.optimize import chi_density, optimal_direction_encoding
from spindir.povm import Povm
from spindir.states import (
    ProductBasis,
    SpinBasis,
    SpinJ,
    StateVector,
    basis_state,
    product_state,
    spin_basis_state,
    state_from_terms,
)


def test_spinj_basics():
    j = SpinJ(3)
    assert j.j == 1.5
    assert j.dim == 4
    assert not j.is_integer
    assert SpinJ(4).is_integer
    assert SpinJ.from_j(2.5) == SpinJ(5)
    np.testing.assert_allclose(SpinJ(3).m_values(), [1.5, 0.5, -0.5, -1.5])


@pytest.mark.parametrize("bad", [-1, 0.5, "2", True, False])
def test_spinj_rejects_bad_twice_j(bad):
    with pytest.raises(ValueError):
        SpinJ(bad)


def test_spinj_from_j_rejects_quarter_integers():
    with pytest.raises(ValueError):
        SpinJ.from_j(0.3)


def test_product_basis_little_endian():
    basis = ProductBasis(3)
    assert basis.dim == 8
    # leftmost symbol is qubit 0 and occupies bit 0
    assert basis.index_of("100") == 1
    assert basis.index_of("001") == 4
    assert basis.bits_of(4) == "001"
    for k in range(8):
        assert basis.index_of(basis.bits_of(k)) == k


def test_product_basis_rejects_bad_strings():
    basis = ProductBasis(2)
    with pytest.raises(ValueError):
        basis.index_of("012")
    with pytest.raises(ValueError):
        basis.index_of("0")
    with pytest.raises(ValueError):
        ProductBasis(0)


def test_spin_basis_m_descending():
    basis = SpinBasis(SpinJ(2))
    assert basis.index_of_m(1.0) == 0
    assert basis.index_of_m(0.0) == 1
    assert basis.index_of_m(-1.0) == 2
    with pytest.raises(ValueError):
        basis.index_of_m(0.5)
    with pytest.raises(ValueError):
        basis.index_of_m(2.0)


def test_state_vector_shape_checked():
    with pytest.raises(ValueError):
        StateVector(basis=ProductBasis(2), amplitudes=np.zeros(3))


def test_state_vector_norm_and_inner():
    s = state_from_terms(2, {"01": 1.0, "10": -1.0})
    assert s.norm() == pytest.approx(np.sqrt(2.0))
    n = s.normalized()
    assert n.norm() == pytest.approx(1.0, abs=1e-12)
    assert n.inner(n) == pytest.approx(1.0)
    other = basis_state("01")
    assert n.inner(other) == pytest.approx(1.0 / np.sqrt(2.0))
    with pytest.raises(ValueError):
        n.inner(spin_basis_state(SpinJ(3), 0.5))


def test_require_normalized():
    s = state_from_terms(1, {"0": 0.5})
    with pytest.raises(ValueError):
        s.require_normalized()
    s.normalized().require_normalized()


def test_product_state_matches_kets():
    up = [1.0, 0.0]
    dn = [0.0, 1.0]
    s = product_state([up, dn, up])
    np.testing.assert_allclose(s.amplitudes, basis_state("010").amplitudes)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    t = product_state([plus, dn])
    expected = state_from_terms(2, {"01": 0.5**0.5, "11": 0.5**0.5})
    np.testing.assert_allclose(t.amplitudes, expected.amplitudes)


def test_normalize_zero_state_fails():
    z = StateVector(basis=ProductBasis(1), amplitudes=np.zeros(2))
    with pytest.raises(ValueError):
        z.normalized()


# builders of every record type whose fields hold arrays
ARRAY_RECORDS = {
    "StateVector": lambda: StateVector(SpinBasis(SpinJ(1)), np.array([1.0, 0.0])),
    "Povm": lambda: Povm(np.eye(2)[None], ("a",)),
    "DirectionCode": lambda: optimal_direction_encoding(SpinJ(4)),
    "ChiDensity": lambda: chi_density(optimal_direction_encoding(SpinJ(4))),
    "Frame": lambda: Frame(z_axis=np.array([0.0, 0.0, 1.0]),
                           x_axis=np.array([1.0, 0.0, 0.0]),
                           y_axis=np.array([0.0, 1.0, 0.0])),
    "SphereQuadrature": lambda: sphere_quadrature(3, 4),
    "IrrepData": lambda: dihedral_d3()[1],
    "FiniteGroup": lambda: dihedral_d3()[0],
    "SignalFamily": lambda: build_signal_family(dihedral_d3()[0], 1),
}


@pytest.mark.parametrize("name", list(ARRAY_RECORDS))
def test_array_records_compare_by_identity_and_hash(name):
    # a field-wise == would compare arrays elementwise and raise
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert a == a
    assert (a == b) is False
    assert len({a, b, a}) == 2
