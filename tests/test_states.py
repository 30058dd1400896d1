import numpy as np
import pytest

from spindir.frames import EulerAngles, Frame
from spindir.geometry import sphere_quadrature
from spindir.groups import FiniteGroup, dihedral_d3
from spindir.optimize import chi_density, optimal_direction_encoding
from spindir.povm import Povm
from spindir.states import SpinJ


def test_spinj_basics():
    j = SpinJ(3)
    assert j.j == 1.5
    assert j.dim == 4
    assert not j.is_integer
    assert SpinJ(4).is_integer
    assert SpinJ.from_j(2.5) == SpinJ(5)


@pytest.mark.parametrize("bad", [-1, 0.5, "2", True, False])
def test_spinj_rejects_bad_twice_j(bad):
    with pytest.raises(ValueError):
        SpinJ(bad)


def test_spinj_from_j_rejects_quarter_integers():
    with pytest.raises(ValueError):
        SpinJ.from_j(0.3)


# builders of every record type whose fields hold arrays
ARRAY_RECORDS = {
    "Povm": lambda: Povm(np.eye(2)[None]),
    "DirectionCode": lambda: optimal_direction_encoding(SpinJ(4)),
    "ChiDensity": lambda: chi_density(optimal_direction_encoding(SpinJ(4))),
    "Frame": lambda: Frame(z_axis=np.array([0.0, 0.0, 1.0]),
                           x_axis=np.array([1.0, 0.0, 0.0])),
    "SphereQuadrature": lambda: sphere_quadrature(3, 4),
    "FiniteGroup": lambda: FiniteGroup(dihedral_d3().element_rotations),
    "EulerAngles": lambda: EulerAngles(phi=np.array([0.1, 0.2]), theta=np.array([1.0, 2.0]),
                                       psi=np.zeros(2)),
}


@pytest.mark.parametrize("name", list(ARRAY_RECORDS))
def test_array_records_compare_by_identity_and_hash(name):
    # a field-wise == would compare arrays elementwise and raise
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert a == a
    assert (a == b) is False
    assert len({a, b, a}) == 2
