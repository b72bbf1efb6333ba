"""The immutability and equality contract shared by every value class.

Each value type derives from `dualfan._value.Value`: instances refuse
to set or delete attributes, carry no `__dict__`, and compare through
`_key()`: by structure for the keyed types, by identity otherwise.
"""

from fractions import Fraction

import pytest

from dualfan._value import Value
from dualfan.fans import (
    DualFanReport,
    Fan,
    FanValidation,
    orthant_fan,
    projective_space_fan,
)
from dualfan.groups import FiniteAbelianGroup
from dualfan.lattice import LatticeMap, snf
from dualfan.mirrors.bb import is_gorenstein, is_reflexive
from dualfan.mirrors.bhk import verify_bhk_criterion
from dualfan.mirrors.report import MirrorReport
from dualfan.polyhedra import Cone, Polytope
from dualfan.symbols import ParamPoly, Potential
from dualfan.toric_lg import (
    AuxiliaryLG,
    Specialization,
    ToricDivisor,
    base_change_check,
    is_cartier,
    line_bundle_fan,
    recover_ci_data,
)

THIRD = Fraction(1, 3)
FERMAT_CUBIC = [[3, 0, 0], [0, 3, 0], [0, 0, 3]]


def _p2_divisor():
    return ToricDivisor(projective_space_fan(2), (1, 1, 1))


def _orthant_base_change():
    return base_change_check(
        AuxiliaryLG(orthant_fan(2), [(1, 0), (0, 1)]), orthant_fan(2))


def _square_cone():
    return Cone([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)], 3)


# one factory per value class; each call builds a fresh instance
FACTORIES = {
    "FanValidation": lambda: FanValidation(True),
    "DualFanReport": lambda: DualFanReport(True),
    "Fan": lambda: projective_space_fan(2),
    "FiniteAbelianGroup": lambda: FiniteAbelianGroup.from_phases(
        [(THIRD, THIRD, THIRD)], 3),
    "LatticeMap": lambda: LatticeMap([(1, 2), (3, 4)]),
    "SmithDecomposition": lambda: snf(LatticeMap([(2, 0), (0, 3)])),
    "Cone": lambda: Cone([(1, 0), (0, 1)], 2),
    "Polytope": lambda: Polytope.from_vertices([(0, 0), (1, 0), (0, 1)]),
    "ParamPoly": lambda: ParamPoly.parameter("psi"),
    "Potential": lambda: Potential({(1, 0): 1}),
    "ToricDivisor": _p2_divisor,
    "CartierData": lambda: is_cartier(_p2_divisor()),
    "AuxiliaryLG": lambda: AuxiliaryLG(orthant_fan(2), [(1, 0), (0, 1)]),
    "BaseChangeReport": _orthant_base_change,
    "Specialization": lambda: Specialization({(1, 0): 1}),
    "CIData": lambda: recover_ci_data(
        line_bundle_fan(ToricDivisor(projective_space_fan(1), (2, 0)))),
    "GorensteinReport": lambda: is_gorenstein(_square_cone()),
    "ReflexiveReport": lambda: is_reflexive(_square_cone()),
    "BhkCriterionReport": lambda: verify_bhk_criterion(
        FERMAT_CUBIC, [(THIRD, THIRD, THIRD)]),
    "MirrorReport": lambda: MirrorReport(
        orthant_fan(2), orthant_fan(2), DualFanReport(True),
        to_gamma=_orthant_base_change(),
        to_gamma_prime=_orthant_base_change()),
}

# keyed classes: (a value equal to the factory's, a value with another key)
KEYED = {
    "LatticeMap": (
        lambda: LatticeMap([(1, 2), (3, 4)]),
        lambda: LatticeMap([(1, 2), (3, 5)]),
    ),
    "FiniteAbelianGroup": (
        lambda: FiniteAbelianGroup.from_phases(
            [(2 * THIRD, 2 * THIRD, 2 * THIRD)], 3),
        lambda: FiniteAbelianGroup.from_phases([(THIRD, 2 * THIRD, 0)], 3),
    ),
    "ParamPoly": (
        lambda: ParamPoly([((("psi", 1),), 1)]),
        lambda: ParamPoly.parameter("phi"),
    ),
    "Potential": (
        lambda: Potential([((1, 0), 1)]),
        lambda: Potential({(0, 1): 1}),
    ),
    "Cone": (
        lambda: Cone([(0, 2), (1, 1), (3, 0)], 2),
        lambda: Cone([(1, 0), (1, 1)], 2),
    ),
    "Polytope": (
        lambda: Polytope.from_vertices([(0, 1), (0, 0), (1, 0), (0, 0)]),
        lambda: Polytope.from_vertices([(0, 0), (2, 0), (0, 1)]),
    ),
    "Fan": (
        lambda: Fan([(-1, -1), (1, 0), (0, 1)], [(1, 2), (0, 2), (0, 1)], 2),
        lambda: orthant_fan(2),
    ),
    "ToricDivisor": (
        lambda: ToricDivisor(projective_space_fan(2), [1, 1, 1]),
        lambda: ToricDivisor(projective_space_fan(2), (0, 0, 3)),
    ),
    "AuxiliaryLG": (
        lambda: AuxiliaryLG(orthant_fan(2), ((1, 0), (0, 1))),
        lambda: AuxiliaryLG(orthant_fan(2), [(1, 0), (0, 2)]),
    ),
    "Specialization": (
        lambda: Specialization([((1, 0), ParamPoly.constant(1))]),
        lambda: Specialization({(1, 0): 2}),
    ),
}

BY_IDENTITY = sorted(set(FACTORIES) - set(KEYED))


def test_every_value_class_has_a_case():
    built = {type(make()) for make in FACTORIES.values()}
    assert built == set(Value.__subclasses__())
    assert all(type(make()).__name__ == name
               for name, make in FACTORIES.items())


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_value_is_frozen(name):
    obj = FACTORIES[name]()
    message = f"{name} is immutable"
    slot = type(obj).__slots__[0]
    before = getattr(obj, slot)
    for attr in (slot, "unknown_attribute"):
        with pytest.raises(AttributeError, match=message):
            setattr(obj, attr, 0)
    with pytest.raises(AttributeError, match=message):
        delattr(obj, slot)
    assert getattr(obj, slot) is before
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("name", sorted(KEYED))
def test_keyed_value_equality(name):
    same, other = KEYED[name]
    a, b, c = FACTORIES[name](), same(), other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    key = a._key()
    assert a != key and key != a
    assert a != object()


@pytest.mark.parametrize("name", BY_IDENTITY)
def test_report_compares_by_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a == a and hash(a) == hash(a)
    assert a != b
