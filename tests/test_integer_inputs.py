"""Every library entry point that takes lattice data reads its integers by
one rule: an int, or a Fraction with denominator 1.  A non-integral
Fraction, a float or a numeric string raises ValueError naming the value;
nothing is truncated."""

import re
from fractions import Fraction

import pytest

from dualfan.fans import Fan, orthant_fan, projective_space_fan
from dualfan.groups import FiniteAbelianGroup
from dualfan.mirrors.bb import bb_mirror_pair
from dualfan.mirrors.givental import splitting_basis
from dualfan.polyhedra import Cone, primitive_vector
from dualfan.symbols import Potential
from dualfan.toric_lg import (
    AuxiliaryLG,
    CartierData,
    Specialization,
    ToricDivisor,
    is_regular_character,
    line_bundle_fan,
    recover_ci_data,
)

P1_BUNDLE = line_bundle_fan(ToricDivisor(projective_space_fan(1), (1, 0)))

# site: (build from one entry x, a valid integer for x, what the result
# stores of x; None where the site is a check that stores nothing)
SITES = {
    "Fan ray": (
        lambda x: Fan([(x, 0), (0, 1)], [(0, 1)], 2), 1,
        lambda f: f.rays[0][0]),
    "Fan marked generator": (
        lambda x: Fan([(1, 0), (0, 1)], [(0, 1)], 2,
                      marked_generators=[(x, 0), (0, 1)]), 1,
        lambda f: f.marked_generators[0][0]),
    "Fan cone index": (
        lambda x: Fan([(1, 0), (0, 1)], [(0, x)], 2), 1,
        lambda f: f.max_cones[0][1]),
    "Fan.from_generators": (
        lambda x: Fan.from_generators([(x, 0), (0, 1)], [(0, 1)], 2), 2,
        lambda f: f.marked_generators[0][0]),
    "Cone": (
        lambda x: Cone([(x, 0), (0, 1)], 2), 1,
        lambda c: max(c.generators)[0]),
    "primitive_vector": (
        lambda x: primitive_vector((x, 0)), 1,
        lambda v: v[0]),
    "ToricDivisor": (
        lambda x: ToricDivisor(projective_space_fan(2), [x, 0, 0]), 1,
        lambda d: d.coeffs[0]),
    "CartierData": (
        lambda x: CartierData(ToricDivisor(orthant_fan(2), [1, 0]), [(x, 0)]),
        1, lambda c: c.cone_characters[0][0]),
    "AuxiliaryLG": (
        lambda x: AuxiliaryLG(orthant_fan(2), [(x, 0)]), 1,
        lambda a: a.exponents[0][0]),
    "Specialization": (
        lambda x: Specialization({(x, 0): 1}), 1,
        lambda s: s.assignments[0][0][0]),
    "Potential": (
        lambda x: Potential({(x, 0): 1}), 1,
        lambda p: p.terms[0][0][0]),
    "FiniteAbelianGroup": (
        lambda x: FiniteAbelianGroup((x,), ((Fraction(1, 2),),), 1), 2,
        lambda g: g.invariant_factors[0]),
    "is_regular_character": (
        lambda x: is_regular_character(orthant_fan(2), (x, 0)), 1, None),
    "recover_ci_data": (
        lambda x: recover_ci_data(P1_BUNDLE, [(0, x)]).divisors, 1, None),
    "bb_mirror_pair": (
        lambda x: bb_mirror_pair([(x, 0), (0, 1)], [(1, 0), (0, 1)]).sigma_x,
        1, None),
    "splitting_basis": (
        lambda x: splitting_basis(projective_space_fan(1), [(x,)]), 1, None),
}

BAD = {
    "fraction": lambda good: Fraction(2 * good + 1, 2),
    "float": float,
    "string": str,
}


@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_integers_are_rejected_by_name(site, kind):
    build, good, _ = SITES[site]
    bad = BAD[kind](good)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        build(bad)


@pytest.mark.parametrize("site", sorted(SITES))
def test_integral_fraction_is_read_as_an_int(site):
    build, good, stored = SITES[site]
    result = build(Fraction(good))
    if stored is None:
        assert result == build(good)
    else:
        assert type(stored(result)) is int and stored(result) == good


def test_zero_generator_is_checked_before_it_is_dropped():
    with pytest.raises(ValueError, match=re.escape("(0.0, 0)")):
        Cone([(0.0, 0), (0, 1)], 2)
    assert Cone([(Fraction(0), 0), (0, 1)], 2) == Cone([(0, 1)], 2)
