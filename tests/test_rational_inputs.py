"""Every library entry point that takes rational data reads it by one
rule, `lattice._rational`: an int or a Fraction passes unchanged, and a
float or a string raises ValueError naming the value.  A float is never
read as the binary fraction it stores."""

import re
from fractions import Fraction

import pytest

from dualfan.groups import FiniteAbelianGroup, normalize_phase
from dualfan.lattice import LatticeMap, _rational, annihilator_lattice
from dualfan.mirrors.bhk import krawitz_dual_group
from dualfan.polyhedra import Polytope

HALF = Fraction(1, 2)
SQUARE = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])

# site: (build from one rational entry x, what it gives at x = 1/2)
SITES = {
    "FiniteAbelianGroup.from_phases": (
        lambda x: FiniteAbelianGroup.from_phases([(x, 0)], 2).order, 2),
    "normalize_phase": (
        lambda x: normalize_phase((x, 2)), (HALF, 0)),
    "annihilator_lattice": (
        lambda x: annihilator_lattice([(x,)], 1), LatticeMap([[2]])),
    "krawitz_dual_group": (
        lambda x: krawitz_dual_group(LatticeMap([[2]]), [(x,)]).order, 1),
    "Polytope.from_vertices": (
        lambda x: Polytope.from_vertices([(x, 0), (0, 1), (0, 0)]).vertices,
        ((0, 0), (0, 1), (HALF, 0))),
    "Polytope.from_hrep": (
        lambda x: Polytope.from_hrep(
            [((1, 0), x), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)], 2
        ).lattice_points(),
        [(0, 0), (0, 1), (1, 0), (1, 1)]),
    "Polytope.contains": (
        lambda x: SQUARE.contains((x, 1)), True),
}


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_non_rationals_are_rejected_by_name(site, bad):
    build, _ = SITES[site]
    with pytest.raises(ValueError,
                       match=re.escape(f"{bad!r} is not a rational number")):
        build(bad)


@pytest.mark.parametrize("site", sorted(SITES))
def test_ints_and_fractions_are_read_exactly(site):
    build, at_half = SITES[site]
    assert build(HALF) == at_half
    assert build(1) == build(Fraction(1))


def test_rational_passes_ints_and_fractions_unchanged():
    for x in (0, -7, 2 ** 70, HALF, Fraction(-3, 4), True):
        assert _rational(x) is x


def test_a_float_phase_no_longer_becomes_a_huge_group():
    with pytest.raises(ValueError, match="0.1 is not a rational number"):
        FiniteAbelianGroup.from_phases([(0.1,)], 1)


def test_hrep_offsets_are_exact_ints():
    cut = Polytope.from_hrep([((1, 0), HALF), ((-1, 0), 1), ((0, 1), 1),
                              ((0, -1), 1)], 2)
    empty = Polytope.from_hrep([((1,), -1), ((-1,), 0)], 1)
    for poly in (SQUARE, cut, cut.polar(), empty):
        assert all(type(off) is int for _, off in poly.hrep)
    assert empty.hrep == (((0,), -1),)
