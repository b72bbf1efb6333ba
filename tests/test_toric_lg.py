"""Tests for divisors, bundle fans, potential families, and recovery."""

import re
from fractions import Fraction

import pytest

from dualfan.fans import (
    Fan,
    is_complete,
    is_smooth,
    projective_space_fan,
    orthant_fan,
    relabel_fan,
    validate_fan,
)
from dualfan.lattice import LatticeMap
from dualfan.symbols import ParamPoly, Potential
from dualfan.toric_lg import (
    AuxiliaryLG,
    CartierData,
    Specialization,
    ToricDivisor,
    apply_specialization,
    auxiliary_lg_from_ci,
    base_change_check,
    is_cartier,
    is_regular_character,
    line_bundle_fan,
    recover_ci_data,
    section_polytope,
    split_bundle_fan,
)


@pytest.fixture
def p2():
    return projective_space_fan(2)


@pytest.fixture
def p1p1():
    return Fan([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)], 2)


def quintic_total_space():
    p4 = projective_space_fan(4)
    return p4, line_bundle_fan(ToricDivisor(p4, (1, 1, 1, 1, 1)))


def test_divisor_validation(p2):
    with pytest.raises(ValueError, match="one coefficient per ray"):
        ToricDivisor(p2, (1, 2))
    d = ToricDivisor(p2, (1, 2, 3))
    assert d.coeffs == (1, 2, 3)
    assert d == ToricDivisor(p2, [1, 2, 3])


def test_cartier_on_smooth_fan(p2):
    d = ToricDivisor(p2, (0, 0, 3))
    cart = is_cartier(d)
    assert cart is not None
    # the certificate really evaluates to the coefficients on each cone
    for m, ixs in zip(cart.cone_characters, p2.max_cones):
        for i in ixs:
            assert sum(a * b for a, b in zip(m, p2.rays[i])) == d.coeffs[i]


def test_cartier_fails_at_half_integral_character():
    # cone{(1,0),(1,2)} forces the character (1, -1/2) on the first cone
    f = Fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)], 2)
    assert is_cartier(ToricDivisor(f, (1, 0, 0))) is None
    assert is_cartier(ToricDivisor(f, (1, 1, 0))) is not None


def test_cartier_data_rejects_wrong_certificate(p2):
    d = ToricDivisor(p2, (0, 0, 3))
    with pytest.raises(ValueError, match="does not cut the divisor"):
        CartierData(d, [(0, 0)] * 3)
    with pytest.raises(ValueError, match="one character per maximal cone"):
        CartierData(d, [(0, 0)])


def test_section_polytope_counts(p2):
    ten = section_polytope(ToricDivisor(p2, (1, 1, 1)))
    assert len(ten.lattice_points()) == 10
    assert set(ten.vertices) == {(-1, -1), (-1, 2), (2, -1)}
    p4 = projective_space_fan(4)
    assert len(section_polytope(ToricDivisor(p4, (1,) * 5)).lattice_points()) == 126


def test_section_polytope_requires_complete_fan():
    d = ToricDivisor(orthant_fan(2), (1, 1))
    with pytest.raises(ValueError, match="not complete"):
        section_polytope(d)


def test_line_bundle_fan_examples(p2):
    lb = line_bundle_fan(ToricDivisor(p2, (0, 0, 3)))
    assert lb.rays == ((1, 0, 0), (0, 1, 0), (-1, -1, 3), (0, 0, 1))
    assert validate_fan(lb).ok and is_smooth(lb) and not is_complete(lb)
    # a trivial divisor lifts every ray at height zero
    p1 = projective_space_fan(1)
    flat = line_bundle_fan(ToricDivisor(p1, (0, 0)))
    assert set(flat.rays) == {(1, 0), (-1, 0), (0, 1)}


def test_line_bundle_fan_requires_cartier():
    f = Fan([(1, 0), (1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)], 2)
    with pytest.raises(ValueError, match="summand 0 is not Cartier"):
        line_bundle_fan(ToricDivisor(f, (1, 0, 0)))


def test_quintic_total_space_shape():
    p4, sx = quintic_total_space()
    assert len(sx.rays) == 6 and len(sx.max_cones) == 5
    assert (0, 0, 0, 0, 1) in sx.rays
    assert validate_fan(sx).ok and is_smooth(sx)


def test_split_bundle_fan_two_summands(p1p1, p2):
    da = ToricDivisor(p1p1, (2, 0, 0, 0))
    db = ToricDivisor(p1p1, (0, 0, 2, 0))
    total = split_bundle_fan((da, db))
    assert len(total.rays) == 6 and len(total.max_cones) == 4
    assert validate_fan(total).ok
    assert total.rays[4:] == ((0, 0, 1, 0), (0, 0, 0, 1))
    mixed = split_bundle_fan(
        (ToricDivisor(p2, (0, 0, 1)), ToricDivisor(p2, (0, 0, 2)))
    )
    assert (-1, -1, 1, 2) in mixed.rays
    with pytest.raises(ValueError, match="different fans"):
        split_bundle_fan((da, ToricDivisor(p2, (0, 0, 1))))
    with pytest.raises(ValueError, match="at least one summand"):
        split_bundle_fan(())


def test_split_bundle_fan_over_point_base():
    base = Fan([], [()], 0)
    assert is_complete(base)
    zero = ToricDivisor(base, ())
    total = split_bundle_fan((zero, zero))
    assert total == orthant_fan(2)


def test_is_regular_character(p2):
    assert is_regular_character(orthant_fan(2), (1, 5))
    assert not is_regular_character(orthant_fan(2), (-1, 5))
    assert is_regular_character(p2, (0, 0))
    with pytest.raises(ValueError, match="^character has wrong length$"):
        is_regular_character(p2, (1,))


def test_auxiliary_lg_validation(p2):
    aux = AuxiliaryLG(orthant_fan(2), [(1, 0), (0, 2)])
    assert aux.exponents == ((1, 0), (0, 2))
    with pytest.raises(ValueError, match="pairwise distinct"):
        AuxiliaryLG(orthant_fan(2), [(1, 0), (1, 0)])
    with pytest.raises(ValueError, match=r"^character \(-1, 0\) is not regular: "
                       r"negative pairing on ray \(1, 0\)$"):
        AuxiliaryLG(orthant_fan(2), [(-1, 0)])
    with pytest.raises(ValueError, match="^exponent has wrong length$"):
        AuxiliaryLG(orthant_fan(2), [(1, 0, 0)])


def test_auxiliary_lg_from_ci_counts(p1p1):
    p4, _ = quintic_total_space()
    aux, verticals = auxiliary_lg_from_ci((ToricDivisor(p4, (1,) * 5),))
    assert len(aux.exponents) == 126
    assert verticals == (5,)
    assert {e[4:] for e in aux.exponents} == {(1,)}
    assert all(e[-1] == 1 for e in aux.exponents)

    da = ToricDivisor(p1p1, (2, 0, 0, 0))
    db = ToricDivisor(p1p1, (0, 0, 2, 0))
    aux2, verticals2 = auxiliary_lg_from_ci((da, db))
    assert verticals2 == (4, 5)
    tails = [e[2:] for e in aux2.exponents]
    assert tails.count((1, 0)) == 3 and tails.count((0, 1)) == 3


def test_base_change_check_matches_markers(p2):
    aux, _ = auxiliary_lg_from_ci((ToricDivisor(p2, (1, 1, 1)),))
    mirror = Fan.from_generators(
        [(1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, 1)],
        [(0, 1, 3), (1, 2, 3), (0, 2, 3)],
        3,
    )
    report = base_change_check(aux, mirror)
    assert report.verdict and not report.is_isomorphism
    assert len(report.surviving) == 4
    assert [aux.exponents[i] for i in report.coordinate_map] == list(
        mirror.marked_generators
    )


def test_base_change_check_missing_marker(p2):
    aux, _ = auxiliary_lg_from_ci((ToricDivisor(p2, (1, 1, 1)),))
    bad = Fan.from_generators([(2, 2, 1)], [(0,)], 3)
    report = base_change_check(aux, bad)
    assert not report.verdict and report.witness == (2, 2, 1)
    with pytest.raises(ValueError, match="rank mismatch"):
        base_change_check(aux, projective_space_fan(2))


def test_base_change_isomorphism_when_all_exponents_hit():
    aux = AuxiliaryLG(orthant_fan(2), [(1, 0), (0, 1)])
    full = Fan([(1, 0), (0, 1)], [(0, 1)], 2)
    report = base_change_check(aux, full)
    assert report.verdict and report.is_isomorphism


def test_specialization_and_application():
    aux = AuxiliaryLG(orthant_fan(2), [(1, 0), (0, 1)])
    spec = Specialization({(1, 0): 1, (0, 1): ParamPoly.parameter("psi", coeff=-5)})
    w = dict(apply_specialization(aux, spec).terms)
    assert w[(0, 1)] == ParamPoly.parameter("psi", coeff=-5)
    zero = Specialization({(1, 0): 0, (0, 1): 0})
    assert not apply_specialization(aux, zero).terms
    with pytest.raises(ValueError, match="domain does not match"):
        apply_specialization(aux, Specialization({(1, 0): 1}))
    with pytest.raises(ValueError, match="assigned twice"):
        Specialization([((1, 0), 1), ((1, 0), 2)])


def test_specialization_builds_one_constant_per_distinct_value(monkeypatch):
    original = ParamPoly.constant.__func__
    calls = []

    def counting(cls, c):
        calls.append(c)
        return original(cls, c)

    monkeypatch.setattr(ParamPoly, "constant", classmethod(counting))
    values = {(i, j): (i * j) % 3 - 1 for i in range(10) for j in range(10)}
    values[(0, 10)] = Fraction(4, 2)
    values[(0, 11)] = True
    spec = Specialization(values)
    # one per distinct value after the integer reading (a Fraction with
    # denominator 1 and a bool are ints), not one per exponent
    assert sorted(calls) == [-1, 0, 1, 2]
    monkeypatch.undo()
    assert spec == Specialization(
        (e, ParamPoly.constant(int(v))) for e, v in values.items())
    # a value that is no integer raises the same error as before, also
    # when it could not be looked up
    for bad in (2.5, Fraction(1, 2), "3", [1]):
        with pytest.raises(ValueError, match=re.escape(
                f"{bad!r} is not an integer")):
            Specialization({(1, 0): 1, (0, 1): bad})


def test_recover_quintic_bundle_with_identity_transform():
    p4, sx = quintic_total_space()
    rec = recover_ci_data(sx, candidates=[(0, 0, 0, 0, 1)])
    assert rec is not None
    assert rec.base_fan == p4
    assert rec.divisors[0].coeffs == (1, 1, 1, 1, 1)
    assert rec.transform == LatticeMap.identity(5)


def test_recover_after_relabeling_rebuilds_the_input():
    p4, sx = quintic_total_space()
    t = LatticeMap(
        [
            (1, 0, 2, 0, 1),
            (0, 1, 0, 0, 3),
            (0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0),
            (0, 0, 0, 0, 1),
        ]
    )
    shuffled = relabel_fan(sx, t)
    rec = recover_ci_data(shuffled, candidates=[t @ (0, 0, 0, 0, 1)])
    assert rec is not None
    assert split_bundle_fan(rec.divisors) == relabel_fan(shuffled, rec.transform)
    assert sum(rec.divisors[0].coeffs) == 5


def test_recover_exhaustive_search():
    p1 = projective_space_fan(1)
    total = line_bundle_fan(ToricDivisor(p1, (2, 0)))
    rec = recover_ci_data(total)
    assert rec is not None and rec.base_fan == p1
    assert rec.divisors[0].coeffs == (2, 0)
    assert rec.transform == LatticeMap.identity(2)


def test_recover_two_summands(p1p1):
    da = ToricDivisor(p1p1, (2, 0, 0, 0))
    db = ToricDivisor(p1p1, (0, 0, 2, 0))
    total = split_bundle_fan((da, db))
    rec = recover_ci_data(total, candidates=[(0, 0, 1, 0), (0, 0, 0, 1)])
    assert rec is not None
    assert rec.base_fan == p1p1
    assert [d.coeffs for d in rec.divisors] == [(2, 0, 0, 0), (0, 0, 2, 0)]


def test_recover_rejections(p1p1):
    # vertical candidates must sit in every maximal cone
    da = ToricDivisor(p1p1, (2, 0, 0, 0))
    db = ToricDivisor(p1p1, (0, 0, 2, 0))
    total = split_bundle_fan((da, db))
    assert recover_ci_data(total, candidates=[(1, 0, 2, 0)]) is None
    # covering every coordinate leaves no proper base
    o3 = orthant_fan(3)
    assert recover_ci_data(o3, candidates=o3.rays) is None
    # candidates that do not extend to a lattice basis
    f = Fan([(1, 0, 0), (1, 2, 0), (0, 0, 1)], [(0, 1, 2)], 3)
    assert recover_ci_data(f, candidates=[(1, 0, 0), (1, 2, 0)]) is None


def test_recover_input_validation():
    o2 = orthant_fan(2)
    with pytest.raises(ValueError, match="not a ray"):
        recover_ci_data(o2, candidates=[(3, 7)])
    with pytest.raises(ValueError, match="distinct"):
        recover_ci_data(o2, candidates=[(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="at least one candidate"):
        recover_ci_data(o2, candidates=[])
    with pytest.raises(ValueError, match="too many rays"):
        recover_ci_data(projective_space_fan(12))


def test_recover_search_is_deterministic():
    p1 = projective_space_fan(1)
    total = line_bundle_fan(ToricDivisor(p1, (0, 0)))
    first = recover_ci_data(total)
    second = recover_ci_data(total)
    assert first is not None and second is not None
    assert first.transform == second.transform
    assert first.base_fan == second.base_fan
