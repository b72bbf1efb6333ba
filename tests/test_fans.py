"""Tests for fan validity, duality, predicates, and quotients."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dualfan.fans import (
    DualFanReport,
    Fan,
    is_complete,
    is_dual_pair,
    is_smooth,
    k_cones,
    orthant_fan,
    projective_space_fan,
    quotient_fan,
    relabel_fan,
    validate_fan,
)
from dualfan.lattice import LatticeMap
from dualfan.polyhedra import Cone, Polytope, primitive_vector


def test_fan_constructor_validation():
    with pytest.raises(ValueError, match="primitive"):
        Fan([(2, 0)], [(0,)], 2)
    with pytest.raises(ValueError, match="distinct"):
        Fan([(1, 0), (1, 0)], [(0, 1)], 2)
    with pytest.raises(ValueError, match="missing ray"):
        Fan([(1, 0)], [(0, 1)], 2)
    with pytest.raises(ValueError, match="positive multiple"):
        Fan([(1, 0)], [(0,)], 2, marked_generators=[(-2, 0)])
    with pytest.raises(ValueError, match="positive multiple"):
        Fan([(1, 0)], [(0,)], 2, marked_generators=[(1, 1)])


def count_cone_builds(monkeypatch):
    """A list that grows by one entry per `Cone.__init__` call."""
    builds = []
    init = Cone.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cone, "__init__", counting)
    return builds


def test_fan_cones_are_built_on_first_use(monkeypatch):
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    max_cones = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2), (0, 1, 2)]
    expected = tuple(Cone([rays[i] for i in c], 3) for c in max_cones[:4])
    builds = count_cone_builds(monkeypatch)
    f = Fan(rays, max_cones, 3)
    t = LatticeMap([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    other = relabel_fan(f, t)
    assert is_dual_pair(f, orthant_fan(3)).verdict is False
    assert builds == []
    cones = f.cones
    assert len(builds) == 4
    assert cones == expected
    assert [c.generators for c in cones] == [c.generators for c in expected]
    assert f.cones is cones and len(builds) == 4
    assert other.max_cones == f.max_cones and builds[4:] == []


def test_from_generators_marks():
    f = Fan.from_generators([(2, 0), (0, 3)], [(0, 1)], 2)
    assert f.rays == ((1, 0), (0, 1))
    assert f.marked_generators == ((2, 0), (0, 3))


def test_projective_space_fans():
    p4 = projective_space_fan(4)
    assert len(p4.rays) == 5 and len(p4.max_cones) == 5
    assert validate_fan(p4).ok
    p1 = projective_space_fan(1)
    assert set(p1.rays) == {(1,), (-1,)}
    assert is_complete(p1) and is_smooth(p1)


def test_projective_space_fans_complete_and_smooth():
    for n in range(1, 7):
        f = projective_space_fan(n)
        assert validate_fan(f).ok
        assert is_complete(f)
        assert is_smooth(f)


def test_orthant_fan():
    f = orthant_fan(2)
    assert len(f.max_cones) == 1 and len(f.rays) == 2
    assert validate_fan(f).ok and not is_complete(f)
    assert len(orthant_fan(5).rays) == 5
    assert len(orthant_fan(1).rays) == 1


def test_invalid_fan_has_diagnostics():
    bad = Fan([(1, 0), (0, 1), (1, 1), (1, -1)], [(0, 1), (2, 3)], 2)
    v = validate_fan(bad)
    assert not v.ok
    assert "not a common face" in v.diagnostics[0]


def test_fan_with_lineality_cone_is_invalid():
    f = Fan([(1, 0), (-1, 0)], [(0, 1)], 2)
    v = validate_fan(f)
    assert not v.ok
    assert "strongly convex" in v.diagnostics[0]


def validate_by_intersections(f):
    """The fan condition with a double description intersection for
    every pair of cones, kept as the reference for `validate_fan`."""
    problems = [f"cone {list(ixs)} is not strongly convex"
                for ixs, c in zip(f.max_cones, f.cones)
                if not c.is_strongly_convex()]
    if not problems:
        for (i, a), (j, b) in combinations(enumerate(f.cones), 2):
            meet = a.intersection(b)
            if not meet.is_face_of(a) or not meet.is_face_of(b):
                problems.append(
                    f"intersection of cones {list(f.max_cones[i])} and "
                    f"{list(f.max_cones[j])} is not a common face")
    return problems


def random_fan(rng, rank):
    """Faces of a random normal fan (valid, often lower-dimensional), the
    same with one stray cone on its rays, or random cones on random rays
    (mostly invalid, some with lines)."""
    kind = rng.randrange(4)
    if kind >= 2:
        rays = sorted({primitive_vector([rng.randint(-2, 2)
                                         for _ in range(rank)])
                       for _ in range(rank + 3)} - {(0,) * rank})
        cones = [rng.sample(range(len(rays)),
                            rng.randint(1, min(len(rays), rank + 1)))
                 for _ in range(rng.randint(3, 5))]
        return Fan(rays, cones, rank)
    while True:
        pts = [[rng.randint(-2, 2) for _ in range(rank)]
               for _ in range(rank + 2)]
        poly = Polytope.from_vertices(pts)
        if poly.dim == rank:
            break
    fan = poly.normal_fan()
    index = {r: i for i, r in enumerate(fan.rays)}
    cones = []
    for cone in fan.cones:
        faces = sorted(map(sorted, cone._face_index_sets()))
        face = faces[-1] if rng.random() < 0.5 else rng.choice(faces)
        cones.append([index[cone.extreme_rays[k]] for k in face])
    if kind == 1:
        cones.append(rng.sample(range(len(fan.rays)),
                                rng.randint(2, rank + 1)))
    return Fan(fan.rays, cones, rank)


def test_validate_fan_matches_the_pairwise_intersection_test():
    rng = random.Random(20151)
    outcomes = Counter()
    for rank in (2, 3, 4):
        for _ in range(60):
            f = random_fan(rng, rank)
            problems = validate_by_intersections(f)
            v = validate_fan(f)
            assert (v.ok, list(v.diagnostics)) == (not problems, problems), f
            outcomes[rank, v.ok] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_a_separating_sum_needs_strict_signs_on_the_other_cone():
    # s ∩ t = cone(a, b) but a and b are opposite corners of a square
    # facet of t; the normal sum of s is zero on that whole facet
    a, b = (1, 0, 1, 0), (-1, 0, 1, 0)
    rays = [a, b, (0, 1, 0, 1), (0, -1, 0, 1), (0, 1, 1, 0), (0, -1, 1, 0),
            (0, 0, 0, -1)]
    f = Fan(rays, [(0, 1, 2, 3), (0, 1, 4, 5, 6)], 4)
    assert validate_fan(f).diagnostics == (
        "intersection of cones [0, 1, 2, 3] and [0, 1, 4, 5, 6] is not a "
        "common face",)
    assert validate_by_intersections(f) == list(validate_fan(f).diagnostics)


def test_k_cones():
    p4 = projective_space_fan(4)
    assert len(k_cones(p4, 1)) == 5
    assert len(k_cones(p4, 0)) == 1
    assert k_cones(p4, 0)[0].dim == 0
    assert len(k_cones(p4, 4)) == 5
    # middle layers of the boundary complex of the 4-simplex
    assert len(k_cones(p4, 2)) == 10
    assert len(k_cones(p4, 3)) == 10


def test_dual_pair_reports():
    o = orthant_fan(2)
    rep = is_dual_pair(o, o)
    assert rep.verdict and rep.witness is None
    neg = is_dual_pair(Fan([(1,)], [(0,)], 1), Fan([(-1,)], [(0,)], 1))
    assert not neg.verdict
    m, n, value = neg.witness
    assert value == sum(a * b for a, b in zip(m, n)) == -1
    with pytest.raises(ValueError, match="rank mismatch"):
        is_dual_pair(orthant_fan(2), orthant_fan(3))
    with pytest.raises(ValueError):
        DualFanReport(False, None)


def test_dual_pair_is_symmetric():
    rng = random.Random(988)
    for _ in range(40):
        rank = rng.randrange(1, 4)
        def mk():
            rays = {
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randrange(1, 4))
            }
            rays = [r for r in rays if any(r)]
            if not rays:
                rays = [tuple(int(j == 0) for j in range(rank))]
            from dualfan.polyhedra import primitive_vector

            rays = list(dict.fromkeys(primitive_vector(r) for r in rays))
            return Fan(rays, [(i,) for i in range(len(rays))], rank)

        a, b = mk(), mk()
        assert is_dual_pair(a, b).verdict == is_dual_pair(b, a).verdict


def test_completeness_census():
    assert is_complete(projective_space_fan(4))
    assert not is_complete(orthant_fan(3))
    square = Polytope.from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    assert is_complete(square.normal_fan())


def test_complete_fan_euler_census():
    # in a complete fan every facet is an interior wall: the incidence
    # count from the maximal cones is exactly twice the number of walls
    for fan in (
        projective_space_fan(2),
        projective_space_fan(3),
        Polytope.from_vertices(
            [(-1, -1), (1, -1), (-1, 1), (1, 1)]
        ).normal_fan(),
    ):
        incidences = sum(
            len(c.faces(fan.lattice_rank - 1)) for c in fan.cones
        )
        walls = len(k_cones(fan, fan.lattice_rank - 1))
        assert incidences == 2 * walls


def complete_by_facet_census(f):
    """The earlier definition of is_complete, kept as the oracle."""
    if not f.cones or any(c.dim != f.lattice_rank for c in f.cones):
        return False
    return all(
        sum(1 for c in f.cones if c.contains_cone(facet)) == 2
        for cone in f.cones
        for facet in cone.faces(f.lattice_rank - 1)
    )


def random_polygon_fan(rng):
    """Complete fan over random primitive rays taken counterclockwise."""
    while True:
        rays = {
            primitive_vector((rng.randint(-4, 4), rng.randint(-4, 4)))
            for _ in range(rng.randrange(3, 9))
        }
        rays = sorted(
            (r for r in rays if any(r)), key=lambda r: math.atan2(r[1], r[0])
        )
        turns = zip(rays, rays[1:] + rays[:1])
        if len(rays) >= 3 and all(
            a[0] * b[1] - a[1] * b[0] > 0 for a, b in turns
        ):
            return rays, [(i, (i + 1) % len(rays)) for i in range(len(rays))]


def test_is_complete_matches_the_facet_census():
    rng = random.Random(31337)
    outcomes = []
    for _ in range(40):
        rays, cones = random_polygon_fan(rng)
        dropped = rng.sample(cones, len(cones) - rng.randrange(1, 3))
        for f in (Fan(rays, cones, 2), Fan(rays, dropped, 2)):
            assert validate_fan(f).ok
            expected = complete_by_facet_census(f)
            assert is_complete(f) == expected
            outcomes.append(expected)
    assert outcomes.count(True) == outcomes.count(False) == 40


def test_is_complete_is_false_on_a_cone_with_a_line():
    wide = Fan([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)], 2)
    assert not validate_fan(wide).ok
    assert is_complete(wide) is False
    # two half-planes cover the plane, yet neither is strongly convex
    halves = Fan([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1, 2), (0, 1, 3)], 2)
    assert is_complete(halves) is False


def test_smoothness():
    assert is_smooth(projective_space_fan(2))
    assert not is_smooth(Fan([(1, 0), (1, 2)], [(0, 1)], 2))
    # simplicial but not unimodular in rank 3
    assert not is_smooth(Fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)], 3))


def test_rank_zero_fan():
    z = Fan([], [()], 0)
    assert validate_fan(z).ok
    assert is_complete(z)
    assert is_smooth(z)
    assert len(k_cones(z, 0)) == 1


def test_quotient_identity():
    p4 = projective_space_fan(4)
    img, (k_rank, g) = quotient_fan(p4, LatticeMap.identity(4))
    assert img == p4
    assert k_rank == 0 and g.is_trivial()


def test_quotient_multiplication_by_two():
    ray = Fan([(1,)], [(0,)], 1)
    img, (k_rank, g) = quotient_fan(ray, LatticeMap([[2]]))
    assert img.rays == ((1,),)
    assert img.marked_generators == ((2,),)
    assert k_rank == 0
    assert g.invariant_factors == (2,)
    assert g.contains_phase((Fraction(1, 2),))


def test_quotient_validates_image():
    # projecting to the first axis flattens the wide cone onto a full
    # line, which no fan may contain
    f = Fan([(-1, 1), (1, 1), (0, -1)], [(0, 1), (2,)], 2)
    assert validate_fan(f).ok
    project = LatticeMap([[1, 0]])
    with pytest.raises(ValueError, match="quotient not a fan"):
        quotient_fan(f, project)


def test_quotient_rejects_a_face_image_that_is_not_a_face():
    # the image cone is the positive quadrant, a valid fan, but the third
    # ray lands on (1, 1) in its interior
    f = Fan([(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)], 3)
    with pytest.raises(ValueError) as err:
        quotient_fan(f, LatticeMap([[1, 0, 1], [0, 1, 1]]))
    assert str(err.value) == (
        "quotient not a fan: a face image is not a face of its cone image "
        "([[0, 0, 1]])"
    )


def test_quotient_of_a_cone_with_a_line_still_raises():
    # the map kills the line, so the image cone is a single ray
    f = Fan([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)], 2)
    with pytest.raises(ValueError, match="has lineality"):
        quotient_fan(f, LatticeMap([[0, 1]]))


def test_quotient_group_order_matches_determinant():
    rng = random.Random(24680)
    base = orthant_fan(3)
    done = 0
    while done < 15:
        q = LatticeMap(
            [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        )
        det = round(float(np.linalg.det(np.array(q.entries, dtype=np.int64))))
        if det == 0:
            continue
        try:
            img, (k_rank, g) = quotient_fan(base, q)
        except ValueError:
            continue
        done += 1
        assert k_rank == 0
        assert g.order == abs(det)
        assert validate_fan(img).ok


def test_quotient_preserves_validity():
    rng = random.Random(1357)
    square_fan = Polytope.from_vertices(
        [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    ).normal_fan()
    for _ in range(10):
        # random unimodular change of coordinates
        u = [[1, 0], [0, 1]]
        for _ in range(6):
            i, j = rng.randrange(2), rng.randrange(2)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        img, (k_rank, g) = quotient_fan(square_fan, LatticeMap(u))
        assert validate_fan(img).ok
        assert k_rank == 0 and g.is_trivial()
        assert is_complete(img)
