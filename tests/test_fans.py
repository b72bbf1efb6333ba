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
    _covers,
    _negative_pairing,
    _separated,
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
from dualfan.lattice import LatticeMap, _adjugate, _dot
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


def test_a_fan_of_negative_rank_is_rejected_before_its_rays():
    # no ray to check, and rays that a negative rank never fits: the
    # rank is read first either way
    for rays in ([], [(1, 0, 0)]):
        with pytest.raises(ValueError,
                           match="^lattice rank must be nonnegative$"):
            Fan(rays, [()], -3)
    assert Fan([], [()], 0).lattice_rank == 0


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


def test_the_one_pass_face_test_matches_intersection_and_is_face_of():
    rng = random.Random(24073)
    outcomes = Counter()
    for rank in (2, 3):
        for _ in range(80):
            f = random_fan(rng, rank)
            for s, t in combinations(f.cones, 2):
                if _separated(s, t) or _separated(t, s):
                    continue
                meet = s.intersection(t)
                expected = meet.is_face_of(s) and meet.is_face_of(t)
                assert s._meets_in_a_face(t) == expected, (s, t)
                assert t._meets_in_a_face(s) == expected, (s, t)
                outcomes[rank, expected] += 1
    # cones around the one line through (1, 0, 0)
    line = [(1, 0, 0), (-1, 0, 0)]
    wedges = [Cone(line + extra, 3) for extra in (
        [(0, 1, 0)], [(0, -1, 0)], [(0, 1, 0), (0, 0, 1)], [(0, 1, 1)],
        [(0, 1, -1), (0, 0, 1)], [(0, -1, 1), (0, 1, 1)])]
    for s, t in combinations(wedges, 2):
        meet = s.intersection(t)
        expected = meet.is_face_of(s) and meet.is_face_of(t)
        assert s._meets_in_a_face(t) == expected, (s, t)
        outcomes["line", expected] += 1
    assert min(outcomes.values()) >= 5, outcomes
    assert min(n for (rank, _), n in outcomes.items() if rank != "line") >= 30


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


def reference_negative_pairing(fan, vectors, what):
    """The per-vector loop the family kernel replaced: each vector's
    length is checked, then its first negative ray is searched."""
    for i, m in enumerate(vectors):
        if len(m) != fan.lattice_rank:
            raise ValueError(f"{what} has wrong length")
        r = next((r for r in fan.rays if _dot(m, r) < 0), None)
        if r is not None:
            return i, r
    return None


def pairing_outcome(f, *args):
    try:
        return "value", f(*args)
    except ValueError as e:
        return "error", str(e)


def test_negative_pairing_matches_the_per_vector_loop():
    rng = random.Random(20151)
    seen = dict.fromkeys(("none", "hit", "wrong length"), 0)
    placed = dict.fromkeys(("before", "among", "after"), 0)
    for case in range(1500):
        rank = rng.randint(1, 4)
        rays = list(dict.fromkeys(
            primitive_vector(r) for r in (
                tuple(rng.randint(-1 if case % 3 == 0 else 0, 3)
                      for _ in range(rank)) for _ in range(rng.randint(0, 6)))
            if any(r)))
        fan = Fan(rays, [range(len(rays))], rank)
        # regular vectors pair ≥ 0 with nonnegative rays; a few others
        # may not, and wrong lengths go before, among or after them
        family = [tuple(rng.randint(0, 3) for _ in range(rank))
                  for _ in range(rng.randint(0, 12))]
        for _ in range(rng.randint(0, 3)):
            family.insert(rng.randint(0, len(family)),
                          tuple(rng.randint(-3, 3) for _ in range(rank)))
        negative = [i for i, m in enumerate(family)
                    if any(_dot(m, r) < 0 for r in rays)]
        for _ in range(rng.choice((0, 0, 1, 2))):
            where = rng.choice(("before", "among", "after"))
            lo, hi = ((0, negative[0]) if where == "before" and negative
                      else (negative[-1] + 1, len(family))
                      if where == "after" and negative
                      else (0, len(family)))
            family.insert(rng.randint(lo, hi), tuple(
                rng.randint(-3, 3) for _ in range(rng.choice(
                    [k for k in range(6) if k != rank]))))
            placed[where] += 1
        what = rng.choice(("ray", "exponent", "character"))
        expected = pairing_outcome(reference_negative_pairing, fan, family,
                                   what)
        assert pairing_outcome(_negative_pairing, fan, family,
                               what) == expected, (rays, family)
        seen["wrong length" if expected[0] == "error" else
             "none" if expected[1] is None else "hit"] += 1
    assert min(seen.values()) >= 150, seen
    assert min(placed.values()) >= 100, placed


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


def complete_by_wall_tests(f):
    """`is_complete` as it tested every wall against every cone, kept as
    the reference for the ray masks."""
    if not f.cones or any(
        c.dim != f.lattice_rank or not c.is_strongly_convex() for c in f.cones
    ):
        return False
    for cone in f.cones:
        for normal in cone.facet_normals:
            wall = [r for r in cone.extreme_rays
                    if sum(a * b for a, b in zip(normal, r)) == 0]
            if sum(all(map(c.contains_vector, wall)) for c in f.cones) != 2:
                return False
    return True


def wild_fans(rng, rank):
    """Complete fans of rank `rank` and broken ones: cones dropped, cones
    overlapping, cones that are not full dimensional, cones with lines."""
    if rank == 0:
        return [Fan([], [()], 0), Fan([], [], 0)]
    box = range(-2, 3)
    while True:
        pts = {tuple(rng.choice(box) for _ in range(rank))
               for _ in range(rng.randrange(rank + 1, rank + 5))}
        poly = Polytope.from_vertices(sorted(pts))
        if poly.dim == rank:
            break
    full = poly.normal_fan()
    rays, cones = list(full.rays), list(full.max_cones)
    every = range(len(rays))
    dropped = rng.sample(cones, rng.randrange(1, len(cones)))
    # the union of two cones on one wall overlaps both
    a = rng.choice(cones)
    b = rng.choice([c for c in cones
                    if c != a and len(set(a) & set(c)) >= rank - 1])
    overlapping = cones + [tuple(sorted({*a, *b}))]
    thin = cones[1:] + [cones[0][:rank - 1], (rng.randrange(len(rays)),)]
    # a ray and its opposite put a line into one cone
    flip = tuple(-x for x in rays[0])
    lined_rays = rays + [flip] if flip not in rays else rays
    lined = cones[1:] + [cones[0] + (lined_rays.index(flip),)]
    scattered = [tuple(rng.sample(every, rng.randrange(rank, len(rays) + 1)))
                 for _ in range(rng.randrange(1, 5))]
    return [full, Fan(rays, dropped, rank), Fan(rays, overlapping, rank),
            Fan(rays, thin, rank), Fan(lined_rays, lined, rank),
            Fan(rays, scattered, rank)]


def test_is_complete_matches_the_wall_tests_on_broken_fans():
    rng = random.Random(20151)
    outcomes = Counter()
    for rank in (0, 1, 2, 3):
        for _ in range(1 if rank == 0 else 25):
            for f in wild_fans(rng, rank):
                expected = complete_by_wall_tests(f)
                assert is_complete(f) is expected, (rank, f)
                outcomes[rank, expected] += 1
    # every rank sees complete and incomplete fans
    assert all(outcomes[r, True] and outcomes[r, False] for r in range(4))


def test_is_complete_is_false_on_a_cone_with_a_line():
    wide = Fan([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2)], 2)
    assert not validate_fan(wide).ok
    assert is_complete(wide) is False
    # two half-planes cover the plane, yet neither is strongly convex
    halves = Fan([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1, 2), (0, 1, 3)], 2)
    assert is_complete(halves) is False


def test_wall_census_against_a_cone_counts_its_boundary_walls_once():
    # in rank 1 every wall is empty, so it lies in K's facet, if any
    ray = Fan([(1,)], [(0,)], 1)
    line = Fan([(1,), (-1,)], [(0,), (1,)], 1)
    assert _covers(ray, [(1,)]) and not is_complete(ray)
    assert is_complete(line) and not _covers(line, [(1,)])
    # the quadrant in two cones, and the half under the diagonal, which
    # the upper cone leaves
    quadrant = [(1, 0), (1, 1), (0, 1)]
    both = Fan(quadrant, [(0, 1), (1, 2)], 2)
    lower = Fan(quadrant, [(0, 1)], 2)
    assert _covers(both, [(1, 0), (0, 1)])
    assert not _covers(lower, [(1, 0), (0, 1)])
    assert not _covers(both, [(0, 1), (1, -1)])
    assert _covers(lower, [(0, 1), (1, -1)])


def test_smoothness():
    assert is_smooth(projective_space_fan(2))
    assert not is_smooth(Fan([(1, 0), (1, 2)], [(0, 1)], 2))
    # simplicial but not unimodular in rank 3
    assert not is_smooth(Fan([(1, 0, 0), (0, 1, 0), (1, 1, 2)], [(0, 1, 2)], 3))


def test_smoothness_from_facet_normals_matches_the_determinant():
    # `is_smooth` tests a pointed simplicial cone through its facet
    # normals; the rays extend to a basis iff their determinant is ±1
    rng = random.Random(1501)
    seen = 0
    for _ in range(4000):
        n = rng.randint(1, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        cone = Cone(gens, n)
        rays = cone.extreme_rays
        if not cone.is_strongly_convex() or len(rays) != n:
            continue
        seen += 1
        fan = Fan.from_maximal_cones([cone], n)
        assert is_smooth(fan) == (abs(_adjugate(rays)[0]) == 1), rays
    assert seen > 3000


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
    assert k_rank == 0 and g.invariant_factors == ()


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
        assert k_rank == 0 and g.invariant_factors == ()
        assert is_complete(img)
