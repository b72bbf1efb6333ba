"""Reflexive-cone mirror pairs, height slices, and splittings."""

import random

import pytest

import dualfan.mirrors.bb
from dualfan.fans import Fan, _covers, validate_fan
from dualfan.mirrors.bb import (_cut, _decomposes, _dominance_masks,
                                _slice_points)
from dualfan.polyhedra import Cone, Polytope, _dot, primitive_vector
from dualfan.toric_lg import AuxiliaryLG
from dualfan.mirrors import (
    bb_mirror_pair,
    dual_splittings,
    is_gorenstein,
    is_reflexive,
    support_partition,
)

# anticanonical triangle over the projective plane, placed at height one
P2_GENS = [(-1, -1, 1), (2, -1, 1), (-1, 2, 1)]
P2_SPLIT = [(0, 0, 1)]

# two orthogonal segments at their own heights; self-mirror up to swap
SQ_GENS = [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 0, 1), (0, -1, 0, 1)]
SQ_SPLIT = [(0, 0, 1, 0), (0, 0, 0, 1)]


def _height_slice(cone, functional, h):
    """The height-h slice as a polytope from its H-representation: the
    reference the library's slice listings are checked against."""
    pairs = [(n, 0) for n in cone.facet_normals]
    pairs.append((functional, -h))
    pairs.append((tuple(-x for x in functional), h))
    return Polytope.from_hrep(pairs, cone.ambient_rank)


def test_gorenstein_orthant():
    rep = is_gorenstein(Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    assert rep.holds
    assert rep.functional == (1, 1, 1)
    assert rep.witness is None


def test_gorenstein_singular_but_height_one():
    rep = is_gorenstein(Cone([(1, 0), (1, 2)], 2))
    assert rep.holds
    assert rep.functional == (1, 0)


def test_gorenstein_no_height_functional():
    rep = is_gorenstein(Cone([(1, 0), (2, 3)], 2))
    assert not rep.holds
    assert rep.functional is None
    assert rep.witness is None


def test_gorenstein_generation_fails_at_height_two():
    # cone over a simplex whose only interior structure sits above
    # height one: (1,1,1,2) is at height two but is not a sum of two
    # height-one points
    reeve = Cone([(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 2, 1)], 4)
    rep = is_gorenstein(reeve)
    assert rep.functional == (0, 0, 0, 1)
    assert rep.witness == (1, 1, 1, 2)
    assert not rep.holds
    # a bound of one never scans any higher level
    assert is_gorenstein(reeve, height_bound=1).holds


def _reference_gorenstein_witness(cone, ell, height_bound):
    """The first height-h point missing from the sum set of the
    height-(h-1) and height-one points, as the sum-set loop found it."""
    level_one = _height_slice(cone, ell, 1).lattice_points()
    previous = level_one
    for h in range(2, height_bound + 1):
        expected = _height_slice(cone, ell, h).lattice_points()
        reachable = {tuple(a + b for a, b in zip(p, q))
                     for p in previous for q in level_one}
        missing = [p for p in expected if p not in reachable]
        if missing:
            return missing[0]
        previous = expected
    return None


def _reeve(r):
    return Cone([(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, r, 1)], 4)


def _sheared(rng, gens):
    """The generators under a random unimodular map, so the height
    functional is not always a coordinate."""
    gens = [list(g) for g in gens]
    n = len(gens[0])
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        for g in gens:
            g[i] += k * g[j]
    return [tuple(g) for g in gens]


def test_gorenstein_witness_matches_the_sum_set_reference():
    rng = random.Random(300)
    cones = [_reeve(r) for r in (2, 3, 4)]
    while len(cones) < 300:
        d = rng.choice((2, 3))
        points = {tuple(rng.randint(0, 2) for _ in range(d))
                  for _ in range(rng.randint(d + 1, d + 3))}
        cone = Cone(_sheared(rng, [p + (1,) for p in points]), d + 1)
        if cone.dim == d + 1:
            cones.append(cone)
    witnesses = 0
    for cone in cones:
        rep = is_gorenstein(cone)
        assert rep.functional is not None
        assert rep.witness == _reference_gorenstein_witness(
            cone, rep.functional, 3), cone
        witnesses += rep.witness is not None
    assert witnesses >= 10, witnesses
    for r in range(2, 6):
        assert is_gorenstein(_reeve(r)).witness == (1, 1, 1, 2)


def _height_cap_cones():
    """Thirty seeded cones each of rank 4 and 5 over 0/1 and 0/1/2
    polytopes, sheared."""
    rng = random.Random(17)
    cones = {4: [], 5: []}
    while min(map(len, cones.values())) < 30:
        d = rng.choice((3, 4))
        points = {tuple(rng.randint(0, 2 if d == 3 else 1) for _ in range(d))
                  for _ in range(rng.randint(d + 1, d + 2))}
        cone = Cone(_sheared(rng, [p + (1,) for p in points]), d + 1)
        if cone.dim == d + 1 and len(cones[d + 1]) < 30:
            cones[d + 1].append(cone)
    return cones[4] + cones[5]


def test_gorenstein_height_cap_matches_the_sum_set_reference():
    # heights stop at rank - 2, since the height-one slice P has dimension
    # d = rank - 1 and (c+1)P = cP + P on lattice points once c >= d - 1;
    # the reference scans every height up to the bound, here up to
    # rank + 1, so each bound past the cap is a check of the theorem
    witnesses = 0
    for cone in _height_cap_cones():
        for bound in range(2, cone.ambient_rank + 2):
            rep = is_gorenstein(cone, bound)
            assert rep.height_bound == bound
            assert rep.witness == _reference_gorenstein_witness(
                cone, rep.functional, bound), (cone, bound)
            witnesses += rep.witness is not None
    assert witnesses >= 20, witnesses


def test_slices_match_the_polytope_reference():
    # the height-h slice is the hull of h times the rays, so its listing
    # from the cone's own rays and facets is the H-representation's
    for cone in [_reeve(r) for r in (2, 3, 4)] + _height_cap_cones():
        ell = is_gorenstein(cone, 1).functional
        for h in (1, 2, 3):
            assert _slice_points(cone, ell, h) == _height_slice(
                cone, ell, h).lattice_points(), (cone, h)


def test_facet_dominance_matches_the_previous_height_search():
    # p − q is a height-(h−1) point iff A·q ≤ A·p for the facet normals A,
    # so every point of heights 2 and 3 gets the verdict of the search
    # through the listed height-(h−1) points
    missing = 0
    for cone in [_reeve(r) for r in (2, 3, 4)] + _height_cap_cones():
        ell = is_gorenstein(cone, 1).functional
        level_one = _height_slice(cone, ell, 1).lattice_points()
        dominance = _dominance_masks(cone.facet_normals, level_one)
        previous = set(level_one)
        for h in (2, 3):
            expected = _height_slice(cone, ell, h).lattice_points()
            for p in expected:
                found = any(tuple(a - b for a, b in zip(p, q)) in previous
                            for q in level_one)
                assert _decomposes(dominance, p) == found, (cone, p)
                missing += not found
            previous = set(expected)
    assert missing >= 20, missing


def _seeded_pointed_cones(rng, count):
    """Full-dimensional cones of ranks 2 to 5, pointed because every
    generator has a positive last coordinate."""
    for _ in range(count):
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n - 1))
                + (rng.randint(1, 3),) for _ in range(rng.randint(n, n + 4))]
        cone = Cone(gens, n)
        if cone.dim == n:
            yield cone


def test_wall_census_sees_a_missing_or_protruding_cone():
    # the star subdivision of K from an interior ray c, one cone per facet
    # F of K over F and c, covers K; dropping a cone opens a wall inside
    # K, and a cone over F and a ray beyond F leaves K
    rng = random.Random(25)
    seen, ranks = {}, set()
    for cone in _seeded_pointed_cones(rng, 160):
        n = cone.ambient_rank
        ranks.add(n)
        rays = list(cone.extreme_rays)
        c = primitive_vector([sum(x) for x in zip(*rays)])
        facets = [[i for i, r in enumerate(rays) if not _dot(a, r)]
                  for a in cone.facet_normals]
        star = [ixs + [len(rays)] for ixs in facets]
        # the rays of F sum to 0 on F's normal, and c pairs > 0 with it
        f_sum = [sum(x) for x in zip(*(rays[i] for i in facets[0]))]
        beyond = primitive_vector([x - y for x, y in zip(f_sum, c)])
        protruding = star + [facets[0] + [len(rays) + 1]]
        for kind, cones in (("star", star), ("missing", star[:-1]),
                            ("protruding", protruding)):
            fan = Fan(rays + [c, beyond], cones, n)
            assert validate_fan(fan), (cone, kind)
            verdict = _covers(fan, cone.facet_normals)
            seen[kind, verdict] = seen.get((kind, verdict), 0) + 1
    assert seen == {("star", True): 153, ("missing", False): 153,
                    ("protruding", False): 153}, seen
    assert ranks == {2, 3, 4, 5}


def test_gorenstein_rejects_lineality():
    with pytest.raises(ValueError, match="strongly convex"):
        is_gorenstein(Cone([(1, 0), (-1, 0)], 2))


def test_reflexive_p2_cone():
    rep = is_reflexive(Cone(P2_GENS, 3))
    assert rep.holds
    assert rep.index == 1
    assert rep.cone_report.functional == (0, 0, 1)
    assert rep.dual_report.functional == (0, 0, 1)


def test_reflexive_square_cone_has_index_two():
    rep = is_reflexive(Cone(SQ_GENS, 4))
    assert rep.holds
    assert rep.index == 2


def test_reflexive_needs_full_dimension():
    with pytest.raises(ValueError, match="full-dimensional"):
        is_reflexive(Cone([(1, 0, 0), (0, 1, 0)], 3))


def test_support_partition_p2():
    cone = Cone(P2_GENS, 3)
    parts = support_partition(cone, [(0, 0, 1)])
    assert len(parts) == 1
    assert len(parts[0].lattice_points()) == 10
    assert parts[0].lattice_points() == _height_slice(
        cone, (0, 0, 1), 1).lattice_points()


def test_support_partition_square():
    parts = support_partition(Cone(SQ_GENS, 4), SQ_SPLIT)
    assert [len(p.lattice_points()) for p in parts] == [3, 3]
    assert (0, 0, 1, 0) in parts[0].lattice_points()
    assert (0, 0, 0, 1) in parts[1].lattice_points()


# reflexive polygons: cones over them have index one, and Cayley cones
# over a split of their vertices into two groups may have index two
POLYGONS = [
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [(2, -1), (-1, 2), (-1, -1)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(1, 0), (1, 1), (0, 1), (-1, -1)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    [(1, 1), (-1, 1), (-1, -1), (1, -1)],
]


def _square_symmetries():
    """The eight signed permutation matrices of rank two."""
    return [((a, 0), (0, b)) for a in (1, -1) for b in (1, -1)] + [
        ((0, a), (b, 0)) for a in (1, -1) for b in (1, -1)]


def _apply(m, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in m)


def _seeded_reflexive_inputs(rng, count):
    """Generators and splittings of reflexive cones, sheared at random."""
    inputs = []
    while len(inputs) < count:
        poly = rng.choice(POLYGONS)
        if rng.random() < 0.3:
            gens, split = [v + (1,) for v in poly], [(0, 0, 1)]
        else:
            cayley = [rng.choice(((1, 0), (0, 1))) for _ in poly]
            split = [(0, 0, 1, 0), (0, 0, 0, 1)]
            gens = split + [v + c for v, c in zip(poly, cayley)]
        rep = is_reflexive(Cone(gens, len(gens[0])))
        if rep.holds and rep.index == len(split) and tuple(
                map(sum, zip(*split))) == rep.dual_report.functional:
            moved = _sheared(rng, gens + split)
            inputs.append((moved[:len(gens)], moved[len(gens):]))
    return inputs


def _partition_sides():
    """(cone, functionals) pairs from both sides of seeded reflexive
    cones, with every dual splitting of each."""
    segment = ((-1, 1), (1, 1))
    inputs = [(P2_GENS, P2_SPLIT), (SQ_GENS, SQ_SPLIT)]
    inputs += [([_apply(s, g) for g in segment], [_apply(s, (0, 1))])
               for s in _square_symmetries()]
    inputs += _seeded_reflexive_inputs(random.Random(400), 12)
    sides = []
    for gens, split in inputs:
        k = Cone(gens, len(gens[0]))
        ell_dual = is_reflexive(k).cone_report.functional
        sides.append((k.dual(), split))
        sides += [(k, dual)
                  for dual in dual_splittings(k.dual(), ell_dual, split)]
    return sides


def _reference_parts(cone, functionals):
    """Part i as a polytope from its H-representation: the cone's facet
    inequalities, functional i = 1 and every other functional = 0."""
    parts = []
    for i in range(len(functionals)):
        pairs = [(n, 0) for n in cone.facet_normals]
        for j, f in enumerate(functionals):
            pairs += [(f, -int(j == i)), (tuple(-x for x in f), int(j == i))]
        parts.append(Polytope.from_hrep(pairs, cone.ambient_rank))
    return parts


def test_support_partition_lists_every_slice_point_once():
    # the functionals take nonnegative integer values summing to 1 at
    # each lattice point of the slice, so exactly one part holds it
    sides = _partition_sides()
    for cone, functionals in sides:
        total = tuple(map(sum, zip(*functionals)))
        union = sorted(p for part in support_partition(cone, functionals)
                       for p in part.lattice_points())
        assert union == _height_slice(cone, total, 1).lattice_points(), (
            cone, functionals)
    assert len(sides) >= 40, len(sides)


def test_parts_are_the_faces_of_the_polytope_reference():
    # part i is the face of the hull of the rays where functional i is 1
    for cone, functionals in _partition_sides():
        reference = _reference_parts(cone, functionals)
        assert list(support_partition(cone, functionals)) == reference
        vertices, points = _cut(cone, functionals)
        assert [list(v) for v in vertices] == [
            list(part.vertices) for part in reference]
        assert list(points) == [part.lattice_points() for part in reference]
        total = tuple(map(sum, zip(*functionals)))
        assert sorted(p for pts in points for p in pts) == _height_slice(
            cone, total, 1).lattice_points()


def test_support_partition_rejects_bad_functionals():
    cone = Cone(P2_GENS, 3)
    with pytest.raises(ValueError, match="negative on the cone"):
        support_partition(cone, [(0, 0, -1)])
    with pytest.raises(ValueError, match="sum to a height functional"):
        support_partition(cone, [(0, 0, 1), (0, 0, 1)])
    # a cone with lines has an unbounded slice, no hull of its rays
    with pytest.raises(ValueError, match="strongly convex"):
        support_partition(Cone([(1, 0), (-1, 0), (0, 1)], 2), [(0, 1)])


def test_dual_splittings_index_one_is_forced():
    k = Cone(P2_GENS, 3)
    choices = dual_splittings(k.dual(), (0, 0, 1), P2_SPLIT)
    assert choices == (((0, 0, 1),),)


def test_dual_splittings_square():
    k = Cone(SQ_GENS, 4)
    choices = dual_splittings(k.dual(), (0, 0, 1, 1), SQ_SPLIT)
    assert choices == (((0, 0, 1, 0), (0, 0, 0, 1)),)


def test_dual_splittings_unreachable_sum():
    k = Cone(P2_GENS, 3)
    with pytest.raises(ValueError, match="no dual splitting"):
        dual_splittings(k.dual(), (5, 5, 1), P2_SPLIT)


def test_pair_p2_anticanonical():
    rep = bb_mirror_pair(P2_GENS, P2_SPLIT)
    assert rep.passed
    assert rep.duality.verdict
    assert rep.count("xi_count") == 10
    assert rep.count("xi_prime_count") == 4
    assert rep.count("index") == 1
    assert rep.count("base_rank") == 2
    assert set(rep.sigma_x.rays) == {
        (1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, 1)}
    assert set(rep.sigma_x_prime.rays) == {
        (2, -1, 1), (-1, 2, 1), (-1, -1, 1), (0, 0, 1)}
    # ten sections, only the four over dual rays survive the base change
    assert rep.to_gamma.verdict and not rep.to_gamma.is_isomorphism
    assert len(rep.to_gamma.surviving) == 4
    assert rep.to_gamma_prime.is_isomorphism


def test_pair_p2_all_checks_named():
    rep = bb_mirror_pair(P2_GENS, P2_SPLIT)
    for name in ("sections_match_parts", "dual_sections_match_parts",
                 "ray_set_identity", "dual_ray_set_identity",
                 "support_identity", "dual_support_identity",
                 "polar_identity", "dual_polar_identity",
                 "section_dictionary", "dual_section_dictionary"):
        assert rep.check(name), name


def test_pair_square_is_self_mirror():
    rep = bb_mirror_pair(SQ_GENS, SQ_SPLIT)
    assert rep.passed
    assert rep.count("xi_count") == 6
    assert rep.count("xi_prime_count") == 6
    assert len(rep.sigma_x.rays) == 6
    assert len(rep.sigma_x.max_cones) == 4
    assert rep.to_gamma.is_isomorphism
    assert rep.to_gamma_prime.is_isomorphism
    assert rep.sigma_x == rep.sigma_x_prime


def test_pair_tags_each_exponent_with_its_part(monkeypatch):
    families = []

    def recording(*args, **kwargs):
        families.append(AuxiliaryLG(*args, **kwargs))
        return families[-1]

    monkeypatch.setattr(dualfan.mirrors.bb, "AuxiliaryLG", recording)
    dual = [(0, 0, 1, 0), (0, 0, 0, 1)]
    bb_mirror_pair(SQ_GENS, SQ_SPLIT, dual_splitting=dual)
    assert len(families) == 2
    # the K side is cut by the dual splitting, the dual side by SQ_SPLIT
    for family, functionals in zip(families, (dual, SQ_SPLIT)):
        values = [[sum(a * b for a, b in zip(f, p)) for f in functionals]
                  for p in family.exponents]
        assert all(sorted(v) == [0, 1] for v in values)


def test_pair_degenerate_full_splitting():
    # splitting the whole orthant leaves a point base on both sides
    rep = bb_mirror_pair([(1, 0), (0, 1)], [(1, 0), (0, 1)])
    assert rep.passed
    assert rep.count("base_rank") == 0
    assert rep.sigma_x.rays == ((1, 0), (0, 1))
    assert rep.sigma_x_prime.rays == ((1, 0), (0, 1))
    assert rep.to_gamma.is_isomorphism and rep.to_gamma_prime.is_isomorphism
    assert any("polar_identity skipped" in n for n in rep.notes)


def test_pair_explicit_dual_splitting_matches_derived():
    derived = bb_mirror_pair(SQ_GENS, SQ_SPLIT)
    explicit = bb_mirror_pair(SQ_GENS, SQ_SPLIT,
                              dual_splitting=[(0, 0, 1, 0), (0, 0, 0, 1)])
    assert derived.sigma_x == explicit.sigma_x
    assert derived.sigma_x_prime == explicit.sigma_x_prime
    assert derived.checks == explicit.checks
    assert derived.counts == explicit.counts
    assert derived.potentials == explicit.potentials


def test_pair_rejects_non_reflexive_input():
    with pytest.raises(ValueError, match="not reflexive"):
        bb_mirror_pair([(1, 0), (2, 3)], [(1, 1)])


def test_pair_rejects_bad_splittings():
    with pytest.raises(ValueError, match="splitting size"):
        bb_mirror_pair(P2_GENS, [(0, 0, 1), (0, 0, 1)])
    with pytest.raises(ValueError, match="sum to the dual height"):
        bb_mirror_pair(P2_GENS, [(1, 0, 1)])
    with pytest.raises(ValueError, match="pair to the identity"):
        bb_mirror_pair(SQ_GENS, SQ_SPLIT,
                       dual_splitting=[(0, 0, 0, 1), (0, 0, 1, 0)])
