"""Tests for cones and polytopes against brute-force oracles.

The double description output is checked pointwise against a
Caratheodory-style conic membership solver, and lattice point
enumeration against a plain numpy grid scan and an exact box scan.
No oracle shares code with the implementation, except that `is_face_of`
is also checked against its earlier definition through Cone methods.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, floor

import numpy as np
import pytest

import dualfan.polyhedra
from dualfan.lattice import LatticeMap, hnf, kernel_basis
from dualfan.polyhedra import (
    Cone,
    Polytope,
    _double_description,
    _primitive_lift,
    _with_flips,
    primitive_vector,
)

F = Fraction


def solve_unique(cols, target):
    """Exact solution of cols·λ = target when the columns are independent;
    None when they are dependent or the system is inconsistent."""
    m = [
        [F(col[i]) for col in cols] + [F(target[i])]
        for i in range(len(target))
    ]
    r = 0
    for c in range(len(cols)):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            return None
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    for i in range(r, len(m)):
        if m[i][-1] != 0:
            return None
    return [m[i][-1] for i in range(len(cols))]


def in_cone_brute(point, generators, rank):
    """Membership via Caratheodory: some independent subset suffices."""
    if not any(point):
        return True
    gens = list(generators)
    for k in range(1, rank + 1):
        for sub in combinations(gens, k):
            sol = solve_unique(sub, point)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def grid_scan(poly):
    """Integer points of a bounded polytope by scanning the bounding box."""
    n = poly.ambient_rank
    lo = []
    hi = []
    for i in range(n):
        coords = [v[i] for v in poly.vertices]
        lo.append(-int(-min(coords) // 1))
        hi.append(int(max(coords) // 1))
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    if any(len(ax) == 0 for ax in axes):
        return []
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    keep = np.ones(len(grid), dtype=bool)
    for a, off in poly.hrep:
        d = off.denominator
        vals = grid @ (d * np.array(a, dtype=np.int64)) + int(off * d)
        keep &= vals >= 0
    return sorted(map(tuple, grid[keep].tolist()))


# ------------------------------------------------------------- cones


def test_orthant_is_self_dual():
    o = Cone([(1, 0), (0, 1)], 2)
    assert o.generators == ((0, 1), (1, 0))
    assert o.dual().generators == o.generators


def test_dual_of_slanted_cone():
    c = Cone([(1, 0), (1, 2)], 2)
    assert set(c.dual().generators) == {(0, 1), (2, -1)}
    assert c.dual().dual() == c


def test_dual_of_origin_is_everything():
    z = Cone([], 2)
    assert z.dim == 0
    full = z.dual()
    assert full.lineality_rank == 2
    assert set(full.generators) == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_strong_convexity():
    assert Cone([(1, 0), (0, 1)], 2).is_strongly_convex()
    assert not Cone([(1, 0), (-1, 0)], 2).is_strongly_convex()
    # the three generators sum to zero, exhibiting a line
    assert not Cone([(1, 0), (-1, 1), (0, -1)], 2).is_strongly_convex()


def test_ray_generator():
    assert Cone([(2, 4)], 2).ray_generator() == (1, 2)
    assert Cone([(0, 7)], 2).ray_generator() == (0, 1)
    assert Cone([(-3, 6, -9)], 3).ray_generator() == (-1, 2, -3)
    with pytest.raises(ValueError):
        Cone([(1, 0), (0, 1)], 2).ray_generator()


def test_face_counts_orthant():
    o3 = Cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert [len(o3.faces(k)) for k in range(4)] == [1, 3, 3, 1]
    assert len(o3.faces(1)) == 3


def test_face_counts_simplicial_height_cone():
    c = Cone([(-1, -1, 1), (2, -1, 1), (-1, 2, 1)], 3)
    assert [len(c.faces(k)) for k in range(4)] == [1, 3, 3, 1]


def test_faces_require_strong_convexity():
    with pytest.raises(ValueError, match="lineality"):
        Cone([(1, 0), (-1, 0)], 2).faces(1)


def test_face_counts_random_simplicial():
    rng = random.Random(7101)
    found = 0
    while found < 12:
        d = rng.randrange(2, 5)
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)
        ]
        c = Cone(gens, d)
        if c.dim != d or len(c.extreme_rays) != d:
            continue
        found += 1
        for k in range(d + 1):
            assert len(c.faces(k)) == comb(d, k)


def test_simplicial_cones_match_double_description(monkeypatch):
    """n independent generators in rank n skip both passes and land on
    exactly what the two double description passes give."""
    rng = random.Random(60607)
    cases = []
    while len(cases) < 2400:
        n = rng.randint(1, 6)
        gens = [tuple(rng.randint(-50, 50) for _ in range(n))
                for _ in range(n)]
        if LatticeMap(gens).det():
            cases.append((gens, n))
    expected = []
    for gens, n in cases:
        dual_rays, dual_lin = _double_description(gens, n)
        rays, lin = _double_description(dual_rays, n)
        assert dual_lin == [] and lin == []
        expected.append((tuple(rays), tuple(dual_rays)))

    def no_pass(*args):
        raise AssertionError("double description ran on a simplicial cone")

    monkeypatch.setattr(dualfan.polyhedra, "_double_description", no_pass)
    for (gens, n), (rays, dual_rays) in zip(cases, expected):
        cone = Cone(gens, n)
        assert cone.extreme_rays == cone.generators == rays
        assert cone.facet_normals == cone.dual().extreme_rays == dual_rays
        assert (cone.dim, cone.lineality_rank) == (n, 0)
        assert cone.dual().lineality_rank == 0


def test_other_generator_lists_take_both_passes():
    for gens, rank in [
        ([(1, 2), (2, 4)], 2),                   # one ray, twice
        ([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3),  # in a plane
        ([(1, 0), (-1, 0)], 2),                  # a line
        ([(1, 0), (0, 1), (1, 1)], 2),           # more rays than rank
    ]:
        dual_rays, dual_lin = _double_description(gens, rank)
        rays, lin = _double_description(_with_flips(dual_rays, dual_lin), rank)
        cone = Cone(gens, rank)
        assert cone.extreme_rays == tuple(rays)
        assert cone.facet_normals == _with_flips(dual_rays, dual_lin)
        assert cone.lineality_rank == len(lin)
        assert cone.dim == rank - len(dual_lin)


def test_double_description_against_membership_oracle():
    rng = random.Random(40813)
    for _ in range(30):
        rank = rng.randrange(2, 5)
        gens = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randrange(1, 7))
        ]
        c = Cone(gens, rank)
        # facet normals are valid for the generators
        for n in c.facet_normals:
            assert all(
                sum(a * b for a, b in zip(n, g)) >= 0 for g in c.generators
            )
        # both descriptions carve out the same set of sample points
        for _ in range(40):
            y = tuple(rng.randint(-3, 3) for _ in range(rank))
            by_hrep = c.contains_vector(y)
            by_vrep = in_cone_brute(y, c.generators, rank)
            assert by_hrep == by_vrep
        # dual cone against the oracle on the original generators
        d = c.dual()
        for _ in range(25):
            y = tuple(rng.randint(-2, 2) for _ in range(rank))
            in_dual = all(
                sum(a * b for a, b in zip(y, g)) >= 0 for g in c.generators
            )
            assert in_dual == in_cone_brute(y, d.generators, rank)
        assert d.dual() == c


def test_intersection_and_faces():
    a = Cone([(1, 0), (1, 1)], 2)
    b = Cone([(1, 1), (0, 1)], 2)
    meet = a.intersection(b)
    assert meet.generators == ((1, 1),)
    assert meet.is_face_of(a) and meet.is_face_of(b)
    overlap = Cone([(1, 0), (0, 1)], 2).intersection(Cone([(1, 1), (1, -1)], 2))
    assert not overlap.is_face_of(Cone([(1, 1), (1, -1)], 2))


def face_by_minimal_face(a, b):
    """The earlier definition of is_face_of, kept as the oracle."""
    return b.contains_cone(a) and b.minimal_face_containing(a.generators) == a


def random_cone(rng, rank):
    """Simplicial, non-simplicial, lower-dimensional or with a line."""
    kind = rng.randrange(4)
    count = rank if kind == 0 else rng.randrange(1, rank + 4)
    gens = [
        tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(count)
    ]
    if kind == 1:  # over a polytope at positive height: pointed
        gens = [g[:-1] + (rng.randint(1, 3),) for g in gens]
    if kind == 2:  # inside the hyperplane x_0 = 0
        gens = [(0,) + g[1:] for g in gens]
    if kind == 3:  # a line through the first generator
        gens.append(tuple(-x for x in gens[0]))
    return Cone(gens, rank)


def test_is_face_of_matches_the_minimal_face_definition():
    rng = random.Random(52609)
    outcomes = Counter()
    for _ in range(120):
        rank = rng.randrange(2, 5)
        b = random_cone(rng, rank)
        gens = list(b.generators)
        candidates = [
            b,
            Cone([], rank),
            b.intersection(random_cone(rng, rank)),
            Cone(rng.sample(gens, rng.randrange(len(gens) + 1)), rank),
            b.minimal_face_containing(rng.sample(gens, min(2, len(gens)))),
            # a sub-cone through nonnegative combinations of generators
            Cone(
                [
                    tuple(
                        sum(rng.randrange(3) * g[i] for g in gens)
                        for i in range(rank)
                    )
                    for _ in range(rng.randrange(1, 3))
                ],
                rank,
            ),
        ]
        if b.is_strongly_convex():
            faces = b.all_faces()
            candidates += rng.sample(faces, min(2, len(faces)))
        for a in candidates:
            expected = face_by_minimal_face(a, b)
            assert a.is_face_of(b) == expected, (a, b)
            outcomes[expected] += 1
    assert outcomes[True] > 200 and outcomes[False] > 100


def three_pass_cone(normals, rank):
    """The earlier H-route, kept as the reference: one pass for the
    rays of {x : n·x ≥ 0}, then a Cone built on them (two more passes)."""
    rays, lin = _double_description(normals, rank)
    return Cone(list(rays) + lin + [tuple(-x for x in l) for l in lin], rank)


def three_pass_polytope(pairs, rank):
    rows = [_primitive_lift(a, off) for a, off in pairs]
    rows.append((0,) * rank + (1,))
    return Polytope._from_homogenization(three_pass_cone(rows, rank + 1), rank)


def same_lattice(a, b):
    """Whether two bases span the same lattice (equal Hermite forms)."""
    if not a or not b:
        return not a and not b
    return hnf(LatticeMap.from_rows(a))[0] == hnf(LatticeMap.from_rows(b))[0]


def assert_same_cone(new, old):
    assert new.extreme_rays == old.extreme_rays
    assert new.facet_normals == old.facet_normals
    assert (new.dim, new.lineality_rank) == (old.dim, old.lineality_rank)
    # a line's basis is the kernel basis its pass found: only its span
    # is canonical, so the padded generators agree up to that choice
    assert same_lattice(new._lineality, old._lineality)
    if new.is_strongly_convex():
        assert new.generators == old.generators


def assert_irredundant(cone):
    """No extreme ray lies in the cone of the other generators."""
    for r in cone.extreme_rays:
        others = [g for g in cone.generators if g != r]
        # Caratheodory: independent subsets have at most dim members
        assert not in_cone_brute(r, others, cone.dim), (r, cone)


def random_normals(rng, rank):
    """Inequalities, some of them forced equations (n and -n)."""
    normals = [
        tuple(rng.randint(-3, 3) for _ in range(rank))
        for _ in range(rng.randrange(0, rank + 3))
    ]
    if normals and rng.randrange(3) == 0:
        normals.append(tuple(-x for x in rng.choice(normals)))
    return normals


def test_double_description_keeps_only_extreme_rays():
    rng = random.Random(60211)
    kinds = Counter()
    for _ in range(80):
        rank = rng.randrange(2, 6)
        v_cone = random_cone(rng, rank)
        h_cone = Cone.from_inequalities(random_normals(rng, rank), rank)
        for cone in (v_cone, h_cone):
            for side in (cone, cone.dual()):
                gens = LatticeMap.from_rows(side.generators, ncols=rank)
                assert side.dim == gens.rank()
                if len(side.generators) > 8:
                    continue  # the brute force grows like C(generators, dim)
                assert_irredundant(side)
                kinds["line" if side.lineality_rank else "pointed"] += 1
                kinds["flat" if side.dim < rank else "full"] += 1
                kinds[f"rank {rank}"] += 1
    assert min(kinds.values()) > 40, kinds


def reference_double_description(constraints, ambient):
    """The pass as it stood before tight sets became bitmasks, kept as
    the reference: every step re-dots each inserted constraint against
    every ray, and the lineality always comes from a kernel."""

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def dedup(vectors):
        return list(dict.fromkeys(vectors))

    cons = sorted({primitive_vector(c) for c in constraints if any(c)})
    lin = [tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
    rays = []
    inserted = []
    for a in cons:
        pivot = next((l for l in lin if dot(a, l) != 0), None)
        if pivot is not None:
            if dot(a, pivot) < 0:
                pivot = tuple(-x for x in pivot)
            ap = dot(a, pivot)
            lin = [
                primitive_vector(
                    tuple(ap * x - dot(a, l) * p for x, p in zip(l, pivot))
                )
                for l in lin
                if l is not pivot
            ]
            lin = [l for l in lin if any(l)]
            rays = dedup(
                [
                    primitive_vector(
                        tuple(ap * x - dot(a, r) * p for x, p in zip(r, pivot))
                    )
                    for r in rays
                ]
                + [pivot]
            )
            rays = [r for r in rays if any(r)]
            inserted.append(a)
            continue
        pos = [r for r in rays if dot(a, r) > 0]
        zero = [r for r in rays if dot(a, r) == 0]
        neg = [r for r in rays if dot(a, r) < 0]
        combined = []
        need = ambient - len(lin) - 2
        if neg and pos and need >= 0:
            tight = {
                r: {i for i, c in enumerate(inserted) if dot(c, r) == 0}
                for r in rays
            }
            for p in pos:
                vp = dot(a, p)
                for n in neg:
                    common = tight[p] & tight[n]
                    if len(common) < need or any(
                        common <= z for r, z in tight.items() if r != p and r != n
                    ):
                        continue
                    vn = dot(a, n)
                    combined.append(
                        primitive_vector(
                            tuple(vp * x - vn * y for x, y in zip(n, p))
                        )
                    )
        rays = dedup(pos + zero + combined)
        inserted.append(a)
    lin_basis = kernel_basis(LatticeMap.from_rows(cons, ncols=ambient))
    lineality = [lin_basis.col(j) for j in range(lin_basis.cols)]
    return sorted(rays), lineality


def test_double_description_matches_the_reference_pass():
    rng = random.Random(31337)
    kinds = Counter()
    for _ in range(2400):
        rank = rng.randrange(1, 6)
        rows = [
            tuple(rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randrange(0, rank + 4))
        ]
        if rows and rng.randrange(3) == 0:  # a forced equation
            rows.append(tuple(-x for x in rng.choice(rows)))
        if len(rows) >= 2 and rng.randrange(3) == 0:  # a redundant row
            a, b = rng.sample(rows, 2)
            rows.append(tuple(x + y for x, y in zip(a, b)))
        rays, lin = _double_description(rows, rank)
        assert (rays, lin) == reference_double_description(rows, rank), rows
        kinds["line" if lin else "pointed"] += 1
        kinds["rays" if rays else "no rays"] += 1
        kinds[f"rank {rank}"] += 1
    assert min(kinds.values()) > 300, kinds


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cube_and_cross_polytope_face_counts(d):
    """Closed-form counts: the d-cube has 2^d vertices and 2d facets, the
    cross-polytope the other way round.  Both are degenerate enough that
    an adjacency test admitting non-adjacent pairs adds rays at d = 5."""
    cube = [p + (1,) for p in product((0, 1), repeat=d)]
    cross = [
        tuple(s * (i == j) for j in range(d)) + (1,)
        for i in range(d)
        for s in (1, -1)
    ]
    for points, facets in ((cube, 2 * d), (cross, 2 ** d)):
        cone = Cone(points, d + 1)
        assert set(cone.extreme_rays) == set(points)
        assert len(cone.facet_normals) == facets
        again = Cone.from_inequalities(cone.facet_normals, d + 1)
        assert again.extreme_rays == cone.extreme_rays


def test_h_descriptions_match_the_three_pass_route():
    rng = random.Random(71443)
    lines = 0
    for _ in range(120):
        rank = rng.randrange(2, 6)
        normals = random_normals(rng, rank)
        new = Cone.from_inequalities(normals, rank)
        assert_same_cone(new, three_pass_cone(normals, rank))
        a, b = random_cone(rng, rank), random_cone(rng, rank)
        both = list(a.facet_normals) + list(b.facet_normals)
        assert_same_cone(a.intersection(b), three_pass_cone(both, rank))
        lines += bool(new.lineality_rank)
    assert lines > 20


def test_from_hrep_matches_the_three_pass_route():
    rng = random.Random(82907)
    unbounded = 0
    for _ in range(120):
        rank = rng.randrange(1, 5)
        pairs = [
            (tuple(rng.randint(-3, 3) for _ in range(rank)),
             Fraction(rng.randint(-4, 6), rng.randint(1, 3)))
            for _ in range(rng.randrange(0, 2 * rank + 2))
        ]
        new = Polytope.from_hrep(pairs, rank)
        old = three_pass_polytope(pairs, rank)
        assert new == old  # vertices, recession rays and lines
        assert (new.hrep, new.bounded, new.dim) == (
            old.hrep, old.bounded, old.dim)
        unbounded += not new.bounded
    assert 20 < unbounded < 100


@pytest.mark.parametrize("pairs, redundant", [
    ([((-2, 2, 2), 0)], ((-4, 4, 4), 1)),
    ([((-1, -1), 0), ((1, 1), 3)], ((-2, -2), 1)),
])
def test_polytopes_with_lines_compare_as_sets(pairs, redundant):
    rank = len(redundant[0])
    plain = Polytope.from_hrep(pairs, rank)
    assert plain._lineality and not plain.bounded
    assert Polytope.from_hrep(pairs + [redundant], rank) == plain


def test_cone_equality_is_geometric():
    assert Cone([(1, 0), (0, 1), (1, 1)], 2) == Cone([(0, 1), (1, 0)], 2)
    assert Cone([(2, 0)], 2) == Cone([(1, 0)], 2)
    assert Cone([(1, 0)], 2) != Cone([(0, 1)], 2)


# ---------------------------------------------------------- polytopes


def test_unit_square_points():
    sq = Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert sq.lattice_points() == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_triangle_points():
    tri = Polytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    assert len(tri.lattice_points()) == 10


def test_degree_five_sections_count():
    # sections of the fifth power of the hyperplane bundle on projective
    # 4-space: monomial count is a stars-and-bars value
    simplex = Polytope.from_vertices(
        [(0, 0, 0, 0)]
        + [tuple(5 * int(i == j) for j in range(4)) for i in range(4)]
    )
    assert len(simplex.lattice_points()) == comb(9, 4) == 126


def test_lattice_points_match_grid_scan():
    rng = random.Random(91218)
    for _ in range(25):
        rank = rng.randrange(1, 4)
        verts = [
            tuple(rng.randint(-4, 4) for _ in range(rank))
            for _ in range(rng.randrange(1, 6))
        ]
        p = Polytope.from_vertices(verts)
        assert p.lattice_points() == grid_scan(p)


def box_scan(box, inequalities):
    """Integer points of a box satisfying every a·m + ℓ ≥ 0, tested one
    by one in exact arithmetic; product() yields them lexicographically."""
    return [
        m
        for m in product(*(range(a, b + 1) for a, b in box))
        if all(
            sum(F(c) * x for c, x in zip(a, m)) + F(off) >= 0
            for a, off in inequalities
        )
    ]


def vertex_box(poly):
    """A box around the vertices with a margin of one on every side."""
    return [
        (floor(min(v[i] for v in poly.vertices)) - 1,
         floor(max(v[i] for v in poly.vertices)) + 1)
        for i in range(poly.ambient_rank)
    ]


def random_fraction(rng, bound):
    q = rng.choice([1, 2, 3, 4, 5])
    return F(rng.randint(-bound * q, bound * q), q)


def assert_sweep_matches(points, expected):
    assert points == expected
    assert all(p < q for p, q in zip(points, points[1:]))


def test_lattice_points_match_box_scan_on_fractional_vertices():
    rng = random.Random(20150119)
    for rank in range(5):
        bound = 6 if rank < 3 else 3
        for _ in range(16):
            # one to six points, so segments, flat and full polytopes mix
            verts = [
                tuple(random_fraction(rng, bound) for _ in range(rank))
                for _ in range(rng.randrange(1, 7))
            ]
            p = Polytope.from_vertices(verts, rank)
            assert_sweep_matches(
                p.lattice_points(), box_scan(vertex_box(p), p.hrep))


def test_lattice_points_match_box_scan_on_fractional_hrep():
    rng = random.Random(4713)
    for rank in range(5):
        bound = 6 if rank < 3 else 3
        for _ in range(16):
            box = [(-rng.randint(0, bound), rng.randint(0, bound))
                   for _ in range(rank)]
            pairs = []
            for i, (a, b) in enumerate(box):
                unit = tuple(int(j == i) for j in range(rank))
                pairs.append((unit, -a + F(rng.randrange(3), 3)))
                pairs.append((tuple(-x for x in unit),
                              b - F(rng.randrange(3), 3)))
            for _ in range(rng.randrange(4)):
                a = tuple(rng.randint(-3, 3) for _ in range(rank))
                pairs.append((a, random_fraction(rng, 2)))
            if rank and rng.random() < 0.25:
                # a hyperplane slice, often without lattice points
                a, off = pairs[-1]
                pairs.append((tuple(-x for x in a), -off))
            p = Polytope.from_hrep(pairs, rank)
            expected = box_scan(box, pairs)
            if p.is_empty():
                assert expected == []
                assert p.lattice_points() == []
                continue
            assert_sweep_matches(p.lattice_points(), expected)


def test_lattice_points_on_points_slices_and_rank_zero():
    assert Polytope.from_vertices([()], 0).lattice_points() == [()]
    assert Polytope.from_hrep([], 0).lattice_points() == [()]
    assert Polytope.from_vertices([(3, -2, 5)]).lattice_points() == [(3, -2, 5)]
    assert Polytope.from_vertices([(F(1, 2), 4)]).lattice_points() == []
    # the line y = x + 1/2 crosses a nonempty box and misses the lattice
    slant = Polytope.from_vertices([(0, F(1, 2)), (1, F(3, 2))])
    assert slant.lattice_points() == []
    # x + y + z = 7/2 cut out of a cube by a pair of opposite rows
    cube = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0),
            ((-1, 0, 0), 3), ((0, -1, 0), 3), ((0, 0, -1), 3)]
    half = cube + [((1, 1, 1), F(-7, 2)), ((-1, -1, -1), F(7, 2))]
    assert Polytope.from_hrep(half, 3).lattice_points() == []
    whole = cube + [((1, 1, 1), -4), ((-1, -1, -1), 4)]
    points = Polytope.from_hrep(whole, 3).lattice_points()
    assert points == [m for m in product(range(4), repeat=3) if sum(m) == 4]


def test_lattice_points_reject_unbounded():
    h = Polytope.from_hrep([((1, 0), 0), ((0, 1), 0)], 2)
    with pytest.raises(ValueError, match="unbounded"):
        h.lattice_points()


def test_polar_square():
    sq = Polytope.from_vertices([(-1, -1), (1, -1), (-1, 1), (1, 1)])
    assert set(sq.polar().vertices) == {
        (F(1), F(0)),
        (F(0), F(1)),
        (F(-1), F(0)),
        (F(0), F(-1)),
    }


def test_polar_triangle():
    tri = Polytope.from_vertices([(-1, -1), (2, -1), (-1, 2)])
    assert set(tri.polar().vertices) == {
        (F(1), F(0)),
        (F(0), F(1)),
        (F(-1), F(-1)),
    }


def test_polar_requires_interior_origin():
    shifted = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="polar undefined"):
        shifted.polar()
    segment = Polytope.from_vertices([(-1, 0), (1, 0)])
    with pytest.raises(ValueError, match="polar undefined"):
        segment.polar()


def test_polar_involution_and_vertex_formula():
    rng = random.Random(55521)
    cross = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for _ in range(15):
        verts = cross + [
            tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)
        ]
        p = Polytope.from_vertices(verts)
        q = p.polar()
        assert q.polar() == p
        # polar vertices are facet normals over offsets
        expected = {
            tuple(F(a_i, 1) / off for a_i in a) for a, off in p.hrep
        }
        assert set(q.vertices) == expected


def test_minkowski_sum_of_segments():
    s1 = Polytope.from_vertices([(-1, 0), (1, 0)])
    s2 = Polytope.from_vertices([(0, -1), (0, 1)])
    assert s1.minkowski_sum(s2) == Polytope.from_vertices(
        [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    )


def test_minkowski_with_point_translates():
    tri = Polytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    pt = Polytope.from_vertices([(3, -2)])
    assert tri.minkowski_sum(pt) == tri.translate((3, -2))


def test_minkowski_rank_mismatch():
    with pytest.raises(ValueError):
        Polytope.from_vertices([(0, 0)]).minkowski_sum(
            Polytope.from_vertices([(0,)])
        )


def test_minkowski_support_function():
    rng = random.Random(3141)
    for _ in range(10):
        p = Polytope.from_vertices(
            [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)]
        )
        q = Polytope.from_vertices(
            [tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)]
        )
        s = p.minkowski_sum(q)
        for _ in range(20):
            d = tuple(rng.randint(-4, 4) for _ in range(2))
            sup = lambda poly: max(
                sum(F(a) * b for a, b in zip(v, d)) for v in poly.vertices
            )
            assert sup(s) == sup(p) + sup(q)


def test_vertices_are_irredundant():
    rng = random.Random(777)
    for _ in range(10):
        pts = [tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(6)]
        p = Polytope.from_vertices(pts)
        for i, v in enumerate(p.vertices):
            others = [w for j, w in enumerate(p.vertices) if j != i]
            if others:
                assert not Polytope.from_vertices(others).contains(v)


def test_hrep_vrep_round_trip():
    sq = Polytope.from_hrep(
        [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)], 2
    )
    assert sq == Polytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert Polytope.from_hrep(sq.hrep, 2) == sq


def test_infeasible_hrep_is_empty():
    p = Polytope.from_hrep([((1,), -1), ((-1,), 0)], 1)
    assert p.is_empty()


# --------------------------------------------------------- normal fans


def test_normal_fan_of_square():
    from dualfan.fans import is_complete, is_smooth, validate_fan

    nf = Polytope.from_vertices(
        [(-1, -1), (1, -1), (-1, 1), (1, 1)]
    ).normal_fan()
    assert validate_fan(nf).ok
    assert is_complete(nf) and is_smooth(nf)
    assert set(nf.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(nf.max_cones) == 4


def test_normal_fan_of_triangle():
    from dualfan.fans import projective_space_fan

    nf = Polytope.from_vertices([(-1, -1), (2, -1), (-1, 2)]).normal_fan()
    assert nf == projective_space_fan(2)


def test_normal_fan_of_shifted_simplex():
    from dualfan.fans import is_complete, validate_fan

    simplex = Polytope.from_vertices(
        [(0, 0, 0, 0)]
        + [tuple(int(i == j) for j in range(4)) for i in range(4)]
    )
    shifted = simplex.translate([F(-1, 5)] * 4)
    nf = shifted.normal_fan()
    assert validate_fan(nf).ok and is_complete(nf)
    assert len(nf.max_cones) == 5


def test_normal_fan_requires_full_dimension():
    seg = Polytope.from_vertices([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="full dimensional"):
        seg.normal_fan()


def test_normal_fan_rays_are_facet_normals():
    from dualfan.fans import is_complete, validate_fan

    rng = random.Random(60321)
    cross = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for _ in range(8):
        verts = cross + [
            tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(3)
        ]
        p = Polytope.from_vertices(verts)
        nf = p.normal_fan()
        assert validate_fan(nf).ok and is_complete(nf)
        assert set(nf.rays) == {
            primitive_vector(a) for a, _ in p.hrep
        }
