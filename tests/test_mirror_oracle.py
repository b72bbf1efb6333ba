"""The paper's main theorem as an oracle: two constructions of one mirror.

The Greene–Plesser mirror of the degree-(n + 1) Fermat hypersurface in
P^n, built by `fermat_pipeline(n)` as a quotient fan, and the
Batyrev–Borisov pair of the anticanonical cone over P^n, built by
`bb_mirror_pair` from the cone's height-one slices, share no code past
the fan and lattice layers.  The theorem says their dual fans agree, so
there must be a unimodular A that carries one pipeline's Σ_X onto the
other's (rays onto rays, maximal cones onto maximal cones, markers onto
markers), and then A^(−T), its action on the dual lattice, must carry
Σ_X′ onto Σ_X′ in the same way.

Batyrev–Borisov duality is also an involution, so `bb_mirror_pair` on
the dual cone with the splittings exchanged must give the same pair with
its sides swapped; it is checked on the P^n cones, on the square, and on
the cone over one polygon of each of the 16 classes of reflexive
polygons.  So is Berglund–Hübsch–Krawitz: `bhk_pair` on the
transposed matrix with Krawitz's dual group gives the pair of (P, Q)
with its sides swapped, up to a lattice isomorphism.  Neither oracle
sees a bug that both constructions, or both directions, share.
"""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfan.lattice import LatticeMap, int_inverse, rational_inverse
from dualfan.mirrors import (bb_mirror_pair, bhk_pair, dual_splittings,
                             fermat_pipeline, is_reflexive,
                             krawitz_dual_group, phase_symmetries)
from dualfan.polyhedra import Cone, Polytope


def p_n_cone(n):
    """The cone over the anticanonical polytope of P^n, d = n + 1: the
    generators (−1, …, −1, 1) and (d·e_i − 𝟙, 1), split by the last
    coordinate."""
    d = n + 1
    generators = [(-1,) * n + (1,)]
    generators += [tuple(d * (j == i) - 1 for j in range(n)) + (1,)
                   for i in range(n)]
    return generators, [(0,) * n + (1,)]


# two orthogonal segments at their own heights, split by the two heights
SQ_GENS = [(1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 0, 1), (0, -1, 0, 1)]
SQ_SPLIT = [(0, 0, 1, 0), (0, 0, 0, 1)]


def shape(fan):
    """A fan as the sets a lattice isomorphism must carry onto each
    other: its rays, its maximal cones as sets of rays, its markers."""
    return (set(fan.rays),
            {frozenset(fan.rays[i] for i in cone) for cone in fan.max_cones},
            set(fan.marked_generators))


def carried(a, fan):
    """`shape` of the fan pushed through the square matrix a."""
    rays, cones, markers = shape(fan)
    return ({a @ r for r in rays},
            {frozenset(a @ r for r in cone) for cone in cones},
            {a @ m for m in markers})


def isomorphism(source, target):
    """A unimodular A with carried(A, source) == shape(target), or None.

    Such an A sends a smooth maximal cone of `source` onto a maximal cone
    of `target` with its rays in some order, and that image fixes A, so
    at most (#cones)·(rank)! candidates are tried.
    """
    rank = source.lattice_rank
    wanted = shape(target)
    for cone in source.max_cones:
        basis = LatticeMap.from_cols([source.rays[i] for i in cone],
                                     nrows=rank)
        if len(cone) == rank and abs(basis.det()) == 1:
            break
    else:
        raise AssertionError("the source fan has no smooth maximal cone")
    inverse = int_inverse(basis)
    for image in target.max_cones:
        if len(image) != rank:
            continue
        for order in permutations(image):
            a = LatticeMap.from_cols([target.rays[i] for i in order],
                                     nrows=rank) @ inverse
            if abs(a.det()) == 1 and carried(a, source) == wanted:
                return a
    return None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fermat_and_batyrev_borisov_mirrors_agree(n):
    fermat = fermat_pipeline(n)
    generators, splitting = p_n_cone(n)
    bb = bb_mirror_pair(generators, splitting)
    assert fermat.passed and bb.passed

    a = isomorphism(fermat.sigma_x, bb.sigma_x)
    assert a is not None, "no lattice isomorphism between the Σ_X sides"
    dual_a = int_inverse(a).transpose()
    assert carried(dual_a, fermat.sigma_x_prime) == shape(bb.sigma_x_prime)


@pytest.mark.parametrize("generators, splitting",
                         [p_n_cone(n) for n in (2, 3, 4)]
                         + [(SQ_GENS, SQ_SPLIT)],
                         ids=["P2", "P3", "P4", "square"])
def test_batyrev_borisov_mirror_of_the_mirror_is_the_pair_swapped(
        generators, splitting):
    assert_bb_mirror_of_the_mirror_is_the_pair_swapped(generators, splitting)


def assert_bb_mirror_of_the_mirror_is_the_pair_swapped(generators, splitting):
    # Batyrev–Borisov duality is an involution: the pair built from K^∨
    # with the two splittings exchanged is the pair of K, sides swapped
    k = Cone(generators, len(generators[0]))
    ell_dual = is_reflexive(k).cone_report.functional
    dual = dual_splittings(k.dual(), ell_dual, splitting)[0]
    pair = bb_mirror_pair(generators, splitting, dual)
    mirror = bb_mirror_pair(k.dual().extreme_rays, dual, splitting)
    assert pair.passed and mirror.passed
    assert mirror.sigma_x == pair.sigma_x_prime
    assert mirror.sigma_x_prime == pair.sigma_x


# One polygon from each of the 16 classes of reflexive polygons up to
# GL(2, Z) (Poonen & Rodriguez-Villegas, "Lattice polygons and the number
# 12", Amer. Math. Monthly 107, 2000), vertices counterclockwise, ordered
# by their number of lattice points, 4 to 10.
REFLEXIVE_POLYGONS = [
    [(1, 0), (0, 1), (-1, -1)],
    [(1, 1), (-1, 1), (0, -1)],
    [(1, 0), (0, 1), (-1, 0), (0, -1)],
    [(1, 0), (0, 1), (-1, 1), (0, -1)],
    [(1, -1), (1, 1), (0, 1), (-1, 0)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)],
    [(1, -1), (1, 2), (-1, 0)],
    [(1, -1), (1, 1), (-1, 1), (-1, 0)],
    [(1, -1), (1, 1), (0, 1), (-1, 0), (0, -1)],
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(1, -2), (1, 1), (0, 1), (-1, 0)],
    [(1, -1), (1, 0), (0, 1), (-1, 1), (-1, -1)],
    [(1, -2), (1, 2), (-1, 0)],
    [(1, -2), (1, 0), (0, 1), (-2, 1)],
    [(1, -1), (1, 1), (-1, 1), (-1, -1)],
    [(2, -1), (-1, 2), (-1, -1)],
]


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _edges(polygon):
    return [(b[0] - a[0], b[1] - a[1])
            for a, b in zip(polygon, polygon[1:] + polygon[:1])]


def polygon_invariant(polygon):
    """The cyclic sequence of (lattice length of an edge, |det| of that
    edge and the next), least over rotations and reflections: a
    GL(2, Z) invariant."""
    forms = []
    for walk in (polygon, polygon[::-1]):
        edges = _edges(walk)
        pairs = [(gcd(*e), abs(_det(e, f)))
                 for e, f in zip(edges, edges[1:] + edges[:1])]
        forms += [tuple(pairs[i:] + pairs[:i]) for i in range(len(pairs))]
    return min(forms)


def polar_polygon(polygon):
    """The vertices of {u : ⟨u, v⟩ ≥ −1 on the polygon}, one per edge,
    counterclockwise: the u with ⟨u, v⟩ = −1 at both ends of the edge."""
    polar = []
    for a, b in zip(polygon, polygon[1:] + polygon[:1]):
        d = _det(a, b)
        assert d > 0 and (a[1] - b[1]) % d == 0 == (b[0] - a[0]) % d, (
            polygon, "not counterclockwise around the origin, or not "
            "reflexive")
        polar.append(((a[1] - b[1]) // d, (b[0] - a[0]) // d))
    return polar


def unimodular_map(source, target):
    """A GL(2, Z) matrix carrying the vertex set of `source` onto that of
    `target`, or None.  Adjacent vertices of a polygon around the origin
    are independent, so the images of the first two fix the map, and
    they must go to adjacent vertices."""
    inverse = rational_inverse(LatticeMap.from_cols(source[:2], nrows=2))
    for i, w in enumerate(target):
        for u in (target[i - 1], target[(i + 1) % len(target)]):
            a = [[w[r] * inverse[0][c] + u[r] * inverse[1][c]
                  for c in range(2)] for r in range(2)]
            if any(x.denominator != 1 for row in a for x in row):
                continue
            a = LatticeMap([[int(x) for x in row] for row in a])
            if abs(a.det()) == 1 and {a @ v for v in source} == set(target):
                return a
    return None


def test_the_sixteen_reflexive_polygons_are_distinct_and_closed_under_polar():
    invariants = [polygon_invariant(p) for p in REFLEXIVE_POLYGONS]
    assert len(set(invariants)) == 16
    assert any(set(p) == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
               for p in REFLEXIVE_POLYGONS)
    for polygon in REFLEXIVE_POLYGONS:
        polar = polar_polygon(polygon)
        assert set(polar_polygon(polar)) == set(polygon)
        assert set(polar) == set(
            Polytope.from_vertices(polygon).polar().vertices)
        # the number 12: a polygon and its polar have 12 boundary points
        assert sum(gcd(*e) for e in _edges(polygon) + _edges(polar)) == 12
        # the polar's class is in the list, by an explicit lattice map
        match = REFLEXIVE_POLYGONS[invariants.index(polygon_invariant(polar))]
        assert unimodular_map(polar, match) is not None, polygon


@pytest.mark.parametrize("polygon", REFLEXIVE_POLYGONS,
                         ids=lambda p: "_".join(f"{x},{y}" for x, y in p))
def test_batyrev_borisov_mirror_of_the_mirror_swaps_on_reflexive_polygons(
        polygon):
    assert_bb_mirror_of_the_mirror_is_the_pair_swapped(
        [v + (1,) for v in polygon], [(0, 0, 1)])


def marker_isomorphism(source, target):
    """The A with A·(i-th marker of source) = i-th marker of target for
    every i, when it is a unimodular integer matrix, else None."""
    rank = source.lattice_rank
    inverse = rational_inverse(LatticeMap.from_cols(source.marked_generators,
                                                    nrows=rank))
    columns = list(zip(*inverse))
    a = [[sum(t * x for t, x in zip(row, col)) for col in columns]
         for row in zip(*target.marked_generators)]
    if any(x.denominator != 1 for row in a for x in row):
        return None
    a = LatticeMap([tuple(x.numerator for x in row) for row in a])
    return a if abs(a.det()) == 1 else None


def assert_bhk_mirror_of_the_mirror_is_the_pair_swapped(p, q):
    # the i-th marker of the mirror's Σ_X and of the pair's Σ_X′ both come
    # from the i-th monomial of P, and the j-th markers of the other two
    # sides from its j-th variable; both pairings are P, so A must carry
    # the one side and A^(−T) the other
    pair = bhk_pair(p, q)
    transposed = [list(column) for column in zip(*p)]
    mirror = bhk_pair(transposed, krawitz_dual_group(p, q).lifts)
    assert pair.passed and mirror.passed
    a = marker_isomorphism(mirror.sigma_x, pair.sigma_x_prime)
    assert a is not None, "the markers admit no lattice isomorphism"
    assert carried(a, mirror.sigma_x) == shape(pair.sigma_x_prime)
    dual_a = int_inverse(a).transpose()
    assert [dual_a @ m for m in mirror.sigma_x_prime.marked_generators] == (
        list(pair.sigma_x.marked_generators))
    assert carried(dual_a, mirror.sigma_x_prime) == shape(pair.sigma_x)


def fermat_p(n, a):
    return [[a * (i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("p, q", [
    (fermat_p(3, 3), [("1/3", "1/3", "1/3")]),
    (fermat_p(3, 3), []),
    ([[2, 1, 0], [0, 2, 1], [1, 0, 2]], []),
    ([[3, 0, 0], [1, 3, 0], [0, 1, 3]], []),
    (fermat_p(5, 5), [("1/5",) * 5]),
], ids=["fermat-J", "fermat-trivial", "loop", "chain", "quintic-J"])
def test_bhk_mirror_of_the_mirror_is_the_pair_swapped(p, q):
    q = [tuple(Fraction(x) for x in phase) for phase in q]
    assert_bhk_mirror_of_the_mirror_is_the_pair_swapped(p, q)


@st.composite
def atomic_block_sums(draw):
    """Block sums of Kreuzer–Skarke atomic types of total rank ≤ 4, with
    Q drawn from the phases of the full symmetry group.  With columns as
    monomials: a Fermat x^a, a chain x_i^a_i·x_(i+1) ending in x_k^a_k,
    and a loop x_i^a_i·x_(i−1) with indices mod k, each a_i from 2 to 4."""
    blocks, rank = [], 0
    while rank < 4:
        kinds = ["fermat", "chain", "loop"] if rank < 3 else ["fermat"]
        kind = draw(st.sampled_from(kinds))
        size = 1 if kind == "fermat" else draw(st.integers(2, 4 - rank))
        exponents = draw(st.lists(st.integers(2, 4), min_size=size,
                                  max_size=size))
        block = [[0] * size for _ in range(size)]
        for i, e in enumerate(exponents):
            block[i][i] = e
            if kind == "chain" and i:
                block[i][i - 1] = 1
            elif kind == "loop":
                block[i][(i + 1) % size] = 1
        blocks.append(block)
        rank += size
        if draw(st.booleans()):
            break
    p = [[0] * rank for _ in range(rank)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            p[at + i][at:at + len(row)] = row
        at += len(block)
    phases = phase_symmetries(p).elements()
    q = draw(st.lists(st.sampled_from(phases), max_size=2))
    return p, q


@given(atomic_block_sums())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_bhk_mirror_of_the_mirror_swaps_on_atomic_block_sums(case):
    assert_bhk_mirror_of_the_mirror_is_the_pair_swapped(*case)
