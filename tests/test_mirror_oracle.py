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
its sides swapped.  Neither oracle sees a bug that both constructions, or
both directions, share.
"""

from itertools import permutations

import pytest

from dualfan.lattice import LatticeMap, int_inverse
from dualfan.mirrors import (bb_mirror_pair, dual_splittings, fermat_pipeline,
                             is_reflexive)
from dualfan.polyhedra import Cone


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
