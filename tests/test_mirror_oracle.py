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
"""

from itertools import permutations

import pytest

from dualfan.lattice import LatticeMap, int_inverse
from dualfan.mirrors import bb_mirror_pair, fermat_pipeline


def p_n_cone(n):
    """The cone over the anticanonical polytope of P^n, d = n + 1: the
    generators (−1, …, −1, 1) and (d·e_i − 𝟙, 1), split by the last
    coordinate."""
    d = n + 1
    generators = [(-1,) * n + (1,)]
    generators += [tuple(d * (j == i) - 1 for j in range(n)) + (1,)
                   for i in range(n)]
    return generators, [(0,) * n + (1,)]


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
