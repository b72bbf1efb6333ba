"""Split-bundle mirror potentials over smooth complete bases."""

import random
from itertools import combinations

import pytest

from dualfan.fans import Fan, _covers, orthant_fan, projective_space_fan
from dualfan.lattice import LatticeMap
from dualfan.polyhedra import Cone
from dualfan.symbols import ParamPoly
from dualfan.toric_lg import ToricDivisor
from dualfan.mirrors import (
    bb_mirror_pair,
    givental_mirror,
    hori_vafa_mirror,
    splitting_basis,
)

P1 = projective_space_fan(1)
P2 = projective_space_fan(2)
PP = Fan([(1, 0), (-1, 0), (0, 1), (0, -1)],
         [(0, 2), (0, 3), (1, 2), (1, 3)], 2)


def pp_rulings():
    return [ToricDivisor(PP, (1, 1, 0, 0)), ToricDivisor(PP, (0, 0, 1, 1))]


def test_splitting_basis_defaults():
    assert splitting_basis(P1) == (0,)
    assert splitting_basis(P2) == (0,)
    assert splitting_basis(PP) == (1, 3)


def test_splitting_basis_explicit_choices():
    assert splitting_basis(P1, [1]) == (1,)
    assert splitting_basis(P1, [(-1,)]) == (1,)
    assert splitting_basis(PP, [0, 2]) == (0, 2)


def test_splitting_basis_rejections():
    with pytest.raises(ValueError, match="splitting basis here has 1"):
        splitting_basis(P1, [0, 1])
    with pytest.raises(ValueError, match="distinct"):
        splitting_basis(PP, [0, 0])
    with pytest.raises(ValueError, match="not a ray"):
        splitting_basis(P1, [(2,)])
    with pytest.raises(ValueError, match="out of range"):
        splitting_basis(P1, [7])


def reference_splits(fan, indices):
    """Whether the unit columns at `indices` complete the ray map to a
    basis, read off the full #rays × #rays determinant."""
    count, n = len(fan.rays), fan.lattice_rank
    ray_map = LatticeMap.from_rows(list(fan.rays), ncols=n)
    cols = [ray_map.col(i) for i in range(n)]
    cols += [tuple(int(i == j) for i in range(count)) for j in indices]
    return abs(LatticeMap.from_cols(cols, nrows=count).det()) == 1


def polygon_fan(rays):
    """The complete fan over consecutive pairs of rays in cyclic order."""
    m = len(rays)
    return Fan(rays, [(i, (i + 1) % m) for i in range(m)], 2)


def hirzebruch(a):
    return polygon_fan([(1, 0), (0, 1), (-1, a), (0, -1)])


def blown_up_polygon_fans(seed, count):
    """Smooth complete polygon fans: Hirzebruch fans blown up at random
    torus-fixed points, each a new ray between two adjacent ones."""
    rng = random.Random(seed)
    fans = []
    for _ in range(count):
        rays = list(hirzebruch(rng.randrange(4)).rays)
        for _ in range(rng.randrange(1, 5)):
            i = rng.randrange(len(rays))
            j = (i + 1) % len(rays)
            rays.insert(i + 1, tuple(x + y for x, y in zip(rays[i], rays[j])))
        fans.append(polygon_fan(rays))
    return fans


REFERENCE_FANS = ([P1, P2, PP, projective_space_fan(3)]
                  + [hirzebruch(a) for a in range(4)]
                  + blown_up_polygon_fans(20151, 8))


@pytest.mark.parametrize("fan", REFERENCE_FANS)
def test_splitting_basis_agrees_with_the_full_determinant(fan):
    k = len(fan.rays) - fan.lattice_rank
    for indices in combinations(range(len(fan.rays)), k):
        if reference_splits(fan, indices):
            assert splitting_basis(fan, list(indices)) == indices
        else:
            with pytest.raises(ValueError) as err:
                splitting_basis(fan, list(indices))
            assert str(err.value) == (
                "chosen rays do not give a splitting basis")
    default = next(
        ixs for ixs in (tuple(sorted(set(range(len(fan.rays))) - set(cone)))
                        for cone in fan.max_cones)
        if len(ixs) == k and reference_splits(fan, ixs))
    assert splitting_basis(fan) == default


def test_p1_degree_two_report():
    rep = givental_mirror(P1, [ToricDivisor(P1, (0, 2))])
    assert rep.passed
    assert rep.sigma_x.rays == ((1, 0), (-1, 2), (0, 1))
    assert rep.sigma_x_prime.rays == ((0, 1), (2, 1))
    assert rep.count("xi_count") == 3
    assert rep.count("xi_prime_count") == 2
    w = dict(rep.potential("w_prime").terms)
    assert w[(0, 1)] == ParamPoly.constant(1)
    assert w[(1, 0)] == ParamPoly.parameter("q1", power=-1, coeff=-1)
    assert w[(-1, 2)] == ParamPoly.constant(-1)


def test_p1_fiber_sign_is_the_only_difference():
    giv = givental_mirror(P1, [ToricDivisor(P1, (0, 2))])
    hv = hori_vafa_mirror(P1, [ToricDivisor(P1, (0, 2))])
    assert giv.sigma_x == hv.sigma_x
    assert giv.sigma_x_prime == hv.sigma_x_prime
    assert giv.checks == hv.checks
    assert giv.counts == hv.counts
    wg = dict(giv.potential("w_prime").terms)
    wh = dict(hv.potential("w_prime").terms)
    assert wh[(0, 1)] == ParamPoly.constant(-1)
    assert wg[(0, 1)] == ParamPoly.constant(1)
    assert wg.get((1, 0)) == wh.get((1, 0))
    assert wg.get((-1, 2)) == wh.get((-1, 2))
    assert any("sign -1" in note for note in hv.notes)


def test_p2_degree_three_report():
    rep = givental_mirror(P2, [ToricDivisor(P2, (1, 1, 1))])
    assert rep.passed
    assert rep.count("xi_count") == 10
    assert rep.count("xi_prime_count") == 3
    assert rep.count("picard_number") == 1
    w = dict(rep.potential("w_prime").terms)
    assert w[(0, 0, 1)] == ParamPoly.constant(1)
    assert w[(1, 0, 1)] == ParamPoly.parameter("q1", power=-1, coeff=-1)
    assert w[(0, 1, 1)] == ParamPoly.constant(-1)
    assert w[(-1, -1, 1)] == ParamPoly.constant(-1)
    # the three dual rays survive out of the ten sections
    assert len(rep.to_gamma.surviving) == 3
    assert rep.to_gamma_prime.is_isomorphism


def test_product_of_lines_report():
    rep = givental_mirror(PP, pp_rulings())
    assert rep.passed
    assert rep.count("xi_count") == 6
    assert rep.count("xi_prime_count") == 4
    assert rep.check("dual_fan_is_single_cone")
    assert len(rep.sigma_x_prime.max_cones) == 1
    w = dict(rep.potential("w_prime").terms)
    assert w[(0, 0, 1, 0)] == ParamPoly.constant(1)
    assert w[(0, 0, 0, 1)] == ParamPoly.constant(1)
    assert w[(-1, 0, 1, 0)] == ParamPoly.parameter("q1", power=-1, coeff=-1)
    assert w[(0, -1, 0, 1)] == ParamPoly.parameter("q2", power=-1, coeff=-1)
    assert w[(1, 0, 1, 0)] == ParamPoly.constant(-1)
    assert w[(0, 1, 0, 1)] == ParamPoly.constant(-1)


def test_basis_choice_changes_only_parameter_placement():
    default = givental_mirror(PP, pp_rulings())
    other = givental_mirror(PP, pp_rulings(), basis_rays=[0, 2])
    assert default.sigma_x == other.sigma_x
    assert default.sigma_x_prime == other.sigma_x_prime
    assert default.duality.verdict == other.duality.verdict
    assert default.checks == other.checks
    assert default.counts == other.counts
    # the potentials differ exactly in where the inverse parameters sit
    wd = dict(default.potentials)["w_prime"]
    wo = dict(other.potentials)["w_prime"]
    assert wd != wo
    signs_d = {e: str(c).startswith("-") for e, c in wd.terms}
    signs_o = {e: str(c).startswith("-") for e, c in wo.terms}
    assert signs_d == signs_o


def test_rejects_unsuitable_bases():
    with pytest.raises(ValueError, match="complete"):
        givental_mirror(orthant_fan(2), [ToricDivisor(orthant_fan(2), (0, 0))])
    singular = Fan([(1, 0), (0, 1), (-1, -2)],
                   [(0, 1), (1, 2), (0, 2)], 2)
    with pytest.raises(ValueError, match="smooth"):
        givental_mirror(singular, [ToricDivisor(singular, (1, 1, 1))])


def test_rejects_non_nef_summand():
    with pytest.raises(ValueError, match="not nef"):
        givental_mirror(P2, [ToricDivisor(P2, (0, 0, -1))])


def test_matches_the_reflexive_pipeline_up_to_fan_structure():
    # both pipelines produce the same total space over the product of
    # lines; the dual sides agree as supports but carry different fan
    # structures, one subdivided with six rays, the other a single cone
    giv = givental_mirror(PP, pp_rulings())
    bb = bb_mirror_pair([(1, 0, 1, 0), (-1, 0, 1, 0),
                         (0, 1, 0, 1), (0, -1, 0, 1)],
                        [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert giv.sigma_x == bb.sigma_x
    assert giv.sigma_x_prime != bb.sigma_x_prime
    assert len(giv.sigma_x_prime.rays) == 4
    assert len(bb.sigma_x_prime.rays) == 6
    # each fan covers the cone over the other's rays, so both supports
    # are that one cone
    for fan, other in ((giv.sigma_x_prime, bb.sigma_x_prime),
                       (bb.sigma_x_prime, giv.sigma_x_prime)):
        assert _covers(fan, Cone(list(other.rays), 4).facet_normals)
