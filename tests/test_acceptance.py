"""Package acceptance gate.

Each numbered criterion is a single test that prints exactly one
verdict line on the real stdout, so the verdicts survive pytest's
capture and can be grepped out of any run.  Criterion 4 contains one
clause that provably cannot hold (the product-of-lines dual fan is a
single cone on four rays, while the reflexive-cone fixture subdivides
the same support into four cones on six rays), so its line reports
FAIL with the unmet clause spelled out; every other clause of that
criterion is asserted, and the false clause is pinned by a strict
xfail right next to it.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from dualfan.cli import main
from dualfan.fans import (
    Fan,
    is_complete,
    is_dual_pair,
    is_smooth,
    orthant_fan,
    projective_space_fan,
    relabel_fan,
)
from dualfan.groups import FiniteAbelianGroup, normalize_phase
from dualfan.lattice import (
    LatticeMap,
    annihilator_lattice,
    int_inverse,
    snf,
    solve_integer_matrix,
)
from dualfan.mirrors import (
    bb_mirror_pair,
    bhk_pair,
    givental_mirror,
    hori_vafa_mirror,
    is_reflexive,
    krawitz_dual_group,
    phase_symmetries,
    quintic_pipeline,
    verify_bhk_criterion,
)
from dualfan.polyhedra import Cone, Polytope
from dualfan.toric_lg import (
    ToricDivisor,
    is_regular_character,
    recover_ci_data,
    split_bundle_fan,
)


def _verdict(capfd, number, ok, detail=""):
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capfd.disabled():
        print(line, flush=True)


# criterion 1: the degree-five pipeline


def test_criterion_1_quintic_pipeline(capfd):
    start = time.monotonic()
    try:
        rep = quintic_pipeline()
        base = projective_space_fan(4)
        lifted = {u + (1,) for u in base.rays} | {(0, 0, 0, 0, 1)}
        assert set(rep.sigma_x.rays) == lifted
        assert len(rep.sigma_x.rays) == 6
        assert rep.duality.verdict and rep.duality.witness is None
        assert rep.count("xi_count") == 126
        assert rep.count("xi_prime_count") == 6
        assert rep.check("deck_group_factors")
        assert rep.count("deck_group_order") == 125
        assert rep.to_gamma_prime.is_isomorphism
        assert len(rep.to_gamma.surviving) == 6
        assert rep.count("dropped_coefficients") == 120
        w = rep.potential("w_fermat")
        assert set(w.support) == set(rep.sigma_x_prime.marked_generators)
        assert len(w.support) == 6
        assert str(dict(w.terms)[(0, 0, 0, 0, 1)]) == "-5*psi"
        units = [e for e, c in w.terms if str(c) == "1"]
        assert len(units) == 5
        assert rep.passed
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
    except BaseException:
        _verdict(capfd, 1, False, "degree-five pipeline")
        raise
    _verdict(capfd, 1, True, f"degree-five pipeline, {elapsed:.2f}s")


# criterion 2: the exponent-matrix suite

IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
FERMAT3 = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
TWO_PT = ((2, 1), (1, 2))
LOOP4 = ((2, 0, 0, 1), (1, 2, 0, 0), (0, 1, 2, 0), (0, 0, 1, 2))
THIRD = (Fraction(1, 3),) * 3


def _fifth_of_loop():
    g = phase_symmetries(LOOP4).lifts[0]
    return normalize_phase(tuple(3 * x for x in g))


def _q_variants(p):
    """Trivial, one intermediate subgroup when there is one, full."""
    full = phase_symmetries(p)
    variants = [()]
    if p == FERMAT3:
        variants.append((THIRD,))
    if p == LOOP4:
        variants.append((_fifth_of_loop(),))
    if full.invariant_factors != ():
        variants.append(full.lifts)
    return variants


def _transport(p, q_gens):
    """Basis change carrying one run's dual side onto the transposed
    run's potential side, with its inverse transpose going back."""
    pm = LatticeMap(list(p))
    a = annihilator_lattice(q_gens, pm.rows)
    x = solve_integer_matrix(a, pm)
    dual = krawitz_dual_group(p, q_gens)
    a2 = annihilator_lattice(dual.lifts, pm.rows)
    t = solve_integer_matrix(x.transpose(), a2).transpose()
    return t, int_inverse(t).transpose()


def test_criterion_2_exponent_matrix_suite(capfd):
    worst = 0.0
    try:
        for p in (IDENTITY3, FERMAT3, TWO_PT, LOOP4):
            n = len(p)
            det = abs(LatticeMap(list(p)).det())
            for q_gens in _q_variants(p):
                case = time.monotonic()
                rep = bhk_pair(p, q_gens)
                for i in range(n):
                    for j in range(n):
                        mi = rep.sigma_x.marked_generators[i]
                        mj = rep.sigma_x_prime.marked_generators[j]
                        pairing = sum(a * b for a, b in zip(mi, mj))
                        assert pairing == p[i][j]
                q_group = FiniteAbelianGroup.from_phases(q_gens, n)
                dual = krawitz_dual_group(p, q_gens)
                assert q_group.order * dual.order == det
                assert verify_bhk_criterion(p, q_gens).holds
                assert rep.to_gamma.is_isomorphism
                assert rep.to_gamma_prime.is_isomorphism
                assert rep.passed
                # applying the construction to the transposed data lands
                # on the swapped pair once the quotient bases are
                # identified by the canonical unimodular transport
                swapped = bhk_pair(tuple(zip(*p)), dual.lifts)
                t, t_back = _transport(p, q_gens)
                assert relabel_fan(rep.sigma_x_prime, t) == swapped.sigma_x
                assert relabel_fan(rep.sigma_x, t_back) \
                    == swapped.sigma_x_prime
                worst = max(worst, time.monotonic() - case)
                assert worst < 5.0
    except BaseException:
        _verdict(capfd, 2, False, "exponent-matrix suite")
        raise
    _verdict(capfd, 2, True, f"exponent-matrix suite, worst case {worst:.2f}s")


# criterion 3: the reflexive-cone suite

P2_GENS = ((-1, -1, 1), (2, -1, 1), (-1, 2, 1))
P2_SPLIT = ((0, 0, 1),)
SQ_GENS = ((1, 0, 1, 0), (-1, 0, 1, 0), (0, 1, 0, 1), (0, -1, 0, 1))
SQ_SPLIT = ((0, 0, 1, 0), (0, 0, 0, 1))


def test_criterion_3_reflexive_cone_suite(capfd):
    start = time.monotonic()
    try:
        for gens, splitting, index in ((P2_GENS, P2_SPLIT, 1),
                                       (SQ_GENS, SQ_SPLIT, 2)):
            rank = len(gens[0])
            refl = is_reflexive(Cone(list(gens), rank), 3)
            assert refl.holds
            assert refl.index == index
            rep = bb_mirror_pair(gens, splitting, height_bound=3)
            for name, value in rep.checks:
                assert value, name
            # the headline identities, by name: sections against parts,
            # ray sets, supports, coefficient data, and the mutual-hull
            # polar comparisons on both sides
            for name in ("sections_match_parts", "dual_sections_match_parts",
                         "ray_set_identity", "dual_ray_set_identity",
                         "support_identity", "dual_support_identity",
                         "coefficient_maps_defined",
                         "polar_identity", "dual_polar_identity"):
                assert rep.check(name)
            assert not any("skipped" in note for note in rep.notes)
            assert rep.duality.verdict
            assert rep.to_gamma.verdict
            assert rep.to_gamma_prime.verdict
            assert rep.count("index") == index
            assert rep.passed
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
    except BaseException:
        _verdict(capfd, 3, False, "reflexive-cone suite")
        raise
    _verdict(capfd, 3, True, f"reflexive-cone suite, {elapsed:.2f}s")


# criterion 4: the split-bundle suite

P1 = projective_space_fan(1)
P2 = projective_space_fan(2)
PP = Fan([(1, 0), (-1, 0), (0, 1), (0, -1)],
         [(0, 2), (0, 3), (1, 2), (1, 3)], 2)


def _pp_rulings():
    return [ToricDivisor(PP, (1, 1, 0, 0)), ToricDivisor(PP, (0, 0, 1, 1))]


def _split_bundle_fixtures():
    return (
        (P1, [ToricDivisor(P1, (0, 2))]),
        (P2, [ToricDivisor(P2, (1, 1, 1))]),
        (PP, _pp_rulings()),
    )


def test_criterion_4_split_bundle_suite(capfd):
    start = time.monotonic()
    unmet = ("the product-of-lines dual fan equals the reflexive-cone "
             "fixture's dual fan in canonical form")
    try:
        for base, divisors in _split_bundle_fixtures():
            giv = givental_mirror(base, divisors)
            hv = hori_vafa_mirror(base, divisors)
            for rep in (giv, hv):
                assert rep.passed
                assert rep.check("rays_are_marked_sections")
                assert rep.to_gamma_prime.is_isomorphism
                assert rep.duality.verdict
            # the two potentials agree termwise except for a sign flip
            # on exactly the fiber-direction coordinates
            count = len(base.rays)
            vertical = set(giv.sigma_x.marked_generators[count:])
            wg = dict(giv.potential("w_prime").terms)
            wh = dict(hv.potential("w_prime").terms)
            assert wg.keys() == wh.keys()
            flipped = {e for e in wg if wg[e] != wh[e]}
            assert flipped == vertical
            for e in flipped:
                assert str(wg[e]) == "1"
                assert str(wh[e]) == "-1"
        # everything except parameter placement inside the potentials is
        # independent of the splitting-basis choice
        a = givental_mirror(PP, _pp_rulings(), basis_rays=(0, 2))
        b = givental_mirror(PP, _pp_rulings(), basis_rays=(1, 3))
        assert a.sigma_x == b.sigma_x
        assert a.sigma_x_prime == b.sigma_x_prime
        assert (a.duality.verdict, a.duality.witness) \
            == (b.duality.verdict, b.duality.witness)
        assert a.checks == b.checks
        assert a.counts == b.counts
        assert (a.to_gamma_prime.is_isomorphism, a.to_gamma_prime.surviving) \
            == (b.to_gamma_prime.is_isomorphism, b.to_gamma_prime.surviving)
        # the unmet clause: same total space, same dual support, but the
        # fan structures differ, so canonical forms cannot agree
        giv = givental_mirror(PP, _pp_rulings())
        bb = bb_mirror_pair(SQ_GENS, SQ_SPLIT)
        assert giv.sigma_x == bb.sigma_x
        assert Cone(list(giv.sigma_x_prime.rays), 4) \
            == Cone(list(bb.sigma_x_prime.rays), 4)
        assert giv.sigma_x_prime != bb.sigma_x_prime
        assert time.monotonic() - start < 10.0
    except BaseException:
        _verdict(capfd, 4, False, "split-bundle suite: error before the verdict")
        raise
    _verdict(capfd, 4, False, "split-bundle suite: every clause holds except that "
             + unmet + "; the supports agree, the cone structures differ")


@pytest.mark.xfail(strict=True,
                   reason="the product-of-lines dual fan is a single cone "
                   "on four rays; the reflexive-cone fixture subdivides the "
                   "same support into four cones on six rays")
def test_criterion_4_unmet_clause_pinned():
    giv = givental_mirror(PP, _pp_rulings())
    bb = bb_mirror_pair(SQ_GENS, SQ_SPLIT)
    assert giv.sigma_x_prime == bb.sigma_x_prime


# criterion 5: the randomized property suites


def _random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return LatticeMap(m)


def _suite_dual_cones(rng):
    """Dual cones against a box-membership oracle, plus the dual-dual
    involution, on one shared corpus."""
    for _ in range(500):
        r = rng.randint(1, 4)
        gens = []
        while not gens:
            gens = [g
                    for g in (tuple(rng.randint(-5, 5) for _ in range(r))
                              for _ in range(rng.randint(1, 6)))
                    if any(g)]
        cone = Cone(gens, r)
        dual = cone.dual()
        for y in itertools.product(range(-2, 3), repeat=r):
            direct = all(sum(a * b for a, b in zip(y, g)) >= 0 for g in gens)
            assert dual.contains_vector(y) == direct
        assert dual.dual() == cone
    return 500


def _suite_snf(rng):
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = LatticeMap([[rng.randint(-20, 20) for _ in range(cols)]
                        for _ in range(rows)], cols=cols)
        dec = snf(a)
        assert dec.U @ a @ dec.V == dec.D
        assert abs(dec.U.det()) == 1
        assert abs(dec.V.det()) == 1
        for i, row in enumerate(dec.D.entries):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        diag = [dec.D.entries[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        assert dec.invariant_factors == tuple(x for x in diag if x > 1)
    return 1000


def _suite_regularity(rng):
    """Every dual-side exponent of a dual pair is a regular character,
    and injecting one irregular exponent breaks the duality."""
    for _ in range(200):
        n = rng.randint(2, 4)
        u = _random_unimodular(rng, n)
        u_inv = int_inverse(u)
        s = relabel_fan(orthant_fan(n), u)
        s_dual = relabel_fan(orthant_fan(n), u_inv.transpose())
        rep = is_dual_pair(s, s_dual)
        assert rep.verdict and rep.witness is None
        for m in s_dual.marked_generators:
            assert is_regular_character(s, m)
        bad = tuple(-x for x in u_inv.row(rng.randrange(n)))
        assert not is_regular_character(s, bad)
        broken = Fan(list(s_dual.rays) + [bad],
                     list(s_dual.max_cones) + [(len(s_dual.rays),)], n)
        rep = is_dual_pair(s, broken)
        assert not rep.verdict
        assert rep.witness is not None and rep.witness[2] < 0
    return 200


def _suite_lattice_points(rng):
    for _ in range(200):
        r = rng.randint(1, 3)
        pts = [tuple(rng.randint(-4, 4) for _ in range(r))
               for _ in range(rng.randint(1, r + 3))]
        poly = Polytope.from_vertices(pts, ambient_rank=r)
        spans = [range(min(p[i] for p in pts), max(p[i] for p in pts) + 1)
                 for i in range(r)]
        expected = [y for y in itertools.product(*spans) if poly.contains(y)]
        assert list(poly.lattice_points()) == sorted(expected)
    return 200


def _random_smooth_base(rng):
    # repeated stellar subdivision of a smooth complete start keeps the
    # fan smooth and complete; rays stay in cyclic order
    if rng.random() < 0.5:
        rays = [(1, 0), (0, 1), (-1, -1)]
    else:
        rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(rays))
        j = (i + 1) % len(rays)
        rays.insert(i + 1, (rays[i][0] + rays[j][0], rays[i][1] + rays[j][1]))
    cones = [(i, (i + 1) % len(rays)) for i in range(len(rays))]
    return Fan(rays, cones, 2)


def _suite_round_trip(rng):
    for _ in range(50):
        base = _random_smooth_base(rng)
        assert is_smooth(base) and is_complete(base)
        summands = rng.randint(1, 2)
        divisors = [ToricDivisor(base, tuple(rng.randint(-2, 3)
                                             for _ in base.rays))
                    for _ in range(summands)]
        total = split_bundle_fan(divisors)
        rank = 2 + summands
        verticals = [tuple(int(k == 2 + a) for k in range(rank))
                     for a in range(summands)]
        rec = recover_ci_data(total, candidates=verticals)
        assert rec is not None
        assert rec.transform == LatticeMap.identity(rank)
        assert rec.base_fan == base
        assert [d.coeffs for d in rec.divisors] \
            == [d.coeffs for d in divisors]
        if rng.random() < 0.4:
            t = _random_unimodular(rng, rank)
            shuffled = relabel_fan(total, t)
            rec = recover_ci_data(shuffled,
                                  candidates=[t @ v for v in verticals])
            assert rec is not None
            assert split_bundle_fan(rec.divisors) \
                == relabel_fan(shuffled, rec.transform)
    return 50


def test_criterion_5_property_suites(capfd):
    start = time.monotonic()
    rng = random.Random(108301)
    try:
        sizes = (_suite_dual_cones(rng), _suite_snf(rng),
                 _suite_regularity(rng), _suite_lattice_points(rng),
                 _suite_round_trip(rng))
        assert sizes == (500, 1000, 200, 200, 50)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
    except BaseException:
        _verdict(capfd, 5, False, "property suites")
        raise
    _verdict(capfd, 5, True, f"property suites, {elapsed:.1f}s")


# criterion 6: byte-identical reports across consecutive runs


def test_criterion_6_byte_identical_reports(tmp_path, capfd):
    jobs = {
        "bhk": {"P": {"entries": [[3, 0, 0], [0, 3, 0], [0, 0, 3]]},
                "Q": {"phases": [["1/3", "1/3", "1/3"]]}},
        "bb": {"rank": 3,
               "generators": [[-1, -1, 1], [2, -1, 1], [-1, 2, 1]],
               "ell_dual": [0, 0, 1],
               "splitting": [[0, 0, 1]]},
        "givental": {"fan": {"rank": 2,
                             "rays": [[1, 0], [0, 1], [-1, -1]],
                             "max_cones": [[0, 1], [1, 2], [0, 2]]},
                     "bundles": [{"coeffs": [1, 1, 1]}]},
    }
    try:
        for command in ("quintic", "bhk", "bb", "givental"):
            argv = [command]
            if command in jobs:
                job = tmp_path / f"{command}-job.json"
                job.write_text(json.dumps(jobs[command]))
                argv.append(str(job))
            first = tmp_path / f"{command}-1.json"
            second = tmp_path / f"{command}-2.json"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
            assert first.read_bytes().endswith(b"\n")
    except BaseException:
        _verdict(capfd, 6, False, "byte-identical reports")
        raise
    _verdict(capfd, 6, True, "byte-identical reports")
