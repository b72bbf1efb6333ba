"""Phase-group code against the routines it replaced.

`FiniteAbelianGroup.from_phases`, `contains_phase`, `_quotient_map` and
`annihilator_lattice` all read one lattice, L = Zⁿ + Σ Z·q over the
phases q, through `lattice._phase_lattice`.  The reference functions below
are the earlier, separate constructions: a scaled Hermite basis per call,
and the annihilator as the kernel of a stacked matrix.  They must agree
on seeded phase sets of every small shape.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from dualfan.fans import orthant_fan, quotient_fan
from dualfan.groups import FiniteAbelianGroup, normalize_phase
from dualfan.lattice import (
    LatticeMap,
    _adjugate,
    _phase_lattice,
    annihilator_lattice,
    column_lattice_basis,
    int_inverse,
    kernel_basis,
    snf,
    solve_integer,
    solve_integer_matrix,
)
from dualfan.mirrors.bhk import _phase_group


def reference_common_denominator(vectors):
    return lcm(*(Fraction(x).denominator for v in vectors for x in v))


def reference_scaled_lattice_basis(phase_vectors, ambient_rank, ell):
    cols = [tuple(int(Fraction(x) * ell) for x in q) for q in phase_vectors]
    cols += [
        tuple(ell if j == i else 0 for j in range(ambient_rank))
        for i in range(ambient_rank)
    ]
    return column_lattice_basis(cols, ambient_rank)


def reference_from_phases(phases, ambient_rank):
    """(invariant factors, lifts): scaled basis, solve, Smith form."""
    qs = [normalize_phase(q) for q in phases]
    ell = reference_common_denominator(qs)
    basis = reference_scaled_lattice_basis(qs, ambient_rank, ell)
    scaled_ambient = LatticeMap(
        tuple(
            tuple(ell if i == j else 0 for j in range(ambient_rank))
            for i in range(ambient_rank)
        )
    ) if ambient_rank else LatticeMap.zero(0, 0)
    dec = snf(solve_integer_matrix(basis, scaled_ambient))
    u_inv = int_inverse(dec.U) if ambient_rank else LatticeMap.zero(0, 0)
    factors, lifts = [], []
    for i, d in enumerate(dec.diagonal):
        if d > 1:
            ambient_vec = basis @ u_inv.col(i)
            lifts.append(tuple(Fraction(x, ell) % 1 for x in ambient_vec))
            factors.append(d)
    return tuple(factors), tuple(lifts)


def reference_annihilator(phases, ambient_rank):
    """The kernel of [ell·Qᵗ | ell·id], projected to its first n entries."""
    phases = [tuple(Fraction(x) for x in q) for q in phases]
    if not phases:
        return LatticeMap.identity(ambient_rank)
    ell = lcm(*(x.denominator for q in phases for x in q))
    rows = [tuple(int(x * ell) for x in q) for q in phases]
    stacked = LatticeMap.from_rows(
        [row + tuple(ell if j == i else 0 for j in range(len(phases)))
         for i, row in enumerate(rows)]
    )
    ker = kernel_basis(stacked)
    projected = [ker.col(j)[:ambient_rank] for j in range(ker.cols)]
    return column_lattice_basis(projected, ambient_rank)


def reference_contains(group, phase):
    q = normalize_phase(phase)
    ell = reference_common_denominator(group.lifts + (q,))
    basis = reference_scaled_lattice_basis(group.lifts, group.ambient_rank,
                                           ell)
    target = tuple(int(x * ell) for x in q)
    return solve_integer(basis, target) is not None


def reference_quotient_map(big, sub):
    ell = reference_common_denominator(big.lifts + sub.lifts)
    b_big = reference_scaled_lattice_basis(big.lifts, big.ambient_rank, ell)
    b_sub = reference_scaled_lattice_basis(sub.lifts, big.ambient_rank, ell)
    return solve_integer_matrix(b_big, b_sub)


def elimination_solve(big, phases):
    """The route `_quotient_map` and `contains_phase` took before a group
    kept Y = ell·B⁻¹: the lattice of `phases` at big's ell, then one
    elimination of big's basis."""
    ell, b_big, _ = _phase_lattice(big.lifts, big.ambient_rank)
    if lcm(ell, reference_common_denominator(phases)) != ell:
        return None
    b_sub = reference_scaled_lattice_basis(phases, big.ambient_rank, ell)
    return solve_integer_matrix(b_big, b_sub)


def random_entry(rng, max_den=12):
    # integers, negative entries and entries beyond [0, 1) all occur
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-2 * den, 2 * den), den)


def random_phase_sets(seed, count, max_rank=5, max_phases=4, max_den=12):
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(0, max_rank)
        # some sets share one small denominator, so groups stay small
        den = rng.randint(1, max_den)
        yield rank, [
            tuple(random_entry(rng, den) if rng.random() < 0.8
                  else rng.randint(-3, 3) for _ in range(rank))
            for _ in range(rng.randint(0, max_phases))
        ]


PHASE_SETS = list(random_phase_sets(20151, 360))


def test_the_seeded_phase_sets_cover_every_shape():
    shapes = {(rank, len(qs)) for rank, qs in PHASE_SETS}
    assert shapes == {(r, n) for r in range(6) for n in range(5)}
    entries = [x for _, qs in PHASE_SETS for q in qs for x in q]
    assert any(type(x) is int for x in entries)
    assert any(x < 0 for x in entries)
    assert max(Fraction(x).denominator for x in entries) == 12


def test_from_phases_matches_the_reference():
    for rank, phases in PHASE_SETS:
        g = FiniteAbelianGroup.from_phases(phases, rank)
        assert (g.invariant_factors, g.lifts) == reference_from_phases(
            phases, rank), (rank, phases)


def test_a_group_keeps_the_lattice_of_its_lifts_outside_its_key():
    for rank, phases in PHASE_SETS:
        g = FiniteAbelianGroup.from_phases(phases, rank)
        # the phases and the lifts generate one group, so one lattice
        ell, basis, y = g._lattice
        assert g._lattice == _phase_lattice(phases, rank) == _phase_lattice(
            g.lifts, rank), (rank, phases)
        assert basis @ y == LatticeMap(
            [[ell * int(i == j) for j in range(rank)] for i in range(rank)],
            cols=rank)
        built = FiniteAbelianGroup(g.invariant_factors, g.lifts, rank)
        assert built._lattice is None
        assert built == g and hash(built) == hash(g)
        assert built._lattice_of_lifts == g._lattice
        assert built._lattice is not None


def test_annihilator_lattice_matches_the_stacked_kernel():
    for rank, phases in PHASE_SETS:
        assert annihilator_lattice(phases, rank) == reference_annihilator(
            phases, rank), (rank, phases)


def test_quotient_maps_match_the_reference():
    rng = random.Random(31)
    groups = [FiniteAbelianGroup.from_phases(qs, rank)
              for rank, qs in PHASE_SETS]
    for big in groups:
        # a subgroup, the group of a random other set, and a shuffled copy
        sub = FiniteAbelianGroup.from_phases(
            [tuple(2 * x for x in v) for v in big.lifts], big.ambient_rank)
        other = rng.choice(groups)
        for small in (sub, other, big):
            if small.ambient_rank != big.ambient_rank:
                continue
            assert big._quotient_map(small) == reference_quotient_map(
                big, small)
        assert sub.is_subgroup_of(big)


def test_kept_lattices_match_the_elimination_route():
    rng = random.Random(2010)
    groups = [FiniteAbelianGroup.from_phases(qs, rank)
              for rank, qs in PHASE_SETS]
    seen = {("map", True): 0, ("map", False): 0, ("phase", True): 0,
            ("phase", False): 0}
    for (rank, phases), big in zip(PHASE_SETS, groups):
        sub = FiniteAbelianGroup.from_phases(
            [tuple(2 * x for x in v) for v in big.lifts], rank)
        for small in (sub, rng.choice(groups), big):
            if small.ambient_rank == rank:
                x = big._quotient_map(small)
                assert x == elimination_solve(big, small.lifts), (rank, phases)
                seen["map", x is not None] += 1
        # the phases themselves, and probes off the group
        probes = list(phases) + [
            tuple(random_entry(rng, 6) for _ in range(rank))
            for _ in range(3)]
        for q in probes:
            found = big.contains_phase(q)
            assert found == (elimination_solve(big, (q,)) is not None), (
                rank, phases, q)
            seen["phase", found] += 1
    # subgroups and non-subgroups, members and non-members
    assert min(seen.values()) >= 30, seen


def test_phase_lattice_is_canonical_and_scales_exactly():
    for rank, phases in PHASE_SETS[:120]:
        ell, basis, y = _phase_lattice(phases, rank)
        assert (ell, basis, y) == _phase_lattice(
            [normalize_phase(q) for q in reversed(phases)], rank)
        assert basis == reference_scaled_lattice_basis(phases, rank, ell)
        assert basis @ y == LatticeMap(
            [[ell * int(i == j) for j in range(rank)] for i in range(rank)],
            cols=rank)
        assert reference_scaled_lattice_basis(phases, rank, 5 * ell) == (
            LatticeMap([[5 * x for x in row] for row in basis.entries],
                       cols=rank))


def test_back_substitution_matches_the_adjugate():
    for rank, phases in PHASE_SETS:
        ell, basis, y = _phase_lattice(phases, rank)
        det, adj = _adjugate(basis.entries)
        assert all(ell * x % det == 0 for row in adj for x in row)
        assert y == LatticeMap([[ell * x // det for x in row] for row in adj],
                               cols=rank), (rank, phases)


def random_integer_phases(seed, count):
    """(rank, den, vectors): integer vectors over a nonzero denominator of
    either sign, the data the integer route reads."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 5)
        den = rng.choice((-1, 1)) * rng.randint(1, 30)
        yield rank, den, [tuple(rng.randint(-40, 40) for _ in range(rank))
                          for _ in range(rng.randint(0, 4))]


def test_the_integer_route_builds_the_fraction_routes_group():
    kinds = set()
    for rank, den, vectors in random_integer_phases(4713, 300):
        g = _phase_group(den, vectors, rank)
        expected = FiniteAbelianGroup.from_phases(
            [[Fraction(x, den) for x in v] for v in vectors], rank)
        assert (g, g.lifts, g._lattice) == (
            expected, expected.lifts, expected._lattice), (den, vectors)
        kinds.add((den < 0, g.order > 1))
    assert len(kinds) == 4


def test_quotient_torsion_matches_the_fraction_route():
    rng = random.Random(1501)
    orders = set()
    for _ in range(120):
        rank = rng.randint(1, 4)
        while True:
            q = LatticeMap([[rng.randint(-3, 3) for _ in range(rank)]
                            for _ in range(rank)])
            if _adjugate(q.entries)[0]:
                break
        _, (_, torsion) = quotient_fan(orthant_fan(rank), q)
        dec = snf(q)
        expected = FiniteAbelianGroup.from_phases(
            [[Fraction(x, d) for x in dec.V.col(i)]
             for i, d in enumerate(dec.diagonal) if d > 1], rank)
        assert (torsion, torsion._lattice) == (expected, expected._lattice)
        orders.add(torsion.order > 1)
    assert orders == {False, True}


def small_groups(seed, count, order_cap=625):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        rank = rng.randint(1, 4)
        den = rng.choice([2, 3, 4, 5, 6])
        phases = [tuple(Fraction(rng.randint(-den, 2 * den), den)
                        for _ in range(rank))
                  for _ in range(rng.randint(0, 4))]
        g = FiniteAbelianGroup.from_phases(phases, rank)
        if g.order <= order_cap:
            found.append(g)
    return rng, found


def test_contains_phase_matches_the_element_list():
    rng, groups = small_groups(7, 80)
    # and one group at the cap: (Z/5)⁴, whose elements lie off the diagonal
    groups.append(FiniteAbelianGroup.from_phases(
        [(Fraction(1, 5), Fraction(2, 5), 0, 0), (0, Fraction(1, 5), 0, 0),
         (0, 0, Fraction(3, 5), Fraction(1, 5)), (0, 0, 0, Fraction(4, 5))],
        4))
    assert groups[-1].order == 625
    assert sum(g.order > 1 for g in groups) >= 60
    for g in groups:
        members = set(g.elements())
        probes = [tuple(random_entry(rng, 6) for _ in range(g.ambient_rank))
                  for _ in range(6)]
        # members too, shifted off [0, 1) by integer vectors
        probes += [tuple(x + rng.randint(-2, 2) for x in e)
                   for e in rng.sample(sorted(members), min(4, len(members)))]
        for q in probes:
            assert g.contains_phase(q) == (normalize_phase(q) in members)
            assert g.contains_phase(q) == reference_contains(g, q)


@pytest.mark.parametrize("call", [
    lambda: FiniteAbelianGroup.from_phases([(Fraction(1, 2),)], 2),
    lambda: FiniteAbelianGroup((), (), 2).contains_phase((0, 0, 0)),
    lambda: annihilator_lattice([(0, 0), (Fraction(1, 3),)], 2),
])
def test_every_phase_reader_names_a_wrong_length(call):
    with pytest.raises(ValueError, match="^phase vector has wrong length$"):
        call()
