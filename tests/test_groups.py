"""Tests for finite abelian groups presented by phases."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfan.groups import FiniteAbelianGroup, normalize_phase
from dualfan.lattice import LatticeMap, annihilator_lattice, cokernel

F = Fraction

FIFTH_PHASES = [
    (F(0), F(1, 5), F(0), F(0), F(4, 5)),
    (F(0), F(0), F(1, 5), F(0), F(4, 5)),
    (F(0), F(0), F(0), F(1, 5), F(4, 5)),
]


def test_normalize_phase():
    assert normalize_phase((F(-1, 3), F(7, 3), 2)) == (F(2, 3), F(1, 3), F(0))


def test_constructor_rejects_bad_factor_lists():
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2), ((F(0),), (F(1, 2),)), 1)
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2), ((F(1, 4),), (F(1, 2),)), 1)
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2,), (), 1)


def test_trivial_group():
    t = FiniteAbelianGroup((), (), 3)
    assert t.invariant_factors == ()
    assert t.order == 1
    assert t.elements() == [(F(0), F(0), F(0))]
    assert t == FiniteAbelianGroup.from_phases([], 3)
    assert FiniteAbelianGroup.from_phases([(0, 0, 0)], 3).invariant_factors == ()


def test_phase_questions_on_a_cokernel_group_raise():
    # a cokernel keeps integer lifts, which are zero as phases: each
    # question once answered as if the group of order 6 were trivial
    _, t = cokernel(LatticeMap([[2, 0], [0, 3]]))
    assert t.order == 6
    g = FiniteAbelianGroup.from_phases([(F(1, 2), 0), (0, F(1, 3))], 2)
    for call in (t.elements, lambda: t.is_subgroup_of(g),
                 lambda: g.quotient_factors(t)):
        with pytest.raises(ValueError, match="not phases"):
            call()


def test_phase_questions_on_lifts_of_another_order_raise():
    # the lift 1/2 has order 2, not the invariant factor 4: each question
    # once answered for the group of order 2 it generates
    g = FiniteAbelianGroup((4,), ((F(1, 2),),), 1)
    assert g.order == 4
    h = FiniteAbelianGroup.from_phases([(F(1, 2),)], 1)
    for call in (g.elements, lambda: g.is_subgroup_of(h),
                 lambda: h.is_subgroup_of(g), lambda: h.quotient_factors(g),
                 lambda: g.contains_phase((F(1, 2),))):
        with pytest.raises(ValueError, match="another order"):
            call()
    # a presentation whose order is right answers as before
    right = FiniteAbelianGroup((4,), ((F(1, 4),),), 1)
    assert right.is_subgroup_of(FiniteAbelianGroup.from_phases(
        [(F(1, 4),)], 1)) and right.quotient_factors(h) == (2,)


def test_from_phases_fifth_roots():
    g = FiniteAbelianGroup.from_phases(FIFTH_PHASES, 5)
    assert g.invariant_factors == (5, 5, 5)
    assert g.order == 125
    assert g.invariant_factors[-1] == 5
    for q in FIFTH_PHASES:
        assert g.contains_phase(q)
    # first coordinate vanishes on the whole subgroup
    assert not g.contains_phase((F(1, 5), 0, 0, 0, 0))
    els = g.elements()
    assert len(els) == 125
    assert len(set(els)) == 125
    assert all(q[0] == 0 for q in els)


def test_from_phases_is_canonical():
    g = FiniteAbelianGroup.from_phases(FIFTH_PHASES, 5)
    for _ in range(5):
        shuffled = list(FIFTH_PHASES)
        random.Random(_).shuffle(shuffled)
        # redundant generators must not change the presentation either
        extra = tuple((2 * a) % 1 for a in shuffled[0])
        assert FiniteAbelianGroup.from_phases(shuffled + [extra], 5) == g


def test_generator_lift_orders():
    g = FiniteAbelianGroup.from_phases(
        [(F(1, 2), F(0)), (F(0), F(1, 4))], 2
    )
    assert g.invariant_factors == (2, 4)
    for d, lift in zip(g.invariant_factors, g.lifts):
        assert all((d * x) % 1 == 0 for x in lift)
        for k in range(1, d):
            assert any((k * x) % 1 != 0 for x in lift)


def test_isomorphism_is_by_invariant_factors():
    a = FiniteAbelianGroup.from_phases([(F(1, 2), 0), (0, F(1, 4))], 2)
    b = FiniteAbelianGroup.from_phases([(0, F(1, 4)), (F(1, 2), 0)], 2)
    c = FiniteAbelianGroup.from_phases([(F(1, 8),)], 1)
    assert a.invariant_factors == b.invariant_factors
    assert a.order == c.order == 8
    # same order, different invariant factors: not isomorphic
    assert a.invariant_factors != c.invariant_factors


def test_quotient_factors():
    big = FiniteAbelianGroup.from_phases([(F(1, 4), 0), (0, F(1, 2))], 2)
    sub = FiniteAbelianGroup.from_phases([(F(1, 2), 0)], 2)
    assert sub.is_subgroup_of(big)
    assert not big.is_subgroup_of(sub)
    assert big.quotient_factors(sub) == (2, 2)
    assert big.quotient_factors(big) == ()
    with pytest.raises(ValueError):
        sub.quotient_factors(big)


def test_elements_closed_under_addition():
    g = FiniteAbelianGroup.from_phases([(F(1, 3), F(2, 3)), (F(1, 2), 0)], 2)
    els = set(g.elements())
    assert len(els) == g.order
    for a in els:
        for b in els:
            s = tuple((x + y) % 1 for x, y in zip(a, b))
            assert s in els
        assert g.contains_phase(a)


@st.composite
def phase_sets(draw):
    # sixths: enough to mix 2- and 3-torsion while keeping groups small
    rank = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    qs = [
        tuple(F(draw(st.integers(0, 5)), 6) for _ in range(rank))
        for _ in range(n)
    ]
    return rank, qs


@given(phase_sets())
@settings(max_examples=60, deadline=None)
def test_group_order_matches_annihilator_index(data):
    rank, phases = data
    g = FiniteAbelianGroup.from_phases(phases, rank)
    a = annihilator_lattice(phases, rank)
    assert g.order == abs(a.det())
    # every element the presentation generates is recognised as a member
    acc = tuple(F(0) for _ in range(rank))
    for q in phases:
        acc = tuple((x + y) % 1 for x, y in zip(acc, q))
        assert g.contains_phase(acc)


@given(phase_sets())
@settings(max_examples=40, deadline=None)
def test_membership_agrees_with_brute_force(data):
    rank, phases = data
    g = FiniteAbelianGroup.from_phases(phases, rank)
    group = {tuple(F(0) for _ in range(rank))}
    frontier = list(group)
    while frontier:
        cur = frontier.pop()
        for q in phases:
            nxt = tuple((a + F(b)) % 1 for a, b in zip(cur, q))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    assert g.order == len(group)
    assert set(g.elements()) == group
