"""Exponent-matrix mirror pairs and their symmetry groups."""

from fractions import Fraction

import pytest

from dualfan.fans import orthant_fan, relabel_fan
from dualfan.groups import FiniteAbelianGroup, normalize_phase
from dualfan.lattice import (
    LatticeMap,
    annihilator_lattice,
    int_inverse,
    solve_integer_matrix,
)
from dualfan.mirrors import (
    bhk_pair,
    fermat_pipeline,
    krawitz_dual_group,
    phase_symmetries,
    verify_bhk_criterion,
)

FERMAT3 = ((3, 0, 0), (0, 3, 0), (0, 0, 3))
TWO_PT = ((2, 1), (1, 2))
LOOP4 = ((2, 0, 0, 1), (1, 2, 0, 0), (0, 1, 2, 0), (0, 0, 1, 2))
THIRD = (Fraction(1, 3),) * 3


def loop_order_five():
    # the full loop symmetry group is cyclic of order 15; tripling its
    # generator leaves the order-five part
    g = phase_symmetries(LOOP4).lifts[0]
    return normalize_phase(tuple(3 * x for x in g))


def test_phase_symmetries_fermat():
    s = phase_symmetries(FERMAT3)
    assert s.invariant_factors == (3, 3, 3)
    assert s.order == 27


def test_phase_symmetries_two_point():
    s = phase_symmetries(TWO_PT)
    assert s.invariant_factors == (3,)
    assert s.contains_phase((Fraction(2, 3), Fraction(2, 3)))


def test_phase_symmetries_loop_is_cyclic():
    s = phase_symmetries(LOOP4)
    assert s.invariant_factors == (15,)


def test_phase_symmetries_input_validation():
    with pytest.raises(ValueError, match="invertible"):
        phase_symmetries([(1, 1), (1, 1)])
    with pytest.raises(ValueError, match="nonnegative"):
        phase_symmetries([(1, -1), (0, 1)])
    with pytest.raises(ValueError, match="square"):
        phase_symmetries([(1, 0, 0), (0, 1, 0)])


def test_krawitz_dual_of_diagonal_subgroup():
    dual = krawitz_dual_group(FERMAT3, [THIRD])
    assert dual.invariant_factors == (3, 3)
    expected = FiniteAbelianGroup.from_phases(
        [(Fraction(1, 3), 0, Fraction(2, 3)),
         (0, Fraction(1, 3), Fraction(2, 3))], 3)
    assert dual == expected


def test_krawitz_dual_of_trivial_is_full():
    for p in (FERMAT3, TWO_PT, LOOP4):
        pt = LatticeMap(list(p)).transpose().entries
        assert krawitz_dual_group(p, []) == phase_symmetries(pt)


def test_krawitz_dual_of_full_is_trivial():
    for p in (FERMAT3, TWO_PT, LOOP4):
        full = phase_symmetries(p)
        assert krawitz_dual_group(p, full.lifts).invariant_factors == ()


def test_dual_group_order_law():
    cases = [
        (FERMAT3, [THIRD]),
        (FERMAT3, []),
        (TWO_PT, []),
        (LOOP4, [loop_order_five()]),
    ]
    for p, q in cases:
        group = FiniteAbelianGroup.from_phases(q, len(p))
        dual = krawitz_dual_group(p, q)
        assert group.order * dual.order == abs(LatticeMap(list(p)).det())


def test_q_outside_symmetries_is_rejected():
    with pytest.raises(ValueError, match="not a subgroup"):
        krawitz_dual_group(LOOP4, [(Fraction(1, 2), 0, 0, 0)])
    with pytest.raises(ValueError, match="not a subgroup"):
        bhk_pair(FERMAT3, [(Fraction(1, 2), 0, 0)])


@pytest.mark.parametrize("p,q_gens", [
    (FERMAT3, []),
    (FERMAT3, [THIRD]),
    (TWO_PT, []),
    (LOOP4, []),
    (LOOP4, [loop_order_five()]),
])
def test_criterion_holds(p, q_gens):
    crit = verify_bhk_criterion(p, q_gens)
    assert crit.holds
    assert crit.q_group.invariant_factors == crit.dual_quotient_factors
    assert crit.q_dual_group.invariant_factors == crit.quotient_factors


def test_criterion_report_fermat_diagonal():
    crit = verify_bhk_criterion(FERMAT3, [THIRD])
    assert crit.q_group.invariant_factors == (3,)
    assert crit.q_dual_group.invariant_factors == (3, 3)
    assert crit.quotient_factors == (3, 3)
    assert crit.dual_quotient_factors == (3,)


def test_pair_fermat_diagonal_report():
    rep = bhk_pair(FERMAT3, [THIRD])
    assert rep.passed
    assert rep.duality.verdict
    assert rep.sigma_x.marked_generators == ((1, 0, 0), (0, 1, 0), (2, 2, 3))
    assert rep.sigma_x_prime.marked_generators == (
        (3, 0, -2), (0, 3, -2), (0, 0, 1))
    assert rep.count("determinant") == 27
    assert rep.count("q_order") == 3
    assert rep.count("q_dual_order") == 9
    assert rep.check("quotient_group_matches_q")
    assert rep.check("dual_quotient_group_matches_dual_q")


def test_pair_carries_the_criterion_report():
    for p, q in [(FERMAT3, [THIRD]), (TWO_PT, []), (LOOP4, [loop_order_five()])]:
        crit = bhk_pair(p, q).criterion
        expected = verify_bhk_criterion(p, q)
        assert crit.holds == expected.holds
        assert crit.quotient_factors == expected.quotient_factors
        assert crit.dual_quotient_factors == expected.dual_quotient_factors
        assert crit.q_group == expected.q_group
        assert crit.q_dual_group == expected.q_dual_group


def test_pair_markers_pair_to_exponents():
    for p, q in [(FERMAT3, [THIRD]), (TWO_PT, []), (LOOP4, [loop_order_five()])]:
        rep = bhk_pair(p, q)
        n = len(p)
        for i in range(n):
            for j in range(n):
                mi = rep.sigma_x.marked_generators[i]
                mj = rep.sigma_x_prime.marked_generators[j]
                assert sum(a * b for a, b in zip(mi, mj)) == p[i][j]


def test_pair_identity_matrix_is_self_mirror():
    rep = bhk_pair(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert rep.passed
    assert rep.sigma_x == orthant_fan(3)
    assert rep.sigma_x_prime == orthant_fan(3)
    assert rep.potential("w") == rep.potential("w_prime")


def test_pair_two_point_trivial_group():
    rep = bhk_pair(TWO_PT)
    assert rep.passed
    assert rep.sigma_x == orthant_fan(2)
    assert rep.sigma_x_prime.rays == ((2, 1), (1, 2))
    assert rep.to_gamma.is_isomorphism and rep.to_gamma_prime.is_isomorphism


def test_pair_potential_supports_are_the_markers():
    rep = bhk_pair(LOOP4, [loop_order_five()])
    assert set(rep.potential("w").support) == set(
        rep.sigma_x_prime.marked_generators)
    assert set(rep.potential("w_prime").support) == set(
        rep.sigma_x.marked_generators)


def _involution_identification(p, q_gens):
    """The change of basis carrying one run's dual side to the
    transposed run's potential side, and its inverse transpose back."""
    pm = LatticeMap(list(p))
    a = annihilator_lattice(q_gens, pm.rows)
    x = solve_integer_matrix(a, pm)
    dual = krawitz_dual_group(p, q_gens)
    a2 = annihilator_lattice(dual.lifts, pm.rows)
    t = solve_integer_matrix(x.transpose(), a2).transpose()
    return t, int_inverse(t).transpose()


@pytest.mark.parametrize("p,q_gens", [
    (FERMAT3, [THIRD]),
    (FERMAT3, []),
    (TWO_PT, []),
    (LOOP4, [loop_order_five()]),
])
def test_transposed_run_is_the_same_pair_up_to_basis(p, q_gens):
    run1 = bhk_pair(p, q_gens)
    dual = krawitz_dual_group(p, q_gens)
    run2 = bhk_pair(LatticeMap(list(p)).transpose().entries, dual.lifts)
    assert run2.passed
    t, t_back = _involution_identification(p, q_gens)
    assert relabel_fan(run1.sigma_x_prime, t) == run2.sigma_x
    assert relabel_fan(run1.sigma_x, t_back) == run2.sigma_x_prime


def test_transposed_run_needs_the_identification():
    # the two runs present the same pair in different bases, so literal
    # equality of the fans fails even though the pairs agree
    run1 = bhk_pair(FERMAT3, [THIRD])
    dual = krawitz_dual_group(FERMAT3, [THIRD])
    run2 = bhk_pair(FERMAT3, dual.lifts)  # the matrix is symmetric
    assert run1.sigma_x_prime != run2.sigma_x


def test_report_notes_mention_the_transpose_convention():
    rep = bhk_pair(FERMAT3, [THIRD])
    assert any("transpose" in note for note in rep.notes)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fermat_matrix_with_the_deck_phases_matches_the_fermat_pipeline(n):
    # (n+1)·I with the deck phases of the degree-(n+1) hypersurface in
    # P^n: 1/d at each middle coordinate and n/d on the last
    d = n + 1
    p = [[d * int(i == j) for j in range(d)] for i in range(d)]
    phases = [tuple(Fraction(1, d) if j == i else Fraction(n, d) if j == n
                    else 0 for j in range(d)) for i in range(1, n)]
    rep = bhk_pair(p, phases)
    assert rep.passed
    fermat = fermat_pipeline(n)
    assert fermat.check("deck_group_factors")
    assert rep.criterion.q_group.invariant_factors == (d,) * (n - 1)
    assert rep.count("q_order") == fermat.count("deck_group_order")
    assert rep.criterion.q_dual_group.invariant_factors == (d, d)
    assert rep.count("q_order") * rep.count("q_dual_order") == d ** d
