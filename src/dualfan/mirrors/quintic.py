"""End-to-end pipeline for the degree-five family and its quotient.

The total space is the anticanonical bundle over four-dimensional
projective space.  A rank-three group of fifth-root phases acts on the
degree coordinates; its invariant characters cut a sublattice, and the
image fan there, rewritten through the fifth-power sections, is dual to
the original total-space fan.
"""

from fractions import Fraction

from .._value import InternalError
from ..fans import is_dual_pair, projective_space_fan, quotient_fan, relabel_fan
from ..lattice import (
    LatticeMap,
    annihilator_lattice,
    solve_integer,
    solve_integer_matrix,
)
from ..symbols import ParamPoly
from ..toric_lg import (
    AuxiliaryLG,
    Specialization,
    ToricDivisor,
    _ci_family,
    _unit_potential,
    apply_specialization,
    base_change_check,
    line_bundle_fan,
    section_polytope,
)
from .report import MirrorReport

# phases acting on the five degree coordinates; each fixes the product
# and multiplies one coordinate against the last
_PHASES = (
    (0, Fraction(1, 5), 0, 0, Fraction(4, 5)),
    (0, 0, Fraction(1, 5), 0, Fraction(4, 5)),
    (0, 0, 0, Fraction(1, 5), Fraction(4, 5)),
)


def quintic_pipeline() -> MirrorReport:
    """Build and cross-check the mirror pair for the quintic family."""
    base = projective_space_fan(4)
    divisor = ToricDivisor(base, (1,) * 5)
    sigma_x = line_bundle_fan(divisor)
    gamma = _ci_family(sigma_x, [section_polytope(divisor)])

    # degree dictionary: pairing an exponent with the five lifted rays
    # gives the exponents of the corresponding degree-five monomial
    dictionary = LatticeMap.from_rows(list(sigma_x.rays[:5]))
    degrees_ok = all(
        all(x >= 0 for x in d) and sum(d) == 5
        for d in (dictionary @ e for e in gamma.exponents))

    powers = []
    for i in range(5):
        x = solve_integer(dictionary, [5 * int(j == i) for j in range(5)])
        if x is None:
            raise InternalError("a pure fifth power is not a section")
        powers.append(tuple(x))
    product = solve_integer(dictionary, [1] * 5)
    if product is None:
        raise InternalError("the product monomial is not a section")
    product = tuple(product)

    # characters invariant under all three phases, pulled through the
    # dictionary, form a finite-index sublattice
    pulled = [tuple(dictionary.transpose() @ g) for g in _PHASES]
    invariants = annihilator_lattice(pulled, 5)
    quotiented, (free_rank, deck) = quotient_fan(sigma_x, invariants.transpose())

    # rewrite the sublattice through the fifth-power sections: the map
    # sending the i-th coordinate to the i-th power monomial relative to
    # the product must be an integral change of basis
    identification = LatticeMap.from_cols(
        [tuple(a - b for a, b in zip(powers[i], product)) for i in range(4)]
        + [product])
    placement_t = solve_integer_matrix(invariants, identification.transpose())
    if placement_t is None:
        raise InternalError("the power monomials are not invariant")
    # `relabel_fan` raises unless the rewrite is unimodular
    sigma_x_prime = relabel_fan(quotiented, placement_t.transpose())

    marker_set = set(sigma_x_prime.marked_generators)
    invariant_exponents = {
        e for e in gamma.exponents
        if all(sum(h * x for h, x in zip(hj, e)).denominator == 1
               for hj in pulled)}

    duality = is_dual_pair(sigma_x, sigma_x_prime)
    gamma_prime = AuxiliaryLG(sigma_x_prime, sigma_x.marked_generators)
    to_gamma = base_change_check(gamma, sigma_x_prime)
    to_gamma_prime = base_change_check(gamma_prime, sigma_x)

    # one-parameter slice: the five pure powers with unit coefficient,
    # the product against -5 psi, everything else off
    assignments = {e: 0 for e in gamma.exponents}
    for x in powers:
        assignments[x] = ParamPoly.constant(1)
    assignments[product] = ParamPoly.parameter("psi", coeff=-5)
    w_fermat = apply_specialization(gamma, Specialization(assignments))
    w_prime = _unit_potential(gamma_prime)

    checks = [
        ("monomial_dictionary", degrees_ok),
        ("finite_quotient", free_rank == 0),
        ("deck_group_factors", deck.invariant_factors == (5, 5, 5)),
        ("markers_are_power_monomials",
         marker_set == set(powers) | {product}),
        ("invariant_sections_match_markers",
         invariant_exponents == marker_set),
        ("coefficient_ring_isomorphic", to_gamma_prime.is_isomorphism),
    ]
    counts = [
        ("rank", 5),
        ("xi_count", len(gamma.exponents)),
        ("xi_prime_count", len(gamma_prime.exponents)),
        ("surviving_coefficients", len(to_gamma.surviving)),
        ("dropped_coefficients",
         len(gamma.exponents) - len(to_gamma.surviving)),
        ("deck_group_order", deck.order),
    ]
    notes = (
        "markers on the quotient side are the five fifth-power sections "
        "and the coordinate product",
    )
    return MirrorReport(sigma_x, sigma_x_prime, duality,
                        to_gamma=to_gamma, to_gamma_prime=to_gamma_prime,
                        checks=checks, counts=counts,
                        potentials=[("w_fermat", w_fermat),
                                    ("w_prime", w_prime)],
                        notes=notes)
