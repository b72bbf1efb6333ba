"""End-to-end pipeline for the Fermat family of degree d = n + 1 and its
quotient.

The total space is the anticanonical bundle over n-dimensional
projective space.  A rank-(n - 1) group of d-th-root phases acts on the
degree coordinates; its invariant characters cut a sublattice, and the
image fan there, rewritten through the d-th-power sections, is dual to
the original total-space fan.  The quintic is the case n = 4.
"""

from fractions import Fraction
from math import comb

from .._value import InternalError
from ..fans import _covers, projective_space_fan, quotient_fan, relabel_fan
from ..lattice import (LatticeMap, _dot, _pairings, _unit_vector,
                       annihilator_lattice, solve_integer_matrix)
from ..symbols import ParamPoly, Potential
from ..toric_lg import (AuxiliaryLG, ToricDivisor, _unit_potential,
                        auxiliary_lg_from_ci, base_change_check)
from .report import MirrorReport, built_duality

# the degree d in words for the note, as (cardinal, ordinal); digits from
# ten on, where "th" holds up to d = 20, past any degree whose C(2n+1, n)
# sections the pipeline can list
_DEGREE_WORDS = dict(enumerate(zip(
    "two three four five six seven eight nine".split(),
    "second third fourth fifth sixth seventh eighth ninth".split()), 2))


def fermat_pipeline(n) -> MirrorReport:
    """Build and cross-check the mirror pair for the degree-(n + 1)
    Fermat hypersurface in P^n, n ≥ 1."""
    d = n + 1
    divisor = ToricDivisor(projective_space_fan(n), (1,) * d)
    gamma, _ = auxiliary_lg_from_ci((divisor,))
    sigma_x = gamma.fan

    # degree dictionary: pairing an exponent with the d lifted rays gives
    # the degree vector g = D·e of the corresponding degree-d monomial,
    # one column pass over the family per ray
    dictionary = LatticeMap.from_rows(list(sigma_x.rays[:d]))
    degrees = list(zip(*_pairings(dictionary.entries, gamma.exponents)))
    # D is invertible and the exponents are distinct, so the degree
    # vectors are distinct: they are all C(2n + 1, n) degree-d monomials
    # in d variables, each once, iff there are that many and each is one
    degrees_ok = len(degrees) == comb(2 * n + 1, n) and all(
        min(g) >= 0 and sum(g) == d for g in degrees)

    # the d pure powers and the product, from one elimination of D
    solved = solve_integer_matrix(dictionary, LatticeMap.from_rows(
        [tuple(d * x for x in _unit_vector(i, d)) + (1,) for i in range(d)]))
    if solved is None:
        raise InternalError("a pure power or the product is not a section")
    *powers, product = solved.columns()

    # one phase per middle coordinate, 1/d there and n/d on the last,
    # kept as d·phase; the characters invariant under all of them, pulled
    # through the dictionary, form a finite-index sublattice
    scaled = [_unit_vector(i, n) + (n,) for i in range(1, n)]
    pulled = [tuple(Fraction(x, d) for x in dictionary.transpose() @ s)
              for s in scaled]
    invariants = annihilator_lattice(pulled, d)
    quotiented, (free_rank, deck) = quotient_fan(sigma_x, invariants.transpose())

    # rewrite the sublattice through the d-th-power sections: the map
    # sending the i-th coordinate to the i-th power monomial relative to
    # the product must be an integral change of basis
    identification = LatticeMap.from_cols(
        [tuple(a - b for a, b in zip(powers[i], product)) for i in range(n)]
        + [product])
    placement_t = solve_integer_matrix(invariants, identification.transpose())
    if placement_t is None:
        raise InternalError("the power monomials are not invariant")
    # `relabel_fan` raises unless the rewrite is unimodular
    sigma_x_prime = relabel_fan(quotiented, placement_t.transpose())
    # no pairing check sees a missing cone, but the wall census does: σ_X′
    # must cover the dual of σ_X's support, the cone over the lifted rays
    if not _covers(sigma_x_prime, sigma_x.rays[:d]):
        raise InternalError("the quotient fan does not cover the dual support")

    # e is invariant iff ⟨phase, D·e⟩ is integral for every phase
    marker_set = set(sigma_x_prime.marked_generators)
    invariant_exponents = {
        e for e, g in zip(gamma.exponents, degrees)
        if all(_dot(s, g) % d == 0 for s in scaled)}

    duality = built_duality(sigma_x, sigma_x_prime)
    gamma_prime = AuxiliaryLG(sigma_x_prime, sigma_x.marked_generators)
    to_gamma = base_change_check(gamma, sigma_x_prime)
    to_gamma_prime = base_change_check(gamma_prime, sigma_x)

    # one-parameter slice: the d pure powers with unit coefficient, the
    # product against -d psi, everything else off
    w_fermat = Potential([(x, 1) for x in powers]
                         + [(product, ParamPoly.parameter("psi", coeff=-d))])
    w_prime = _unit_potential(gamma_prime)

    checks = [
        ("monomial_dictionary", degrees_ok),
        ("finite_quotient", free_rank == 0),
        ("deck_group_factors", deck.invariant_factors == (d,) * (n - 1)),
        ("markers_are_power_monomials",
         marker_set == set(powers) | {product}),
        ("invariant_sections_match_markers",
         invariant_exponents == marker_set),
        ("coefficient_ring_isomorphic", to_gamma_prime.is_isomorphism),
    ]
    counts = [
        ("rank", d),
        ("xi_count", len(gamma.exponents)),
        ("xi_prime_count", len(gamma_prime.exponents)),
        ("surviving_coefficients", len(to_gamma.surviving)),
        ("dropped_coefficients",
         len(gamma.exponents) - len(to_gamma.surviving)),
        ("deck_group_order", deck.order),
    ]
    many, power = _DEGREE_WORDS.get(d, (str(d), f"{d}th"))
    notes = (
        f"markers on the quotient side are the {many} {power}-power sections "
        "and the coordinate product",
    )
    return MirrorReport(sigma_x, sigma_x_prime, duality,
                        to_gamma=to_gamma, to_gamma_prime=to_gamma_prime,
                        checks=checks, counts=counts,
                        potentials=[("w_fermat", w_fermat),
                                    ("w_prime", w_prime)],
                        notes=notes)


def quintic_pipeline() -> MirrorReport:
    """Build and cross-check the mirror pair for the quintic family."""
    return fermat_pipeline(4)
