"""Mirror pairs from invertible exponent matrices with a symmetry choice.

The input is a square nonnegative integer matrix P with det P != 0
(columns are the exponents of the defining monomials) together with a
finite group Q of diagonal phase symmetries.  Invariant characters form
a finite-index sublattice M of Z^(n+1); both fans are orthant images,
one through the chosen basis of M, one through the matrix that writes
the monomial exponents in that basis.
"""

from math import gcd

from .._value import InternalError, Value
from ..fans import orthant_fan, quotient_fan
from ..groups import FiniteAbelianGroup
from ..lattice import (
    LatticeMap,
    _adjugate,
    _dot,
    column_lattice_basis,
    solve_integer_matrix,
)
from ..toric_lg import AuxiliaryLG, _unit_potential, base_change_check
from .report import MirrorReport, built_duality


def _as_matrix(p):
    """(P, det P, adj P) for a checked exponent matrix P, one elimination."""
    if not isinstance(p, LatticeMap):
        p = LatticeMap([tuple(row) for row in p])
    if p.rows != p.cols or p.rows == 0:
        raise ValueError("exponent matrix must be square and nonempty")
    if any(x < 0 for row in p.entries for x in row):
        raise ValueError("exponent matrix entries must be nonnegative")
    det, adj = _adjugate(p.entries)
    if adj is None:
        raise ValueError("exponent matrix must be invertible")
    return p, det, adj


def phase_symmetries(p) -> FiniteAbelianGroup:
    """All diagonal phase symmetries fixing every monomial of P.

    A phase vector q acts on the j-th monomial by the fractional part of
    the j-th entry of P^t q, so the full group is generated by the rows
    of the inverse of P.
    """
    p, det, adj = _as_matrix(p)
    return _phase_group(det, adj, p.rows)


def _phase_group(det, vectors, n):
    # the group of the phases v / det, such as the rows (the symmetries of
    # P) or columns (of Pᵀ) of adj P; ell = |det| / gcd(det, every entry)
    vectors = [tuple(v) for v in vectors]
    g = gcd(det, *(x for v in vectors for x in v)) * (1 if det > 0 else -1)
    return FiniteAbelianGroup._from_scaled(
        det // g, [tuple(x // g for x in v) for v in vectors], n)


def _dual_data(p, q_gens):
    """(P, A, X, Q, Q_dual, criterion, det P) with A a basis of the
    Q-invariant characters, X the exponents of P in that basis, A @ X == P,
    and the criterion from the symmetry groups of P and Pᵀ."""
    p, det, adj = _as_matrix(p)
    n = p.rows
    gens = tuple(q_gens)
    q_group = FiniteAbelianGroup.from_phases(gens, n)
    symmetries = _phase_group(det, adj, n)
    if not q_group.is_subgroup_of(symmetries):
        raise ValueError("Q is not a subgroup of the symmetry group of P")
    # the invariant characters are generated by the rows of ell·B⁻¹ for
    # Q's lattice (`annihilator_lattice`), which the group already keeps
    a = column_lattice_basis(q_group._lattice_of_lifts[2].entries, n)
    x = solve_integer_matrix(a, p)
    # solvable whenever Q fixes the monomials, which was just checked
    if x is None:
        raise InternalError("the exponents of P are not Q-invariant")
    # det A · det X = det P, so X is nonsingular
    det_x, adj_x = _adjugate(x.entries)
    q_dual = _phase_group(det_x, zip(*adj_x), n)
    crit = _criterion(q_group, q_dual, symmetries,
                      _phase_group(det, zip(*adj), n))
    return p, a, x, q_group, q_dual, crit, det


def krawitz_dual_group(p, q_gens) -> FiniteAbelianGroup:
    """The dual symmetry group attached to (P, Q).

    Writing the invariant characters through a basis A with A X = P, the
    dual group is generated by the columns of the inverse of X, read as
    phases for the transposed matrix.
    """
    return _dual_data(p, q_gens)[4]


class BhkCriterionReport(Value):
    """Both groups of a dual pair with the mirror-symmetry comparison.

    `symmetry_group` is the full group of diagonal phase symmetries of
    P.  `holds` records that Q and the quotient on the transposed side
    are isomorphic, and symmetrically for the dual group.
    """

    __slots__ = ("symmetry_group", "q_group", "q_dual_group",
                 "quotient_factors", "dual_quotient_factors", "holds")

    def __init__(self, symmetry_group, q_group, q_dual_group,
                 quotient_factors, dual_quotient_factors):
        object.__setattr__(self, "symmetry_group", symmetry_group)
        object.__setattr__(self, "q_group", q_group)
        object.__setattr__(self, "q_dual_group", q_dual_group)
        object.__setattr__(self, "quotient_factors", tuple(quotient_factors))
        object.__setattr__(self, "dual_quotient_factors",
                           tuple(dual_quotient_factors))
        holds = (q_group.invariant_factors == self.dual_quotient_factors
                 and q_dual_group.invariant_factors == self.quotient_factors)
        object.__setattr__(self, "holds", holds)

    def __repr__(self):
        return (f"BhkCriterionReport(q={self.q_group.invariant_factors}, "
                f"q_dual={self.q_dual_group.invariant_factors}, "
                f"holds={self.holds})")


def verify_bhk_criterion(p, q_gens) -> BhkCriterionReport:
    """Check Q against the quotient of the transposed symmetries and
    the dual group against the quotient of the original ones."""
    return _dual_data(p, q_gens)[5]


def _criterion(q_group, q_dual, symmetries, dual_symmetries):
    return BhkCriterionReport(
        symmetries, q_group, q_dual, symmetries.quotient_factors(q_group),
        dual_symmetries.quotient_factors(q_dual))


def bhk_pair(p, q_gens=()) -> MirrorReport:
    """Build the mirror pair of marked quotient fans for (P, Q).

    The fan on the potential side is the orthant image through the
    transpose of the invariant basis A; the dual fan is the orthant
    image through X where A X = P.  Markers on either side are exactly
    the potential exponents of the other, and they pair to the entries
    of P.
    """
    p, a, x, q_group, q_dual, crit, det = _dual_data(p, q_gens)
    n = p.rows
    orthant = orthant_fan(n)

    sigma, (free_rank, torsion) = quotient_fan(orthant, a.transpose())
    sigma_prime, (free_rank_p, torsion_p) = quotient_fan(orthant, x)
    checks = [
        ("finite_quotients", free_rank == 0 and free_rank_p == 0),
        ("quotient_group_matches_q", torsion == q_group),
        ("dual_quotient_group_matches_dual_q", torsion_p == q_dual),
    ]

    # markers pair to the exponent matrix itself
    pairing_ok = all(
        _dot(sigma.marked_generators[i], sigma_prime.marked_generators[j])
        == p.entries[i][j] for i in range(n) for j in range(n))
    checks.append(("markers_pair_to_exponents", pairing_ok))

    det = abs(det)
    checks.append(("group_duality", crit.holds))
    checks.append(("order_law", q_group.order * q_dual.order == det))

    duality = built_duality(sigma, sigma_prime)
    # each orthant ray keeps one marker, the column of its map
    gamma = AuxiliaryLG(sigma, sigma_prime.marked_generators)
    gamma_prime = AuxiliaryLG(sigma_prime, sigma.marked_generators)
    to_gamma = base_change_check(gamma, sigma_prime)
    to_gamma_prime = base_change_check(gamma_prime, sigma)
    checks.append(("coefficient_rings_isomorphic",
                   to_gamma.is_isomorphism and to_gamma_prime.is_isomorphism))

    potentials = [("w", _unit_potential(gamma)),
                  ("w_prime", _unit_potential(gamma_prime))]

    counts = [
        ("rank", n),
        ("xi_count", len(gamma.exponents)),
        ("xi_prime_count", len(gamma_prime.exponents)),
        ("q_order", q_group.order),
        ("q_dual_order", q_dual.order),
        ("determinant", det),
    ]
    notes = (
        "dual fan is the orthant image under the transposed factor: "
        "its markers are columns of X with A X = P, so the marker "
        "pairing reproduces P entrywise",
    )

    return MirrorReport(sigma, sigma_prime, duality,
                        to_gamma=to_gamma, to_gamma_prime=to_gamma_prime,
                        checks=checks, counts=counts, potentials=potentials,
                        notes=notes, criterion=crit)
