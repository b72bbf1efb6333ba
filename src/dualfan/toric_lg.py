"""Toric Landau-Ginzburg models: divisors, bundle fans, potential families.

A model couples a toric variety, given by a fan, with a family of
potentials whose monomials are characters of the dense torus.  The
family is stored by its exponent set together with one formal
coefficient per exponent; concrete potentials arise by specializing
those coefficients.  Everything here is exact: divisor data is integer,
characters are lattice vectors, and all certificates (Cartier
characters, base-change witnesses) are returned rather than asserted.
"""

from __future__ import annotations

from itertools import chain, combinations

from ._value import Value
from .fans import Fan, _negative_pairing, is_complete, relabel_fan
from .lattice import (LatticeMap, _dot, _integer, _lattice_vector,
                      _unit_vector, int_inverse, snf, solve_integer)
from .polyhedra import Polytope, _primitive
from .symbols import ParamPoly, Potential


class ToricDivisor(Value):
    """Torus-invariant divisor: one integer coefficient per ray."""

    __slots__ = ("fan", "coeffs")

    def __init__(self, fan, coeffs):
        coeffs = _lattice_vector(coeffs, "divisor coefficient vector")
        if len(coeffs) != len(fan.rays):
            raise ValueError("one coefficient per ray")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "coeffs", coeffs)

    def _key(self):
        return self.fan, self.coeffs

    def __repr__(self):
        return f"ToricDivisor(coeffs={list(self.coeffs)!r})"


class CartierData(Value):
    """Local principality certificate: one character per maximal cone.

    `cone_characters[i]` pairs with `fan.max_cones[i]` and evaluates to
    the divisor coefficient on every ray of that cone, which is checked
    at construction.
    """

    __slots__ = ("divisor", "cone_characters")

    def __init__(self, divisor, cone_characters):
        chars = tuple(_lattice_vector(m, "character") for m in cone_characters)
        fan = divisor.fan
        if len(chars) != len(fan.max_cones):
            raise ValueError("one character per maximal cone")
        for m, ixs in zip(chars, fan.max_cones):
            for i in ixs:
                if _dot(m, fan.rays[i]) != divisor.coeffs[i]:
                    raise ValueError(
                        f"character {m} does not cut the divisor on ray {fan.rays[i]}"
                    )
        object.__setattr__(self, "divisor", divisor)
        object.__setattr__(self, "cone_characters", chars)

    def __repr__(self):
        return f"CartierData(cone_characters={[list(m) for m in self.cone_characters]!r})"


def is_cartier(divisor: ToricDivisor):
    """CartierData for the divisor, or None when it is not Cartier.

    On each maximal cone the defining character must pair integrally to
    the prescribed coefficients; a rational-only solution means the
    divisor is merely Q-Cartier there and the whole test fails.
    """
    fan = divisor.fan
    chars = []
    for ixs in fan.max_cones:
        rows = LatticeMap.from_rows(
            [fan.rays[i] for i in ixs], ncols=fan.lattice_rank
        )
        m = solve_integer(rows, [divisor.coeffs[i] for i in ixs])
        if m is None:
            return None
        chars.append(m)
    return CartierData(divisor, chars)


def section_polytope(divisor: ToricDivisor) -> Polytope:
    """Characters m with ⟨m, u_ρ⟩ + a_ρ ≥ 0 on every ray.

    Only complete fans give a bounded section space, so anything else is
    rejected instead of returning an unbounded set.
    """
    if not is_complete(divisor.fan):
        raise ValueError("sections undefined: fan is not complete")
    return _sections(divisor)


def _sections(divisor):
    """`section_polytope` of a divisor on a fan known to be complete."""
    return Polytope.from_hrep(
        list(zip(divisor.fan.rays, divisor.coeffs)), divisor.fan.lattice_rank
    )


def split_bundle_fan(divisors) -> Fan:
    """Total-space fan of a direct sum of line bundles.

    Each summand is the bundle whose sections form `section_polytope`
    of the given divisor, so the ray over u_ρ is lifted to
    (u_ρ, a⁽¹⁾_ρ, …, a⁽ᶜ⁾_ρ) and one vertical ray is appended per
    summand.  Every summand must be Cartier; maximal cones are the
    lifted base cones joined with all verticals.
    """
    divisors = tuple(divisors)
    if not divisors:
        raise ValueError("need at least one summand")
    base = divisors[0].fan
    for d in divisors[1:]:
        if d.fan != base:
            raise ValueError("summands live on different fans")
    for i, d in enumerate(divisors):
        if is_cartier(d) is None:
            raise ValueError(f"summand {i} is not Cartier")
    return _total_fan(divisors)


def _total_fan(divisors):
    """`split_bundle_fan` of Cartier summands on one fan."""
    base = divisors[0].fan
    c = len(divisors)
    n = base.lattice_rank
    lifted = [
        tuple(ray) + tuple(d.coeffs[i] for d in divisors)
        for i, ray in enumerate(base.rays)
    ]
    verticals = [_unit_vector(n + a, n + c) for a in range(c)]
    nrays = len(base.rays)
    vertical_ix = tuple(range(nrays, nrays + c))
    cones = [tuple(ixs) + vertical_ix for ixs in base.max_cones]
    return Fan(lifted + verticals, cones, n + c)


def line_bundle_fan(divisor: ToricDivisor) -> Fan:
    """Total-space fan of a single line bundle; see `split_bundle_fan`."""
    return split_bundle_fan((divisor,))


def is_regular_character(fan: Fan, m) -> bool:
    """Whether the character extends over the whole toric variety.

    Regularity means nonnegative pairing on the support of the fan, and
    the support is the union of the cones, so checking the ray
    generators suffices.
    """
    return _negative_pairing(
        fan, [_lattice_vector(m, "character")], "character") is None


class AuxiliaryLG(Value):
    """Potential family on a toric variety with formal coefficients.

    `exponents` lists the characters that may appear in a potential;
    they must be pairwise distinct and regular on the fan.
    """

    __slots__ = ("fan", "exponents")

    def __init__(self, fan, exponents):
        exps = tuple(map(tuple, exponents))
        # one C-level type scan, as in `LatticeMap`; `_lattice_vector` runs
        # per exponent only when it finds a value that is not an exact int
        if not {int}.issuperset(map(type, chain.from_iterable(exps))):
            exps = tuple(_lattice_vector(m, "exponent") for m in exps)
        if len(set(exps)) != len(exps):
            raise ValueError("exponents must be pairwise distinct")
        hit = _negative_pairing(fan, exps, "exponent")
        if hit is not None:
            raise ValueError(f"character {exps[hit[0]]} is not regular: "
                             f"negative pairing on ray {hit[1]}")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "exponents", exps)

    def _key(self):
        return self.fan, self.exponents

    def __repr__(self):
        return f"AuxiliaryLG(exponents={len(self.exponents)}, rank={self.fan.lattice_rank})"


def auxiliary_lg_from_ci(divisors):
    """Family of complete-intersection potentials on a split bundle.

    Sections of the i-th summand contribute the characters
    (m, indicator_i) with m in the i-th section polytope.  Returns the
    family on the total-space fan together with the indices of that
    fan's vertical rays.
    """
    divisors = tuple(divisors)
    total = split_bundle_fan(divisors)
    family = AuxiliaryLG(
        total, _ci_exponents([section_polytope(d) for d in divisors]))
    count = len(total.rays)
    return family, tuple(range(count - len(divisors), count))


def _ci_exponents(sections):
    """The exponents of `auxiliary_lg_from_ci`, from the summands'
    section polytopes."""
    exponents = []
    for i, poly in enumerate(sections):
        indicator = _unit_vector(i, len(sections))
        exponents += [tuple(m) + indicator for m in poly.lattice_points()]
    return exponents


class BaseChangeReport(Value):
    """Outcome of matching a candidate dual fan against a family.

    The coefficient space of the fan's family maps into the coefficient
    space of `base_change_check`'s family by matching marked generators
    with exponents; `witness` is a marked generator with no matching
    exponent when the verdict is negative.  `surviving` lists matched
    exponent indices and `is_isomorphism` says none were left out.
    """

    __slots__ = ("verdict", "witness", "coordinate_map", "surviving", "is_isomorphism")

    def __init__(self, verdict, witness, coordinate_map, surviving, is_isomorphism):
        if is_isomorphism and not verdict:
            raise ValueError("an isomorphism verdict requires a positive verdict")
        object.__setattr__(self, "verdict", bool(verdict))
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "coordinate_map", coordinate_map)
        object.__setattr__(self, "surviving", surviving)
        object.__setattr__(self, "is_isomorphism", bool(is_isomorphism))

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return (
            f"BaseChangeReport(verdict={self.verdict}, witness={self.witness!r}, "
            f"is_isomorphism={self.is_isomorphism})"
        )


def base_change_check(aux: AuxiliaryLG, s_prime: Fan) -> BaseChangeReport:
    """Whether the family of s_prime's markers base-changes into `aux`.

    Every marked generator of `s_prime` must occur among the exponents
    of `aux`; the induced map keeps exactly those coefficients and sets
    the rest to zero.  The report records the exponent index hit by each
    marker and whether the matching is onto.
    """
    if s_prime.lattice_rank != aux.fan.lattice_rank:
        raise ValueError("rank mismatch")
    index = {m: i for i, m in enumerate(aux.exponents)}
    coordinate_map = []
    for marker in s_prime.marked_generators:
        i = index.get(tuple(marker))
        if i is None:
            return BaseChangeReport(False, tuple(marker), None, (), False)
        coordinate_map.append(i)
    surviving = tuple(sorted(coordinate_map))
    return BaseChangeReport(
        True,
        None,
        tuple(coordinate_map),
        surviving,
        len(surviving) == len(aux.exponents),
    )


class Specialization(Value):
    """Assignment of one coefficient value to every exponent of a family.

    Plain values are read as integers, and equal ones share one constant
    `ParamPoly` within a call.
    """

    __slots__ = ("assignments",)

    def __init__(self, assignments):
        if hasattr(assignments, "items"):
            assignments = assignments.items()
        pairs = {}
        constants = {}
        for exponent, value in assignments:
            exponent = _lattice_vector(exponent, "exponent")
            if not isinstance(value, ParamPoly):
                value = _integer(value)
                if value not in constants:
                    constants[value] = ParamPoly.constant(value)
                value = constants[value]
            if exponent in pairs:
                raise ValueError(f"exponent {exponent} assigned twice")
            pairs[exponent] = value
        object.__setattr__(self, "assignments", tuple(sorted(pairs.items())))

    def _key(self):
        return self.assignments

    def __repr__(self):
        return f"Specialization(domain={len(self.assignments)})"


def apply_specialization(aux: AuxiliaryLG, spec: Specialization) -> Potential:
    """Concrete potential from a family and a full coefficient choice.

    The specialization must cover the exponent set exactly: partial or
    surplus assignments are rejected rather than padded with zeros.
    """
    values = dict(spec.assignments)
    if values.keys() != set(aux.exponents):
        raise ValueError("specialization domain does not match the exponent set")
    return Potential((e, values[e]) for e in aux.exponents)


def _unit_potential(aux: AuxiliaryLG) -> Potential:
    """The potential of `aux` with every coefficient equal to 1."""
    one = ParamPoly.constant(1)
    return Potential((e, one) for e in aux.exponents)


class CIData(Value):
    """Recovered split-bundle structure on a fan.

    `transform` is the unimodular relabeling under which the fan equals
    `split_bundle_fan(divisors)`; the chosen candidates become the
    vertical rays, in order.
    """

    __slots__ = ("base_fan", "divisors", "transform")

    def __init__(self, base_fan, divisors, transform):
        object.__setattr__(self, "base_fan", base_fan)
        object.__setattr__(self, "divisors", tuple(divisors))
        object.__setattr__(self, "transform", transform)

    def __repr__(self):
        return (
            f"CIData(base_rank={self.base_fan.lattice_rank}, "
            f"summands={len(self.divisors)})"
        )


def recover_ci_data(f: Fan, candidates=None):
    """Split-bundle structure of a fan, or None when there is none.

    `candidates` picks the rays that should become vertical; omitting it
    searches all subsets, smallest first, which is only allowed on fans
    with at most twelve rays.  Success requires the candidates to extend
    to a lattice basis, to lie in every maximal cone, and the stripped
    fan to be an honest base with Cartier height data that rebuilds the
    input exactly.
    """
    if candidates is None:
        if len(f.rays) > 12:
            raise ValueError(
                "too many rays for exhaustive search: pass explicit candidates"
            )
        for size in range(1, len(f.rays) + 1):
            for combo in combinations(range(len(f.rays)), size):
                found = _recover(f, combo)
                if found is not None:
                    return found
        return None
    index = {r: i for i, r in enumerate(f.rays)}
    picked = []
    for cand in candidates:
        i = index.get(_lattice_vector(cand, "candidate"))
        if i is None:
            raise ValueError(f"candidate {tuple(cand)} is not a ray of the fan")
        picked.append(i)
    if len(set(picked)) != len(picked):
        raise ValueError("candidates must be distinct")
    if not picked:
        raise ValueError("need at least one candidate")
    return _recover(f, tuple(picked))


def _recover(f: Fan, idx):
    c = len(idx)
    base_rank = f.lattice_rank - c
    if base_rank < 1:
        return None  # no proper base left under the candidates
    if not f.max_cones:
        return None
    if any(not set(idx) <= set(ixs) for ixs in f.max_cones):
        return None
    mc = LatticeMap.from_cols([f.rays[i] for i in idx], nrows=f.lattice_rank)
    dec = snf(mc)
    if dec.rank < c or dec.invariant_factors != ():
        return None  # candidates do not extend to a lattice basis
    units = [_unit_vector(base_rank + k, f.lattice_rank) for k in range(c)]
    if all(f.rays[i] == u for i, u in zip(idx, units)):
        transform = LatticeMap.identity(f.lattice_rank)
    else:
        u_inv = int_inverse(dec.U)
        basis = LatticeMap.from_cols(
            [u_inv.col(j) for j in range(c, f.lattice_rank)]
            + [f.rays[i] for i in idx],
            nrows=f.lattice_rank,
        )
        transform = int_inverse(basis)
    relabeled = relabel_fan(f, transform)
    base_rays = []
    heights = []
    positions = {}
    for pos, ray in enumerate(relabeled.rays):
        if pos in idx:
            continue
        u = ray[:base_rank]
        if not any(u) or _primitive(u) != u or u in positions:
            return None
        positions[u] = len(base_rays)
        base_rays.append(u)
        heights.append(ray[base_rank:])
    remap = {
        pos: positions[relabeled.rays[pos][:base_rank]]
        for pos in range(len(f.rays))
        if pos not in idx
    }
    base_cones = [
        tuple(remap[i] for i in ixs if i not in idx) for ixs in f.max_cones
    ]
    base = Fan(base_rays, base_cones, base_rank)
    divisors = []
    for a in range(c):
        d = ToricDivisor(base, [h[a] for h in heights])
        if is_cartier(d) is None:
            return None
        divisors.append(d)
    if _total_fan(divisors) != relabeled:
        return None
    return CIData(base, tuple(divisors), transform)
