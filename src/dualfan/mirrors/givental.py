"""Mirror potentials for split nef bundles over smooth complete bases.

The dual fan is the single cone spanned by the section-polytope
vertices placed at their summand's fiber direction; the mirror
potential assigns inverse parameters to a chosen unimodular splitting
of the ray lattice.  Two sign conventions for the fiber directions are
exposed as separate entry points.
"""

from ..fans import Fan, is_complete, is_smooth
from ..lattice import LatticeMap, _lattice_vector, _unit_vector
from ..polyhedra import Cone
from ..symbols import ParamPoly, Potential
from ..toric_lg import (
    AuxiliaryLG,
    _ci_exponents,
    _sections,
    _total_fan,
    base_change_check,
    is_cartier,
)
from .report import MirrorReport, built_duality


def splitting_basis(fan, basis_rays=None):
    """Ray indices whose unit vectors complete the ray map to a basis.

    The ray map sends a character m to its pairings with all rays; a
    splitting basis is a set of rays whose coordinate vectors fill the
    cokernel unimodularly.  When no choice is given, complements of the
    maximal cones are tried in fan order and the first that works wins,
    which makes the default deterministic.
    """
    rays = fan.rays
    n = fan.lattice_rank
    count = len(rays)
    k = count - n
    if k < 0:
        raise ValueError("fewer rays than the lattice rank")

    def works(indices):
        # expanding [ray map | unit columns] along its unit columns
        # leaves the minor on the other rays
        rest = [r for i, r in enumerate(rays) if i not in indices]
        return abs(LatticeMap.from_rows(rest, ncols=n).det()) == 1

    if basis_rays is not None:
        chosen = []
        for b in basis_rays:
            if isinstance(b, int) and not isinstance(b, bool):
                idx = b
                if not 0 <= idx < count:
                    raise ValueError(f"ray index {idx} out of range")
            else:
                v = _lattice_vector(b, "basis ray")
                if v not in rays:
                    raise ValueError(f"{v} is not a ray of the fan")
                idx = rays.index(v)
            chosen.append(idx)
        if len(set(chosen)) != len(chosen):
            raise ValueError("basis rays must be distinct")
        if len(chosen) != k:
            raise ValueError(f"a splitting basis here has {k} rays")
        indices = tuple(sorted(chosen))
        if not works(indices):
            raise ValueError("chosen rays do not give a splitting basis")
        return indices

    for cone in fan.max_cones:
        indices = tuple(sorted(set(range(count)) - set(cone)))
        if len(indices) == k and works(indices):
            return indices
    raise ValueError("no splitting basis among the maximal cone complements")


def _bundle_mirror(fan, divisors, basis_rays, fiber_sign):
    if not is_smooth(fan):
        raise ValueError("base fan must be smooth")
    if not is_complete(fan):
        raise ValueError("base fan must be complete")
    divisors = tuple(divisors)
    if not divisors:
        raise ValueError("need at least one summand")
    n = fan.lattice_rank
    count = len(fan.rays)
    sections = []
    for i, d in enumerate(divisors):
        if d.fan != fan:
            raise ValueError(f"summand {i} does not live on the base fan")
        cart = is_cartier(d)
        if cart is None:
            raise ValueError(f"summand {i} is not Cartier")
        poly = _sections(d)
        for m in cart.cone_characters:
            if not poly.contains(tuple(-x for x in m)):
                raise ValueError(f"summand {i} is not nef")
        sections.append(poly)
    c = len(divisors)

    basis = splitting_basis(fan, basis_rays)
    sigma_x = _total_fan(divisors)
    gamma = AuxiliaryLG(sigma_x, _ci_exponents(sections))

    lifted = []
    for a, poly in enumerate(sections):
        tail = _unit_vector(a, c)
        for v in poly.vertices:
            lifted.append(_lattice_vector(v, f"vertex of summand {a} sections")
                          + tail)
    cone = Cone(lifted, n + c)
    sigma_x_prime = Fan.from_maximal_cones([cone], n + c)

    duality = built_duality(sigma_x, sigma_x_prime)
    gamma_prime = AuxiliaryLG(sigma_x_prime, sigma_x.marked_generators)
    to_gamma = base_change_check(gamma, sigma_x_prime)
    to_gamma_prime = base_change_check(gamma_prime, sigma_x)

    fiber, minus_one = ParamPoly.constant(fiber_sign), ParamPoly.constant(-1)
    values = [fiber if idx >= count else minus_one
              for idx in range(len(gamma_prime.exponents))]
    for slot, idx in enumerate(basis, 1):
        values[idx] = ParamPoly.parameter(f"q{slot}", power=-1, coeff=-1)
    w_prime = Potential(zip(gamma_prime.exponents, values))

    checks = [
        # the rays of the cone over the lifted vertices are exactly those
        ("rays_are_marked_sections", set(sigma_x_prime.rays) == set(lifted)),
        ("coefficient_ring_isomorphic", to_gamma_prime.is_isomorphism),
        ("dual_fan_is_single_cone", len(sigma_x_prime.max_cones) == 1),
    ]
    counts = [
        ("base_rank", n),
        ("rank", n + c),
        ("summands", c),
        ("picard_number", count - n),
        ("xi_count", len(gamma.exponents)),
        ("xi_prime_count", len(sigma_x_prime.rays)),
        ("ray_count", len(sigma_x.rays)),
        ("dual_ray_count", len(sigma_x_prime.rays)),
    ]
    notes = [f"inverse parameters sit on rays {tuple(basis)}"]
    if fiber_sign == -1:
        notes.append("fiber-direction coefficients carry sign -1")

    return MirrorReport(sigma_x, sigma_x_prime, duality,
                        to_gamma=to_gamma, to_gamma_prime=to_gamma_prime,
                        checks=checks, counts=counts,
                        potentials=[("w_prime", w_prime)], notes=notes)


def givental_mirror(fan, divisors, basis_rays=None) -> MirrorReport:
    """Mirror data with fiber directions entering positively."""
    return _bundle_mirror(fan, divisors, basis_rays, 1)


def hori_vafa_mirror(fan, divisors, basis_rays=None) -> MirrorReport:
    """Mirror data with fiber directions entering negatively."""
    return _bundle_mirror(fan, divisors, basis_rays, -1)
