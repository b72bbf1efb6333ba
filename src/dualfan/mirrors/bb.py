"""Mirror pairs from reflexive cone data with a splitting choice.

The input is a full-dimensional pointed cone K whose lattice points at
height one, together with a distinguished set of height-one points e_i
and a paired set of dual functionals, cut both sides of the mirror pair:
section polytopes and a base fan on each side, bundle total spaces over
them, and potential families indexed by the height-one slices.
"""

from fractions import Fraction
from itertools import product

from .._value import Value
from ..fans import Fan, is_dual_pair, relabel_fan
from ..lattice import LatticeMap, int_inverse, kernel_basis, solve_integer
from ..polyhedra import Cone, Polytope, _dot
from ..toric_lg import (
    AuxiliaryLG,
    Specialization,
    ToricDivisor,
    _ci_family,
    apply_specialization,
    base_change_check,
    section_polytope,
    split_bundle_fan,
)
from .report import MirrorReport


def _as_int_vec(v, what="point"):
    out = []
    for x in v:
        f = Fraction(x)
        if f.denominator != 1:
            raise ValueError(f"{what} is not a lattice vector: {tuple(v)}")
        out.append(int(f))
    return tuple(out)


class GorensteinReport(Value):
    """Height-one structure of a pointed cone.

    `functional` is an integer covector taking value 1 on every extreme
    ray (None when no such covector exists).  `witness` is a lattice
    point of the cone, at height at most `height_bound`, that sums of
    height-one points fail to reach (None when generation succeeded up
    to the bound).
    """

    __slots__ = ("functional", "height_bound", "witness")

    def __init__(self, functional, height_bound, witness):
        object.__setattr__(self, "functional",
                           None if functional is None else tuple(functional))
        object.__setattr__(self, "height_bound", int(height_bound))
        object.__setattr__(self, "witness",
                           None if witness is None else tuple(witness))

    @property
    def holds(self):
        return self.functional is not None and self.witness is None

    def __repr__(self):
        return (f"GorensteinReport(functional={self.functional}, "
                f"height_bound={self.height_bound}, witness={self.witness})")


def _height_slice(cone, functional, h):
    pairs = [(n, 0) for n in cone.facet_normals]
    pairs.append((functional, -h))
    pairs.append((tuple(-x for x in functional), h))
    return Polytope.from_hrep(pairs, cone.ambient_rank)


def is_gorenstein(cone, height_bound=3) -> GorensteinReport:
    """Look for a height functional and test height-one generation.

    Both failure modes are definitive: primitive ray generators must sit
    at height one, and a height-h point is reachable iff it is a sum of
    a height-(h-1) point and a height-one point.
    """
    if not isinstance(cone, Cone):
        raise TypeError("expected a Cone")
    if not cone.is_strongly_convex():
        raise ValueError("cone must be strongly convex")
    height_bound = int(height_bound)
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    rays = cone.extreme_rays
    if not rays:
        return GorensteinReport((0,) * cone.ambient_rank, height_bound, None)
    ell = solve_integer(LatticeMap.from_rows(list(rays), ncols=cone.ambient_rank),
                        [1] * len(rays))
    if ell is None:
        return GorensteinReport(None, height_bound, None)
    level_one = _height_slice(cone, ell, 1).lattice_points()
    previous = level_one
    witness = None
    for h in range(2, height_bound + 1):
        expected = _height_slice(cone, ell, h).lattice_points()
        reachable = {tuple(a + b for a, b in zip(p, q))
                     for p in previous for q in level_one}
        missing = [p for p in expected if p not in reachable]
        if missing:
            witness = missing[0]
            break
        previous = expected
    return GorensteinReport(ell, height_bound, witness)


class ReflexiveReport(Value):
    """A cone and its dual tested for height-one generation together."""

    __slots__ = ("cone_report", "dual_report", "index")

    def __init__(self, cone_report, dual_report):
        object.__setattr__(self, "cone_report", cone_report)
        object.__setattr__(self, "dual_report", dual_report)
        index = None
        if cone_report.functional is not None and dual_report.functional is not None:
            index = _dot(cone_report.functional, dual_report.functional)
        object.__setattr__(self, "index", index)

    @property
    def holds(self):
        return self.cone_report.holds and self.dual_report.holds

    def __repr__(self):
        return (f"ReflexiveReport(holds={self.holds}, index={self.index})")


def is_reflexive(cone, height_bound=3) -> ReflexiveReport:
    """Run the height-one test on the cone and on its dual.

    The index is the pairing of the two height functionals.
    """
    if not isinstance(cone, Cone):
        raise TypeError("expected a Cone")
    if not cone.is_strongly_convex() or cone.dim != cone.ambient_rank:
        raise ValueError("reflexivity needs a full-dimensional pointed cone")
    return ReflexiveReport(is_gorenstein(cone, height_bound),
                           is_gorenstein(cone.dual(), height_bound))


def support_partition(cone, functionals):
    """Cut the height-one slice of `cone` into one part per functional.

    The functionals must be nonnegative on the cone and sum to a
    covector taking value 1 on every extreme ray; part i is the face of
    the slice where functional i equals 1 and the others vanish.
    Returns (slice, parts).  Raises when a part is empty or has a
    vertex off the lattice, since the construction downstream needs
    every part to be a nonempty lattice polytope.
    """
    if not isinstance(cone, Cone):
        raise TypeError("expected a Cone")
    fs = tuple(_as_int_vec(f, "functional") for f in functionals)
    if not fs:
        raise ValueError("need at least one functional")
    rank = cone.ambient_rank
    if any(len(f) != rank for f in fs):
        raise ValueError("functional has wrong length")
    for f in fs:
        for g in cone.generators:
            if _dot(f, g) < 0:
                raise ValueError(
                    f"functional {f} is negative on the cone generator {g}")
    total = tuple(sum(c) for c in zip(*fs))
    for r in cone.extreme_rays:
        if _dot(total, r) != 1:
            raise ValueError(
                "functionals do not sum to a height functional of the cone")
    slice_poly = _height_slice(cone, total, 1)
    cone_pairs = [(n, 0) for n in cone.facet_normals]
    parts = []
    for i in range(len(fs)):
        pairs = list(cone_pairs)
        for j, f in enumerate(fs):
            want = 1 if j == i else 0
            pairs.append((f, -want))
            pairs.append((tuple(-x for x in f), want))
        part = Polytope.from_hrep(pairs, rank)
        if part.is_empty():
            raise ValueError(f"part {i} of the support partition is empty")
        for v in part.vertices:
            _as_int_vec(v, f"vertex of part {i}")
        parts.append(part)
    # the functionals are a partition of membership, so the part point
    # counts must add up to the slice count
    if sum(len(p.lattice_points()) for p in parts) != len(slice_poly.lattice_points()):
        raise ValueError("parts do not partition the slice lattice points")
    return slice_poly, tuple(parts)


def dual_splittings(cone_dual, ell_dual, splitting):
    """All choices of dual functionals pairing to the given splitting.

    Candidates for slot i are the lattice points of part i of the dual
    cone's slice under the splitting; a choice qualifies when it sums to
    `ell_dual`.  Results are ordered lexicographically by construction.
    """
    ell_dual = _as_int_vec(ell_dual, "height functional")
    _, parts = support_partition(cone_dual, splitting)
    out = []
    for combo in product(*(p.lattice_points() for p in parts)):
        if tuple(sum(c) for c in zip(*combo)) == ell_dual:
            out.append(tuple(combo))
    if not out:
        raise ValueError("no dual splitting sums to the height functional")
    return tuple(out)


def _classify(points, functionals):
    """Index of the functional taking value 1 on each point."""
    tags = []
    for p in points:
        vals = [_dot(f, p) for f in functionals]
        if sorted(vals) != [0] * (len(vals) - 1) + [1]:
            raise ValueError(f"point {p} is not classified by the splitting")
        tags.append(vals.index(1))
    return tuple(tags)


class _Side(Value):
    """Everything one side of the pair produces."""

    __slots__ = ("base", "divisors", "sections", "section_sum", "ambient",
                 "psi", "sections_match", "total", "recomputed")

    def __init__(self, **kw):
        for name in self.__slots__:
            object.__setattr__(self, name, kw[name])


def _total_space(parts, splitting, dual_splitting, opposite_parts, rank):
    """Base fan, bundle summands, and ambient total-space fan for one side.

    `parts` slice the potential-side cone (giving sections), `splitting`
    are their distinguished points, `dual_splitting` cuts out the base
    lattice, and `opposite_parts` hold the vertices that become rays.
    """
    r = len(splitting)
    b = kernel_basis(LatticeMap.from_rows(list(dual_splitting), ncols=rank))
    n = b.cols
    psi = LatticeMap.from_cols(list(b.columns()) + list(splitting), nrows=rank)
    try:
        psi_inv = int_inverse(psi)
    except ValueError:
        raise AssertionError("base lattice splitting is not a direct summand")

    sections = []
    for e_i, part in zip(splitting, parts):
        pts = []
        for v in part.vertices:
            diff = tuple(a - b_ for a, b_ in zip(_as_int_vec(v), e_i))
            y = solve_integer(b, diff)
            assert y is not None  # vertices of part i sit over e_i + base
            pts.append(y)
        sections.append(Polytope.from_vertices(pts, n))
    section_sum = sections[0]
    for p in sections[1:]:
        section_sum = section_sum.minkowski_sum(p)

    if n == 0:
        base = Fan([], [()], 0)
    else:
        try:
            base = section_sum.normal_fan()
        except ValueError:
            raise ValueError(
                "section sum is not full-dimensional in the base lattice")

    pi = b.transpose()
    pool = []
    for j, part in enumerate(opposite_parts):
        for v in part.vertices:
            w = _as_int_vec(v, f"vertex of dual part {j}")
            pool.append((w, tuple(pi @ w), j))
    classes = []
    for u in base.rays:
        hits = [(w, j) for w, proj, j in pool if proj == u]
        if len(hits) != 1:
            raise ValueError(
                f"expected exactly one slice vertex over base ray {u}, "
                f"found {len(hits)}")
        classes.append(hits[0][1])
    divisors = tuple(
        ToricDivisor(base, tuple(1 if c == i else 0 for c in classes))
        for i in range(r))

    recomputed = tuple(section_polytope(d) for d in divisors)
    total = split_bundle_fan(divisors)
    return _Side(base=base, divisors=divisors, sections=tuple(sections),
                 section_sum=section_sum, psi=psi, total=total,
                 ambient=relabel_fan(total, psi_inv.transpose()),
                 sections_match=recomputed == tuple(sections),
                 recomputed=recomputed)


def bb_mirror_pair(generators, splitting, dual_splitting=None,
                   height_bound=3) -> MirrorReport:
    """Build the mirror pair attached to a reflexive cone and splitting.

    `generators` span the cone K, `splitting` lists its distinguished
    height-one points, and `dual_splitting` the paired functionals (the
    lexicographically first valid choice is taken when omitted).  The
    two total-space fans carry the two potential families; every
    recorded check was computed during construction.
    """
    gens = [_as_int_vec(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    rank = len(gens[0])
    if any(len(g) != rank for g in gens):
        raise ValueError("generator has wrong length")
    k = Cone(gens, rank)
    if not k.is_strongly_convex() or k.dim != rank:
        raise ValueError("cone must be pointed and full-dimensional")
    return _bb_pair(k, is_reflexive(k, height_bound), splitting,
                    dual_splitting, height_bound)


def _bb_pair(k, refl, splitting, dual_splitting, height_bound):
    """`bb_mirror_pair` from the cone K and its reflexivity report."""
    rank = k.ambient_rank
    if not refl.holds:
        raise ValueError(
            f"cone pair is not reflexive at heights up to {height_bound}")
    ell_dual = refl.cone_report.functional
    ell = refl.dual_report.functional
    r = refl.index

    e_list = tuple(_as_int_vec(e, "splitting point") for e in splitting)
    if len(e_list) != r:
        raise ValueError("splitting size must equal the reflexive index")
    if tuple(sum(c) for c in zip(*e_list)) != ell:
        raise ValueError(
            "splitting does not sum to the dual height functional")
    for e in e_list:
        if not k.contains_vector(e):
            raise ValueError(f"splitting point {e} is outside the cone")

    k_dual = k.dual()
    if dual_splitting is None:
        dual_list = dual_splittings(k_dual, ell_dual, e_list)[0]
    else:
        dual_list = tuple(_as_int_vec(f, "dual splitting point")
                          for f in dual_splitting)
        if len(dual_list) != r:
            raise ValueError("dual splitting size must equal the index")
        if tuple(sum(c) for c in zip(*dual_list)) != ell_dual:
            raise ValueError(
                "dual splitting does not sum to the height functional")
        for f in dual_list:
            if not k_dual.contains_vector(f):
                raise ValueError(
                    f"dual splitting point {f} is outside the dual cone")
    for i, e in enumerate(e_list):
        for j, f in enumerate(dual_list):
            if _dot(f, e) != (1 if i == j else 0):
                raise ValueError(
                    "splitting and dual splitting do not pair to the identity")

    delta_slice, delta_parts = support_partition(k, dual_list)
    nabla_slice, nabla_parts = support_partition(k_dual, e_list)

    side_a = _total_space(delta_parts, e_list, dual_list, nabla_parts, rank)
    side_b = _total_space(nabla_parts, dual_list, e_list, delta_parts, rank)

    xi = delta_slice.lattice_points()
    xi_prime = nabla_slice.lattice_points()
    gamma = AuxiliaryLG(side_a.ambient, xi, tags=_classify(xi, dual_list))
    gamma_prime = AuxiliaryLG(side_b.ambient, xi_prime,
                              tags=_classify(xi_prime, e_list))

    duality = is_dual_pair(side_a.ambient, side_b.ambient)
    to_gamma = base_change_check(gamma, side_b.ambient)
    to_gamma_prime = base_change_check(gamma_prime, side_a.ambient)

    checks = [
        ("sections_match_parts", side_a.sections_match),
        ("dual_sections_match_parts", side_b.sections_match),
    ]
    nabla_verts = {_as_int_vec(v) for v in nabla_slice.vertices}
    delta_verts = {_as_int_vec(v) for v in delta_slice.vertices}
    checks.append(("ray_set_identity",
                   set(side_a.ambient.rays) == nabla_verts | set(dual_list)))
    checks.append(("dual_ray_set_identity",
                   set(side_b.ambient.rays) == delta_verts | set(e_list)))
    checks.append(("support_identity",
                   Cone(list(side_a.ambient.rays), rank) == k_dual))
    checks.append(("dual_support_identity",
                   Cone(list(side_b.ambient.rays), rank) == k))
    checks.append(("coefficient_maps_defined",
                   to_gamma.verdict and to_gamma_prime.verdict))

    notes = []
    for name, side, opp_parts in (("polar_identity", side_a, nabla_parts),
                                  ("dual_polar_identity", side_b, delta_parts)):
        delta = side.section_sum
        n = delta.ambient_rank
        if n == 0 or delta.dim < n or any(off <= 0 for _, off in delta.hrep):
            notes.append(f"{name} skipped: section sum has no interior origin")
            continue
        pi = kernel_basis(LatticeMap.from_rows(
            list(dual_list if side is side_a else e_list),
            ncols=rank)).transpose()
        projected = [tuple(pi @ _as_int_vec(v))
                     for part in opp_parts for v in part.vertices]
        checks.append((name,
                       delta.polar() == Polytope.from_vertices(projected, n)))

    for name, side, pts in (("section_dictionary", side_a, xi),
                            ("dual_section_dictionary", side_b, xi_prime)):
        aux_ci, _ = _ci_family(side.divisors, side.total, side.recomputed)
        mapped = {tuple(side.psi @ e) for e in aux_ci.exponents}
        checks.append((name, mapped == set(pts)))

    ones = Specialization({e: 1 for e in gamma.exponents})
    ones_prime = Specialization({e: 1 for e in gamma_prime.exponents})
    potentials = [
        ("w", apply_specialization(gamma, ones)),
        ("w_prime", apply_specialization(gamma_prime, ones_prime)),
    ]
    counts = [
        ("rank", rank),
        ("index", r),
        ("base_rank", side_a.base.lattice_rank),
        ("dual_base_rank", side_b.base.lattice_rank),
        ("xi_count", len(xi)),
        ("xi_prime_count", len(xi_prime)),
        ("ray_count", len(side_a.ambient.rays)),
        ("dual_ray_count", len(side_b.ambient.rays)),
    ]

    return MirrorReport(side_a.ambient, side_b.ambient, duality,
                        to_gamma=to_gamma, to_gamma_prime=to_gamma_prime,
                        checks=checks, counts=counts, potentials=potentials,
                        notes=notes)
