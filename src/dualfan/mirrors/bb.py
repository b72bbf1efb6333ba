"""Mirror pairs from reflexive cone data with a splitting choice.

The input is a full-dimensional pointed cone K whose lattice points at
height one, together with a distinguished set of height-one points e_i
and a paired set of dual functionals, cut both sides of the mirror pair:
section polytopes and a base fan on each side, bundle total spaces over
them, and potential families indexed by the height-one slices.

Every primitive extreme ray of a reflexive cone sits at height one, so
the height-h slice is the convex hull of h times the rays, listed
straight from the cone's rays and facet normals.  The dual functionals
are nonnegative integers on the cone summing to its height, so part i
is the hull of the rays where functional i is 1, and each lattice point
of the slice lies in exactly one part.
"""

from bisect import bisect_right
from itertools import product
from operator import sub

from .._value import InternalError, Value
from ..fans import Fan, _covers, is_dual_pair, relabel_fan
from ..lattice import (LatticeMap, _dot, _integer, _lattice_vector,
                       int_inverse, kernel_basis, solve_integer)
from ..polyhedra import Cone, Polytope, _points, _sweep
from ..toric_lg import (
    AuxiliaryLG,
    ToricDivisor,
    _ci_exponents,
    _sections,
    _unit_potential,
    base_change_check,
    split_bundle_fan,
)
from .report import MirrorReport


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
        object.__setattr__(self, "height_bound", _integer(height_bound))
        object.__setattr__(self, "witness",
                           None if witness is None else tuple(witness))

    @property
    def holds(self):
        return self.functional is not None and self.witness is None

    def __repr__(self):
        return (f"GorensteinReport(functional={self.functional}, "
                f"height_bound={self.height_bound}, witness={self.witness})")


def _slice_points(cone, functional, h):
    """Lattice points of the height-h slice of a pointed cone whose
    extreme rays all sit at height one, lexicographically sorted.

    The slice is the convex hull of h times the rays, so its box is h
    times their coordinate-wise bounds; its rows are the facet normals
    and the two halves of functional = h.
    """
    rays = cone.extreme_rays
    rows = [(*n, 0) for n in cone.facet_normals]
    rows.append((*functional, -h))
    rows.append((*(-x for x in functional), h))
    return _points(_sweep(rows, [h * min(c) for c in zip(*rays)],
                          [h * max(c) for c in zip(*rays)]))


def _dominance_masks(normals, points):
    """Per facet normal a: the sorted distinct values a·q over the
    points, and after them the bitmasks of the points with a·q at most
    each value, led by 0 for values below them all."""
    out = []
    for a in normals:
        dots = [_dot(a, q) for q in points]
        values = sorted(set(dots))
        masks = [0] * (len(values) + 1)
        for bit, x in enumerate(dots):
            masks[bisect_right(values, x)] |= 1 << bit
        for k in range(1, len(masks)):
            masks[k] |= masks[k - 1]
        out.append((a, values, masks))
    return out


def _decomposes(dominance, p):
    """Whether some listed point q has a·q ≤ a·p for every normal a."""
    common = -1
    for a, values, masks in dominance:
        common &= masks[bisect_right(values, _dot(a, p))]
        if not common:
            return False
    return True


def is_gorenstein(cone, height_bound=3) -> GorensteinReport:
    """Look for a height functional and test height-one generation.

    Both failure modes are definitive: primitive ray generators must sit
    at height one, and a height-h point p is reachable iff p - q is a
    height-(h-1) point for some height-one point q.  Heights stop at
    min(height_bound, dim - 2): the height-one slice is then a lattice
    polytope P of dimension d = dim - 1, and for c ≥ d - 1 every lattice
    point of (c+1)P is one of cP plus one of P (Ewald & Wessels, Results
    Math. 19, 1991; Bruns, Gubeladze & Trung, J. reine angew. Math. 485,
    1997), so no higher height holds a witness.  With the default bound
    3 the verdict is full height-one generation for every cone of rank
    at most 5.

    Each slice is the hull of h times the rays (`_slice_points`).  With
    A the facet normals, p - q is a height-(h-1) point iff A·q ≤ A·p
    entrywise, which per-facet prefix bitmasks over the height-one
    points test at once (`_dominance_masks`).
    """
    if not isinstance(cone, Cone):
        raise TypeError("expected a Cone")
    if not cone.is_strongly_convex():
        raise ValueError("cone must be strongly convex")
    height_bound = _integer(height_bound)
    if height_bound < 1:
        raise ValueError("height bound must be positive")
    rays = cone.extreme_rays
    if not rays:
        return GorensteinReport((0,) * cone.ambient_rank, height_bound, None)
    ell = solve_integer(LatticeMap.from_rows(list(rays), ncols=cone.ambient_rank),
                        [1] * len(rays))
    if ell is None:
        return GorensteinReport(None, height_bound, None)
    top = min(height_bound, cone.dim - 2)
    witness = None
    if top >= 2:
        dominance = _dominance_masks(cone.facet_normals,
                                     _slice_points(cone, ell, 1))
        for h in range(2, top + 1):
            witness = next((p for p in _slice_points(cone, ell, h)
                            if not _decomposes(dominance, p)), None)
            if witness is not None:
                break
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


def _faces(cone, functionals):
    """Each part's vertices, after checking the functionals.

    Part i is the face of the height-one slice, the convex hull of the
    extreme rays, where functional i is 1, so its vertices are the rays
    where it is 1.  Returns the functionals, their sum (the cone's height
    functional) and the vertex tuples.
    """
    if not isinstance(cone, Cone):
        raise TypeError("expected a Cone")
    if not cone.is_strongly_convex():
        raise ValueError("cone must be strongly convex")
    fs = tuple(_lattice_vector(f, "functional") for f in functionals)
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
    faces = []
    for i, f in enumerate(fs):
        face = tuple(r for r in cone.extreme_rays if _dot(f, r) == 1)
        if not face:
            raise ValueError(f"part {i} of the support partition is empty")
        faces.append(face)
    return fs, total, tuple(faces)


def support_partition(cone, functionals):
    """Cut the height-one slice of `cone` into one part per functional.

    The cone must be strongly convex, and the functionals nonnegative on
    it and summing to a covector taking value 1 on every extreme ray;
    part i is the face of the slice where functional i equals 1 and the
    others vanish.  The slice is the convex hull of the extreme rays, so
    part i is the hull of the rays where functional i is 1.  Returns
    the parts.  Raises when a part is empty, since the construction
    downstream needs every part to be a nonempty lattice polytope; the
    parts' vertices are rays, so they always lie on the lattice.

    The parts' lattice points partition the slice's: at a lattice point
    of the slice the functionals take nonnegative integer values summing
    to 1, so exactly one is 1 there and the point lies in that part only.
    """
    _, _, faces = _faces(cone, functionals)
    return tuple(Polytope.from_vertices(face, cone.ambient_rank)
                 for face in faces)


def _cut(cone, functionals):
    """Each part's vertices and lattice points, the slice listed once
    and split by the functional that is 1 (see `support_partition`)."""
    fs, total, faces = _faces(cone, functionals)
    points = tuple([] for _ in fs)
    for p in _slice_points(cone, total, 1):
        points[next(i for i, f in enumerate(fs) if _dot(f, p) == 1)].append(p)
    return faces, points


def dual_splittings(cone_dual, ell_dual, splitting):
    """All choices of dual functionals pairing to the given splitting.

    Candidates for slot i are the lattice points of part i of the dual
    cone's slice under the splitting; a choice qualifies when it sums to
    `ell_dual`.  Results are ordered lexicographically by construction.
    """
    ell_dual = _lattice_vector(ell_dual, "height functional")
    return _choices(_cut(cone_dual, splitting)[1], ell_dual)


def _choices(points, ell_dual):
    """`dual_splittings` from the lattice points of each dual part."""
    out = tuple(combo for combo in product(*points)
                if tuple(sum(c) for c in zip(*combo)) == ell_dual)
    if not out:
        raise ValueError("no dual splitting sums to the height functional")
    return out


def _total_space(parts, points, splitting, dual_splitting, opposite):
    """One side of the pair: (base, ambient, family, checks).

    `parts` holds the vertices of each part of this side's height-one
    slice cut by `dual_splitting` (giving sections), `points` lists
    each part's lattice points, `splitting` are the parts' distinguished
    points, and `opposite` is the other side's (cone, parts), whose part
    vertices become the rays.  `checks` maps the side's check names to
    verdicts, without `polar_identity` when the section sum has no
    interior origin.
    """
    cone, opposite_parts = opposite
    rank = cone.ambient_rank
    b = kernel_basis(LatticeMap.from_rows(list(dual_splitting), ncols=rank))
    n = b.cols
    psi = LatticeMap.from_cols(list(b.columns()) + list(splitting), nrows=rank)
    try:
        psi_inv = int_inverse(psi)
    except ValueError:
        raise InternalError("base lattice splitting is not a direct summand")

    # psi = [b | splitting] is unimodular, so v - e_i lies in the span
    # of b exactly when psi⁻¹ sends it to (y, 0), and then b·y = v - e_i
    sections = []
    for e_i, part in zip(splitting, parts):
        pts = []
        for v in part:
            y = psi_inv @ tuple(map(sub, v, e_i))
            if any(y[n:]):
                raise InternalError("part i has a vertex off e_i + base")
            pts.append(y[:n])
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
    pool = [(tuple(pi @ v), j)
            for j, part in enumerate(opposite_parts) for v in part]
    classes = []
    for u in base.rays:
        hits = [j for proj, j in pool if proj == u]
        if len(hits) != 1:
            raise ValueError(
                f"expected exactly one slice vertex over base ray {u}, "
                f"found {len(hits)}")
        classes.append(hits[0])
    divisors = tuple(
        ToricDivisor(base, tuple(1 if c == i else 0 for c in classes))
        for i in range(len(splitting)))

    # the base is a normal fan or the point, so complete
    recomputed = tuple(_sections(d) for d in divisors)
    total = split_bundle_fan(divisors)
    ambient = relabel_fan(total, psi_inv.transpose())
    # the parts' points partition the slice's (see `support_partition`)
    xi = sorted(p for pts in points for p in pts)
    family = AuxiliaryLG(ambient, xi)
    checks = {
        "sections_match_parts": recomputed == tuple(sections),
        "ray_set_identity":
            # the opposite slice's vertices are the opposite cone's
            # primitive rays, which sit at height one
            set(ambient.rays) == set(cone.extreme_rays) | set(dual_splitting),
        "support_identity": _covers(ambient, cone.facet_normals),
        "section_dictionary":
            {tuple(psi @ e) for e in _ci_exponents(recomputed)} == set(xi),
    }
    if n and section_sum.dim == n and all(
            off > 0 for _, off in section_sum.hrep):
        projected = Polytope.from_vertices([proj for proj, _ in pool], n)
        checks["polar_identity"] = section_sum.polar() == projected
    return base, ambient, family, checks


def bb_mirror_pair(generators, splitting, dual_splitting=None,
                   height_bound=3) -> MirrorReport:
    """Build the mirror pair attached to a reflexive cone and splitting.

    `generators` span the cone K, `splitting` lists its distinguished
    height-one points, and `dual_splitting` the paired functionals (the
    lexicographically first valid choice is taken when omitted).  The
    two total-space fans carry the two potential families; every
    recorded check was computed during construction.
    """
    gens = [_lattice_vector(g, "generator") for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    rank = len(gens[0])
    if any(len(g) != rank for g in gens):
        raise ValueError("generator has wrong length")
    k = Cone(gens, rank)
    if not k.is_strongly_convex() or k.dim != rank:
        raise ValueError("cone must be pointed and full-dimensional")
    return _bb_pair(k, is_reflexive(k, height_bound), splitting,
                    dual_splitting)


def _bb_pair(k, refl, splitting, dual_splitting):
    """`bb_mirror_pair` from the cone K and its reflexivity report."""
    rank = k.ambient_rank
    if not refl.holds:
        raise ValueError("cone pair is not reflexive at heights up to "
                         f"{refl.cone_report.height_bound}")
    ell_dual = refl.cone_report.functional
    ell = refl.dual_report.functional
    r = refl.index

    e_list = tuple(_lattice_vector(e, "splitting point") for e in splitting)
    if len(e_list) != r:
        raise ValueError("splitting size must equal the reflexive index")
    if tuple(sum(c) for c in zip(*e_list)) != ell:
        raise ValueError(
            "splitting does not sum to the dual height functional")
    for e in e_list:
        if not k.contains_vector(e):
            raise ValueError(f"splitting point {e} is outside the cone")

    k_dual = k.dual()
    nabla = None
    if dual_splitting is None:
        nabla = _cut(k_dual, e_list)
        dual_list = _choices(nabla[1], ell_dual)[0]
    else:
        dual_list = tuple(_lattice_vector(f, "dual splitting point")
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

    delta = _cut(k, dual_list)
    nabla = nabla or _cut(k_dual, e_list)
    base, ambient, gamma, side = _total_space(
        *delta, e_list, dual_list, (k_dual, nabla[0]))
    base_prime, ambient_prime, gamma_prime, side_prime = _total_space(
        *nabla, dual_list, e_list, (k, delta[0]))

    duality = is_dual_pair(ambient, ambient_prime)
    to_gamma = base_change_check(gamma, ambient_prime)
    to_gamma_prime = base_change_check(gamma_prime, ambient)

    sides = (("", side), ("dual_", side_prime))
    checks = [(prefix + name, c[name])
              for name in ("sections_match_parts", "ray_set_identity",
                           "support_identity")
              for prefix, c in sides]
    checks.append(("coefficient_maps_defined",
                   to_gamma.verdict and to_gamma_prime.verdict))
    notes = [f"{prefix}polar_identity skipped: section sum has no interior "
             "origin" for prefix, c in sides if "polar_identity" not in c]
    checks += [(prefix + name, c[name])
               for name in ("polar_identity", "section_dictionary")
               for prefix, c in sides if name in c]

    potentials = [("w", _unit_potential(gamma)),
                  ("w_prime", _unit_potential(gamma_prime))]
    counts = [
        ("rank", rank),
        ("index", r),
        ("base_rank", base.lattice_rank),
        ("dual_base_rank", base_prime.lattice_rank),
        ("xi_count", len(gamma.exponents)),
        ("xi_prime_count", len(gamma_prime.exponents)),
        ("ray_count", len(ambient.rays)),
        ("dual_ray_count", len(ambient_prime.rays)),
    ]

    return MirrorReport(ambient, ambient_prime, duality,
                        to_gamma=to_gamma, to_gamma_prime=to_gamma_prime,
                        checks=checks, counts=counts, potentials=potentials,
                        notes=notes)
