"""Fans of strongly convex rational cones, stored via maximal cones.

Lower-dimensional cones are derived on demand from the maximal ones, so
closure under faces holds by construction; the maximal cones themselves
are built on first use.  Rays may carry marked generators: integer
multiples of the primitive generators that record images under lattice
maps before any primitivization.  Pairing-based checks use the marks;
geometry always uses the primitive rays.
"""

from __future__ import annotations

from itertools import islice
from math import lcm

from ._value import Value
from .groups import FiniteAbelianGroup
from .lattice import (LatticeMap, _dot, _integer, _lattice_vector,
                      _pairings, _unit_vector, int_inverse, smith_diagonal,
                      snf)
from .polyhedra import Cone, _primitive


class FanValidation(Value):
    """Verdict plus human-readable diagnostics for fan validity."""

    __slots__ = ("ok", "diagnostics")

    def __init__(self, ok, diagnostics=()):
        object.__setattr__(self, "ok", bool(ok))
        object.__setattr__(self, "diagnostics", tuple(diagnostics))

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"FanValidation(ok={self.ok}, diagnostics={list(self.diagnostics)!r})"


class DualFanReport(Value):
    """Outcome of a dual-fan test; a false verdict carries a witness."""

    __slots__ = ("verdict", "witness")

    def __init__(self, verdict, witness=None):
        if not verdict and witness is None:
            raise ValueError("a failing report needs a witness")
        object.__setattr__(self, "verdict", bool(verdict))
        object.__setattr__(self, "witness", witness)

    def __bool__(self):
        return self.verdict

    def __repr__(self):
        return f"DualFanReport(verdict={self.verdict}, witness={self.witness!r})"


class Fan(Value):
    """A fan given by rays and maximal cones over ray-index sets.

    `rays` must be primitive and pairwise distinct; `marked_generators`
    defaults to the rays themselves and must stay positively parallel to
    them.  Construction does not check the fan condition: `validate_fan`
    does, and reports what went wrong.
    """

    __slots__ = ("lattice_rank", "rays", "marked_generators", "max_cones",
                 "_cones", "_signs")

    def __init__(self, rays, max_cones, lattice_rank, marked_generators=None):
        lattice_rank = _integer(lattice_rank)
        if lattice_rank < 0:
            raise ValueError("lattice rank must be nonnegative")
        rays = tuple(_lattice_vector(r, "ray") for r in rays)
        for r in rays:
            if len(r) != lattice_rank:
                raise ValueError("ray has wrong length")
            if not any(r):
                raise ValueError("zero ray")
            if _primitive(r) != r:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("rays must be pairwise distinct")
        if marked_generators is None:
            marked = rays
        else:
            marked = tuple(_lattice_vector(m, "marked generator")
                           for m in marked_generators)
            if len(marked) != len(rays):
                raise ValueError("one marked generator per ray")
            for r, m in zip(rays, marked):
                if _primitive(m) != r:
                    raise ValueError(
                        f"marked generator {m} is not a positive multiple of ray {r}"
                    )
        cleaned = []
        for ixs in max_cones:
            ixs = tuple(sorted(set(map(_integer, ixs))))
            if any(i < 0 or i >= len(rays) for i in ixs):
                raise ValueError("cone refers to a missing ray")
            cleaned.append(ixs)
        cleaned = tuple(dict.fromkeys(cleaned))
        object.__setattr__(self, "lattice_rank", lattice_rank)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "marked_generators", marked)
        object.__setattr__(self, "max_cones", cleaned)
        object.__setattr__(self, "_cones", None)
        object.__setattr__(self, "_signs", None)

    @property
    def cones(self):
        """The maximal cones, in `max_cones` order, built on first use."""
        if self._cones is None:
            object.__setattr__(self, "_cones", tuple(
                Cone([self.rays[i] for i in ixs], self.lattice_rank)
                for ixs in self.max_cones))
        return self._cones

    @classmethod
    def from_generators(cls, generators, max_cones, lattice_rank):
        """Rays are primitivized; the inputs become the marked generators."""
        gens = [_lattice_vector(g, "generator") for g in generators]
        return cls([_primitive(g) for g in gens], max_cones,
                   lattice_rank, marked_generators=gens)

    @classmethod
    def from_maximal_cones(cls, cones, lattice_rank):
        """The fan over the extreme rays of each given cone.  Pointed
        full-dimensional cones on distinct ray sets are kept as `cones`:
        both their descriptions are unique, so a rebuild would equal them
        field for field."""
        cones = tuple(cones)
        rays = []
        index = {}
        ixsets = []
        for c in cones:
            ixs = []
            for r in c.extreme_rays:
                if r not in index:
                    index[r] = len(rays)
                    rays.append(r)
                ixs.append(index[r])
            ixsets.append(tuple(sorted(ixs)))
        fan = cls(rays, ixsets, lattice_rank)
        if len(fan.max_cones) == len(cones) and all(
                c.dim == lattice_rank and c.is_strongly_convex()
                for c in cones):
            object.__setattr__(fan, "_cones", cones)
        return fan

    def canonical_form(self):
        """Hashable shape of the fan: equality-by-value over any ray order."""
        return (
            self.lattice_rank,
            tuple(sorted(self.rays)),
            tuple(sorted(zip(self.rays, self.marked_generators))),
            tuple(sorted({c.generators for c in self.cones})),
        )

    _key = canonical_form

    def __repr__(self):
        return (
            f"Fan(rays={[list(r) for r in self.rays]!r}, "
            f"max_cones={[list(c) for c in self.max_cones]!r}, "
            f"lattice_rank={self.lattice_rank})"
        )


def _sign_table(f: Fan):
    """(rays, own, normals), kept in `f._signs` outside the key: over the
    extreme rays of the pointed cones, own[i] masks cone i's rays and
    normals[i] holds, per facet normal u of cone i, the masks (pos, zero)
    of the rays with u·r > 0 and u·r = 0, from one `_pairings` pass."""
    if f._signs is None:
        cones = f.cones
        rays = list(dict.fromkeys(r for c in cones for r in c.extreme_rays))
        bits = [1 << k for k in range(len(rays))]
        index = dict(zip(rays, bits))
        signs = []
        for ps in _pairings([u for c in cones for u in c.facet_normals], rays):
            pos = zero = 0
            for b, p in zip(bits, ps):
                if p > 0:
                    pos |= b
                elif not p:
                    zero |= b
            signs.append((pos, zero))
        signs = iter(signs)
        object.__setattr__(f, "_signs", (
            rays, [sum(map(index.get, c.extreme_rays)) for c in cones],
            [list(islice(signs, len(c.facet_normals))) for c in cones]))
    return f._signs


def _exposed(signs, mine, other):
    """Whether u, the sum of the facet normals of a pointed cone (`signs`,
    its row of `_sign_table`, over its rays `mine`) that are nowhere
    positive on the rays `other` of another, cuts their meet down to a
    face of each: Z, the rays on which all of them vanish, meets the
    other cone in the shared rays and, unless there are none, meets this
    one there too."""
    shared = mine & other
    z = -1
    for pos, zero in signs:
        if not pos & other:
            z &= zero
    return z & other == shared and (not shared or z & mine == shared)


def validate_fan(f: Fan) -> FanValidation:
    """The fan condition: strong convexity plus the pairwise face test.

    Once every cone is pointed, each pair (s, t) takes one of two tiers.
    The sign table (`_sign_table`) passes it when, with s and t in either
    order, the sum u of the facet normals of s that are nowhere positive
    on t's rays separates them (`_exposed`; the separation lemma, Fulton,
    *Introduction to Toric Varieties*, §1.2).  u is ≥ 0 on s and ≤ 0 on
    t, and each of those normals vanishes on the shared rays S, so s ∩ t
    lies on u = 0, which meets s in cone(Z ∩ s) and t in cone(Z ∩ t), Z
    the rays on which they all vanish.  So Z ∩ t == S makes s ∩ t =
    cone(S), a face of t exposed by −u, and {0} when S is empty; else
    Z ∩ s == S makes it a face of s, exposed by u.  Every other pair
    takes one double description pass for the meet
    (`Cone._meets_in_a_face`).
    """
    problems = []
    for ixs, cone in zip(f.max_cones, f.cones):
        if not cone.is_strongly_convex():
            problems.append(f"cone {list(ixs)} is not strongly convex")
    if not problems:
        _, own, normals = _sign_table(f)
        for i in range(len(f.cones)):
            for j in range(i + 1, len(f.cones)):
                if _exposed(normals[i], own[i], own[j]) or _exposed(
                        normals[j], own[j], own[i]):
                    continue
                if not f.cones[i]._meets_in_a_face(f.cones[j]):
                    problems.append(
                        f"intersection of cones {list(f.max_cones[i])} and "
                        f"{list(f.max_cones[j])} is not a common face"
                    )
    return FanValidation(not problems, problems)


def k_cones(f: Fan, k):
    """All k-dimensional cones of the fan, deduplicated and sorted."""
    out = {}
    for cone in f.cones:
        for face in cone.faces(k):
            out.setdefault(face.generators, face)
    return [out[key] for key in sorted(out)]


def is_dual_pair(s: Fan, s_prime: Fan) -> DualFanReport:
    """Nonnegativity of the pairing between the two supports.

    Every cone is the nonnegative span of its rays, so by bilinearity
    the support condition holds exactly when every ray of `s_prime`
    pairs ≥ 0 with every ray of `s`; scaling cannot change signs, so
    primitive versus marked generators is immaterial here.
    """
    if s.lattice_rank != s_prime.lattice_rank:
        raise ValueError("rank mismatch")
    hit = _negative_pairing(s, s_prime.rays, "ray")
    if hit is None:
        return DualFanReport(True)
    m, n = s_prime.rays[hit[0]], hit[1]
    return DualFanReport(False, (m, n, _dot(m, n)))


def _negative_pairing(fan, vectors, what):
    """(i, r) for the first vector vectors[i] that pairs negatively with
    a ray of the fan and the first such ray r, or None: what a loop over
    the vectors, each over the rays, would find first.  A vector of the
    wrong length raises where that loop would reach it, so only when no
    vector before it pairs negatively.  Each ray meets the whole family
    in one `_pairings` pass."""
    wrong = list(map(fan.lattice_rank.__ne__, map(len, vectors)))
    bad = wrong.index(True) if True in wrong else len(vectors)
    hit = None
    for r, p in zip(fan.rays, _pairings(fan.rays, vectors[:bad])):
        if min(p, default=0) < 0:
            i = next(i for i, v in enumerate(p) if v < 0)
            if hit is None or i < hit[0]:
                hit = i, r
    if hit is None and bad < len(vectors):
        raise ValueError(f"{what} has wrong length")
    return hit


def _covers(f: Fan, facets=()) -> bool:
    """Wall census: whether the support of the valid fan f is the
    full-dimensional cone K = {x : a·x ≥ 0 for a in facets}, the whole
    space when there are none.  Never raises.

    Every listed cone must be strongly convex and in K, and one must be
    full dimensional.  A lower-dimensional cone has no interior, so the
    full-dimensional ones must cover K alone: each wall of theirs, the
    rays on which a facet normal vanishes, must lie in two of them, or
    in one when it lies in a facet of K; else a segment from a cone's
    interior to a point of K off their union leaves it through a wall
    inside K, held from one side only.  A convex cone holds a wall iff
    it holds the wall's rays, so the census reads `validate_fan`'s sign
    table (`_sign_table`): cone i holds the rays in `pos | zero` of each
    of its normals, and each wall is `own[i] & zero`.  An empty wall
    lies in every cone and every facet of K.
    """
    full = [i for i, c in enumerate(f.cones) if c.dim == f.lattice_rank]
    if not full or not all(c.is_strongly_convex() for c in f.cones):
        return False
    rays, own, normals = _sign_table(f)
    on = []
    for a in facets:
        pairings = [_dot(a, r) for r in rays]
        if any(p < 0 for p in pairings):
            return False
        on.append(sum(1 << k for k, p in enumerate(pairings) if not p))
    held = []
    for i in full:
        h = -1
        for pos, zero in normals[i]:
            h &= pos | zero
        held.append(h)
    walls = [own[i] & zero for i in full for _, zero in normals[i]]
    return all(len([h for h in held if w & h == w])
               == 2 - any([w & z == w for z in on]) for w in walls)


def is_complete(f: Fan) -> bool:
    """Whether the valid fan f covers the whole space (`_covers`)."""
    return _covers(f)


def is_smooth(f: Fan) -> bool:
    """Each maximal cone must be strongly convex, with rays that extend
    to a basis of the lattice."""
    for cone in f.cones:
        if not cone.is_strongly_convex():
            return False
        rays = cone.extreme_rays
        if len(rays) == f.lattice_rank:
            # each primitive facet normal vanishes on every ray but one,
            # so it pairs with their sum as with that ray; N·Gᵀ = I, a
            # basis, holds iff |det G| = 1
            total = tuple(map(sum, zip(*rays)))
            if any(_dot(nv, total) != 1 for nv in cone.facet_normals):
                return False
            continue
        # the rays extend to a basis iff the diagonal is one 1 per ray
        rows = LatticeMap.from_rows(list(rays), ncols=f.lattice_rank)
        if smith_diagonal(rows) != (1,) * len(rays):
            return False
    return True


def quotient_fan(f: Fan, q: LatticeMap):
    """Push the fan through a lattice map, with the finite-quotient data.

    Returns (image fan, (k_rank, torsion)) where k_rank is the rank of
    the kernel of the transposed map on characters and torsion is the
    finite subgroup of the fan's torus that the map kills (its invariant
    factors equal those of the torsion of the transposed cokernel).
    Raises when the image cones do not form a fan.  The face-image check
    skips a maximal cone whose k rays push to a k-dimensional image, with
    no source cone built: the rays are independent, so the source cone is
    simplicial and pointed over exactly them, and so are the pushed rays,
    so every subset spans a face.
    """
    if q.cols != f.lattice_rank:
        raise ValueError("map does not start at the fan's lattice")

    new_rays = []
    new_marked = []
    index_of = {}
    ray_image = {}
    for i, (r, m) in enumerate(zip(f.rays, f.marked_generators)):
        img = q @ r
        if not any(img):
            ray_image[i] = None  # ray collapses onto the origin
            continue
        prim = _primitive(img)
        mark = q @ m
        if prim in index_of:
            if new_marked[index_of[prim]] != mark:
                raise ValueError(
                    "quotient not a fan: conflicting marked generators "
                    f"on image ray {list(prim)}"
                )
        else:
            index_of[prim] = len(new_rays)
            new_rays.append(prim)
            new_marked.append(mark)
        ray_image[i] = index_of[prim]

    image_cones = [tuple(sorted({ray_image[i] for i in ixs} - {None}))
                   for ixs in f.max_cones]
    image = Fan(new_rays, image_cones, q.rows, new_marked)

    check = validate_fan(image)
    if not check.ok:
        raise ValueError(f"quotient not a fan: {check.diagnostics[0]}")
    # the image set {q(τ) : τ a face} must be closed under faces too: pushed
    # rays span a face of the pointed image iff their closure adds no ray
    for ixs, img in zip(f.max_cones, image.cones):
        if img.dim == len(ixs):
            continue
        src = Cone([f.rays[i] for i in ixs], f.lattice_rank)
        rays = src.extreme_rays
        if src.is_strongly_convex() and img.dim == len(rays):
            continue
        pushed = [_primitive(q @ r) for r in rays]
        bad = []
        for key in src._face_index_sets():
            face = {pushed[i] for i in key}
            if not face.issuperset(img._closure(face)):
                bad.append([rays[i] for i in sorted(key)])
        if bad:  # name the failing face that comes first in all_faces
            _, gens = min(
                (LatticeMap.from_rows(g, ncols=q.cols).rank(), g) for g in bad
            )
            raise ValueError(
                "quotient not a fan: a face image is not a face "
                f"of its cone image ({[list(g) for g in gens]})"
            )

    # the torsion is generated by column i of V over d_i; V is unimodular,
    # so each column is primitive and ell is the lcm of the d_i
    dec = snf(q)
    k_rank = q.rows - dec.rank
    kept = [(i, d) for i, d in enumerate(dec.diagonal) if d > 1]
    ell = lcm(*(d for _, d in kept))
    cols = [tuple(x * (ell // d) for x in dec.V.col(i)) for i, d in kept]
    torsion = FiniteAbelianGroup._from_scaled(ell, cols, f.lattice_rank)
    return image, (k_rank, torsion)


def relabel_fan(f: Fan, t: LatticeMap) -> Fan:
    """The same fan written through the unimodular coordinate change t.

    Rays, marked generators, and cone combinatorics all transport; t must
    be a square unimodular matrix on the fan's lattice.
    """
    if t.rows != f.lattice_rank or t.cols != f.lattice_rank:
        raise ValueError("map does not match the fan's lattice")
    int_inverse(t)  # rejects anything that is not a lattice automorphism
    return Fan(
        [t @ r for r in f.rays],
        f.max_cones,
        f.lattice_rank,
        marked_generators=[t @ m for m in f.marked_generators],
    )


def projective_space_fan(n) -> Fan:
    """Rays e₁,…,eₙ and −(e₁+⋯+eₙ); maximal cones are all n-subsets."""
    if n < 1:
        raise ValueError("rank must be positive")
    rays = [_unit_vector(i, n) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    max_cones = [
        tuple(j for j in range(n + 1) if j != skip) for skip in range(n + 1)
    ]
    return Fan(rays, max_cones, n)


def orthant_fan(n) -> Fan:
    if n < 1:
        raise ValueError("rank must be positive")
    rays = [_unit_vector(i, n) for i in range(n)]
    return Fan(rays, [tuple(range(n))], n)
