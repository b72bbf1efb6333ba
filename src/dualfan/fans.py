"""Fans of strongly convex rational cones, stored via maximal cones.

Lower-dimensional cones are derived on demand from the maximal ones, so
closure under faces holds by construction; the maximal cones themselves
are built on first use.  Rays may carry marked generators: integer
multiples of the primitive generators that record images under lattice
maps before any primitivization.  Pairing-based checks use the marks;
geometry always uses the primitive rays.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value
from .groups import FiniteAbelianGroup
from .lattice import LatticeMap, int_inverse, snf
from .polyhedra import Cone, _dot, primitive_vector


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

    __slots__ = ("lattice_rank", "rays", "marked_generators", "max_cones", "_cones")

    def __init__(self, rays, max_cones, lattice_rank, marked_generators=None):
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        for r in rays:
            if len(r) != lattice_rank:
                raise ValueError("ray has wrong length")
            if not any(r):
                raise ValueError("zero ray")
            if primitive_vector(r) != r:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("rays must be pairwise distinct")
        if marked_generators is None:
            marked = rays
        else:
            marked = tuple(tuple(int(x) for x in m) for m in marked_generators)
            if len(marked) != len(rays):
                raise ValueError("one marked generator per ray")
            for r, m in zip(rays, marked):
                if primitive_vector(m) != r:
                    raise ValueError(
                        f"marked generator {m} is not a positive multiple of ray {r}"
                    )
        cleaned = []
        for ixs in max_cones:
            ixs = tuple(sorted(set(int(i) for i in ixs)))
            if any(i < 0 or i >= len(rays) for i in ixs):
                raise ValueError("cone refers to a missing ray")
            cleaned.append(ixs)
        cleaned = tuple(dict.fromkeys(cleaned))
        object.__setattr__(self, "lattice_rank", int(lattice_rank))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "marked_generators", marked)
        object.__setattr__(self, "max_cones", cleaned)
        object.__setattr__(self, "_cones", None)

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
        gens = [tuple(int(x) for x in g) for g in generators]
        return cls([primitive_vector(g) for g in gens], max_cones,
                   lattice_rank, marked_generators=gens)

    @classmethod
    def from_maximal_cones(cls, cones, lattice_rank):
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
        return cls(rays, ixsets, lattice_rank)

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


def _separated(s, t):
    """Whether u, the sum of the facet normals of s that vanish on the
    shared rays S, is > 0 on the other rays of s and < 0 on those of t."""
    shared = set(s.extreme_rays) & set(t.extreme_rays)
    u = [sum(c) for c in zip(*(n for n in s.facet_normals
                              if not any(_dot(n, r) for r in shared)))]
    return all(_dot(u, r) > 0 for r in set(s.extreme_rays) - shared) and all(
        _dot(u, r) < 0 for r in set(t.extreme_rays) - shared)


def validate_fan(f: Fan) -> FanValidation:
    """The fan condition: strong convexity plus the pairwise face test.

    Once every cone is pointed, a pair that `_separated` accepts in either
    order passes without an intersection: u ≥ 0 on s and u ≤ 0 on t cut
    both in the face cone(S), so s ∩ t = cone(S) is a face of each (the
    separation lemma, Fulton, *Introduction to Toric Varieties*, §1.2).
    """
    problems = []
    for ixs, cone in zip(f.max_cones, f.cones):
        if not cone.is_strongly_convex():
            problems.append(f"cone {list(ixs)} is not strongly convex")
    if not problems:
        for i in range(len(f.cones)):
            for j in range(i + 1, len(f.cones)):
                s, t = f.cones[i], f.cones[j]
                if _separated(s, t) or _separated(t, s):
                    continue
                meet = s.intersection(t)
                if not meet.is_face_of(s) or not meet.is_face_of(t):
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
    for m in s_prime.rays:
        for n in s.rays:
            value = sum(a * b for a, b in zip(m, n))
            if value < 0:
                return DualFanReport(False, (m, n, value))
    return DualFanReport(True)


def is_complete(f: Fan) -> bool:
    """Wall census: complete iff the support has no boundary.

    Every maximal cone must be strongly convex and full dimensional, and
    each facet, the rays on which one facet normal vanishes, must lie in
    exactly two of them.  Meaningful for a valid fan; never raises.
    """
    if not f.cones or any(
        c.dim != f.lattice_rank or not c.is_strongly_convex() for c in f.cones
    ):
        return False
    for cone in f.cones:
        for normal in cone.facet_normals:
            wall = [r for r in cone.extreme_rays if _dot(normal, r) == 0]
            if sum(all(map(c.contains_vector, wall)) for c in f.cones) != 2:
                return False
    return True


def is_smooth(f: Fan) -> bool:
    """Each maximal cone must be strongly convex, with rays that extend
    to a basis of the lattice."""
    for cone in f.cones:
        if not cone.is_strongly_convex():
            return False
        rays = cone.extreme_rays
        mat = LatticeMap.from_rows(list(rays), ncols=f.lattice_rank)
        dec = snf(mat)
        if dec.rank != len(rays) or dec.invariant_factors != ():
            return False
    return True


def quotient_fan(f: Fan, q: LatticeMap):
    """Push the fan through a lattice map, with the finite-quotient data.

    Returns (image fan, (k_rank, torsion)) where k_rank is the rank of
    the kernel of the transposed map on characters and torsion is the
    finite subgroup of the fan's torus that the map kills (its invariant
    factors equal those of the torsion of the transposed cokernel).
    Raises when the image cones do not form a fan.  The face-image check
    skips a pointed source cone whose k rays push to a k-dimensional
    image: the pushed rays are independent, so every subset spans a face.
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
        prim = primitive_vector(img)
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
    for src, img in zip(f.cones, image.cones):
        rays = src.extreme_rays
        if src.is_strongly_convex() and img.dim == len(rays):
            continue
        pushed = [primitive_vector(q @ r) for r in rays]
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

    dec = snf(q)
    k_rank = q.rows - dec.rank
    phases = []
    for i in range(min(q.rows, q.cols)):
        d = dec.D.entries[i][i]
        if d > 1:
            col = dec.V.col(i)
            phases.append(tuple(Fraction(x, d) for x in col))
    torsion = FiniteAbelianGroup.from_phases(phases, f.lattice_rank)
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
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    max_cones = [
        tuple(j for j in range(n + 1) if j != skip) for skip in range(n + 1)
    ]
    return Fan(rays, max_cones, n)


def orthant_fan(n) -> Fan:
    if n < 1:
        raise ValueError("rank must be positive")
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return Fan(rays, [tuple(range(n))], n)
