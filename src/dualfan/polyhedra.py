"""Exact rational polyhedral cones and polytopes.

Both representations of every cone are computed eagerly at construction
by two integer-only incremental double description passes, generators to
facet normals and back; inequalities go through `Cone(normals).dual()`.
A cone over n independent generators in rank n skips both passes: its
rays are the generators and its facet normals the primitive columns of
the adjugate of the generator matrix from `lattice._adjugate`, just
what double description finds for such a simplicial cone.  A first
pass that finds n independent facet normals and no lineality has found
a simplicial dual, so the rays come from its adjugate, with no second
pass.  Whether two cones meet in a face of each takes one pass, for the
rays of the meet, and builds no meet cone.
Constraints are inserted in sorted order, so results are deterministic.
Each ray carries its tight set as an int bitmask over the inserted
constraints, and two rays are adjacent when no third ray's mask covers
the AND of theirs (Fukuda & Prodon, *Double Description Method
Revisited*, 1996).  A kernel is computed only when lines remain.
Polytopes ride on top of their homogenization cones: a polytope
in rank n is the slice at height one of a cone in rank n+1, which it
keeps, so its polar is the slice of that cone's dual.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from ._value import InternalError, Value
from .lattice import (LatticeMap, _adjugate, _dot, _hermite, _lattice_vector,
                      _rational, _unit_vector, kernel_basis)


def _primitive(v):
    """A tuple of ints divided by its content."""
    g = gcd(*v)
    if g <= 1:
        return v
    return tuple(x // g for x in v)


def primitive_vector(v):
    """Divide out the content; the direction is preserved."""
    return _primitive(_lattice_vector(v))


def _combine(s, u, t, v):
    """The primitive vector along s·u − t·v."""
    return _primitive(tuple(s * x - t * y for x, y in zip(u, v)))


def _double_description(constraints, ambient):
    """Extreme rays and lineality of {x : c·x ≥ 0 for every int vector c}.

    Returns (rays, lineality) where `rays` generate the pointed part and
    `lineality` is the canonical saturated basis of the largest linear
    subspace inside: the nonzero Hermite rows of a kernel basis, so it
    depends on the subspace alone, not on the constraint list.
    Constraints are deduplicated and processed in lexicographic order,
    making the ray list reproducible.
    Each ray carries the bitmask of the inserted constraints it is tight
    on, bit k for the k-th constraint, updated as constraints go in.
    """
    cons = sorted({_primitive(tuple(c)) for c in constraints if any(c)})
    lin = [_unit_vector(i, ambient) for i in range(ambient)]
    rays = []  # (ray, tight mask) pairs
    for k, a in enumerate(cons):
        bit = 1 << k
        dots = [_dot(a, l) for l in lin]
        vals = [_dot(a, r) for r, _ in rays]
        j = next((j for j, v in enumerate(dots) if v), None)
        if j is not None:
            # the constraint cuts the lineality space: the new cone is
            # (old ∩ {a = 0}) + ray(pivot), everything else projects in;
            # the pivot lies in the old lineality, so it is tight on
            # every earlier constraint and no earlier bit changes
            ap = abs(dots[j])
            pivot = lin[j] if dots[j] > 0 else tuple(-x for x in lin[j])
            lin = [_combine(ap, l, v, pivot)
                   for i, (l, v) in enumerate(zip(lin, dots)) if i != j]
            rays = [(_combine(ap, r, v, pivot), m | bit)
                    for (r, m), v in zip(rays, vals)]
            rays.append((pivot, bit - 1))
            continue
        # lin is the lineality, so `need` < 0 leaves at most one ray
        need = ambient - len(lin) - 2
        masks = [m for _, m in rays]
        pos = [(r, m, v) for (r, m), v in zip(rays, vals) if v > 0]
        neg = [(r, m, v) for (r, m), v in zip(rays, vals) if v < 0]
        rays = [(r, m if v else m | bit) for (r, m), v in zip(rays, vals)
                if v >= 0]
        for p, mp, vp in pos:
            for n, mn, vn in neg:
                # p and n span a 2-face iff no third ray is tight
                # wherever both are
                common = mp & mn
                if common.bit_count() >= need and sum(
                    m & common == common for m in masks
                ) == 2:
                    rays.append((_combine(vp, n, vn, p), common | bit))
    # lin spans the kernel of the constraints: {0} when empty, and all of
    # Zⁿ, already as the canonical identity rows, when there are none
    lineality = lin
    if lin and cons:
        lin_basis = kernel_basis(LatticeMap.from_rows(cons, ncols=ambient))
        lineality = [tuple(r) for r in _hermite(
            [list(c) for c in lin_basis.columns()], ambient) if any(r)]
    return sorted(r for r, _ in rays), lineality


def _simplicial_normals(gens, n):
    """Sorted facet normals of the cone over n independent vectors in
    rank n, or None for any other list.  With the g_j as the rows of G,
    column i of adj G, signed by det G, is orthogonal to every g_j but
    g_i and pairs to |det G| with it."""
    det, adj = _adjugate(gens) if len(gens) == n else (0, None)
    if adj is None:
        return None
    return sorted(_primitive(c if det > 0 else tuple(-x for x in c))
                  for c in zip(*adj))


def _with_flips(rays, lineality):
    """The sorted rays padded with ± each lineality basis vector; the
    rays tuple itself, already sorted, when there is no lineality."""
    if not lineality:
        return tuple(rays)
    flips = (tuple(-x for x in l) for l in lineality)
    return tuple(sorted({*rays, *lineality, *flips}))


class Cone(Value):
    """A rational polyhedral cone with both descriptions cached.

    `generators` lists the primitive extreme rays, padded with a ± pair
    per lineality basis vector when the cone contains lines.  The facet
    normals play the same role for the dual cone, so a lower-dimensional
    cone carries ± pairs of span equations among its normals.  For n
    independent generators in rank n the cone is simplicial and pointed:
    each generator is a ray and each facet misses exactly one of them.
    Roles swapped, a cone with n independent facet normals takes one
    double description pass.  Every route ends in one install step that
    fills all fields from the rays and lineality of both sides, and
    `dual()` is that step with the sides swapped.
    Every description of one cone gives the same generators, so cones
    compare and hash by (ambient_rank, generators).
    """

    __slots__ = ("ambient_rank", "generators", "facet_normals",
                 "lineality_rank", "dim", "_rays", "_lineality",
                 "_dual_rays", "_dual_lineality")

    def __init__(self, generators, ambient_rank):
        gens = sorted({g for g in map(primitive_vector, generators) if any(g)})
        for g in gens:
            if len(g) != ambient_rank:
                raise ValueError("generator has wrong length")
        lin = dual_lin = ()
        dual_rays = _simplicial_normals(gens, ambient_rank)
        if dual_rays is not None:  # simplicial and full-dimensional
            rays = gens
        elif not gens:  # the origin: its dual is the whole space
            rays = dual_rays = ()
            dual_lin = [_unit_vector(i, ambient_rank)
                        for i in range(ambient_rank)]
        else:
            dual_rays, dual_lin = _double_description(gens, ambient_rank)
            # a simplicial dual makes the cone simplicial too
            rays = None if dual_lin else _simplicial_normals(
                dual_rays, ambient_rank)
            if rays is None:
                rays, lin = _double_description(
                    _with_flips(dual_rays, dual_lin), ambient_rank)
        self._install(ambient_rank, rays, lin, dual_rays, dual_lin)

    def _install(self, ambient_rank, rays, lin, dual_rays, dual_lin):
        """Fill every field from the rays and lineality of both sides."""
        rays, lin, dual_rays, dual_lin = map(
            tuple, (rays, lin, dual_rays, dual_lin))
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "_rays", rays)
        object.__setattr__(self, "_lineality", lin)
        object.__setattr__(self, "_dual_rays", dual_rays)
        object.__setattr__(self, "_dual_lineality", dual_lin)
        object.__setattr__(self, "generators", _with_flips(rays, lin))
        object.__setattr__(self, "facet_normals",
                           _with_flips(dual_rays, dual_lin))
        object.__setattr__(self, "lineality_rank", len(lin))
        # the dual's lineality is the orthogonal complement of the span
        object.__setattr__(self, "dim", ambient_rank - len(dual_lin))

    @classmethod
    def from_inequalities(cls, normals, ambient_rank):
        return cls(normals, ambient_rank).dual()

    @property
    def extreme_rays(self):
        return self._rays

    def dual(self) -> "Cone":
        """The dual cone, free of charge: both descriptions swap."""
        cone = object.__new__(Cone)
        cone._install(self.ambient_rank, self._dual_rays,
                      self._dual_lineality, self._rays, self._lineality)
        return cone

    def is_strongly_convex(self) -> bool:
        return self.lineality_rank == 0

    def contains_vector(self, v) -> bool:
        return all(_dot(n, v) >= 0 for n in self.facet_normals)

    def contains_cone(self, other) -> bool:
        return all(self.contains_vector(g) for g in other.generators)

    def intersection(self, other) -> "Cone":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        return Cone.from_inequalities(
            self.facet_normals + other.facet_normals, self.ambient_rank)

    def _meets_in_a_face(self, other) -> bool:
        """Whether self ∩ other is a face of both, from one pass for the
        rays of the meet: as `is_face_of` tests, the meet is a face of self
        iff the smallest face of self around it lies in other."""
        rays, _ = _double_description(
            self.facet_normals + other.facet_normals, self.ambient_rank)
        # a line of the meet lies in every face of self and of other
        return all(map(other.contains_vector, self._closure(rays))) and all(
            map(self.contains_vector, other._closure(rays)))

    def _closure(self, vectors):
        """Generators of the smallest face whose span admits the vectors."""
        tight = [
            n
            for n in self.facet_normals
            if all(_dot(n, v) == 0 for v in vectors)
        ]
        return [
            g for g in self.generators if all(_dot(n, g) == 0 for n in tight)
        ]

    def minimal_face_containing(self, vectors) -> "Cone":
        """Smallest face whose span admits all the given cone members."""
        return Cone(self._closure(vectors), self.ambient_rank)

    def _face_index_sets(self):
        """Every face as a frozenset of indices into `extreme_rays`.

        Requires strong convexity.  Faces are the intersections of facets,
        so cutting every face found so far by each facet in turn finds all.
        """
        if not self.is_strongly_convex():
            raise ValueError("has lineality")
        rays = self._rays
        faces = {frozenset(range(len(rays)))}
        for n in self.facet_normals:
            faces |= {
                frozenset(i for i in face if _dot(n, rays[i]) == 0)
                for face in faces
            }
        return faces

    def all_faces(self):
        """Every face as a Cone, sorted by (dim, generators)."""
        rays = self._rays
        faces = [
            Cone([rays[i] for i in key], self.ambient_rank)
            for key in self._face_index_sets()
        ]
        return sorted(faces, key=lambda f: (f.dim, f.generators))

    def faces(self, k):
        return [f for f in self.all_faces() if f.dim == k]

    def is_face_of(self, other) -> bool:
        """Whether `other` contains this cone and the smallest face of
        `other` containing it (never smaller) lies back inside it."""
        return other.contains_cone(self) and all(
            map(self.contains_vector, other._closure(self.generators))
        )

    def _key(self):
        return self.ambient_rank, self.generators

    def __repr__(self):
        return f"Cone({[list(g) for g in self.generators]!r}, {self.ambient_rank})"


def _primitive_lift(vector, last):
    """Primitive integer vector along the rational vector (vector, last):
    a point lifted to height one, or an H-rep row a·m + ℓ ≥ 0.  Only a
    vector with an entry that is not an exact int is scaled."""
    v = (*vector, last)
    if not {int}.issuperset(map(type, v)):
        v = tuple(map(_rational, v))
        d = lcm(*(x.denominator for x in v))
        v = tuple(x.numerator * (d // x.denominator) for x in v)
    return _primitive(v)


# runs of at most this many points are cheaper to build one
# concatenation at a time than through `zip` (timed in CPython 3.11)
_SHORT_RUN = 8


def _sweep(rows, lo, hi):
    """The integer points m of the box lo ≤ m ≤ hi with a·m + ℓ ≥ 0 for
    every row (*a, ℓ) of integers, as runs (prefix, first, last) of
    exact ints: a run stands for the points prefix + (k,), first ≤ k ≤
    last.  The runs are nonempty and lexicographically sorted, and so
    are the points they stand for; the box has at least one coordinate.

    Integer interval sweep over the coordinates, depth first.  Each row
    carries a running partial sum ℓ + Σ_{i<d} a_i·m_i down the sweep.
    With the suffix bound R_d = Σ_{i>d} max(a_i·lo_i, a_i·hi_i) over
    the box, a row admits exactly the values k of coordinate d with
    sum + a_d·k + R_d ≥ 0: a floor or ceiling division.  Intersecting
    these bounds gives one interval per node, so no value outside it is
    tried.  The last coordinate's interval is the run, so no point is
    built here (`_points` builds them).  Values run upwards at every
    depth, which makes the output lexicographic without sorting.
    """
    n = len(lo)
    sums = [row[n] for row in rows]
    # bound[r][d]: the most that coordinates d.. can add to row r
    bound = []
    for row in rows:
        tail = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            tail[i] = tail[i + 1] + max(row[i] * lo[i], row[i] * hi[i])
        bound.append(tail)
    if any(s + b[0] < 0 for s, b in zip(sums, bound)):
        return []
    # every node at depth d keeps sums[r] + bound[r][d] ≥ 0 for all
    # rows, so a depth consults only the rows involving its coordinate
    active = [
        [(r, row[d], bound[r][d + 1])
         for r, row in enumerate(rows) if row[d]]
        for d in range(n)
    ]
    out = []

    def sweep(d, prefix):
        first, last = lo[d], hi[d]
        for r, c, rest in active[d]:
            t = sums[r] + rest
            if c > 0:
                first = max(first, -(t // c))
            else:
                last = min(last, t // -c)
        if d == n - 1:
            if first <= last:
                out.append((prefix, first, last))
            return
        moved = [(r, c, sums[r]) for r, c, _ in active[d]]
        for k in range(first, last + 1):
            for r, c, s in moved:
                sums[r] = s + c * k
            sweep(d + 1, prefix + (k,))
        for r, _, s in moved:
            sums[r] = s

    sweep(0, ())
    # `sweep` refers to itself through its closure cell: the cycle would
    # keep `out` alive until the collector runs
    del sweep
    return out


def _points(runs):
    """The points of `_sweep`'s runs, in order, each a tuple of exact
    ints.  A long run zips the prefix, repeated, with the run's `range`,
    which builds each point in C; a short one (most runs of a `bb`
    height slice) concatenates per point, which costs less to start."""
    out = []
    for prefix, first, last in runs:
        run = range(first, last + 1)
        out.extend(zip(*map(repeat, prefix), run)
                   if last - first >= _SHORT_RUN
                   else (prefix + (k,) for k in run))
    return out


class Polytope(Value):
    """A rational convex polyhedral set, bounded unless stated otherwise.

    A polytope in rank n keeps its homogenization cone in rank n+1, of
    which it is the slice at height one, and compares by that cone; an
    empty one keeps none.  The H-rep pairs (a, ℓ) mean a·m + ℓ ≥ 0, with
    a a primitive integer normal and ℓ an exact int.  Vertices are sorted
    lexicographically, and both representations are read off the cone.
    """

    __slots__ = ("ambient_rank", "vertices", "hrep", "bounded", "dim",
                 "_cone")

    def __init__(self, cone, ambient_rank):
        verts = []
        bounded = cone.is_strongly_convex()
        for r in cone.extreme_rays:
            t = r[-1]
            if t > 0:
                verts.append(tuple(Fraction(x, t) for x in r[:-1]))
            elif t == 0:
                bounded = False
            else:
                raise InternalError("height must be nonnegative")
        if verts:
            # vacuous height constraints like t ≥ 0 have a = 0
            hrep = sorted((n[:-1], n[-1]) for n in cone.facet_normals
                          if any(n[:-1]))
            dim = cone.dim - 1
        else:  # empty; the one H-rep row 0 - 1 ≥ 0 holds nowhere
            cone, bounded, dim = None, True, -1
            hrep = [((0,) * ambient_rank, -1)]
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "vertices", tuple(sorted(verts)))
        object.__setattr__(self, "hrep", tuple(hrep))
        object.__setattr__(self, "bounded", bounded)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_cone", cone)

    @classmethod
    def from_vertices(cls, points, ambient_rank=None):
        points = [tuple(p) for p in points]
        if not points:
            raise ValueError("need at least one point")
        if ambient_rank is None:
            ambient_rank = len(points[0])
        if any(len(p) != ambient_rank for p in points):
            raise ValueError("point has wrong length")
        return cls(Cone([_primitive_lift(p, 1) for p in points],
                        ambient_rank + 1), ambient_rank)

    @classmethod
    def from_hrep(cls, pairs, ambient_rank):
        rows = [_primitive_lift(a, off) for a, off in pairs]
        rows.append(tuple(0 for _ in range(ambient_rank)) + (1,))
        return cls(Cone(rows, ambient_rank + 1).dual(), ambient_rank)

    def contains(self, point) -> bool:
        p = tuple(map(_rational, point))
        return all(_dot(n, p) + off >= 0 for n, off in self.hrep)

    def minkowski_sum(self, other) -> "Polytope":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient rank mismatch")
        if not (self.bounded and other.bounded):
            raise ValueError("unbounded")
        return Polytope.from_vertices(
            [tuple(a + b for a, b in zip(p, q))
             for p in self.vertices for q in other.vertices],
            self.ambient_rank,
        )

    def lattice_points(self):
        """All integer points, as tuples of exact ints, lexicographically
        sorted: the points of `_runs`."""
        runs = self._runs()
        return [()] if runs is None else _points(runs)

    def _runs(self):
        """`_sweep`'s runs over the H-rep inside the vertex bounding box,
        or None in rank 0, where the one point () has no last
        coordinate."""
        if not self.bounded:
            raise ValueError("unbounded")
        if not self.vertices:
            return []
        n = self.ambient_rank
        if n == 0:
            return None
        lo = []
        hi = []
        for i in range(n):
            coords = [v[i] for v in self.vertices]
            lo.append(-int(-min(coords) // 1))
            hi.append(int(max(coords) // 1))
        return _sweep([(*a, off) for a, off in self.hrep], lo, hi)

    def polar(self) -> "Polytope":
        """{n : ⟨m,n⟩ ≥ −1 for every m here}; an involution."""
        if not self.bounded:
            raise ValueError("unbounded")
        if self.dim < self.ambient_rank or any(
            off <= 0 for _, off in self.hrep
        ):
            raise ValueError("polar undefined: origin is not interior")
        # the cone over the polar is the dual of the cone over P, which
        # holds (0, 1) inside: every ray of the dual is at positive height
        return Polytope(self._cone.dual(), self.ambient_rank)

    def normal_fan(self):
        """The complete fan of vertex cones in the dual lattice.

        Cones use the inner-normal convention matching the stored H-rep:
        the cone at a vertex is spanned by the normals of the facets
        through that vertex.
        """
        from .fans import Fan

        if self.dim < self.ambient_rank:
            raise ValueError("not full dimensional")
        if not self.vertices:
            raise ValueError("no vertices")
        cones = []
        for v in self.vertices:
            tight = [
                a
                for a, off in self.hrep
                if _dot(a, v) + off == 0
            ]
            cones.append(Cone(tight, self.ambient_rank))
        return Fan.from_maximal_cones(cones, self.ambient_rank)

    def _key(self):
        return self.ambient_rank, self._cone

    def __repr__(self):
        return (
            f"Polytope(vertices={[list(map(str, v)) for v in self.vertices]!r})"
        )
