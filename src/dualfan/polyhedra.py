"""Exact rational polyhedral cones and polytopes.

Both representations of every cone are computed eagerly at construction
by two integer-only incremental double description passes, generators to
facet normals and back; inequalities go through `Cone(normals).dual()`.
A cone over n independent generators in rank n skips both passes: its
rays are the generators and its facet normals the primitive columns of
the adjugate of the generator matrix, just what double description
finds for such a simplicial cone.
Constraints are inserted in sorted order, so results are deterministic.
Each ray carries its tight set as an int bitmask over the inserted
constraints, and two rays are adjacent when no third ray's mask covers
the AND of theirs (Fukuda & Prodon, *Double Description Method
Revisited*, 1996).  A kernel is computed only when lines remain.
Polytopes ride on top of their homogenization cones: a polytope
in rank n is the slice at height one of a cone in rank n+1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._value import Value
from .lattice import LatticeMap, hnf, kernel_basis


def _dot(a, b):
    return sum(map(mul, a, b))


def primitive_vector(v):
    """Divide out the content; the direction is preserved."""
    v = tuple(int(x) for x in v)
    g = gcd(*v)
    if g <= 1:
        return v
    return tuple(x // g for x in v)


def _combine(s, u, t, v):
    """The primitive vector along s·u − t·v."""
    return primitive_vector(tuple(s * x - t * y for x, y in zip(u, v)))


def _double_description(constraints, ambient):
    """Extreme rays and lineality of {x : c·x ≥ 0 for every c}.

    Returns (rays, lineality) where `rays` generate the pointed part and
    `lineality` is the canonical saturated basis (columns of a kernel) of
    the largest linear subspace inside.  Constraints are deduplicated and
    processed in lexicographic order, making the ray list reproducible.
    Each ray carries the bitmask of the inserted constraints it is tight
    on, bit k for the k-th constraint, updated as constraints go in.
    """
    cons = sorted({primitive_vector(c) for c in constraints if any(c)})
    lin = [tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
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
    lineality = []
    if lin:  # lin spans the kernel of the constraints, so {0} when empty
        lin_basis = kernel_basis(LatticeMap.from_rows(cons, ncols=ambient))
        lineality = [lin_basis.col(j) for j in range(lin_basis.cols)]
    return sorted(r for r, _ in rays), lineality


def _simplicial_normals(gens, n):
    """Sorted facet normals of the cone over n independent vectors in
    rank n, or None for any other list.  Fraction-free Gauss–Jordan
    (Bareiss) takes [G | I] to [d·I | d·G⁻¹] in integers; column i of
    d·G⁻¹ is orthogonal to every g_j but g_i and pairs to d with it."""
    if len(gens) != n:
        return None
    m = [list(g) + [int(i == j) for j in range(n)] for i, g in enumerate(gens)]
    d = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        pivot = m[k]
        for i, row in enumerate(m):
            if i != k:
                c = row[k]
                m[i] = [(pivot[k] * x - c * y) // d
                        for x, y in zip(row, pivot)]
        d = pivot[k]
    sign = 1 if d > 0 else -1
    return sorted(primitive_vector([sign * row[n + i] for row in m])
                  for i in range(n))


def _with_flips(rays, lineality):
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
    """

    __slots__ = ("ambient_rank", "generators", "facet_normals",
                 "lineality_rank", "dim", "_rays", "_lineality",
                 "_dual_rays", "_dual_lineality")

    def __init__(self, generators, ambient_rank):
        gens = sorted({primitive_vector(g) for g in generators if any(g)})
        for g in gens:
            if len(g) != ambient_rank:
                raise ValueError("generator has wrong length")
        normals = _simplicial_normals(gens, ambient_rank)
        if normals is not None:  # simplicial and full-dimensional
            self._install(ambient_rank, gens, (), normals, ())
            return
        dual_rays, dual_lin = _double_description(gens, ambient_rank)
        rays, lin = _double_description(
            _with_flips(dual_rays, dual_lin), ambient_rank
        )
        self._install(ambient_rank, rays, lin, dual_rays, dual_lin)

    def _install(self, ambient_rank, rays, lin, dual_rays, dual_lin):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "_rays", tuple(rays))
        object.__setattr__(self, "_lineality", tuple(lin))
        object.__setattr__(self, "_dual_rays", tuple(dual_rays))
        object.__setattr__(self, "_dual_lineality", tuple(dual_lin))
        object.__setattr__(self, "generators", _with_flips(rays, lin))
        object.__setattr__(self, "facet_normals", _with_flips(dual_rays, dual_lin))
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
        cone._install(
            self.ambient_rank,
            self._dual_rays,
            self._dual_lineality,
            self._rays,
            self._lineality,
        )
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

    def ray_generator(self):
        if self.dim != 1 or not self.is_strongly_convex():
            raise ValueError("not a ray")
        return self._rays[0]

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

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient_rank == other.ambient_rank
            and self.contains_cone(other)
            and other.contains_cone(self)
        )

    def __hash__(self):
        # weak but consistent with mutual-inclusion equality
        return hash((self.ambient_rank, self.dim, self.lineality_rank))

    def __repr__(self):
        return f"Cone({[list(g) for g in self.generators]!r}, {self.ambient_rank})"


def _as_fraction_vector(v):
    return tuple(Fraction(x) for x in v)


def _primitive_lift(vector, last):
    """Primitive integer vector along the rational vector (vector, last):
    a point lifted to height one, or an H-rep row a·m + ℓ ≥ 0."""
    fracs = tuple(Fraction(x) for x in vector) + (Fraction(last),)
    d = lcm(*(x.denominator for x in fracs))
    return primitive_vector(tuple(int(x * d) for x in fracs))


class Polytope(Value):
    """A rational convex polyhedral set, bounded unless stated otherwise.

    The H-rep pairs (a, ℓ) mean a·m + ℓ ≥ 0.  Construction from either
    representation converges to the same canonical fields, with vertices
    sorted lexicographically and facet data inherited from the
    homogenization cone.
    """

    __slots__ = ("ambient_rank", "vertices", "hrep", "bounded", "dim",
                 "_recession", "_lineality")

    def __init__(self, *, ambient_rank, vertices, hrep, bounded, recession, lineality, dim):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "hrep", hrep)
        object.__setattr__(self, "bounded", bounded)
        object.__setattr__(self, "_recession", recession)
        object.__setattr__(self, "_lineality", lineality)
        object.__setattr__(self, "dim", dim)

    @classmethod
    def from_vertices(cls, points, ambient_rank=None):
        points = [tuple(_as_fraction_vector(p)) for p in points]
        if not points:
            raise ValueError("need at least one point")
        if ambient_rank is None:
            ambient_rank = len(points[0])
        if any(len(p) != ambient_rank for p in points):
            raise ValueError("point has wrong length")
        cone = Cone([_primitive_lift(p, 1) for p in points], ambient_rank + 1)
        return cls._from_homogenization(cone, ambient_rank)

    @classmethod
    def from_hrep(cls, pairs, ambient_rank):
        rows = [_primitive_lift(a, off) for a, off in pairs]
        rows.append(tuple(0 for _ in range(ambient_rank)) + (1,))
        return cls._from_homogenization(
            Cone(rows, ambient_rank + 1).dual(), ambient_rank
        )

    @classmethod
    def _from_homogenization(cls, cone, ambient_rank):
        verts = []
        recession = []
        for r in cone.extreme_rays:
            t = r[-1]
            if t > 0:
                verts.append(tuple(Fraction(x, t) for x in r[:-1]))
            elif t == 0:
                recession.append(r[:-1])
            else:
                raise AssertionError("height must be nonnegative")
        # the pass's basis of the lines depends on the H-rep; their
        # Hermite form is canonical, which keeps equality geometric
        lineality = tuple(l[:-1] for l in cone._lineality)
        if lineality:
            lineality = tuple(filter(any, hnf(LatticeMap(lineality))[0].entries))
        hrep = []
        for n in cone.facet_normals:
            a, off = n[:-1], n[-1]
            if not any(a):
                continue  # vacuous height constraints like t ≥ 0
            hrep.append((a, Fraction(off)))
        bounded = not recession and not lineality
        return cls(
            ambient_rank=ambient_rank,
            vertices=tuple(sorted(verts)),
            hrep=tuple(sorted(hrep)),
            bounded=bounded,
            recession=tuple(sorted(recession)),
            lineality=lineality,
            dim=cone.dim - 1 if cone.dim > 0 else -1,
        )

    def is_empty(self) -> bool:
        return not self.vertices and not self._recession and not self._lineality

    def contains(self, point) -> bool:
        p = _as_fraction_vector(point)
        return all(
            sum(a * x for a, x in zip(n, p)) + off >= 0 for n, off in self.hrep
        ) and not self.is_empty()

    def translate(self, vec) -> "Polytope":
        v = _as_fraction_vector(vec)
        return Polytope.from_vertices(
            [tuple(a + b for a, b in zip(p, v)) for p in self.vertices],
            self.ambient_rank,
        )

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
        """All integer points, lexicographically sorted.

        Integer interval sweep over the coordinates, depth first.  Each
        H-rep row is scaled once to an integer row a·m + ℓ ≥ 0, and
        carries a running partial sum ℓ + Σ_{i<d} a_i·m_i down the sweep.
        With the suffix bound R_d = Σ_{i>d} max(a_i·lo_i, a_i·hi_i) over
        the vertex bounding box, a row admits exactly the values k of
        coordinate d with sum + a_d·k + R_d ≥ 0: a floor or ceiling
        division.  Intersecting these bounds gives one interval per
        node, so no value outside it is tried; the last coordinate emits
        its interval whole.  Values run upwards at every depth, which
        makes the output lexicographic without sorting.
        """
        if not self.bounded:
            raise ValueError("unbounded")
        if not self.vertices:
            return []
        n = self.ambient_rank
        if n == 0:
            return [()]
        lo = []
        hi = []
        for i in range(n):
            coords = [v[i] for v in self.vertices]
            lo.append(-int(-min(coords) // 1))
            hi.append(int(max(coords) // 1))
        rows = [_primitive_lift(a, off) for a, off in self.hrep]
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
                out.extend(prefix + (k,) for k in range(first, last + 1))
                return
            moved = [(r, c, sums[r]) for r, c, _ in active[d]]
            for k in range(first, last + 1):
                for r, c, s in moved:
                    sums[r] = s + c * k
                sweep(d + 1, prefix + (k,))
            for r, _, s in moved:
                sums[r] = s

        sweep(0, ())
        return out

    def polar(self) -> "Polytope":
        """{n : ⟨m,n⟩ ≥ −1 for every m here}; an involution."""
        if not self.bounded:
            raise ValueError("unbounded")
        if self.dim < self.ambient_rank or any(
            off <= 0 for _, off in self.hrep
        ):
            raise ValueError("polar undefined: origin is not interior")
        return Polytope.from_hrep(
            [(tuple(v), Fraction(1)) for v in self.vertices],
            self.ambient_rank,
        )

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
                if sum(Fraction(x) * y for x, y in zip(a, v)) + off == 0
            ]
            cones.append(Cone(tight, self.ambient_rank))
        return Fan.from_maximal_cones(cones, self.ambient_rank)

    def _key(self):
        return self.ambient_rank, self.vertices, self._recession, self._lineality

    def __repr__(self):
        return (
            f"Polytope(vertices={[list(map(str, v)) for v in self.vertices]!r})"
        )
