"""Exact integer linear algebra over free abelian groups.

Everything here runs on Python ints (arbitrary precision) and
`fractions.Fraction`, so there is no overflow and no rounding anywhere.
The normal forms use a fixed pivoting rule (smallest nonzero absolute
value, then lowest index), which makes every output reproducible across
runs and platforms.

Square matrices go through one routine, `_adjugate`.  Below 4×4 it
writes out the cofactors; from 4×4 on it runs fraction-free Gauss–Jordan
(Bareiss, *Math. Comp.* 22, 1968) on [A | I].  By Sylvester's identity
each update at step k is the previous pivot times a (k+1)-minor of
[A | I] before its `//`, so every division is exact.  `det`, both
inverses, the simplicial facet normals of `polyhedra`, the smoothness
test of `fans`, the symmetry groups of `mirrors.bhk` and the solves of
a square nonsingular system read it: such a system has the one solution
adj(A)·b / det A, so it needs no Smith form.  A row that holds 0 under
the pivot when the pivot repeats the one before is left as it is: its
update would give it back unchanged.

Every Smith form goes through one routine, `_smith`, written like
`_hermite`: it eliminates in place on the rows it is given, row
operations carry any columns past the matrix and column operations any
rows below it.  `snf` runs it on [[A | I], [I | 0]] to read U, D and V;
`FiniteAbelianGroup.from_phases` reads only D and V and passes [A; I],
and `smith_diagonal`, the one reader of D alone, passes A alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from operator import add, mul

from ._value import Value


def _as_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


def _integer(x):
    """An int, or a Fraction with denominator 1, as an int."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise ValueError(f"{x!r} is not an integer")


def _rational(x):
    """An int or a Fraction, unchanged; a float or a string raises."""
    if isinstance(x, (int, Fraction)):
        return x
    raise ValueError(f"{x!r} is not a rational number")


def _dot(a, b):
    """The pairing Σ aᵢ·bᵢ of two vectors, the one pairing in dualfan."""
    return sum(map(mul, a, b))


def _pairings(rays, vectors):
    """For each ray, the list of its pairings with every vector of a
    family of that length: one C-level pass over the family, which adds
    up the family's coordinate columns scaled by the ray's nonzero
    coordinates."""
    columns = list(zip(*vectors))
    zero = [0] * len(vectors)
    out = []
    for r in rays:
        acc = zero
        for x, col in zip(r, columns):
            if x:
                acc = map(add, acc,
                          col if x == 1 else map(mul, col, repeat(x)))
        out.append(list(acc))
    return out


def _lattice_vector(v, what="vector"):
    """`v` as a tuple of ints by the `_integer` rule, never truncated."""
    v = tuple(v)
    # one C-level type scan, as in `LatticeMap`
    if {int}.issuperset(map(type, v)):
        return v
    try:
        return tuple(map(_integer, v))
    except ValueError:
        raise ValueError(f"{what} is not a lattice vector: {v}") from None


class LatticeMap(Value):
    """An immutable integer matrix, thought of as a map between lattices.

    Columns are images of the domain basis vectors.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        # one C-level type scan; `_as_int` runs per entry only when it finds
        # a value that is not an exact int, so the same entries are accepted
        # (int subclasses too) and the first bad one is named as before
        entries = tuple(map(tuple, entries))
        if not {int}.issuperset(map(type, chain.from_iterable(entries))):
            for x in chain.from_iterable(entries):
                _as_int(x)
        rows = len(entries)
        if cols is None:
            if rows == 0:
                raise ValueError("a 0-row matrix needs an explicit column count")
            cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @classmethod
    def identity(cls, n):
        return cls(tuple(_unit_vector(i, n) for i in range(n)), cols=n)

    @classmethod
    def zero(cls, rows, cols):
        return cls(tuple((0,) * cols for _ in range(rows)), cols=cols)

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = [tuple(r) for r in rows]
        if not rows:
            if ncols is None:
                raise ValueError("need ncols for an empty row list")
            return cls.zero(0, ncols)
        return cls(rows)

    @classmethod
    def from_cols(cls, cols, nrows=None):
        cols = [tuple(c) for c in cols]
        if not cols:
            if nrows is None:
                raise ValueError("need nrows for an empty column list")
            return cls.zero(nrows, 0)
        return cls(tuple(zip(*cols)))

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(row[j] for row in self.entries)

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def transpose(self):
        if self.rows and self.cols:
            ent = tuple(zip(*self.entries))
        elif self.rows == 0:
            ent = tuple(() for _ in range(self.cols))
        else:
            ent = ()
        return LatticeMap(ent, cols=self.rows)

    def __matmul__(self, other):
        if isinstance(other, LatticeMap):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.entries)) if other.rows else []
            return LatticeMap(
                tuple(tuple(_dot(row, col) for col in ot)
                      for row in self.entries)
                if ot
                else tuple((0,) * other.cols for _ in range(self.rows)),
                cols=other.cols,
            )
        # vector on the right
        vec = tuple(other)
        if self.cols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(_dot(row, vec) for row in self.entries)

    def _key(self):
        return self.entries

    def __repr__(self):
        return f"LatticeMap({list(map(list, self.entries))!r})"

    def det(self):
        """Determinant, from the one square-matrix elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return _adjugate(self.entries)[0]

    def rank(self):
        return len([d for d in smith_diagonal(self) if d != 0])


class SmithDecomposition(Value):
    """Holds U·A·V = D with U, V unimodular and D in Smith normal form."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U, D, V):
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "V", V)

    @property
    def diagonal(self):
        return tuple(
            self.D.entries[i][i] for i in range(min(self.D.rows, self.D.cols))
        )

    @property
    def rank(self):
        return len([d for d in self.diagonal if d != 0])

    @property
    def invariant_factors(self):
        return tuple(d for d in self.diagonal if d > 1)


def _pivot_below(m, start_row, col, nrows):
    """Row index of the smallest nonzero |entry| in `col` at or below
    `start_row`, preferring the lowest index on ties; None if the column
    is zero there."""
    best = None
    for i in range(start_row, nrows):
        v = m[i][col]
        if v != 0 and (best is None or abs(v) < abs(m[best][col])):
            best = i
    return best


def _unit_vector(i, n):
    """The i-th unit vector of Zⁿ, as a tuple."""
    return (0,) * i + (1,) + (0,) * (n - i - 1)


def _identity_rows(n):
    """The rows of the n×n identity as fresh lists, for elimination in
    place."""
    return [list(_unit_vector(i, n)) for i in range(n)]


def _hermite(m, ncols):
    """Row-Hermite form of the rows `m` on their first `ncols` columns.

    The rows are lists and are changed in place; a row operation acts on
    the whole row, so columns past `ncols` ride along (`hnf` keeps U
    there).  Returns `m`.
    """
    nrows = len(m)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        # clear the column below r with gcd-style row operations
        while True:
            p = _pivot_below(m, r, c, nrows)
            if p is None:
                break
            if p != r:
                m[r], m[p] = m[p], m[r]
            done = True
            for i in range(r + 1, nrows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
    return m


def hnf(a: LatticeMap):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U·A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the
    bottom.  The form is the canonical one, so equal inputs give equal
    outputs bit for bit.  One `_hermite` pass on [A | I] leaves [H | U].
    """
    n = a.cols
    m = _hermite([list(row) + e for row, e in
                  zip(a.entries, _identity_rows(a.rows))], n)
    return (LatticeMap([r[:n] for r in m], cols=n),
            LatticeMap([r[n:] for r in m], cols=a.rows))


def _smith(m, nrows, ncols):
    """Smith form of the rows `m` on their first `nrows` rows and `ncols`
    columns.

    The rows are lists and are changed in place, as in `_hermite`: a row
    operation acts on the whole row, so columns past `ncols` ride along
    (U, when they start as I), and a column operation acts on the whole
    column, so rows past `nrows` ride along (V, when they start as I).
    The pivot rule (global smallest nonzero absolute value, then lowest
    row-major position) is fixed, so the form is deterministic.  Returns
    `m`, with the diagonal d₁ | d₂ | … made nonnegative.
    """
    t = 0
    while t < min(nrows, ncols):
        # global pivot search over the trailing block
        best = None
        for i in range(t, nrows):
            row = m[i]
            for j in range(t, ncols):
                val = row[j]
                if val != 0 and (best is None or abs(val) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            m[t], m[bi] = m[bi], m[t]
        if bj != t:
            for row in m:
                row[t], row[bj] = row[bj], row[t]
        pivot = m[t]
        dirty = False
        for i in range(t + 1, nrows):
            if m[i][t] != 0:
                q = m[i][t] // pivot[t]
                m[i] = [x - q * y for x, y in zip(m[i], pivot)]
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, ncols):
            if pivot[j] != 0:
                q = pivot[j] // pivot[t]
                for row in m:
                    row[j] -= q * row[t]
                dirty = dirty or pivot[j] != 0
        if dirty:
            continue
        # enforce the divisibility chain before moving on
        d = pivot[t]
        culprit = next((i for i in range(t + 1, nrows)
                        if any(m[i][j] % d for j in range(t + 1, ncols))),
                       None)
        if culprit is not None:
            m[t] = [x + y for x, y in zip(pivot, m[culprit])]
            continue
        t += 1
    for i in range(min(nrows, ncols)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
    return m


def snf(a: LatticeMap) -> SmithDecomposition:
    """Smith normal form with both transforms: one `_smith` pass on
    [[A | I], [I | 0]] leaves [[D | U], [V | 0]]."""
    nr, nc = a.rows, a.cols
    m = _smith([list(row) + e for row, e in
                zip(a.entries, _identity_rows(nr))]
               + [e + [0] * nr for e in _identity_rows(nc)], nr, nc)
    return SmithDecomposition(
        LatticeMap([r[nc:] for r in m[:nr]], cols=nr),
        LatticeMap([r[:nc] for r in m[:nr]], cols=nc),
        LatticeMap([r[:nc] for r in m[nr:]], cols=nc))


def smith_diagonal(a: LatticeMap):
    """The Smith diagonal d₁ | d₂ | … of A, from one `_smith` pass on A
    alone: no transform is carried."""
    m = _smith([list(row) for row in a.entries], a.rows, a.cols)
    return tuple(m[i][i] for i in range(min(a.rows, a.cols)))


def kernel_basis(a: LatticeMap) -> LatticeMap:
    """Basis of {x : A·x = 0} as columns; the basis is primitive, i.e.
    it spans the kernel as a saturated sublattice of the domain."""
    dec = snf(a)
    r = dec.rank
    cols = [dec.V.col(j) for j in range(r, a.cols)]
    return LatticeMap.from_cols(cols, nrows=a.cols)


def _adjugate(rows):
    """(det A, adj A) for the square matrix with these integer rows, or
    (0, None) when A is singular.  Below 4×4 the cofactors are written
    out; from 4×4 on, [A | I] ends at [d·I | d·A⁻¹] with d = ±det A, the
    sign counting the row swaps."""
    n = len(rows)
    if n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        return (det, [[d, -b], [-c, a]]) if det else (0, None)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        ei, fg, dh = e * i - f * h, f * g - d * i, d * h - e * g
        det = a * ei + b * fg + c * dh
        if not det:
            return 0, None
        return det, [[ei, c * h - b * i, b * f - c * e],
                     [fg, a * i - c * g, c * d - a * f],
                     [dh, b * g - a * h, a * e - b * d]]
    if n < 2:
        det = rows[0][0] if n else 1
        return (det, [[1]] * n) if det else (0, None)
    m = [list(r) + e for r, e in zip(rows, _identity_rows(n))]
    d, sign = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot, pk = m[k], m[k][k]
        for i, row in enumerate(m):
            c = row[k]
            # with c = 0 the update is pk·row // d, the row itself when
            # the pivot repeats
            if i != k and (c or pk != d):
                m[i] = [(pk * x - c * y) // d for x, y in zip(row, pivot)]
        d = pk
    return sign * d, [r[n:] if sign > 0 else [-x for x in r[n:]] for r in m]


def _square_adjugate(a):
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    det, adj = _adjugate(a.entries)
    if adj is None:
        raise ValueError("matrix is singular")
    return det, adj


def int_inverse(a: LatticeMap) -> LatticeMap:
    """Inverse of a unimodular integer matrix, again integral."""
    det, adj = _square_adjugate(a)
    if abs(det) != 1:
        raise ValueError("matrix is not unimodular")
    return LatticeMap([[det * x for x in row] for row in adj], cols=a.rows)


def rational_inverse(a: LatticeMap):
    """Exact inverse over Q as a tuple-of-tuples of Fractions."""
    det, adj = _square_adjugate(a)
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def solve_integer(a: LatticeMap, b):
    """Some integer solution x of A·x = b, or None when there is none."""
    b = tuple(map(_as_int, b))
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    xs = _solve_columns(a, [b])
    return None if xs is None else xs[0]


def _solve(a, dec, b):
    """`solve_integer` given the Smith decomposition `dec` of A."""
    c = dec.U @ b
    y = [0] * a.cols
    for i in range(a.rows):
        d = dec.D.entries[i][i] if i < min(a.rows, a.cols) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return dec.V @ y


def _solve_columns(a, columns):
    """One integer solution of A·x = b per right-hand side b, or None
    when some b has none.  A square nonsingular A has the one solution
    adj(A)·b / det A; any other A shares one Smith decomposition."""
    det, adj = _adjugate(a.entries) if a.rows == a.cols else (0, None)
    dec = snf(a) if adj is None else None
    xs = []
    for b in columns:
        if adj is None:
            x = _solve(a, dec, b)
        else:
            x = [_dot(row, b) for row in adj]
            x = None if any(v % det for v in x) else tuple(v // det for v in x)
        if x is None:
            return None
        xs.append(x)
    return xs


def solve_integer_matrix(a: LatticeMap, b: LatticeMap):
    """Integer X with A·X = B, or None, from one elimination of A."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch")
    cols = _solve_columns(a, b.columns())
    return None if cols is None else LatticeMap.from_cols(cols, nrows=a.cols)


def column_lattice_basis(vectors, ambient_rank) -> LatticeMap:
    """Canonical basis (as columns) of the lattice spanned by `vectors`.

    The basis is the transposed row-Hermite form of the generator list,
    so it only depends on the spanned lattice, never on the generator
    order.
    """
    vecs = [tuple(v) for v in vectors if any(v)]
    if not vecs:
        return LatticeMap.zero(ambient_rank, 0)
    ncols = LatticeMap(vecs).cols  # the entry and shape checks
    rows = filter(any, _hermite([list(v) for v in vecs], ncols))
    return LatticeMap.from_cols(rows, nrows=ambient_rank)


def saturate_column_lattice(basis: LatticeMap) -> LatticeMap:
    """Canonical basis of (span ∩ Zⁿ) for the column span of `basis`."""
    if basis.cols == 0:
        return basis
    perp = kernel_basis(basis.transpose())
    return kernel_basis(perp.transpose())


def cokernel(a: LatticeMap):
    """Cokernel of A: the pair (free rank, torsion group).

    Torsion generator lifts are integer vectors in the codomain whose
    classes have order equal to the matching invariant factor.
    """
    from .groups import FiniteAbelianGroup

    dec = snf(a)
    r = dec.rank
    free_rank = a.rows - r
    u_inv = int_inverse(dec.U) if a.rows else LatticeMap.zero(0, 0)
    factors = []
    lifts = []
    for i in range(r):
        d = dec.D.entries[i][i]
        if d > 1:
            factors.append(d)
            lifts.append(tuple(Fraction(x) for x in u_inv.col(i)))
    torsion = FiniteAbelianGroup(tuple(factors), tuple(lifts), a.rows)
    return free_rank, torsion


def _scaled_phases(phases, ambient_rank, ell=1):
    """(ell, columns): ell is the least common multiple of the given `ell`
    and every denominator of the phases, and the columns are the phases
    times ell, as int tuples.  Every phase entry is read by `_rational`."""
    phases = [tuple(map(_rational, q)) for q in phases]
    if any(len(q) != ambient_rank for q in phases):
        raise ValueError("phase vector has wrong length")
    ell = lcm(ell, *(x.denominator for q in phases for x in q))
    return ell, [tuple(x.numerator * (ell // x.denominator) for x in q)
                 for q in phases]


def _phase_lattice(phases, ambient_rank):
    """`_scaled_lattice` of the phase vectors, through `_scaled_phases`."""
    return _scaled_lattice(*_scaled_phases(phases, ambient_rank),
                           ambient_rank)


def _scaled_lattice(ell, cols, ambient_rank):
    """(ell, B, Y) with B the canonical column basis of ell·L, where
    L = Zⁿ + Σ Z·c/ell over the integer columns c, ell is the lcm of the
    reduced denominators of the c/ell, and Y = ell·B⁻¹.

    ell·Zⁿ ⊆ ell·L, so B is a nonsingular n×n matrix that depends only on
    ell and L, and Y is integral.  B's columns are the Hermite rows h_j,
    upper triangular with positive pivots, so back substitution solves
    Y·B = ell·I: row r of Y has y_j = 0 for j > r and, for j = r, …, 0,
    y_j = (ell·[j = r] − Σ_{i>j} y_i·h_j[i]) / h_j[j], an exact division.
    """
    cols = list(cols) + [tuple(ell * x for x in row)
                         for row in _identity_rows(ambient_rank)]
    basis = column_lattice_basis(cols, ambient_rank)
    h = basis.columns()
    y = []
    for r in range(ambient_rank):
        row = [0] * ambient_rank
        row[r] = ell // h[r][r]
        for j in range(r - 1, -1, -1):
            row[j] = -_dot(row[j + 1:r + 1], h[j][j + 1:r + 1]) // h[j][j]
        y.append(row)
    return ell, basis, LatticeMap(y, cols=ambient_rank)


def annihilator_lattice(phases, ambient_rank) -> LatticeMap:
    """Basis (as columns) of {m ∈ Zⁿ : m·q ∈ Z for every phase q}.

    This is the character lattice of the quotient torus by the finite
    subgroup the phases generate; its index in Zⁿ equals the order of
    that subgroup.
    """
    # the lattice is L* = (B/ell)⁻ᵀ·Zⁿ, generated by the rows of Y
    y = _phase_lattice(phases, ambient_rank)[2]
    return column_lattice_basis(y.entries, ambient_rank)
