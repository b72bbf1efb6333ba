"""Exact integer linear algebra over free abelian groups.

Everything here runs on Python ints (arbitrary precision) and
`fractions.Fraction`, so there is no overflow and no rounding anywhere.
The normal forms use a fixed pivoting rule (smallest nonzero absolute
value, then lowest index), which makes every output reproducible across
runs and platforms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._value import Value


def _as_int(x):
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"integer entry expected, got {x!r}")
    return x


class LatticeMap(Value):
    """An immutable integer matrix, thought of as a map between lattices.

    Columns are images of the domain basis vectors.  Optional row and
    column labels carry ray or character names through the pipelines;
    they are bookkeeping only and never affect arithmetic or equality.
    """

    __slots__ = ("rows", "cols", "entries", "row_labels", "col_labels")

    def __init__(self, entries, row_labels=None, col_labels=None, cols=None):
        entries = tuple(tuple(_as_int(x) for x in row) for row in entries)
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
        object.__setattr__(self, "row_labels", tuple(row_labels) if row_labels else None)
        object.__setattr__(self, "col_labels", tuple(col_labels) if col_labels else None)
        if self.row_labels and len(self.row_labels) != rows:
            raise ValueError("row label count mismatch")
        if self.col_labels and len(self.col_labels) != cols:
            raise ValueError("col label count mismatch")

    @classmethod
    def identity(cls, n):
        return cls(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
            cols=n,
        )

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
        return LatticeMap(
            ent,
            row_labels=self.col_labels,
            col_labels=self.row_labels,
            cols=self.rows,
        )

    def __matmul__(self, other):
        if isinstance(other, LatticeMap):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = list(zip(*other.entries)) if other.rows else []
            return LatticeMap(
                tuple(
                    tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                    for row in self.entries
                )
                if ot
                else tuple((0,) * other.cols for _ in range(self.rows)),
                cols=other.cols,
            )
        # vector on the right
        vec = tuple(other)
        if self.cols != len(vec):
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.entries)

    def _key(self):
        return self.entries

    def __repr__(self):
        return f"LatticeMap({list(map(list, self.entries))!r})"

    def is_identity(self):
        return self.rows == self.cols and all(
            x == (1 if i == j else 0)
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
        )

    def det(self):
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

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


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def hnf(a: LatticeMap):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U·A, U unimodular, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the
    bottom.  The form is the canonical one, so equal inputs give equal
    outputs bit for bit.
    """
    m = [list(row) for row in a.entries]
    u = _identity_rows(a.rows)
    r = 0
    for c in range(a.cols):
        if r == a.rows:
            break
        # clear the column below r with gcd-style row operations
        while True:
            p = _pivot_below(m, r, c, a.rows)
            if p is None:
                break
            if p != r:
                m[r], m[p] = m[p], m[r]
                u[r], u[p] = u[p], u[r]
            done = True
            for i in range(r + 1, a.rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[r][c] == 0:
            continue
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return LatticeMap(m, cols=a.cols), LatticeMap(u, cols=a.rows)


def snf(a: LatticeMap) -> SmithDecomposition:
    """Smith normal form with both transforms.

    The pivot rule (global smallest nonzero absolute value, then lowest
    row-major position) is fixed, so the decomposition is deterministic.
    """
    nr, nc = a.rows, a.cols
    m = [list(row) for row in a.entries]
    u = _identity_rows(nr)
    v = _identity_rows(nc)

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in m:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(nr, nc):
        # global pivot search over the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = m[i][j]
                if val != 0 and (best is None or abs(val) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        dirty = False
        for i in range(t + 1, nr):
            if m[i][t] != 0:
                row_op(i, t, m[i][t] // m[t][t])
                dirty = dirty or m[i][t] != 0
        for j in range(t + 1, nc):
            if m[t][j] != 0:
                col_op(j, t, m[t][j] // m[t][t])
                dirty = dirty or m[t][j] != 0
        if dirty:
            continue
        # enforce the divisibility chain before moving on
        d = m[t][t]
        culprit = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if m[i][j] % d != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_op(t, culprit, -1)
            continue
        t += 1

    for i in range(min(nr, nc)):
        if m[i][i] < 0:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    return SmithDecomposition(
        LatticeMap(u, cols=nr), LatticeMap(m, cols=nc), LatticeMap(v, cols=nc)
    )


def smith_diagonal(a: LatticeMap):
    return snf(a).diagonal


def kernel_basis(a: LatticeMap) -> LatticeMap:
    """Basis of {x : A·x = 0} as columns; the basis is primitive, i.e.
    it spans the kernel as a saturated sublattice of the domain."""
    dec = snf(a)
    r = dec.rank
    cols = [dec.V.col(j) for j in range(r, a.cols)]
    return LatticeMap.from_cols(cols, nrows=a.cols)


def int_inverse(a: LatticeMap) -> LatticeMap:
    """Inverse of a unimodular integer matrix, again integral."""
    inv = rational_inverse(a)
    ent = []
    for row in inv:
        out = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            out.append(x.numerator)
        ent.append(tuple(out))
    return LatticeMap(ent) if ent else LatticeMap.zero(0, 0)


def rational_inverse(a: LatticeMap):
    """Exact inverse over Q as a tuple-of-tuples of Fractions."""
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a.entries)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return tuple(tuple(row[n:]) for row in m)


def solve_integer(a: LatticeMap, b):
    """Some integer solution x of A·x = b, or None when there is none."""
    b = tuple(_as_int(x) for x in b)
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong length")
    return _solve(a, snf(a), b)


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


def solve_integer_matrix(a: LatticeMap, b: LatticeMap):
    """Integer X with A·X = B, or None.  One Smith decomposition of A
    serves every column."""
    if a.rows != b.rows:
        raise ValueError("shape mismatch")
    dec = snf(a)
    cols = []
    for j in range(b.cols):
        x = _solve(a, dec, b.col(j))
        if x is None:
            return None
        cols.append(x)
    return LatticeMap.from_cols(cols, nrows=a.cols)


def column_lattice_basis(vectors, ambient_rank) -> LatticeMap:
    """Canonical basis (as columns) of the lattice spanned by `vectors`.

    The basis is the transposed row-Hermite form of the generator list,
    so it only depends on the spanned lattice, never on the generator
    order.
    """
    vecs = [tuple(v) for v in vectors if any(v)]
    if not vecs:
        return LatticeMap.zero(ambient_rank, 0)
    h, _ = hnf(LatticeMap.from_rows(vecs))
    rows = [r for r in h.entries if any(r)]
    return LatticeMap.from_cols([tuple(r) for r in rows], nrows=ambient_rank)


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


def annihilator_lattice(phases, ambient_rank) -> LatticeMap:
    """Basis (as columns) of {m ∈ Zⁿ : m·q ∈ Z for every phase q}.

    This is the character lattice of the quotient torus by the finite
    subgroup the phases generate; its index in Zⁿ equals the order of
    that subgroup.
    """
    phases = [tuple(Fraction(x) for x in q) for q in phases]
    for q in phases:
        if len(q) != ambient_rank:
            raise ValueError("phase vector has wrong length")
    if not phases:
        return LatticeMap.identity(ambient_rank)
    ell = 1
    for q in phases:
        for x in q:
            ell = ell * x.denominator // gcd(ell, x.denominator)
    # m annihilates all phases iff (ell·Q)ᵗ·m ≡ 0 mod ell
    rows = [
        tuple(int(x * ell) for x in q) for q in phases
    ]
    stacked = LatticeMap.from_rows(
        [row + tuple(ell if j == i else 0 for j in range(len(phases)))
         for i, row in enumerate(rows)]
    )
    ker = kernel_basis(stacked)
    projected = [ker.col(j)[:ambient_rank] for j in range(ker.cols)]
    return column_lattice_basis(projected, ambient_rank)
