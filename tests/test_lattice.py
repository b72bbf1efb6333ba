"""Tests for the exact integer linear algebra layer.

Expected values were fixed ahead of the implementation: small cases are
worked out by hand, larger ones are cross-checked in the test body against
an independent computation (float determinants, brute-force residue or
subgroup enumeration).
"""

import random
from enum import IntEnum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfan.lattice import (
    LatticeMap,
    SmithDecomposition,
    _identity_rows,
    _smith,
    annihilator_lattice,
    cokernel,
    column_lattice_basis,
    hnf,
    int_inverse,
    kernel_basis,
    rational_inverse,
    saturate_column_lattice,
    smith_diagonal,
    snf,
    solve_integer,
    solve_integer_matrix,
)

# Degree-5 Fermat-pencil exponent lattice, written in a basis of the
# degree-zero characters; the cokernel is the (Z/5)^3 symmetry group.
QUINTIC_RESTRICTION = LatticeMap(
    [
        [4, -1, -1, -1],
        [-1, 4, -1, -1],
        [-1, -1, 4, -1],
        [-1, -1, -1, 4],
    ]
)


@st.composite
def lattice_maps(draw, max_dim=4, max_entry=9):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    ent = draw(
        st.lists(
            st.lists(st.integers(-max_entry, max_entry), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return LatticeMap(ent)


@st.composite
def square_nonsingular(draw, max_dim=4, max_entry=9):
    a = draw(lattice_maps(max_dim=max_dim, max_entry=max_entry))
    n = min(a.rows, a.cols)
    sq = LatticeMap([row[:n] for row in a.entries[:n]], cols=n)
    if sq.det() == 0:
        sq = LatticeMap(
            [
                [x + (7 if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(sq.entries)
            ],
            cols=n,
        )
    if sq.det() == 0:
        sq = LatticeMap.identity(n)
    return sq


def is_row_hermite(h):
    pivots = []
    for row in h.entries:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            pivots.append(None)
            continue
        if pivots and pivots[-1] is None:
            return False  # nonzero row under a zero row
        j = nz[0]
        if pivots and pivots[-1] is not None and j <= pivots[-1]:
            return False
        if row[j] <= 0:
            return False
        pivots.append(j)
    for r, j in enumerate(pivots):
        if j is None:
            continue
        for i in range(r):
            if not 0 <= h.entries[i][j] < h.entries[r][j]:
                return False
    return True


def float_det(a):
    return round(float(np.linalg.det(np.array(a.entries, dtype=np.int64))))


# ---------------------------------------------------------------- hnf


class _Small(IntEnum):
    THREE = 3


@pytest.mark.parametrize("bad", [True, Fraction(2), 1.0, "1", None])
def test_lattice_map_names_its_first_entry_that_is_not_an_integer(bad):
    # alone, and in row order before the None of a later row
    for entries in ([[1, 2], [3, bad]], [[1, 2], [3, bad], [None, 4.5]]):
        with pytest.raises(TypeError) as err:
            LatticeMap(entries)
        assert str(err.value) == f"integer entry expected, got {bad!r}"


def test_lattice_map_keeps_int_subclass_entries():
    m = LatticeMap([[_Small.THREE, 2], (0, 1)])
    assert m.entries == ((3, 2), (0, 1))
    assert type(m.entries[0][0]) is _Small


def test_lattice_map_rejects_ragged_and_non_iterable_rows():
    with pytest.raises(ValueError, match="^ragged matrix$"):
        LatticeMap([[1, 2], [3]])
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        LatticeMap([[1, 2], 5])
    with pytest.raises(ValueError, match="explicit column count"):
        LatticeMap([])
    assert LatticeMap([[]]).entries == ((),)


def test_hnf_identity_is_fixed():
    ident = LatticeMap.identity(3)
    h, u = hnf(ident)
    assert h == ident
    assert u == ident


def test_hnf_small_example():
    a = LatticeMap([[2, 4], [1, 1]])
    h, u = hnf(a)
    assert h == LatticeMap([[1, 1], [0, 2]])
    assert u @ a == h
    assert abs(u.det()) == 1


def test_hnf_zero_matrix():
    z = LatticeMap.zero(2, 3)
    h, u = hnf(z)
    assert h == z
    assert u == LatticeMap.identity(2)


@given(lattice_maps())
def test_hnf_defining_equations(a):
    h, u = hnf(a)
    assert u @ a == h
    assert abs(u.det()) == 1
    assert is_row_hermite(h)


def test_hnf_canonical_under_row_operations():
    # H depends only on the row lattice, not on the generators handed in.
    rng = random.Random(20240926)
    for _ in range(40):
        n = rng.randrange(2, 5)
        a = LatticeMap([[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)])
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randint(-3, 3)
            u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        h1, _ = hnf(a)
        h2, _ = hnf(LatticeMap(u) @ a)
        assert h1 == h2


# ---------------------------------------------------------------- snf


def test_snf_diag_2_3():
    dec = snf(LatticeMap([[2, 0], [0, 3]]))
    assert dec.diagonal == (1, 6)
    assert dec.U @ LatticeMap([[2, 0], [0, 3]]) @ dec.V == dec.D
    assert abs(dec.U.det()) == 1
    assert abs(dec.V.det()) == 1


def test_snf_identity():
    dec = snf(LatticeMap.identity(4))
    assert dec.D == LatticeMap.identity(4)


def test_snf_quintic_restriction():
    dec = snf(QUINTIC_RESTRICTION)
    assert dec.diagonal == (1, 5, 5, 5)
    assert dec.invariant_factors == (5, 5, 5)
    # independent order check: the quotient has |det| elements
    assert float_det(QUINTIC_RESTRICTION) == 125
    # exponent 5: 5·e_i always lands in the column lattice, e_i never does
    for i in range(4):
        e = tuple(int(i == j) for j in range(4))
        assert solve_integer(QUINTIC_RESTRICTION, tuple(5 * x for x in e)) is not None
        assert solve_integer(QUINTIC_RESTRICTION, e) is None


@given(lattice_maps())
def test_snf_decomposition_properties(a):
    dec = snf(a)
    assert dec.U @ a @ dec.V == dec.D
    assert abs(dec.U.det()) == 1
    assert abs(dec.V.det()) == 1
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal entries all zero
    for i, row in enumerate(dec.D.entries):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


@given(lattice_maps())
def test_snf_is_deterministic(a):
    d1 = snf(a)
    d2 = snf(a)
    assert (d1.U, d1.D, d1.V) == (d2.U, d2.D, d2.V)


# ---------------------------------------------------------------- kernels


def reference_snf(a):
    """Smith normal form with separate U and V lists and one helper per
    operation: the form every transform and group lift was first pinned
    with, kept as the reference for `_smith`."""
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
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                val = m[i][j]
                if val != 0 and (best is None
                                 or abs(val) < abs(m[best[0]][best[1]])):
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


def smith_cases(count, seed):
    """Seeded matrices of every shape up to 5×6, with zero rows and
    columns planted in some, entries small or large, dense or sparse."""
    rng = random.Random(seed)
    cases = [LatticeMap.zero(r, c) for r in range(4) for c in range(4)]
    for _ in range(count):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        size = rng.choice((1, 2, 9, 60))
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [[rng.randint(-size, size) if rng.random() < density else 0
                 for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.25:
            rows[rng.randrange(nr)] = [0] * nc
        if rng.random() < 0.25:
            j = rng.randrange(nc)
            for row in rows:
                row[j] = 0
        cases.append(LatticeMap(rows, cols=nc))
    return cases


def test_snf_matches_the_reference_transforms():
    # U, D and V all agree, and so do the one-sided passes that read
    # only D and V ([A; I]) or only D (A alone): group lifts read V
    for a in smith_cases(3000, seed=20151):
        expected = reference_snf(a)
        dec = snf(a)
        assert (dec.U, dec.D, dec.V) == (expected.U, expected.D,
                                         expected.V), a
        nr, nc = a.rows, a.cols
        m = _smith([list(r) for r in a.entries] + _identity_rows(nc), nr, nc)
        assert m[:nr] == [list(r) for r in expected.D.entries], a
        assert m[nr:] == [list(r) for r in expected.V.entries], a
        m = _smith([list(r) for r in a.entries], nr, nc)
        assert m == [list(r) for r in expected.D.entries], a
        assert smith_diagonal(a) == expected.diagonal, a


def test_kernel_of_sum_relation():
    a = LatticeMap([[1, 1, 1, 1, 1]])
    k = kernel_basis(a)
    assert k.cols == 4
    for j in range(4):
        assert sum(k.col(j)) == 0
    assert all(x == 0 for x in a @ k @ (1, 1, 1, 1))


def test_kernel_identity_empty():
    k = kernel_basis(LatticeMap.identity(3))
    assert k.cols == 0
    assert k.rows == 3


def test_kernel_zero_map_full():
    k = kernel_basis(LatticeMap.zero(1, 3))
    assert k.cols == 3
    assert abs(k.det()) == 1


@given(lattice_maps())
def test_kernel_basis_is_primitive(a):
    k = kernel_basis(a)
    prod = a @ k
    assert all(x == 0 for row in prod.entries for x in row)
    assert k.cols == a.cols - a.rank()
    # primitive basis: the Smith form of the basis matrix is [I; 0], and
    # saturating changes nothing about the spanned lattice
    assert snf(k).invariant_factors == ()
    sat = saturate_column_lattice(k)
    assert column_lattice_basis(sat.columns(), a.cols) == column_lattice_basis(
        k.columns(), a.cols
    )


# ---------------------------------------------------------------- cokernels


def test_cokernel_multiplication_by_two():
    free, tor = cokernel(LatticeMap([[2]]))
    assert free == 0
    assert tor.invariant_factors == (2,)


def test_cokernel_symmetric_example():
    free, tor = cokernel(LatticeMap([[2, 1], [1, 2]]))
    assert free == 0
    assert tor.invariant_factors == (3,)


def test_cokernel_quintic_restriction():
    free, tor = cokernel(QUINTIC_RESTRICTION)
    assert free == 0
    assert tor.invariant_factors == (5, 5, 5)
    # each generator lift really has order 5 in the quotient
    for d, lift in zip(tor.invariant_factors, tor.lifts):
        vec = tuple(int(x) for x in lift)
        assert solve_integer(QUINTIC_RESTRICTION, tuple(d * x for x in vec)) is not None
        for k in range(1, d):
            assert solve_integer(QUINTIC_RESTRICTION, tuple(k * x for x in vec)) is None


@given(square_nonsingular())
def test_cokernel_order_is_determinant(a):
    free, tor = cokernel(a)
    assert free == 0
    assert tor.order == abs(float_det(a))


def test_cokernel_free_rank():
    free, tor = cokernel(LatticeMap([[1, 0], [0, 0]]))
    assert free == 1
    assert tor.invariant_factors == ()


# ---------------------------------------------------------------- solving


def test_solve_diagonal_cases():
    a = LatticeMap([[2, 0], [0, 2]])
    assert solve_integer(a, (2, 4)) == (1, 2)
    assert solve_integer(a, (1, 0)) is None


def test_solve_quintic_image_membership():
    # agrees with the cokernel computation: every generator column is in
    # the image, no plain basis vector is
    for j in range(4):
        col = QUINTIC_RESTRICTION.col(j)
        x = solve_integer(QUINTIC_RESTRICTION, col)
        assert x is not None and QUINTIC_RESTRICTION @ x == col
        e = tuple(int(i == j) for i in range(4))
        assert solve_integer(QUINTIC_RESTRICTION, e) is None


@given(lattice_maps(), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_solve_round_trip(a, xs):
    x = tuple(xs[: a.cols])
    if len(x) < a.cols:
        x = x + (0,) * (a.cols - len(x))
    b = a @ x
    y = solve_integer(a, b)
    assert y is not None
    assert a @ y == b


def test_solve_matrix_columnwise():
    a = LatticeMap([[2, 0], [0, 3]])
    b = LatticeMap([[4, 2], [3, 0]])
    x = solve_integer_matrix(a, b)
    assert x is not None and a @ x == b
    assert solve_integer_matrix(a, LatticeMap([[1, 0], [0, 1]])) is None


# ---------------------------------------------------------------- inverses


def test_int_inverse_unimodular():
    u = LatticeMap([[2, 1], [1, 1]])
    assert u @ int_inverse(u) == LatticeMap.identity(2)
    with pytest.raises(ValueError):
        int_inverse(LatticeMap([[2, 0], [0, 1]]))


def test_rational_inverse():
    inv = rational_inverse(LatticeMap([[2, 0], [0, 4]]))
    assert inv == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 4)))


# ------------------------------------------------------- column lattices


def test_column_lattice_basis_is_order_free():
    vecs = [(2, 4), (1, 1), (0, 2)]
    b1 = column_lattice_basis(vecs, 2)
    b2 = column_lattice_basis(list(reversed(vecs)), 2)
    assert b1 == b2
    assert abs(b1.det()) == 2  # index matches the spanned lattice


def test_saturation():
    b = saturate_column_lattice(LatticeMap.from_cols([(2, 4)], nrows=2))
    assert b == LatticeMap.from_cols([(1, 2)], nrows=2)
    full = saturate_column_lattice(LatticeMap.from_cols([(2, 0), (0, 3)], nrows=2))
    assert abs(full.det()) == 1



def test_saturation_is_canonical():
    # two bases of one lattice, the second the first times a random
    # unimodular matrix, saturate to the same basis
    rng = random.Random(20151)
    for _ in range(300):
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        a = LatticeMap.from_cols(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)],
            nrows=n)
        u = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(3):
            i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
            if i != j:
                m = rng.randint(-2, 2)
                for row in u:
                    row[i] += m * row[j]
            if rng.random() < 0.5:
                for row in u:
                    row[i] = -row[i]
        b = a @ LatticeMap(u)
        assert saturate_column_lattice(a) == saturate_column_lattice(b), a


# ------------------------------------------------------- annihilators


def test_annihilator_no_phases():
    assert annihilator_lattice([], 3) == LatticeMap.identity(3)


def test_annihilator_half_half():
    a = annihilator_lattice([(Fraction(1, 2), Fraction(1, 2))], 2)
    assert abs(a.det()) == 2
    for x in range(-3, 4):
        for y in range(-3, 4):
            member = solve_integer(a, (x, y)) is not None
            assert member == ((x + y) % 2 == 0)


def test_annihilator_diag_five():
    phases = [
        tuple(Fraction(1, 5) if j == i else Fraction(0) for j in range(5))
        for i in range(5)
    ]
    a = annihilator_lattice(phases, 5)
    assert a == LatticeMap(
        [[5 if i == j else 0 for j in range(5)] for i in range(5)]
    )
    assert abs(a.det()) == 5**5


def brute_force_subgroup(phases, rank):
    seen = {tuple(Fraction(0) for _ in range(rank))}
    frontier = list(seen)
    while frontier:
        cur = frontier.pop()
        for q in phases:
            nxt = tuple((a + b) % 1 for a, b in zip(cur, q))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


@given(
    st.lists(
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
        min_size=0,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_annihilator_index_is_subgroup_order(numerators):
    # sixths keep the generated subgroup below the 625-element cap
    phases = [tuple(Fraction(k, 6) for k in q) for q in numerators]
    a = annihilator_lattice(phases, 3)
    group = brute_force_subgroup(phases, 3)
    assert len(group) <= 625
    assert abs(a.det()) == len(group)
    for j in range(a.cols):
        col = a.col(j)
        for q in phases:
            assert sum(Fraction(m) * x for m, x in zip(col, q)) % 1 == 0
