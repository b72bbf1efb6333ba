"""Square-matrix kernels against two independent references.

`det`, `rational_inverse` and `int_inverse` all read one fraction-free
elimination.  They are checked here against textbook routines kept
below (forward Bareiss for the determinant, Gauss–Jordan over `Fraction`
for the inverse), and against sympy, which also serves as the oracle
for the Smith diagonal.  The integer solves and the smoothness test,
which take the same elimination for a square nonsingular matrix, are
checked against the Smith-form route they take for any other matrix.
"""

import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

from dualfan.fans import Fan, is_smooth
from dualfan.lattice import (LatticeMap, _adjugate, _solve, int_inverse,
                             rational_inverse, snf, solve_integer,
                             solve_integer_matrix)
from dualfan.polyhedra import primitive_vector


def reference_det(a):
    """Determinant by forward-only fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
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


def reference_rational_inverse(a):
    """Gauss–Jordan over Fraction."""
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


def reference_int_inverse(inv):
    """The integral inverse, or the error, from a rational inverse."""
    ent = []
    for row in inv:
        out = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            out.append(x.numerator)
        ent.append(tuple(out))
    return LatticeMap(ent) if ent else LatticeMap.zero(0, 0)


def outcome(f, a):
    try:
        return "value", f(a)
    except ValueError as e:
        return "error", str(e)


def unimodular(rng, n, size=3):
    """L·U with random ±1 diagonals and small entries off them, rows
    shuffled so that elimination has to swap."""
    def triangle(lower):
        return [[rng.choice((-1, 1)) if i == j
                 else rng.randint(-size, size) if (i > j) == lower else 0
                 for j in range(n)] for i in range(n)]
    rows = list((LatticeMap(triangle(True), cols=n)
                 @ LatticeMap(triangle(False), cols=n)).entries)
    rng.shuffle(rows)
    return rows


def singular(rng, n, size=50):
    """n rows of which the last is an integer combination of the others,
    shuffled."""
    rows = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n - 1)]
    coeffs = [rng.randint(-2, 2) for _ in rows]
    rows.append([sum(c * r[j] for c, r in zip(coeffs, rows))
                 for j in range(n)])
    rng.shuffle(rows)
    return rows


def square_cases(count, seed):
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = i % 8
        kind = rng.random()
        if n and kind < 0.15:
            rows = singular(rng, n)
        elif kind < 0.25:
            rows = unimodular(rng, n)
        else:
            rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        cases.append(LatticeMap(rows, cols=n))
    return cases


def check_square_kernels(a):
    """`det` and both inverses of A against the textbook routines; the
    reference determinant, or its error text."""
    expected = outcome(reference_det, a)
    assert outcome(LatticeMap.det, a) == expected
    det = expected[1]
    expected = outcome(reference_rational_inverse, a)
    assert outcome(rational_inverse, a) == expected
    if expected[0] == "value":
        expected = outcome(reference_int_inverse, expected[1])
    assert outcome(int_inverse, a) == expected
    return det


def sparse_cases(count, seed):
    """Seeded 4×4 to 7×7 matrices of 0 and ±1, mostly 0: many columns
    hold 0 under their pivot, and many pivots repeat the one before."""
    rng = random.Random(seed)
    return [LatticeMap([[rng.choice((-1, 1)) if rng.random() < density
                         else 0 for _ in range(n)] for _ in range(n)],
                       cols=n)
            for n, density in ((rng.randint(4, 7), rng.choice((0.3, 0.5)))
                               for _ in range(count))]


def test_square_kernels_match_the_textbook_routines():
    cases = square_cases(5000, seed=19680101)
    cases += [LatticeMap.zero(r, c) for r, c in [(0, 2), (2, 0), (1, 3)]]
    cases += [LatticeMap([[1, 2, 3], [4, 5, 6]]), LatticeMap([[1], [2]])]
    dets = [check_square_kernels(a) for a in cases]
    # the seeded mix holds singular, unimodular and non-square matrices
    assert 0.10 < dets.count(0) / len(cases) < 0.20
    assert sum(d in (1, -1) for d in dets) > 500
    assert sum(d == -1 for d in dets) > 100
    assert dets.count("determinant of a non-square matrix") == 5
    # sparse sign matrices, where the elimination skips unchanged rows
    dets = [check_square_kernels(a) for a in sparse_cases(1500, seed=1968)]
    assert 150 < dets.count(0) < 1350
    assert sum(abs(d) == 1 for d in dets) > 150
    assert sum(abs(d) > 1 for d in dets) > 150


def test_cofactor_adjugates_match_the_textbook_routines():
    # below 4×4 `_adjugate` writes out the cofactors: every 2×2 with
    # entries in [−2, 2], and a seeded mix of 1×1 and 3×3 matrices
    rng = random.Random(1968)
    cases = [LatticeMap([e[:2], e[2:]]) for e in product(range(-2, 3),
                                                          repeat=4)]
    for i in range(600):
        n = 1 + 2 * (i % 2)
        kind = i // 2 % 3
        rows = (singular(rng, n, 6) if kind == 0 else unimodular(rng, n)
                if kind == 1 else [[rng.randint(-9, 9) for _ in range(n)]
                                   for _ in range(n)])
        cases.append(LatticeMap(rows, cols=n))
    cases.append(LatticeMap.zero(0, 0))
    singular_count = 0
    for a in cases:
        det, adj = _adjugate(a.entries)
        assert det == reference_det(a), a
        if det == 0:
            assert adj is None, a
            singular_count += 1
        else:
            assert tuple(tuple(Fraction(x, det) for x in row)
                         for row in adj) == reference_rational_inverse(a), a
    assert len(cases) == 625 + 600 + 1
    assert 200 < singular_count < 625


@st.composite
def square_matrices(draw, max_dim=6, max_entry=20):
    n = draw(st.integers(1, max_dim))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(["random", "unimodular", "singular"]))
    if kind == "unimodular":
        return LatticeMap(unimodular(rng, n), cols=n)
    if kind == "singular":
        return LatticeMap(singular(rng, n, max_entry), cols=n)
    entries = st.integers(-max_entry, max_entry)
    return LatticeMap(draw(st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_square_kernels_match_sympy(a):
    m = Matrix(a.entries)
    det = m.det()
    assert a.det() == det
    if det == 0:
        assert outcome(rational_inverse, a) == ("error", "matrix is singular")
        assert outcome(int_inverse, a) == ("error", "matrix is singular")
        return
    inv = m.inv()
    assert rational_inverse(a) == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in inv.row(i))
        for i in range(a.rows))
    if abs(det) == 1:
        assert int_inverse(a) == LatticeMap(
            [[int(x) for x in row] for row in inv.tolist()])
        assert a @ int_inverse(a) == LatticeMap.identity(a.rows)
    else:
        assert outcome(int_inverse, a) == ("error", "matrix is not unimodular")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_smith_diagonal_matches_sympy(rows, cols, rng):
    size = rng.choice((1, 3, 30))
    a = LatticeMap([[rng.randint(-size, size) for _ in range(cols)]
                    for _ in range(rows)])
    s = smith_normal_form(Matrix(a.entries), domain=ZZ)
    expected = tuple(abs(int(s[i, i])) for i in range(min(rows, cols)))
    assert snf(a).diagonal == expected


def reference_solve_matrix(a, b):
    """A·X = B solved column by column from one Smith decomposition."""
    dec = snf(a)
    cols = [_solve(a, dec, b.col(j)) for j in range(b.cols)]
    return None if None in cols else LatticeMap.from_cols(cols, nrows=a.cols)


def reference_is_smooth(fan):
    """Every cone pointed, with a Smith form of rank len(rays) and no
    invariant factor above one."""
    for cone in fan.cones:
        if not cone.is_strongly_convex():
            return False
        rays = cone.extreme_rays
        dec = snf(LatticeMap.from_rows(list(rays), ncols=fan.lattice_rank))
        if dec.rank != len(rays) or dec.invariant_factors != ():
            return False
    return True


def test_square_solves_match_the_smith_route():
    rng = random.Random(20151)
    seen = dict.fromkeys(("singular", "unimodular", "other", "solved",
                          "unsolved", "smooth", "not smooth"), 0)
    for i in range(720):
        n = 1 + i % 6
        kind = ("singular", "unimodular", "other")[i // 6 % 3]
        if kind == "singular":
            rows = singular(rng, n, 6)
        elif kind == "unimodular":
            rows = unimodular(rng, n)
        else:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        a = LatticeMap(rows, cols=n)
        det = a.det()
        seen["singular" if det == 0 else "unimodular" if abs(det) == 1
             else "other"] += 1
        # one right-hand side in the image of A, one drawn at random
        image = a @ [rng.randint(-4, 4) for _ in range(n)]
        drawn = tuple(rng.randint(-9, 9) for _ in range(n))
        for b in (image, drawn):
            x = solve_integer(a, b)
            assert x == _solve(a, snf(a), b), (rows, b)
            seen["solved" if x is not None else "unsolved"] += 1
        for cols in ([image], [image, drawn], [drawn, image], []):
            b = LatticeMap.from_cols(cols, nrows=n)
            assert solve_integer_matrix(a, b) == reference_solve_matrix(a, b)
        rays = sorted({primitive_vector(r) for r in rows if any(r)})
        fan = Fan(rays, [range(len(rays))], n)
        smooth = is_smooth(fan)
        assert smooth == reference_is_smooth(fan), rows
        seen["smooth" if smooth else "not smooth"] += 1
    # singular, unimodular and other square matrices, right-hand sides
    # with and without an integer solution, smooth and singular cones
    assert min(seen.values()) >= 60, seen
