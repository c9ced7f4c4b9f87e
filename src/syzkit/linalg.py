"""Exact linear algebra over Q(i): fraction-free elimination, rank, kernel,
and polynomial matrices.

Two independent elimination routes are kept side by side: Bareiss
(fraction-free over Gaussian integers after clearing denominators) and plain
field elimination.  Pivoting is deterministic (first nonzero entry in row-major
scan) so kernels and representatives are reproducible.  Polynomial matrices
get a division-free determinant and a Newton-lifted, verified inverse for
unit determinants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .coeffring import GaussianRational, ONE, ZERO, Poly

Matrix = list[list[GaussianRational]]


def copy_matrix(m: Sequence[Sequence[GaussianRational]]) -> Matrix:
    return [list(row) for row in m]


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    out = zeros(len(a), len(b[0]))
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if not x:
                continue
            br = b[k]
            for j, y in enumerate(br):
                if y:
                    out[i][j] = out[i][j] + x * y
    return out


def _clear_denominators(m: Matrix) -> Matrix:
    out = []
    for row in m:
        lcm = 1
        for x in row:
            lcm = lcm * x.re.denominator // _gcd(lcm, x.re.denominator)
            lcm = lcm * x.im.denominator // _gcd(lcm, x.im.denominator)
        out.append([x * lcm for x in row])
    return out


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def bareiss_echelon(m: Sequence[Sequence[GaussianRational]]) -> tuple[Matrix, list[int]]:
    """Fraction-free row echelon form; returns (echelon, pivot columns).

    Rows are scaled to Gaussian integers first; every division in the
    Bareiss update is exact in Z[i].
    """
    a = _clear_denominators(copy_matrix(m))
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols: list[int] = []
    r = 0
    prev = ONE
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        pivot = a[r][c]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                num = a[i][j] * pivot - a[i][c] * a[r][j]
                q = num / prev
                _assert_gaussian_integer(q)
                a[i][j] = q
            a[i][c] = ZERO
        prev = pivot
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return a, piv_cols


def _assert_gaussian_integer(x: GaussianRational) -> None:
    if x.re.denominator != 1 or x.im.denominator != 1:
        raise ArithmeticError("Bareiss division was not exact")


def rank_bareiss(m: Sequence[Sequence[GaussianRational]]) -> int:
    if not m or not m[0]:
        return 0
    _, piv = bareiss_echelon(m)
    return len(piv)


def rref(m: Sequence[Sequence[GaussianRational]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form by plain field elimination."""
    a = copy_matrix(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return a, piv_cols


def rank(m: Sequence[Sequence[GaussianRational]]) -> int:
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def nullspace(m: Sequence[Sequence[GaussianRational]]) -> list[list[GaussianRational]]:
    """Basis of the right kernel, one vector per free column (deterministic)."""
    if not m:
        return []
    cols = len(m[0])
    red, piv = rref(m)
    piv_set = set(piv)
    basis = []
    for free in range(cols):
        if free in piv_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for r, pc in enumerate(piv):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(m: Sequence[Sequence[GaussianRational]], b: Sequence[GaussianRational]) -> Optional[list[GaussianRational]]:
    """One exact solution of m x = b, or None if inconsistent."""
    if not m:
        return [] if not any(b) else None
    cols = len(m[0])
    aug = [list(row) + [bv] for row, bv in zip(m, b)]
    red, piv = rref(aug)
    for r in range(len(red)):
        if all(not x for x in red[r][:cols]) and red[r][cols]:
            return None
    x = [ZERO] * cols
    for r, pc in enumerate(piv):
        if pc == cols:
            return None
        x[pc] = red[r][cols]
    return x


def column_space_pivots(columns: list[list[GaussianRational]]) -> list[int]:
    """Indices of columns forming a basis of the span (in input order)."""
    if not columns:
        return []
    rows = len(columns[0])
    mat = [[columns[j][i] for j in range(len(columns))] for i in range(rows)]
    _, piv = rref(mat)
    return piv


def invert(m: Sequence[Sequence[GaussianRational]]) -> Matrix:
    n = len(m)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(m)]
    red, piv = rref(aug)
    if piv[:n] != list(range(n)):
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in red]


# -- polynomial matrices ---------------------------------------------------


def poly_det(m: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a Poly matrix by column-subset dynamic programming
    (division-free)."""
    n = len(m)
    if n == 0:
        return Poly.constant(1)
    prev = {0: Poly.constant(1)}
    for i in range(n):
        cur: dict[int, Poly] = {}
        for mask, val in prev.items():
            if val.is_zero():
                continue
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                e = m[i][j]
                if e.is_zero():
                    continue
                add = val * e
                # new inversions: previously used columns larger than j
                if (mask >> (j + 1)).bit_count() & 1:
                    add = -add
                k = mask | bit
                cur[k] = cur.get(k, Poly()) + add
        prev = {k: v for k, v in cur.items() if not v.is_zero()}
    return prev.get((1 << n) - 1, Poly())


def _poly_mat_mul(a: Sequence[Sequence[Poly]], b: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = Poly()
            for x, brow in zip(row, b):
                y = brow[j]
                if x and y:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def _truncate(p: Poly, below: int) -> Poly:
    """The terms of p of total degree < below."""
    return Poly(p.vars, {e: c for e, c in p.terms.items() if sum(e) < below})


def poly_matrix_inverse_unit_det(m: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """Inverse of a Poly matrix whose determinant is a nonzero constant.

    Newton-lifted, verified.  X starts at the exact inverse of the constant
    term m(0) and is lifted over the ideal of the variables by the Newton-Schulz
    step X <- X (2I - m X) = X + X (I - m X), truncated below total degree 2D;
    each step doubles the degree D below which X agrees with the power-series
    inverse.  Each step is followed by the exact test m X == I, which
    certifies that det m is a unit.  A polynomial inverse is an adjugate over
    a constant, of degree at most (n - 1) * (max entry degree); once X holds
    every degree up to that bound and the test still fails, no polynomial
    inverse exists.  Raises ArithmeticError then, and when m(0) is singular.
    """
    n = len(m)
    if n == 0:
        return []
    const = [[p.terms.get((0,) * len(p.vars), ZERO) for p in row] for row in m]
    x = [[Poly.constant(v) for v in row] for row in invert(const)]
    bound = (n - 1) * max(p.degree() for row in m for p in row)
    eye = [[Poly.constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
    d = 1  # x agrees with the power-series inverse below total degree d
    while True:
        mx = _poly_mat_mul(m, x)
        if mx == eye:
            return x
        if d > bound:
            raise ArithmeticError(
                f"no polynomial inverse: m X != I with X exact through degree {d - 1}, "
                f"past the adjugate bound {bound}"
            )
        d *= 2
        err = [[_truncate(eye[i][j] - mx[i][j], d) for j in range(n)] for i in range(n)]
        x = [[p + _truncate(q, d) for p, q in zip(xr, cr)] for xr, cr in zip(x, _poly_mat_mul(x, err))]
