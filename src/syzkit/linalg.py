"""Exact linear algebra over Q(i): one sparse elimination core, and
polynomial matrices.

A vector is a dict from index to `GaussianRational`; absent entries are zero.
Matrices are passed as lists of such vectors: `nullspace` and
`column_space_pivots` take the columns that callers build (one per basis
element), `rank` takes rows or columns alike.  Each vector is
reduced into an echelon basis keyed by its leading (smallest) index; one
back-substitution then gives the reduced row echelon form.  The reduced form
is unique, so ranks, pivots and kernels do not depend on the order in which
rows arrive.

Polynomial matrices get a division-free determinant and a Newton-lifted,
verified inverse for unit determinants.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

from .coeffring import GaussianRational, ONE, ZERO, Poly

Vec = dict[int, GaussianRational]


def _reduce(echelon: Mapping[int, Vec], vec: Mapping[int, GaussianRational]) -> Vec:
    """vec minus its multiples of the echelon rows: no entry is left in a
    pivot column.  Each row has a leading 1 at its key and no entry left of it."""
    v = {k: x for k, x in vec.items() if x}
    heap = [k for k in v if k in echelon]
    heapq.heapify(heap)
    while heap:
        c = heapq.heappop(heap)
        f = v.pop(c, None)
        if f is None:
            continue
        for k, y in echelon[c].items():
            if k == c:
                continue
            s = v.get(k)
            if s is None:
                v[k] = -(f * y)
                if k in echelon:
                    heapq.heappush(heap, k)
            else:
                s = s - f * y
                if s:
                    v[k] = s
                else:
                    del v[k]
    return v


def _insert(echelon: dict[int, Vec], vec: Mapping[int, GaussianRational]) -> bool:
    """Add vec to the echelon basis; False when it already lies in the span."""
    v = _reduce(echelon, vec)
    if not v:
        return False
    lead = min(v)
    inv = ONE / v[lead]
    echelon[lead] = {k: x * inv for k, x in v.items()}
    return True


def _echelon(vectors: Iterable[Mapping[int, GaussianRational]]) -> dict[int, Vec]:
    """An echelon basis of the span of `vectors`, keyed by leading column."""
    basis: dict[int, Vec] = {}
    for v in vectors:
        _insert(basis, v)
    return basis


def reduced_echelon(rows: Iterable[Mapping[int, GaussianRational]]) -> dict[int, Vec]:
    """The reduced row echelon form, as pivot column -> row, pivots ascending."""
    red: dict[int, Vec] = {}
    for c, row in sorted(_echelon(rows).items(), reverse=True):
        red[c] = {c: ONE, **_reduce(red, {k: x for k, x in row.items() if k != c})}
    return dict(sorted(red.items()))


def rref(m: Sequence[Sequence[GaussianRational]]) -> tuple[list[list[GaussianRational]], list[int]]:
    """Reduced row echelon form of a dense matrix through the sparse core:
    (its rows, zero rows last; the pivot columns).  Nothing in the package
    calls it.  It stays because the span table in `perfbench/spans.py`
    resolves this name outside its guard, so a traced benchmark run stops
    without it."""
    cols = len(m[0]) if m else 0
    red = reduced_echelon({j: x for j, x in enumerate(row) if x} for row in m)
    rows = [[row.get(j, ZERO) for j in range(cols)] for row in red.values()]
    return rows + [[ZERO] * cols for _ in range(len(m) - len(rows))], list(red)


def rank(vectors: Iterable[Mapping[int, GaussianRational]]) -> int:
    """Rank of the matrix whose rows (or, equally, columns) are `vectors`."""
    return len(_echelon(vectors))


def _rows(columns: Iterable[Mapping[int, GaussianRational]]) -> list[Vec]:
    """The nonzero rows of the matrix with these columns."""
    rows: dict[int, Vec] = {}
    for j, col in enumerate(columns):
        for r, x in col.items():
            rows.setdefault(r, {})[j] = x
    return list(rows.values())


def nullspace(columns: Sequence[Mapping[int, GaussianRational]]) -> list[Vec]:
    """Basis of the kernel of the matrix with these columns: one vector per
    free column, in column order."""
    red = reduced_echelon(_rows(columns))
    kernel = {c: {c: ONE} for c in range(len(columns)) if c not in red}
    for pc, row in red.items():
        for c, x in row.items():
            if c != pc:
                kernel[c][pc] = -x
    return list(kernel.values())


def column_space_pivots(columns: Iterable[Mapping[int, GaussianRational]]) -> list[int]:
    """Indices of the columns outside the span of the columns before them:
    a basis of the span, in input order."""
    basis: dict[int, Vec] = {}
    return [j for j, col in enumerate(columns) if _insert(basis, col)]


def invert(rows: Sequence[Mapping[int, GaussianRational]]) -> list[list[GaussianRational]]:
    """Inverse of a square matrix given by sparse rows, as dense rows (given
    the columns instead, it returns the columns of the inverse)."""
    n = len(rows)
    red = reduced_echelon({**row, n + i: ONE} for i, row in enumerate(rows))
    if any(c not in red for c in range(n)):
        raise ArithmeticError("matrix is singular")
    return [[red[i].get(n + j, ZERO) for j in range(n)] for i in range(n)]


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
    const = [{j: c for j, p in enumerate(row) if (c := p.terms.get((0,) * len(p.vars)))} for row in m]
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
