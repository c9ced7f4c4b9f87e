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

Polynomial matrices get a division-free determinant (dense rows) and a
Newton-lifted, verified inverse for unit determinants.  The inverse reads
sparse rows (column -> nonzero `Poly`), as `invert` does, and returns sparse
rows; its products (`poly_row_product`) sum x * row_k over the nonzero
entries x only, so a transition matrix with a few nonzero entries per row
costs that many row combinations, not n^3 entry products.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, Sequence

from .coeffring import GaussianRational, ONE, P_ONE, ZERO, Poly, _accumulate, _add_product, _settle_into

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
    (division-free).

    The sign of each new column is counted inline, not by
    `exterior.koszul_sign`: `exterior` imports this module."""
    n = len(m)
    if n == 0:
        return Poly.constant(1)
    prev = {0: Poly.constant(1)}
    for i in range(n):
        cur: dict[int, Poly] = {}
        for mask, val in prev.items():
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
                _accumulate(cur, mask | bit, add)
        prev = cur
    return prev.get((1 << n) - 1, Poly())


PolyRow = dict[int, Poly]


def poly_row_product(a: Sequence[Mapping[int, Poly]], b: Sequence[Mapping[int, Poly]]) -> list[PolyRow]:
    """The product of two Poly matrices given by sparse rows (column ->
    nonzero entry): row i is the sum of x * b[k] over the nonzero entries
    x = a[i][k] only."""
    out = []
    for row in a:
        sums: dict = {}
        for k, x in row.items():
            for j, y in b[k].items():
                _add_product(sums, j, x, y, 0)
        out.append(_settle_into({}, sums))
    return out


def poly_matrix_inverse_unit_det(m: Sequence[Mapping[int, Poly]]) -> list[PolyRow]:
    """Inverse of a square Poly matrix whose determinant is a nonzero
    constant, both given by sparse rows (column -> nonzero entry).

    Newton-lifted, verified.  X starts at the exact inverse of the constant
    term m(0) and is lifted over the ideal of the variables by the Newton-Schulz
    step X <- X (2I - m X) = X + X (I - m X), truncated below total degree 2D;
    each step doubles the degree D below which X agrees with the power-series
    inverse.  Each step is followed by the exact test m X == I, which
    certifies that det m is a unit.  A polynomial inverse is an adjugate over
    a constant, of degree at most (n - 1) * (max entry degree); once X holds
    every degree up to that bound and the test still fails, no polynomial
    inverse exists.  Raises ArithmeticError then, and when m(0) is singular.
    Every product is a `poly_row_product`, so its cost follows the nonzero
    entries, not n^3.
    """
    n = len(m)
    if n == 0:
        return []
    const = [{j: c for j, p in row.items() if (c := p.constant_term())} for row in m]
    x = [{j: Poly.constant(v) for j, v in enumerate(row) if v} for row in invert(const)]
    bound = (n - 1) * max((p.degree() for row in m for p in row.values()), default=0)
    eye = [{i: P_ONE} for i in range(n)]
    d = 1  # x agrees with the power-series inverse below total degree d
    while True:
        mx = poly_row_product(m, x)
        if mx == eye:
            return x
        if d > bound:
            raise ArithmeticError(
                f"no polynomial inverse: m X != I with X exact through degree {d - 1}, "
                f"past the adjugate bound {bound}"
            )
        d *= 2
        err = []
        for i, row in enumerate(mx):
            r = {j: -p for j, p in row.items()}
            _accumulate(r, i, P_ONE)
            err.append({j: q for j, p in r.items() if (q := p.below(d))})
        for xr, cr in zip(x, poly_row_product(x, err)):
            for j, p in cr.items():
                if q := p.below(d):
                    _accumulate(xr, j, q)
