import itertools
import random

import pytest

from syzkit import cohomology as coh
from syzkit import linalg
from syzkit import nilmanifold as nil
from syzkit.coeffring import GaussianRational, ONE, ZERO, Poly
from syzkit.exterior import bits
from syzkit.randgen import random_poly, random_scalar
from syzkit.sustruct import mirror_transform


def rand_matrix(rng, rows, cols):
    return [[random_scalar(rng) for _ in range(cols)] for _ in range(rows)]


def dense_rref(m, cols):
    """Independent oracle: dense reduced row echelon form by plain field
    elimination, the first nonzero entry of each column as its pivot."""
    a = [list(row) for row in m]
    rows = len(a)
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if a[i][c]), None)
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
    return a, piv_cols


def oracle_nullspace(m, cols):
    red, piv = dense_rref(m, cols)
    basis = []
    for free in range(cols):
        if free in piv:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for r, pc in enumerate(piv):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def oracle_solve(m, b, cols):
    red, piv = dense_rref([list(row) + [bv] for row, bv in zip(m, b)], cols + 1)
    if cols in piv:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(piv):
        x[pc] = red[r][cols]
    return x


def sparse(v):
    return {i: x for i, x in enumerate(v) if x}


def dense(v, n):
    return [v.get(i, ZERO) for i in range(n)]


def columns_of(m, cols):
    return [sparse([row[j] for row in m]) for j in range(cols)]


def mat_vec(m, x):
    return [sum((a * v for a, v in zip(row, x)), ZERO) for row in m]


def mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def sparse_entry(rng):
    return random_scalar(rng) if rng.random() < 0.6 else ZERO


MATRIX_KINDS = ("tall", "wide", "rank-deficient", "zero-lines")


def random_kind_matrix(rng, kind):
    """A sparse matrix with non-integer Gaussian-rational entries of the given kind."""
    if kind == "tall":
        rows, cols = rng.randint(4, 7), rng.randint(1, 3)
    elif kind == "wide":
        rows, cols = rng.randint(1, 3), rng.randint(4, 7)
    else:
        rows, cols = rng.randint(2, 6), rng.randint(2, 6)
    if kind == "rank-deficient":
        k = rng.randint(1, min(rows, cols) - 1)
        left = [[sparse_entry(rng) for _ in range(k)] for _ in range(rows)]
        right = [[sparse_entry(rng) for _ in range(cols)] for _ in range(k)]
        return mat_mul(left, right), cols
    m = [[sparse_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-lines":
        zr, zc = rng.randrange(rows), rng.randrange(cols)
        m[zr] = [ZERO] * cols
        for row in m:
            row[zc] = ZERO
    return m, cols


def det_permutation_expansion(m):
    """Independent oracle: Leibniz sum over permutations."""
    n = len(m)
    out = Poly()
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        t = Poly.constant(-1 if inv % 2 else 1)
        for i in range(n):
            t = t * m[i][perm[i]]
        out = out + t
    return out


def inverse_by_adjugate(m):
    """Independent oracle: adjugate of cofactor minors over a constant
    determinant, every determinant by the column-subset DP."""
    n = len(m)
    det = linalg.poly_det(m)
    if not det.is_constant() or det.is_zero():
        raise ArithmeticError(f"determinant {det} is not a nonzero constant")
    dinv = ONE / det.constant_value()
    out = [[Poly() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = linalg.poly_det(minor)
            if (i + j) & 1:
                cof = -cof
            out[j][i] = cof * dinv
    return out


def poly_mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Poly()) for j in range(len(b[0]))]
            for i in range(len(a))]


def poly_identity(n):
    return [[Poly.constant(1 if i == j else 0) for j in range(n)] for i in range(n)]


ENTRY_COEFFS = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1), GaussianRational(2))


def random_unit_det_matrix(rng, n):
    """A product of random unitriangular polynomial matrices (upper and lower)
    and a constant invertible matrix: its determinant is a nonzero constant."""
    while True:
        c = [[GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        if linalg.rank([sparse(row) for row in c]) == n:
            break
    out = [[Poly.constant(x) for x in row] for row in c]
    for lower in (False, True):
        t = poly_identity(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    r, s = (j, i) if lower else (i, j)
                    t[r][s] = Poly.variable(rng.choice(("r1", "r2"))) * rng.choice(ENTRY_COEFFS)
        out = poly_mat_mul(out, t)
    return out


def random_sparse_unit_det_matrix(rng, n, kind):
    """A sparse matrix with a nonzero constant determinant: "unipotent" is
    I + N for a strictly upper-triangular N with a few polynomial entries,
    its rows and columns permuted alike; "constant" is a sparse invertible
    scalar matrix."""
    if kind == "constant":
        while True:
            c = [[random_scalar(rng) if rng.random() < 0.35 else ZERO for _ in range(n)] for _ in range(n)]
            if linalg.rank([sparse(row) for row in c]) == n:
                return [[Poly.constant(x) for x in row] for row in c]
    perm = list(range(n))
    rng.shuffle(perm)
    m = poly_identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                m[i][j] = random_poly(rng, ("r1", "r2"), 2, 2) or Poly.variable("r1")
    return [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def dense_poly(rows, n):
    """Sparse Poly rows (column -> nonzero entry) as dense rows."""
    assert all(all(row.values()) for row in rows), "a sparse row holds only nonzero entries"
    return [[row.get(j, Poly()) for j in range(n)] for row in rows]


def inverse(m):
    """`poly_matrix_inverse_unit_det` on the sparse rows of a dense Poly
    matrix, read back as dense rows."""
    return dense_poly(linalg.poly_matrix_inverse_unit_det([sparse(row) for row in m]), len(m))


def assert_two_sided_inverse(m, inv):
    n = len(m)
    assert poly_mat_mul(m, inv) == poly_identity(n)
    assert poly_mat_mul(inv, m) == poly_identity(n)


def frame_transition(frame):
    """The transition matrix of a coframe: its generators' expansions
    against the coordinate frame's generators."""
    coord = frame.generators[0].coord_expansion.frame
    return [[g.coord_expansion.terms.get(1 << c, Poly()) for c in range(len(coord))] for g in frame.generators]


def flat_pair_with_nil_labels(k):
    nd = nil.build(nil.upper_triangular(k))
    return nd, nil.semiflat_pair(nil.upper_triangular(k))


def mirror_transition(k):
    """The polynomial change of basis (holomorphic factors and their
    conjugates against the real generators) of the size-k mirror structure."""
    nd, pair = flat_pair_with_nil_labels(k)
    su = mirror_transform(pair, nil.omega_hermitian(nd).transport(pair.frame_xc))
    forms = su.Omega_factors + [f.conjugate() for f in su.Omega_factors]
    cols = sorted({next(bits(mask)) for f in forms for mask in f.terms})
    return [[f.terms.get(1 << c, Poly()) for c in cols] for f in forms]


class TestElimination:
    @pytest.mark.parametrize("seed", range(30))
    def test_core_matches_dense_oracle(self, seed):
        rng = random.Random(seed)
        m, cols = random_kind_matrix(rng, MATRIX_KINDS[seed % len(MATRIX_KINDS)])
        red, piv = dense_rref(m, cols)
        core = linalg.reduced_echelon([sparse(row) for row in m])
        assert list(core) == piv
        assert [dense(core[c], cols) for c in piv] == red[:len(piv)]
        assert linalg.rref(m) == (red, piv)
        shuffled = [sparse(row) for row in m]
        rng.shuffle(shuffled)
        assert linalg.reduced_echelon(shuffled) == core
        assert linalg.rank([sparse(row) for row in m]) == len(piv)
        assert linalg.rank(columns_of(m, cols)) == len(piv)
        assert linalg.column_space_pivots(columns_of(m, cols)) == piv
        assert [dense(v, cols) for v in linalg.nullspace(columns_of(m, cols))] == oracle_nullspace(m, cols)
        x = [sparse_entry(rng) for _ in range(cols)]
        for b in (mat_vec(m, x), [sparse_entry(rng) for _ in m]):
            # m x = b is consistent exactly when b adds no pivot to m's columns
            consistent = cols not in linalg.column_space_pivots(columns_of(m, cols) + [sparse(b)])
            assert consistent == (oracle_solve(m, b, cols) is not None)
        assert oracle_solve(m, mat_vec(m, x), cols) is not None

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, rows, cols):
        columns = [{} for _ in range(cols)]
        assert linalg.reduced_echelon({} for _ in range(rows)) == {}
        assert linalg.rref([[] for _ in range(rows)]) == ([[] for _ in range(rows)], [])
        assert linalg.rank(columns) == 0
        assert linalg.column_space_pivots(columns) == []
        assert [dense(v, cols) for v in linalg.nullspace(columns)] == identity(cols)
        assert linalg.column_space_pivots(columns + [{}]) == []
        assert linalg.column_space_pivots(columns + [{0: ONE}]) == [cols]
        assert linalg.invert([]) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_nullspace_vectors_annihilate(self, seed):
        rng = random.Random(100 + seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        basis = linalg.nullspace(columns_of(m, cols))
        assert len(basis) == cols - linalg.rank([sparse(row) for row in m])
        for v in basis:
            assert mat_vec(m, dense(v, cols)) == [ZERO] * rows

    @pytest.mark.parametrize("seed", range(20))
    def test_solve_consistency(self, seed):
        # b = m x lies in the column span: it adds no pivot, and the kernel of
        # [m | b] holds a vector with last entry -1 that recovers a solution
        rng = random.Random(200 + seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x = [random_scalar(rng) for _ in range(cols)]
        b = mat_vec(m, x)
        columns = columns_of(m, cols) + [sparse(b)]
        assert cols not in linalg.column_space_pivots(columns)
        v = next(v for v in linalg.nullspace(columns) if cols in v)
        sol = [-(c / v[cols]) for c in dense(v, cols)]
        assert mat_vec(m, sol) == b

    def test_solve_inconsistent(self):
        assert linalg.column_space_pivots([{0: ONE, 1: ONE}, {0: ONE, 1: GaussianRational(2)}]) == [0, 1]

    def test_invert_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 4)
            while True:
                m = [[sparse_entry(rng) for _ in range(n)] for _ in range(n)]
                if linalg.rank([sparse(row) for row in m]) == n:
                    break
            inv = linalg.invert([sparse(row) for row in m])
            assert mat_mul(m, inv) == identity(n)
            red, _ = dense_rref([row + e for row, e in zip(m, identity(n))], 2 * n)
            assert inv == [row[n:] for row in red]

    def test_invert_singular_rejected(self):
        with pytest.raises(ArithmeticError, match="singular"):
            linalg.invert([{0: ONE, 1: ONE}, {0: GaussianRational(2), 1: GaussianRational(2)}])


class TestOperatorMatrices:
    def test_core_matches_dense_oracle_on_k3_operator_matrices(self):
        # the matrices behind `cohomology --K 3 --degree 1` on the (2,1) slot:
        # d d^Lambda arriving from (3,0), and d and d^Lambda leaving (2,1)
        _, pair = flat_pair_with_nil_labels(3)
        ty = coh.ty_complex(pair.frame_x, 1)
        slot = ty.slot(2, 1)
        ranks = []
        for columns in (
            ty.matrix_on_slot("ddlambda", ty.slot(3, 0), slot),
            [ty.images["d"][i] for i in slot],
            [ty.images["dlambda"][i] for i in slot],
        ):
            cols = len(columns)
            m = [[col.get(r, ZERO) for col in columns] for r in sorted(set().union(*columns))]
            red, piv = dense_rref(m, cols)
            ranks.append(len(piv))
            core = linalg.reduced_echelon([sparse(row) for row in m])
            assert list(core) == piv
            assert [dense(core[c], cols) for c in piv] == red[:len(piv)]
            assert linalg.rank(columns) == len(piv)
            assert linalg.column_space_pivots(columns) == piv
            assert [dense(v, cols) for v in linalg.nullspace(columns)] == oracle_nullspace(m, cols)
        assert ranks[1] > 0 and ranks[2] > 0


class TestPolyMatrices:
    @pytest.mark.parametrize("seed", range(20))
    def test_poly_det_vs_permutation_oracle(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(1, 4)
        m = [[random_poly(rng, ("r1", "r2"), 1, 2) for _ in range(n)] for _ in range(n)]
        assert linalg.poly_det(m) == det_permutation_expansion(m)

    def test_unit_det_inverse(self):
        r12 = Poly.variable("r12")
        one = Poly.constant(1)
        zero = Poly()
        m = [[one, zero, zero], [zero, one, -r12], [zero, -r12, one + r12 * r12]]
        assert linalg.poly_det(m) == one
        inv = inverse(m)
        assert poly_mat_mul(m, inv) == poly_identity(3)
        assert inv == inverse_by_adjugate(m)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_vs_adjugate_oracle(self, n):
        rng = random.Random(400 + n)
        m = random_unit_det_matrix(rng, n)
        assert linalg.poly_det(m).is_constant()
        assert inverse(m) == inverse_by_adjugate(m)

    @pytest.mark.parametrize("kind", ["unipotent", "constant"])
    @pytest.mark.parametrize("seed", range(12))
    def test_sparse_inverse_vs_adjugate_oracle(self, kind, seed):
        rng = random.Random(4500 + seed)
        n = 1 + seed % 6
        m = random_sparse_unit_det_matrix(rng, n, kind)
        inv = inverse(m)
        assert inv == inverse_by_adjugate(m)
        assert_two_sided_inverse(m, inv)

    def test_inverse_without_constant_entries(self):
        x = Poly.variable("x")
        m = [[1 + x, x], [-x, 1 - x]]
        inv = inverse(m)
        assert inv == inverse_by_adjugate(m)
        assert inv == [[1 - x, -x], [x, 1 + x]]

    def test_inverse_of_k3_mirror_transition(self):
        m = mirror_transition(3)
        assert any(not p.is_constant() for row in m for p in row)
        assert inverse(m) == inverse_by_adjugate(m)

    def test_inverse_of_k4_mirror_transition(self):
        # the adjugate oracle takes seconds on this 12 x 12 matrix: check both products
        m = mirror_transition(4)
        assert_two_sided_inverse(m, inverse(m))

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_inverse_of_frame_transitions(self, K):
        # every change of basis that `nil --K` inverts: both invariant
        # coframes, and the dz/dzb frames of the flat pair and of the mirror
        nd, pair = flat_pair_with_nil_labels(K)
        for m in (frame_transition(nd.x_frame), frame_transition(nd.xc_frame),
                  frame_transition(pair.holo_frame), mirror_transition(K)):
            assert_two_sided_inverse(m, inverse(m))

    def test_non_unit_det_rejected(self):
        r1 = Poly.variable("r1")
        with pytest.raises(ArithmeticError):
            linalg.poly_matrix_inverse_unit_det([{0: r1}])
        with pytest.raises(ArithmeticError, match="singular"):
            linalg.poly_matrix_inverse_unit_det([{0: r1}, {}])

    def test_invertible_constant_term_non_unit_det_rejected(self):
        # m(0) = [[1]] is invertible, but 1 + r1 has no polynomial inverse:
        # the lift runs out of degrees and stops at the adjugate bound
        r1 = Poly.variable("r1")
        with pytest.raises(ArithmeticError, match="no polynomial inverse"):
            linalg.poly_matrix_inverse_unit_det([{0: 1 + r1}])
        with pytest.raises(ArithmeticError, match="no polynomial inverse"):
            linalg.poly_matrix_inverse_unit_det([{0: 1 + r1, 1: r1}, {0: r1, 1: Poly.constant(1)}])

    def test_row_product_vs_dense_product(self):
        rng = random.Random(4600)
        for _ in range(10):
            n, k, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
            a = [[random_poly(rng, ("r1", "r2"), 1, 2) if rng.random() < 0.4 else Poly() for _ in range(k)]
                 for _ in range(n)]
            b = [[random_poly(rng, ("r1", "r2"), 1, 2) if rng.random() < 0.4 else Poly() for _ in range(p)]
                 for _ in range(k)]
            got = linalg.poly_row_product([sparse(row) for row in a], [sparse(row) for row in b])
            assert dense_poly(got, p) == poly_mat_mul(a, b)
