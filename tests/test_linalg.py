import itertools
import random
from fractions import Fraction

import pytest

from syzkit import linalg
from syzkit import nilmanifold as nil
from syzkit.coeffring import GaussianRational, ONE, ZERO, Poly
from syzkit.exterior import bits
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_poly, random_scalar
from syzkit.sustruct import mirror_transform


def rand_matrix(rng, rows, cols):
    return [[random_scalar(rng) for _ in range(cols)] for _ in range(rows)]


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
        if linalg.rank(c) == n:
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


def mirror_transition(k):
    """The polynomial change of basis (holomorphic factors and their
    conjugates against the real generators) of the size-k mirror structure."""
    nd = nil.build(k)
    pair = SemiflatPair(
        nd.n,
        base_vars=nd.base_vars,
        fiber_x_labels=[f"dthc{i}{j}" for i, j in nd.pairs],
        fiber_mirror_labels=[f"dth{i}{j}" for i, j in nd.pairs],
        holo_labels=[f"dz{i}{j}" for i, j in nd.pairs],
    )
    su = mirror_transform(pair, nil.omega_hermitian(nd).transport(pair.frame_xc))
    forms = su.Omega_factors + [f.conjugate() for f in su.Omega_factors]
    cols = sorted({next(bits(mask)) for f in forms for mask in f.terms})
    return [[f.terms.get(1 << c, Poly()) for c in cols] for f in forms]


class TestElimination:
    @pytest.mark.parametrize("seed", range(30))
    def test_bareiss_and_field_ranks_agree(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        assert linalg.rank_bareiss(m) == linalg.rank(m)

    @pytest.mark.parametrize("seed", range(20))
    def test_nullspace_vectors_annihilate(self, seed):
        rng = random.Random(100 + seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        basis = linalg.nullspace(m)
        assert len(basis) == cols - linalg.rank(m)
        for v in basis:
            for row in m:
                assert sum((a * b for a, b in zip(row, v)), ZERO) == ZERO

    @pytest.mark.parametrize("seed", range(20))
    def test_solve_consistency(self, seed):
        rng = random.Random(200 + seed)
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x = [random_scalar(rng) for _ in range(cols)]
        b = [sum((a * v for a, v in zip(row, x)), ZERO) for row in m]
        sol = linalg.solve(m, b)
        assert sol is not None
        for row, bv in zip(m, b):
            assert sum((a * v for a, v in zip(row, sol)), ZERO) == bv

    def test_solve_inconsistent(self):
        m = [[ONE], [ONE]]
        assert linalg.solve(m, [ONE, GaussianRational(2)]) is None

    def test_invert_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(1, 4)
            while True:
                m = rand_matrix(rng, n, n)
                if linalg.rank(m) == n:
                    break
            inv = linalg.invert(m)
            prod = linalg.mat_mul(m, inv)
            assert prod == linalg.identity(n)

    def test_bareiss_divisions_exact_on_rationals(self):
        rng = random.Random(9)
        m = [[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                               Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
              for _ in range(5)] for _ in range(4)]
        ech, piv = linalg.bareiss_echelon(m)
        for row in ech:
            for x in row:
                assert x.re.denominator == 1 and x.im.denominator == 1


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
        inv = linalg.poly_matrix_inverse_unit_det(m)
        assert poly_mat_mul(m, inv) == poly_identity(3)
        assert inv == inverse_by_adjugate(m)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_vs_adjugate_oracle(self, n):
        rng = random.Random(400 + n)
        m = random_unit_det_matrix(rng, n)
        assert linalg.poly_det(m).is_constant()
        assert linalg.poly_matrix_inverse_unit_det(m) == inverse_by_adjugate(m)

    def test_inverse_without_constant_entries(self):
        x = Poly.variable("x")
        m = [[1 + x, x], [-x, 1 - x]]
        inv = linalg.poly_matrix_inverse_unit_det(m)
        assert inv == inverse_by_adjugate(m)
        assert inv == [[1 - x, -x], [x, 1 + x]]

    def test_inverse_of_k3_mirror_transition(self):
        m = mirror_transition(3)
        assert any(not p.is_constant() for row in m for p in row)
        assert linalg.poly_matrix_inverse_unit_det(m) == inverse_by_adjugate(m)

    def test_inverse_of_k4_mirror_transition(self):
        # the adjugate oracle takes seconds on this 12 x 12 matrix: check both products
        m = mirror_transition(4)
        inv = linalg.poly_matrix_inverse_unit_det(m)
        assert poly_mat_mul(m, inv) == poly_identity(12)
        assert poly_mat_mul(inv, m) == poly_identity(12)

    def test_non_unit_det_rejected(self):
        r1 = Poly.variable("r1")
        with pytest.raises(ArithmeticError):
            linalg.poly_matrix_inverse_unit_det([[r1]])

    def test_invertible_constant_term_non_unit_det_rejected(self):
        # m(0) = [[1]] is invertible, but 1 + r1 has no polynomial inverse:
        # the lift runs out of degrees and stops at the adjugate bound
        r1 = Poly.variable("r1")
        with pytest.raises(ArithmeticError, match="no polynomial inverse"):
            linalg.poly_matrix_inverse_unit_det([[1 + r1]])
        with pytest.raises(ArithmeticError, match="no polynomial inverse"):
            linalg.poly_matrix_inverse_unit_det([[1 + r1, r1], [r1, Poly.constant(1)]])
