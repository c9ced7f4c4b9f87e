from math import comb

import pytest

from syzkit import cohomology as coh
from syzkit import nilmanifold as nil
from syzkit.calculus import exterior_d
from syzkit.coeffring import GaussianRational, ONE, Poly
from syzkit.exterior import Form, GenClass
from syzkit.fourier import SemiflatPair


@pytest.fixture(scope="module")
def flat_k3_setting():
    nd = nil.build(3)
    return nd, nil.semiflat_pair(nd)


class TestComplexConstruction:
    def test_operator_identities_on_basis(self, pair2):
        bc = coh.bc_complex(pair2.basis_xc, 1)
        ty = coh.ty_complex(pair2.frame_x, 1)
        for cpx, ops in ((bc, ["d", "deldbar"]), (ty, ["d", "dlambda", "ddlambda"])):
            for i in range(len(cpx.basis)):
                f = cpx.basis_form(i)
                assert cpx.apply("d", cpx.apply("d", f)).is_zero()
        for i in range(len(bc.basis)):
            f = bc.basis_form(i)
            assert bc.apply("deldbar", bc.apply("deldbar", f)).is_zero()
            assert bc.apply("d", bc.apply("deldbar", f)).is_zero()
        for i in range(len(ty.basis)):
            f = ty.basis_form(i)
            assert ty.apply("dlambda", ty.apply("dlambda", f)).is_zero()
            assert ty.apply("d", ty.apply("ddlambda", f)).is_zero()
            assert ty.apply("dlambda", ty.apply("ddlambda", f)).is_zero()

    def test_vectorize_roundtrip(self, pair2):
        ty = coh.ty_complex(pair2.frame_x, 1)
        f = Form.monomial(pair2.frame_x, ["dth1", "dr2"], Poly.variable("r1"))
        assert ty.form_of(ty.vectorize(f)) == f

    def test_span_escape_raises(self, pair2):
        # wedging with a polynomial-coefficient form raises the degree
        w = Form.monomial(pair2.frame_x, ["dth1", "dr1"], Poly.variable("r1"))
        with pytest.raises(coh.SpanEscape):
            coh.FiniteComplex(
                pair2.frame_x,
                0,
                {"L": lambda f: w.wedge(f)},
                (GenClass.FIBER_X, GenClass.BASE),
            )

    def test_negative_degree_rejected(self, pair2):
        with pytest.raises(ValueError):
            coh.ty_complex(pair2.frame_x, -1)


class TestFlatTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bott_chern_binomial(self, n):
        pair = SemiflatPair(n)
        bc = coh.bc_complex(pair.basis_xc, 0)
        for p in range(n + 1):
            for q in range(n + 1):
                assert coh.bott_chern(bc, p, q).dim == comb(n, p) * comb(n, q)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tseng_yau_binomial(self, n):
        pair = SemiflatPair(n)
        ty = coh.ty_complex(pair.frame_x, 0)
        for p in range(n + 1):
            for q in range(n + 1):
                assert coh.tseng_yau(ty, p, q).dim == comb(n, p) * comb(n, q)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mirror_all_bidegrees(self, n):
        pair = SemiflatPair(n)
        bc = coh.bc_complex(pair.basis_xc, 0)
        ty = coh.ty_complex(pair.frame_x, 0)
        for p in range(n + 1):
            for q in range(n + 1):
                rep, bcr, tyr = coh.mirror_compare(ty, bc, p, q, pair.fm_forward)
                assert rep.passed
                assert bcr.dim == tyr.dim == comb(n, p) * comb(n, q)


class TestFlatPairNilLabelsRegression:
    # the flat semi-flat pair with the size-3 family's variable names
    # (r12, r13, r23) at coefficient degree <= D, as `cohomology --K 3`
    # computes it: not the nilmanifold's cohomology, and the dimensions grow
    # with D.  No reference values exist; the numbers are frozen engine
    # baselines, and the elimination behind them is checked against the dense
    # oracle in test_linalg.py
    EXPECTED = {
        (0, 1, 1): 9,
        (0, 2, 2): 9,
        (1, 1, 1): 19,
        (1, 2, 2): 30,
        (2, 1, 1): 28,
        (2, 2, 2): 58,
    }

    @pytest.mark.parametrize("D", [0, 1, 2])
    def test_dims_and_mirror(self, flat_k3_setting, D):
        nd, pair = flat_k3_setting
        bc = coh.bc_complex(pair.basis_xc, D)
        ty = coh.ty_complex(pair.frame_x, D)
        for (p, q) in ((1, 1), (2, 2)):
            rep, bcr, tyr = coh.mirror_compare(ty, bc, p, q, pair.fm_forward)
            assert rep.passed
            assert bcr.dim == tyr.dim == self.EXPECTED[(D, p, q)]

    def test_representatives_closed_and_counted(self, flat_k3_setting):
        nd, pair = flat_k3_setting
        bc = coh.bc_complex(pair.basis_xc, 1)
        r = coh.bott_chern(bc, 1, 1)
        assert len(r.representatives) == r.dim
        for f in r.representatives:
            assert bc.apply("d", f).is_zero()

    def test_involution_on_representatives(self, flat_k3_setting):
        nd, pair = flat_k3_setting
        bc = coh.bc_complex(pair.basis_xc, 1)
        sign = GaussianRational(pair.fm_roundtrip_sign())
        for f in coh.bott_chern(bc, 1, 1).representatives:
            assert pair.fm_backward(pair.fm_forward(f)) == f * sign


class TestMatrixLevelTransformConjugation:
    def test_d_conjugates_to_dbar(self, pair2):
        # on every basis element: d(FT v) = (-1)^n (i/2) FT(dbar v)
        from fractions import Fraction

        from syzkit.calculus import dolbeault
        from syzkit.coeffring import I

        bc = coh.bc_complex(pair2.basis_xc, 1)
        c = I * Fraction(1, 2)
        if pair2.n % 2:
            c = -c
        for i in range(len(bc.basis)):
            v = bc.basis_form(i)
            lhs = exterior_d(pair2.fm_forward(v))
            _, dbar_v = dolbeault(v, pair2.basis_xc)
            rhs = pair2.fm_forward(dbar_v) * (ONE / c)
            assert lhs == rhs
