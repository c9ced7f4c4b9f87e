from math import comb

import pytest

from syzkit import cohomology as coh
from syzkit import nilmanifold as nil
from syzkit import calculus
from syzkit.calculus import SymplecticData, d_lambda, dolbeault, exterior_d
from syzkit.coeffring import GaussianRational, ONE, Poly
from syzkit.exterior import BasisChangeError, Form, GenClass
from syzkit.fourier import SemiflatPair


@pytest.fixture(scope="module")
def flat_k3_setting():
    nd = nil.build(3)
    return nd, nil.semiflat_pair(nd.K)


class TestComplexConstruction:
    def test_operator_identities_on_basis(self, pair2):
        bc = coh.bc_complex(pair2.holo_frame, 1)
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


# the Form-level composites: the route the complexes took before their
# composite images became products of the primitive ones, kept as the oracle


def oracle_ddlambda(f, symp):
    return exterior_d(d_lambda(f, symp))


def oracle_deldbar(f, basis):
    _, dbar_f = dolbeault(f, basis)
    del_dbar_f, _ = dolbeault(dbar_f, basis)
    return del_dbar_f


def flat_pair(case):
    kind, size = case
    return SemiflatPair(size) if kind == "n" else nil.semiflat_pair(size)


class TestComposedOperators:
    CASES = [(("n", n), D) for n in (1, 2, 3) for D in (0, 1)] + [(("K", 3), D) for D in (0, 1, 2)]

    @pytest.mark.parametrize("case, D", CASES, ids=[f"{k}{s}-D{D}" for (k, s), D in CASES])
    def test_products_match_form_level_oracle(self, case, D):
        pair = flat_pair(case)
        ty = coh.ty_complex(pair.frame_x, D)
        symp = SymplecticData.darboux(pair.frame_x, GenClass.FIBER_X)
        for i in range(len(ty.basis)):
            f = ty.basis_form(i)
            assert ty.images["dlambda"][i] == ty.vectorize(d_lambda(f, symp))
            assert ty.images["ddlambda"][i] == ty.vectorize(oracle_ddlambda(f, symp))
        bc = coh.bc_complex(pair.holo_frame, D)
        dl, db = coh.dolbeault_split(bc, bc.images["d"])
        for i in range(len(bc.basis)):
            f = bc.basis_form(i)
            del_f, dbar_f = dolbeault(f, pair.holo_frame)
            assert dl[i] == bc.vectorize(del_f)
            assert db[i] == bc.vectorize(dbar_f)
            assert bc.images["deldbar"][i] == bc.vectorize(oracle_deldbar(f, pair.holo_frame))

    def test_only_primitives_applied_to_the_basis(self, pair2, monkeypatch):
        calls = {"exterior_d": 0, "d_lambda": 0, "dolbeault": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(coh, "exterior_d", counting("exterior_d", exterior_d))
        for name, fn in (("d_lambda", d_lambda), ("dolbeault", dolbeault)):
            monkeypatch.setattr(calculus, name, counting(name, fn))
            monkeypatch.setattr(coh, name, counting(name, fn), raising=False)
        ty = coh.ty_complex(pair2.frame_x, 1)
        assert calls == {"exterior_d": len(ty.basis), "d_lambda": 0, "dolbeault": 0}
        bc = coh.bc_complex(pair2.holo_frame, 1)
        assert calls == {"exterior_d": len(ty.basis) + len(bc.basis), "d_lambda": 0, "dolbeault": 0}

    def test_split_rejects_non_adjacent_bidegree(self, pair1):
        bc = coh.bc_complex(pair1.holo_frame, 0)
        at = {bc.frame.bidegree(mask, bc.split): i for i, (mask, _) in enumerate(bc.basis)}
        cols = [{} for _ in bc.basis]
        # the (0,0) element: a (1,0) and a (0,1) row split into del and dbar
        cols[at[(0, 0)]] = {at[(1, 0)]: ONE, at[(0, 1)]: GaussianRational(0, 2)}
        dl, db = coh.dolbeault_split(bc, cols)
        assert dl[at[(0, 0)]] == {at[(1, 0)]: ONE}
        assert db[at[(0, 0)]] == {at[(0, 1)]: GaussianRational(0, 2)}
        # a (1,1) row two steps away is not a del or dbar row
        cols[at[(0, 0)]] = {at[(1, 0)]: ONE, at[(1, 1)]: ONE}
        with pytest.raises(BasisChangeError):
            coh.dolbeault_split(bc, cols)


class TestFlatTables:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bott_chern_binomial(self, n):
        pair = SemiflatPair(n)
        bc = coh.bc_complex(pair.holo_frame, 0)
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
        bc = coh.bc_complex(pair.holo_frame, 0)
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
        bc = coh.bc_complex(pair.holo_frame, D)
        ty = coh.ty_complex(pair.frame_x, D)
        for (p, q) in ((1, 1), (2, 2)):
            rep, bcr, tyr = coh.mirror_compare(ty, bc, p, q, pair.fm_forward)
            assert rep.passed
            assert bcr.dim == tyr.dim == self.EXPECTED[(D, p, q)]

    def test_representatives_closed_and_counted(self, flat_k3_setting):
        nd, pair = flat_k3_setting
        bc = coh.bc_complex(pair.holo_frame, 1)
        r = coh.bott_chern(bc, 1, 1)
        assert len(r.representatives) == r.dim
        for f in r.representatives:
            assert bc.apply("d", f).is_zero()

    def test_involution_on_representatives(self, flat_k3_setting):
        nd, pair = flat_k3_setting
        bc = coh.bc_complex(pair.holo_frame, 1)
        sign = GaussianRational(pair.fm_roundtrip_sign())
        for f in coh.bott_chern(bc, 1, 1).representatives:
            assert pair.fm_backward(pair.fm_forward(f)) == f * sign


class TestMatrixLevelTransformConjugation:
    def test_d_conjugates_to_dbar(self, pair2):
        # on every basis element: d(FT v) = (-1)^n (i/2) FT(dbar v)
        from fractions import Fraction

        from syzkit.calculus import dolbeault
        from syzkit.coeffring import I

        bc = coh.bc_complex(pair2.holo_frame, 1)
        c = I * Fraction(1, 2)
        if pair2.n % 2:
            c = -c
        for i in range(len(bc.basis)):
            v = bc.basis_form(i)
            lhs = exterior_d(pair2.fm_forward(v))
            _, dbar_v = dolbeault(v, pair2.holo_frame)
            rhs = pair2.fm_forward(dbar_v) * (ONE / c)
            assert lhs == rhs
