from math import comb

import pytest

from syzkit import cohomology as coh
from syzkit import nilmanifold as nil
from syzkit import calculus
from syzkit.calculus import HOLO_SPLIT, SymplecticData, d_lambda, dolbeault, dual_lefschetz, exterior_d
from syzkit.coeffring import GaussianRational, I, ONE, Poly
from syzkit.exterior import BasisChangeError, Form, GenClass, Generator
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
        # g1 = dth1 + r1^2 dr2 has d g1 = 2 r1 dr1^dr2, one degree above x^e g1
        frame = self.coframe_over(pair2, Poly.variable("r1") ** 2)
        for D in (0, 1, 2):
            with pytest.raises(coh.SpanEscape) as err:
                coh.FiniteComplex(frame, D, (GenClass.FIBER_X, GenClass.BASE))
            assert err.value.witness is not None and err.value.witness.frame == frame

    def test_foreign_variable_in_frame_data_escapes(self, pair2):
        # d g1 = s dr1^dr2 has a coefficient in a variable outside the base
        frame = self.coframe_over(pair2, Poly.variable("s") * Poly.variable("r1"))
        g1 = frame.index["g1"]
        with pytest.raises(coh.SpanEscape, match="outside") as err:
            coh.FiniteComplex(frame, 1, (GenClass.FIBER_X, GenClass.BASE))
        assert err.value.witness == frame.d_of_generator(g1)

    def test_vectorize_foreign_variable_escapes(self, pair2):
        ty = coh.ty_complex(pair2.frame_x, 1)
        f = Form.monomial(pair2.frame_x, ["dth1"], Poly.variable("s"))
        with pytest.raises(coh.SpanEscape, match="outside") as err:
            ty.vectorize(f)
        assert err.value.witness == f
        # a variable the coefficients do not use is no escape
        padded = Form(pair2.frame_x, {1: Poly(("r1", "s"), {(1, 0): ONE})})
        assert ty.vectorize(padded) == ty.vectorize(Form.monomial(pair2.frame_x, ["dth1"], Poly.variable("r1")))

    @staticmethod
    def coframe_over(pair, coeff):
        """The frame g1 = dth1 + coeff dr2, g2 = dth2, g3 = dr1, g4 = dr2 over
        the flat frame_x."""
        x = pair.frame_x
        exps = [Form.gen(x, "dth1") + Form.gen(x, "dr2") * coeff] + [
            Form.gen(x, lab) for lab in ("dth2", "dr1", "dr2")
        ]
        return calculus.coframe([Generator(f"g{k + 1}", coord_expansion=f) for k, f in enumerate(exps)], x)

    def test_negative_degree_rejected(self, pair2):
        with pytest.raises(ValueError):
            coh.ty_complex(pair2.frame_x, -1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slot_matches_per_element_bidegree(self, n):
        # the oracle asks the frame for each basis element's bidegree
        pair = SemiflatPair(n)
        for cpx in (coh.bc_complex(pair.holo_frame, 1), coh.ty_complex(pair.frame_x, 1)):
            for p in range(-1, n + 2):
                for q in range(-1, n + 2):
                    want = [i for i, (mask, _) in enumerate(cpx.basis)
                            if cpx.frame.bidegree(mask, cpx.split) == (p, q)]
                    assert cpx.slot(p, q) == want, (p, q)


def flat_pair(case):
    kind, size = case
    return SemiflatPair(size) if kind == "n" else nil.semiflat_pair(size)


# the Form-level primitives are the oracle for the columns that the complexes
# build from the frame data


def assert_columns_match_oracle(frame, D, split, symp):
    cpx = coh.FiniteComplex(frame, D, split, symp)
    for i in range(len(cpx.basis)):
        f = cpx.basis_form(i)
        assert cpx.images["d"][i] == cpx.vectorize(exterior_d(f)), (D, cpx.basis[i])
        assert cpx.images["lambda"][i] == cpx.vectorize(dual_lefschetz(f, symp)), (D, cpx.basis[i])


def holo_of_nil_frame(nd):
    """The dz/dzb frame of f_ij + i e_ij over the nilmanifold's x_frame."""
    x = nd.x_frame
    return calculus.holo_coframe(
        x, [(f"dz{i}{j}", Form.gen(x, f"f{i}{j}") + Form.gen(x, f"e{i}{j}") * I) for i, j in nd.pairs]
    )


class TestPrimitiveColumns:
    FLAT = [(("n", n), D) for n in (1, 2, 3) for D in (0, 1, 2)] + [(("K", 3), D) for D in (0, 1, 2)]

    @pytest.mark.parametrize("case, D", FLAT, ids=[f"{k}{s}-D{D}" for (k, s), D in FLAT])
    def test_flat_pair_columns_match_form_level_oracle(self, case, D):
        pair = flat_pair(case)
        x_split = (GenClass.FIBER_X, GenClass.BASE)
        assert_columns_match_oracle(pair.frame_x, D, x_split, SymplecticData.darboux(pair.frame_x))
        symp = SymplecticData.darboux(pair.holo_frame, GenClass.FIBER_MIRROR)
        assert_columns_match_oracle(pair.holo_frame, D, HOLO_SPLIT, symp)

    NIL = [(which, D) for which in ("x_frame", "xc_frame", "holo") for D in (0, 1)]

    @pytest.mark.parametrize("which, D", NIL, ids=[f"{w}-D{D}" for w, D in NIL])
    def test_nilmanifold_columns_match_form_level_oracle(self, flat_k3_setting, which, D):
        # coframes whose base one-forms and structure equations are polynomial
        nd, _ = flat_k3_setting
        if which == "holo":
            frame, cls = holo_of_nil_frame(nd), GenClass.FIBER_MIRROR
        else:
            frame = getattr(nd, which)
            cls = GenClass.FIBER_MIRROR if which == "x_frame" else GenClass.FIBER_X
        symp = SymplecticData.darboux(frame, cls)
        assert_columns_match_oracle(frame, D, (cls, GenClass.BASE), symp)

    def test_constant_pairing_columns_match_form_level_oracle(self, pair2):
        # an omega with complex, non-unit entries: Lambda carries 1/2 p^ij
        x = pair2.frame_x
        omega = Form.monomial(x, ["dth1", "dr1"], 2) + Form.monomial(x, ["dth2", "dr1"], I)
        omega = omega + Form.monomial(x, ["dth2", "dr2"], GaussianRational(1, 3))
        symp = SymplecticData.from_constant_omega(x, omega)
        assert_columns_match_oracle(x, 1, (GenClass.FIBER_X, GenClass.BASE), symp)

    def test_cancelling_terms_leave_no_entry(self, pair2):
        # a symmetric pairing contracts each pair twice with opposite signs
        x = pair2.frame_x
        pairing = [[Poly() for _ in range(len(x))] for _ in range(len(x))]
        for f, b in zip(x.gens_of_class(GenClass.FIBER_X), x.gens_of_class(GenClass.BASE)):
            pairing[f][b] = pairing[b][f] = Poly.variable("r1")
        symp = SymplecticData(x, SymplecticData.darboux(x).omega, pairing)
        assert_columns_match_oracle(x, 1, (GenClass.FIBER_X, GenClass.BASE), symp)
        cpx = coh.FiniteComplex(x, 1, (GenClass.FIBER_X, GenClass.BASE), symp)
        assert all(col == {} for col in cpx.images["lambda"])

    def test_missing_pairing_rejected(self, pair1):
        # the dz/dzb frame has no x-fiber legs to pair with its base legs
        with pytest.raises(calculus.MissingPairing):
            coh.ty_complex(pair1.holo_frame, 0)


# the Form-level composites: the route the complexes took before their
# composite images became products of the primitive ones, kept as the oracle


def oracle_ddlambda(f, symp):
    return exterior_d(d_lambda(f, symp))


def oracle_deldbar(f, basis):
    _, dbar_f = dolbeault(f, basis)
    del_dbar_f, _ = dolbeault(dbar_f, basis)
    return del_dbar_f


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
        # the columns come from the frame data: no Form-level operator runs
        calls = {"exterior_d": 0, "dual_lefschetz": 0, "d_lambda": 0, "dolbeault": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for name, fn in (
            ("exterior_d", exterior_d), ("dual_lefschetz", dual_lefschetz),
            ("d_lambda", d_lambda), ("dolbeault", dolbeault),
        ):
            monkeypatch.setattr(calculus, name, counting(name, fn))
            monkeypatch.setattr(coh, name, counting(name, fn), raising=False)
        coh.ty_complex(pair2.frame_x, 1)
        coh.bc_complex(pair2.holo_frame, 1)
        assert calls == {"exterior_d": 0, "dual_lefschetz": 0, "d_lambda": 0, "dolbeault": 0}

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
