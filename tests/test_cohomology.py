import gc
import weakref
from math import comb
from itertools import product as cartesian
from operator import add

import pytest

from syzkit import cohomology as coh
from syzkit import nilmanifold as nil
from syzkit import calculus
from syzkit.calculus import HOLO_SPLIT, SymplecticData, dolbeault, exterior_d
from syzkit.coeffring import GaussianRational, I, ONE, Poly, _accumulate, exponents
from syzkit.exterior import BasisChangeError, Form, FrameMismatch, GenClass, Generator, bits, koszul_sign
from syzkit.fourier import SemiflatPair

from test_calculus import (
    d_lambda_by_oracles,
    dual_lefschetz_by_contraction,
    dual_lefschetz_by_halved_entries,
    exterior_d_by_wedging,
)


def basis_form(cpx, idx):
    """Basis element idx of a complex as a form."""
    mask, e = cpx.basis[idx]
    return Form(cpx.frame, {mask: Poly(cpx.vars, {exponents(e, cpx.vars): ONE})})


@pytest.fixture(scope="module")
def flat_k3_setting():
    return nil.build(nil.upper_triangular(3)), nil.semiflat_pair(nil.upper_triangular(3))


class TestComplexConstruction:
    def test_operator_identities_on_basis(self, pair2):
        bc = coh.bc_complex(pair2.holo_frame, 1)
        ty = coh.ty_complex(pair2.frame_x, 1)
        for cpx, ops in ((bc, ["d", "deldbar"]), (ty, ["d", "dlambda", "ddlambda"])):
            for i in range(len(cpx.basis)):
                v = cpx.vectorize(basis_form(cpx, i))
                assert cpx.apply("d", cpx.apply("d", v)) == {}
        for i in range(len(bc.basis)):
            v = bc.vectorize(basis_form(bc, i))
            assert bc.apply("deldbar", bc.apply("deldbar", v)) == {}
            assert bc.apply("d", bc.apply("deldbar", v)) == {}
        for i in range(len(ty.basis)):
            v = ty.vectorize(basis_form(ty, i))
            assert ty.apply("dlambda", ty.apply("dlambda", v)) == {}
            assert ty.apply("d", ty.apply("ddlambda", v)) == {}
            assert ty.apply("dlambda", ty.apply("ddlambda", v)) == {}

    def test_vectorize_roundtrip(self, pair2):
        ty = coh.ty_complex(pair2.frame_x, 1)
        f = Form.monomial(pair2.frame_x, ["dth1", "dr2"], Poly.variable("r1"))
        assert ty.form_of(ty.vectorize(f)) == f

    def test_span_escape_raises(self, pair2):
        # g1 = dth1 + r1^2 dr2 has d g1 = 2 r1 dr1^dr2, one degree above x^e g1
        # the escape shows when its columns are read
        frame = self.coframe_over(pair2, Poly.variable("r1") ** 2)
        for D in (0, 1, 2):
            cpx = coh.FiniteComplex(frame, D, (GenClass.FIBER_X, GenClass.BASE))
            message = rf"^d of basis element \d+: a term of coefficient degree {D + 1} escapes the degree-{D} span$"
            with pytest.raises(coh.SpanEscape, match=message) as err:
                for i in range(len(cpx.basis)):
                    cpx.images["d"][i]
            assert err.value.witness is not None and err.value.witness.frame == frame

    def test_vectorize_degree_escape(self, pair2):
        # the message of a form names no basis element; the witness is the form
        ty = coh.ty_complex(pair2.frame_x, 1)
        f = Form.monomial(pair2.frame_x, ["dth1"], Poly.variable("r1") ** 2)
        with pytest.raises(coh.SpanEscape, match="^term of coefficient degree 2 escapes the degree-1 span$") as err:
            ty.vectorize(f)
        assert err.value.witness == f

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
        the flat frame_x; g1 has a base leg but is given the x-fiber class,
        so the split covers every generator."""
        x = pair.frame_x
        exps = [Form.gen(x, "dth1") + Form.gen(x, "dr2") * coeff] + [
            Form.gen(x, lab) for lab in ("dth2", "dr1", "dr2")
        ]
        classes = [GenClass.FIBER_X, None, None, None]
        return calculus.coframe([Generator(f"g{k + 1}", cls, f) for k, (cls, f) in enumerate(zip(classes, exps))], x)

    def test_split_that_leaves_a_generator_out_refused(self, pair2):
        # the x-fiber legs of the correspondence frame lie in neither class
        # of the complex side's split, so its slots would not cover the basis
        with pytest.raises(ValueError, match="leaves a generator out"):
            coh.FiniteComplex(pair2.frame_corr, 0, HOLO_SPLIT)

    def test_negative_degree_rejected(self, pair2):
        with pytest.raises(ValueError):
            coh.ty_complex(pair2.frame_x, -1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_slot_matches_per_element_bidegree(self, n):
        # the oracle enumerates the basis and asks the frame for each basis
        # element's bidegree
        pair = SemiflatPair(n)
        for cpx in (coh.bc_complex(pair.holo_frame, 1), coh.ty_complex(pair.frame_x, 1)):
            basis = enumerated_basis(cpx.frame, cpx.D)
            for p in range(-1, n + 2):
                for q in range(-1, n + 2):
                    want = [i for i, (mask, _) in enumerate(basis)
                            if cpx.frame.bidegree(mask, cpx.basis.split) == (p, q)]
                    assert cpx.slot(p, q) == want, (p, q)
                    assert cpx.basis.slot_size(p, q) == len(want)


def fail_to_build(self, idx):
    raise AssertionError("a column was built")


def no_column_builds(monkeypatch):
    """Make every column builder, and the monomial listing, fail."""
    for cls in (coh.PrimitiveColumns, coh.RowsOfD, coh.ProductColumns):
        monkeypatch.setattr(cls, "__missing__", fail_to_build)
    monkeypatch.setattr(coh, "monomials", lambda *a: pytest.fail("the monomials were listed"))


class TestBasisBound:
    @pytest.mark.parametrize("n, D", [(1, 32767), (3, 21), (6, 2)])
    def test_largest_admitted_degree(self, n, D, monkeypatch):
        # D is the largest degree whose whole complex, 2^(2n) C(n + D, D)
        # elements, fits the bound; a query reads at most the whole basis, so
        # every query at D is admitted, and counting builds nothing
        assert 4 ** n * comb(n + D, D) <= coh.MAX_BASIS < 4 ** n * comb(n + D + 1, D + 1)
        no_column_builds(monkeypatch)
        pair = SemiflatPair(n)
        bc, ty = coh.bc_complex(pair.holo_frame, D), coh.ty_complex(pair.frame_x, D)
        for p in range(n + 1):
            for q in range(n + 1):
                for cpx, quotient in ((bc, coh.BOTT_CHERN), (ty, coh.TSENG_YAU)):
                    assert cpx.admit(coh.quotient_reads(quotient, p, q)) <= len(cpx.basis) <= coh.MAX_BASIS

    def test_rejected_before_any_mask(self, monkeypatch):
        # K = 5 (n = 10) at D = 0: the (5,5) mirror query is refused before
        # any column is built or any monomial listed, and the refusal names
        # the count of basis elements whose columns it would build
        pair = nil.semiflat_pair(nil.upper_triangular(5))
        no_column_builds(monkeypatch)
        ty, bc = coh.ty_complex(pair.frame_x, 0), coh.bc_complex(pair.holo_frame, 0)
        with pytest.raises(coh.ComplexTooLarge) as err:
            coh.mirror_compare(ty, bc, 5, 5, pair.fm_forward)
        assert str(err.value) == (
            "the query would build the columns of 340704 basis elements of the degree-0 complex "
            "on 20 generators and 10 variables, past the bound 131072"
        )
        assert not isinstance(err.value, coh.SpanEscape)
        assert all(not cols for cpx in (ty, bc) for cols in cpx.images.values())

    def test_count_is_the_union_of_the_slots_read(self, monkeypatch):
        # Bott-Chern (1,1) on the K = 5 dz/dzb frame reads d on (1,1) and
        # del-dbar on (0,0); del-dbar reads d on (0,0) and, through dbar, on (0,1)
        pair = nil.semiflat_pair(nil.upper_triangular(5))
        no_column_builds(monkeypatch)
        bc = coh.bc_complex(pair.holo_frame, 0)
        assert bc.admit(coh.quotient_reads(coh.BOTT_CHERN, 1, 1)) == 10 * 10 + 1 + 10

    def test_k5_mirror_passes(self):
        pair = nil.semiflat_pair(nil.upper_triangular(5))
        ty, bc = coh.ty_complex(pair.frame_x, 0), coh.bc_complex(pair.holo_frame, 0)
        rep, bcr, tyr = coh.mirror_compare(ty, bc, 1, 1, pair.fm_forward)
        assert rep.passed
        assert bcr.dim == tyr.dim == 100


def flat_pair(case):
    kind, size = case
    return SemiflatPair(size) if kind == "n" else nil.semiflat_pair(nil.upper_triangular(size))


# the wedge-built d and the contraction-built Lambda of test_calculus, and the
# halved-entry double contraction that Lambda's columns once made, are the
# oracles for the columns of d and Lambda (the columns and the package's
# exterior_d and dual_lefschetz run the same per-term kernels, d_term and
# lambda_term, so these oracles check both)


def assert_columns_match_oracle(frame, D, split, symp):
    cpx = coh.FiniteComplex(frame, D, split)
    lam_cols = cpx.lambda_columns(symp)
    for i in range(len(cpx.basis)):
        f = basis_form(cpx, i)
        assert cpx.images["d"][i] == cpx.vectorize(exterior_d_by_wedging(f)), (D, cpx.basis[i])
        lam = dual_lefschetz_by_contraction(f, symp)
        assert lam_cols[i] == cpx.vectorize(lam), (D, cpx.basis[i])
        assert lam_cols[i] == cpx.vectorize(dual_lefschetz_by_halved_entries(f, symp))


def holo_of_nil_frame(nd):
    """The dz/dzb frame of f_ij + i e_ij over the nilmanifold's x_frame."""
    x = nd.x_frame
    return calculus.holo_coframe(
        x, [(f"dz{s}", Form.gen(x, f"f{s}") + Form.gen(x, f"e{s}") * I) for s in nd.algebra.labels]
    )


# the all-columns route the complexes took before their columns were built on
# first read, kept as the oracle for the lazy columns: the basis enumerated
# mask by mask, a dict from (mask, e) to index, and every column of d, Lambda
# and the composites built up front


def enumerated_basis(frame, D):
    """(mask, exponent tuple) pairs, the tuples in degree-then-lex order."""
    exps = sorted((e for e in cartesian(range(D + 1), repeat=len(frame.base_vars)) if sum(e) <= D),
                  key=lambda e: (sum(e), e))
    return [(mask, e) for mask in range(1 << len(frame)) for e in exps]


class EagerComplex:
    def __init__(self, frame, D, split):
        self.frame, self.D, self.split = frame, D, split
        self.vars = tuple(sorted(frame.base_vars))
        self.basis = enumerated_basis(frame, D)
        self.pos = {key: i for i, key in enumerate(self.basis)}
        self.mask_bidegree = [frame.bidegree(mask, split) for mask in range(1 << len(frame))]
        self.images = {"d": self.d_columns()}

    def exponents(self, poly):
        return [(exponents(m, self.vars), c) for m, c in poly.terms.items()]

    def flatten(self, form):
        return [(mask, e, c) for mask, poly in form.terms.items() for e, c in self.exponents(poly)]

    def column(self, acc):
        return {self.pos[key]: c for key, c in acc.items()}

    def d_columns(self):
        frame = self.frame
        dvar = []
        for v in self.vars:
            dv = frame.base_one_form(v)
            dvar.append(None if dv is None else self.flatten(dv))
        dgen = []
        for i in range(len(frame)):
            dg = frame.d_of_generator(i)
            dgen.append(() if dg is None else self.flatten(dg))
        cols = []
        for mask, e in self.basis:
            acc = {}
            for k, ek in enumerate(e):
                if not ek:
                    continue
                terms = dvar[k]
                if terms is None:
                    raise FrameMismatch(f"no one-form paired with base variable {self.vars[k]!r}")
                low = e[:k] + (ek - 1,) + e[k + 1:]
                for m, f, c in terms:
                    if m & mask:
                        continue
                    key = (m | mask, tuple(map(add, low, f)))
                    _accumulate(acc, key, c * ek if koszul_sign(m, mask) > 0 else c * -ek)
            for i in bits(mask):
                rest = mask ^ (1 << i)
                sign = koszul_sign(1 << i, rest)
                for m, f, c in dgen[i]:
                    if m & rest:
                        continue
                    key = (m | rest, tuple(map(add, e, f)))
                    _accumulate(acc, key, c if koszul_sign(m, rest) == sign else -c)
            cols.append(self.column(acc))
        return cols

    def lambda_columns(self, symp):
        cols = []
        for mask, e in self.basis:
            acc = {}
            for legs, _, c in symp.blocks:
                if mask & legs != legs:
                    continue
                rest = mask ^ legs
                _accumulate(acc, (rest, e), c if koszul_sign(legs, rest) > 0 else -c)
            cols.append(self.column(acc))
        return cols


def dolbeault_split(cpx, d_cols):
    """(del, dbar): the (p+1,q) and (p,q+1) rows of each column of d."""
    bidegree = [cpx.mask_bidegree[mask] for mask, _ in cpx.basis]
    dl, db = [], []
    for i, col in enumerate(d_cols):
        p, q = bidegree[i]
        a, b = {}, {}
        for r, c in col.items():
            if bidegree[r] == (p + 1, q):
                a[r] = c
            elif bidegree[r] == (p, q + 1):
                b[r] = c
            else:
                raise BasisChangeError("d leaves the adjacent bidegrees; basis not integrable")
        dl.append(a)
        db.append(b)
    return dl, db


def product(*terms):
    """Sparse columns of the sum of sign * (outer . inner) over the terms
    (sign, outer, inner): column i of outer . inner is the image under
    `outer` of the vector inner[i], the sum of inner[i][k] * outer[k]."""
    out = []
    for i in range(len(terms[0][2])):
        acc = {}
        for sign, outer, inner in terms:
            for k, b in inner[i].items():
                if sign < 0:
                    b = -b
                for r, a in outer[k].items():
                    _accumulate(acc, r, b * a)
        out.append(acc)
    return out


def eager_bc_complex(holo_frame, D):
    cpx = EagerComplex(holo_frame, D, HOLO_SPLIT)
    dl, db = dolbeault_split(cpx, cpx.images["d"])
    cpx.images.update({"del": dl, "dbar": db, "deldbar": product((1, dl, db))})
    return cpx


def eager_ty_complex(frame, D):
    cpx = EagerComplex(frame, D, (GenClass.FIBER_X, GenClass.BASE))
    d = cpx.images["d"]
    lam = cpx.lambda_columns(SymplecticData.darboux(frame, GenClass.FIBER_X))
    dl = product((1, d, lam), (-1, lam, d))
    cpx.images.update({"lambda": lam, "dlambda": dl, "ddlambda": product((1, d, dl))})
    return cpx


def planned_indices(cpx, reads):
    """The basis indices of every slot whose columns the reads may build."""
    at = set().union(*(cpx.images[op].reads(pq) for op, pq in reads))
    return {i for pq in at for i in cpx.slot(*pq)}


class TestLazyColumns:
    CASES = [(("n", n), D) for n in (1, 2, 3) for D in (0, 1)] + [(("K", 3), D) for D in (0, 1, 2)]

    @pytest.mark.parametrize("case, D", CASES, ids=[f"{k}{s}-D{D}" for (k, s), D in CASES])
    def test_columns_match_the_eager_oracle(self, case, D):
        pair = flat_pair(case)
        for lazy, eager in (
            (coh.bc_complex(pair.holo_frame, D), eager_bc_complex(pair.holo_frame, D)),
            (coh.ty_complex(pair.frame_x, D), eager_ty_complex(pair.frame_x, D)),
        ):
            assert set(lazy.images) == set(eager.images)
            assert len(lazy.basis) == len(eager.basis)
            for i, key in enumerate(eager.basis):
                # the arithmetic index agrees with the enumeration both ways
                mask, e = lazy.basis[i]
                assert (mask, exponents(e, lazy.vars)) == key
                assert lazy.vectorize(basis_form(lazy, i)) == {i: ONE}
            # the composites first, so that they build the columns they read
            for op in sorted(eager.images, key=lambda op: op == "d"):
                for i in range(len(eager.basis)):
                    assert lazy.images[op][i] == eager.images[op][i], (op, eager.basis[i])

    @pytest.mark.parametrize("op", ["del", "dbar"])
    def test_non_adjacent_row_rejected(self, op):
        # a column of d from the function 1 (index 0) to dz1 ^ dz1b (index 3)
        # leaves the adjacent bidegrees, whichever part reads it
        bc = coh.bc_complex(SemiflatPair(1).holo_frame, 0)
        bc.images["d"][0] = {3: ONE}
        with pytest.raises(BasisChangeError, match="not integrable"):
            bc.images[op][0]

    def test_mirror_query_builds_only_what_it_planned(self, flat_k3_setting):
        # K = 3 at D = 2 has 640 basis elements on each side; the (1,1)
        # comparison reads a few slots of each
        _, pair = flat_k3_setting
        bc, ty = coh.bc_complex(pair.holo_frame, 2), coh.ty_complex(pair.frame_x, 2)
        planned = [
            (bc, bc.admit(coh.quotient_reads(coh.BOTT_CHERN, 1, 1))),
            (ty, ty.admit(coh.quotient_reads(coh.TSENG_YAU, 2, 1))),
        ]
        rep, bcr, tyr = coh.mirror_compare(ty, bc, 1, 1, pair.fm_forward)
        assert rep.passed and bcr.dim == tyr.dim == 28
        for (cpx, count), reads in zip(planned, (coh.quotient_reads(coh.BOTT_CHERN, 1, 1),
                                                 coh.quotient_reads(coh.TSENG_YAU, 2, 1))):
            assert len(cpx.basis) == 640
            assert len(cpx.images["d"]) < 640
            built = set().union(*cpx.images.values())
            assert built <= planned_indices(cpx, reads)
            assert len(built) <= count < 640

    def test_leaving_representative_refused_before_its_columns_are_read(self, pair2):
        # a dth1 image is (1,0), outside the (1,1) mirror slot
        bc, ty = coh.bc_complex(pair2.holo_frame, 1), coh.ty_complex(pair2.frame_x, 1)
        stray = Form.gen(pair2.frame_x, "dth1")
        with pytest.raises(coh.SpanEscape, match="leaves the mirror slot") as err:
            coh.mirror_compare(ty, bc, 1, 1, lambda f: stray)
        assert err.value.witness is stray
        reads = coh.quotient_reads(coh.TSENG_YAU, 1, 1)
        assert set().union(*ty.images.values()) <= planned_indices(ty, reads)

    def test_complex_freed_without_the_cycle_collector(self, pair2):
        # the columns hold the basis and each other, never the complex
        gc.disable()
        try:
            bc, ty = coh.bc_complex(pair2.holo_frame, 1), coh.ty_complex(pair2.frame_x, 1)
            rep, bcr, tyr = coh.mirror_compare(ty, bc, 1, 1, pair2.fm_forward)
            assert rep.passed and any(ty.images.values()) and any(bc.images.values())
            refs = [weakref.ref(bc), weakref.ref(ty)]
            del bc, ty
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


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
        pairing = [[0] * len(x) for _ in range(len(x))]
        for f, b in zip(x.gens_of_class(GenClass.FIBER_X), x.gens_of_class(GenClass.BASE)):
            pairing[f][b] = pairing[b][f] = GaussianRational(3, 1)
        symp = SymplecticData(x, SymplecticData.darboux(x).omega, pairing)
        assert_columns_match_oracle(x, 1, (GenClass.FIBER_X, GenClass.BASE), symp)
        cpx = coh.FiniteComplex(x, 1, (GenClass.FIBER_X, GenClass.BASE))
        assert all(col == {} for col in cpx.lambda_columns(symp))

    def test_missing_pairing_rejected(self, pair1):
        # the dz/dzb frame has no x-fiber legs to pair with its base legs
        with pytest.raises(calculus.MissingPairing):
            coh.ty_complex(pair1.holo_frame, 0)


# the Form-level composites: the route the complexes took before their
# composite images became products of the primitive ones, kept as the oracle


def oracle_ddlambda(f, symp):
    return exterior_d_by_wedging(d_lambda_by_oracles(f, symp))


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
            f = basis_form(ty, i)
            assert ty.images["dlambda"][i] == ty.vectorize(d_lambda_by_oracles(f, symp))
            assert ty.images["ddlambda"][i] == ty.vectorize(oracle_ddlambda(f, symp))
        bc = coh.bc_complex(pair.holo_frame, D)
        dl, db = bc.images["del"], bc.images["dbar"]
        for i in range(len(bc.basis)):
            f = basis_form(bc, i)
            del_f, dbar_f = dolbeault(f, pair.holo_frame)
            assert dl[i] == bc.vectorize(del_f)
            assert db[i] == bc.vectorize(dbar_f)
            assert bc.images["deldbar"][i] == bc.vectorize(oracle_deldbar(f, pair.holo_frame))

    def test_only_primitives_applied_to_the_basis(self, pair2, monkeypatch):
        # no Form-level operator runs on the basis: each column of d and
        # Lambda is one call of the per-term kernel that the Form operators
        # share, on the basis element with coefficient 1
        calls = {name: 0 for name in ("exterior_d", "dual_lefschetz", "d_lambda", "dolbeault", "d_term", "lambda_term")}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for name in calls:
            fn = getattr(calculus, name)
            monkeypatch.setattr(calculus, name, counting(name, fn))
            monkeypatch.setattr(coh, name, counting(name, fn), raising=False)
        # the queries build the columns they read
        ty = coh.ty_complex(pair2.frame_x, 1)
        bc = coh.bc_complex(pair2.holo_frame, 1)
        coh.mirror_compare(ty, bc, 1, 1, pair2.fm_forward)
        assert all(ty.images.values()) and all(bc.images.values())
        assert calls == {
            "exterior_d": 0, "dual_lefschetz": 0, "d_lambda": 0, "dolbeault": 0,
            "d_term": len(ty.images["d"]) + len(bc.images["d"]), "lambda_term": len(ty.images["lambda"]),
        }

    def test_split_rejects_non_adjacent_bidegree(self, pair1):
        # a column of d planted before it is built: del and dbar split it
        bc = coh.bc_complex(pair1.holo_frame, 0)
        at = {bc.frame.bidegree(mask, bc.basis.split): i for i, (mask, _) in enumerate(bc.basis)}
        # the (0,0) element: a (1,0) and a (0,1) row split into del and dbar
        bc.images["d"][at[(0, 0)]] = {at[(1, 0)]: ONE, at[(0, 1)]: GaussianRational(0, 2)}
        assert bc.images["del"][at[(0, 0)]] == {at[(1, 0)]: ONE}
        assert bc.images["dbar"][at[(0, 0)]] == {at[(0, 1)]: GaussianRational(0, 2)}
        # a (1,1) row two steps away is not a del or dbar row
        bc = coh.bc_complex(pair1.holo_frame, 0)
        bc.images["d"][at[(0, 0)]] = {at[(1, 0)]: ONE, at[(1, 1)]: ONE}
        for op in ("del", "dbar"):
            with pytest.raises(BasisChangeError):
                bc.images[op][at[(0, 0)]]


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
            assert bc.apply("d", bc.vectorize(f)) == {}

    def test_each_representative_vectorized_once(self, flat_k3_setting, monkeypatch):
        # the transformed representatives stay vectors: one vectorize each,
        # and only the two quotients' representatives become forms
        _, pair = flat_k3_setting
        bc = coh.bc_complex(pair.holo_frame, 1)
        ty = coh.ty_complex(pair.frame_x, 1)
        calls = {"vectorize": 0, "form_of": 0}

        def counting(name, fn):
            def wrapped(self, *args):
                calls[name] += 1
                return fn(self, *args)

            return wrapped

        for name in calls:
            monkeypatch.setattr(coh.FiniteComplex, name, counting(name, getattr(coh.FiniteComplex, name)))
        rep, bcr, tyr = coh.mirror_compare(ty, bc, 1, 1, pair.fm_forward)
        assert rep.passed and bcr.dim == tyr.dim == 19
        assert calls == {"vectorize": bcr.dim, "form_of": bcr.dim + tyr.dim}

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
            v = basis_form(bc, i)
            lhs = exterior_d(pair2.fm_forward(v))
            _, dbar_v = dolbeault(v, pair2.holo_frame)
            rhs = pair2.fm_forward(dbar_v) * (ONE / c)
            assert lhs == rhs
