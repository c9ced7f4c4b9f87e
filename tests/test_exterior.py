import json
import random
from fractions import Fraction

import pytest

from syzkit import calculus
from syzkit.coeffring import GaussianRational, I, ONE, Poly, _accumulate
from syzkit.exterior import (
    BasisChangeError,
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    bits,
    frame_collect,
    frame_expand,
    koszul_sign,
    substitute_generators,
)
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_form, random_poly
from syzkit import nilmanifold as nil

from conftest import brute_perm_sign, series_exp, subsets, wedge_chain
from test_calculus import KERNEL_FRAMES, KERNEL_IDS, kernel_forms, oracle_frame


def collect_by_unit_pivot(frame):
    """Oracle for frame_collect on permuted-unitriangular frames: solve for
    each coordinate generator by repeated substitution of the expansions that
    have a single unresolved coordinate with a constant unit pivot."""
    pending = list(frame.generators)
    solved = {}
    while pending:
        still = []
        for g in pending:
            exp = g.coord_expansion
            label = {m: exp.frame.generators[next(bits(m))].label for m in exp.terms}
            unknown = [m for m in exp.terms if label[m] not in solved]
            if len(unknown) != 1 or not exp.terms[unknown[0]].is_constant():
                still.append(g)
                continue
            m0 = unknown[0]
            # coord_0 = (g - sum_{solved} c * solved[coord]) / c_0
            acc = Form.gen(frame, g.label)
            for m, c in exp.terms.items():
                if m != m0:
                    acc = acc - solved[label[m]] * c
            solved[label[m0]] = acc * (ONE / exp.terms[m0].constant_value())
        assert len(still) < len(pending), "no expansion has a unit pivot left"
        pending = still
    return solved


class TestKoszulSign:
    def test_against_brute_force_oracle(self):
        universe = range(6)
        for a in subsets(universe):
            for b in subsets(universe):
                if set(a) & set(b):
                    continue
                merged = list(a) + list(b)
                assert koszul_sign(
                    sum(1 << i for i in a), sum(1 << i for i in b)
                ) == brute_perm_sign(merged), (a, b)


class TestWedge:
    def test_antisymmetry(self, pair3):
        f = pair3.frame_x
        th1, dr1 = Form.gen(f, "dth1"), Form.gen(f, "dr1")
        assert th1.wedge(dr1) == -(dr1.wedge(th1))
        assert th1.wedge(dr1) == Form.monomial(f, ["dth1", "dr1"])

    def test_even_forms_commute(self, pair3):
        f = pair3.frame_x
        a = Form.monomial(f, ["dth1", "dr1"])
        b = Form.monomial(f, ["dth2", "dr2"])
        assert a.wedge(b) == b.wedge(a)
        assert a.wedge(b) == Form.monomial(f, ["dth1", "dr1", "dth2", "dr2"])

    def test_square_zero(self):
        nd = nil.build(nil.upper_triangular(3))
        e12 = Form.gen(nd.x_frame, "e12")
        assert e12.wedge(e12).is_zero()

    def test_frame_mismatch(self, pair3, pair2):
        with pytest.raises(FrameMismatch):
            Form.gen(pair3.frame_x, "dth1").wedge(Form.gen(pair2.frame_x, "dth1"))

    @pytest.mark.parametrize("seed", range(30))
    def test_graded_commutativity(self, pair3, seed):
        rng = random.Random(seed)
        ka, kb = rng.randint(0, 3), rng.randint(0, 3)
        a = random_form(rng, pair3.frame_corr, degrees=[ka])
        b = random_form(rng, pair3.frame_corr, degrees=[kb])
        ab, ba = a.wedge(b), b.wedge(a)
        assert ab == (ba if (ka * kb) % 2 == 0 else -ba)

    @pytest.mark.parametrize("seed", range(20))
    def test_associativity(self, pair3, seed):
        rng = random.Random(50 + seed)
        a, b, c = (random_form(rng, pair3.frame_corr, max_terms=2) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


class TestBidegreeProject:
    def test_picks_component(self, pair3):
        f = pair3.frame_x
        a = Form.monomial(f, ["dth1", "dr1"]) + Form.monomial(f, ["dth1", "dth2"])
        pi11 = a.bidegree_project(1, 1, (GenClass.FIBER_X, GenClass.BASE))
        assert pi11 == Form.monomial(f, ["dth1", "dr1"])

    @pytest.mark.parametrize("seed", range(20))
    def test_projections_sum_to_identity(self, pair3, seed):
        rng = random.Random(300 + seed)
        k = rng.randint(0, 4)
        a = random_form(rng, pair3.frame_x, degrees=[k])
        total = Form.zero(pair3.frame_x)
        for p in range(k + 1):
            total = total + a.bidegree_project(p, k - p, (GenClass.FIBER_X, GenClass.BASE))
        assert total == a


class TestExpNilpotent:
    def test_exp_zero(self, pair3):
        assert Form.zero(pair3.frame_corr).exp_nilpotent() == Form.scalar(pair3.frame_corr, 1)

    def test_two_step_series(self, pair2):
        f = pair2.frame_corr
        a = Form.monomial(f, ["dtc1", "dth1"]) + Form.monomial(f, ["dtc2", "dth2"])
        expect = (
            Form.scalar(f, 1)
            + Form.monomial(f, ["dtc1", "dth1"])
            + Form.monomial(f, ["dtc2", "dth2"])
            + Form.monomial(f, ["dtc1", "dth1"]).wedge(Form.monomial(f, ["dtc2", "dth2"]))
        )
        assert a.exp_nilpotent() == expect

    def test_top_term_reordering_sign(self, pair3):
        # the full-fiber term of exp(sum dtc_i ^ dth_i) is -dtc123 ^ dth123
        f = pair3.frame_corr
        a = Form.zero(f)
        for k in (1, 2, 3):
            a = a + Form.monomial(f, [f"dtc{k}", f"dth{k}"])
        top = Form(f, {m: p for m, p in a.exp_nilpotent().terms.items() if m.bit_count() == 6})
        assert top == Form.monomial(
            f, ["dtc1", "dtc2", "dtc3", "dth1", "dth2", "dth3"], GaussianRational(-1)
        )

    def test_rejects_odd_or_scalar_terms(self, pair3):
        with pytest.raises(ValueError):
            Form.gen(pair3.frame_x, "dth1").exp_nilpotent()
        with pytest.raises(ValueError):
            Form.scalar(pair3.frame_x, 1).exp_nilpotent()

    @pytest.mark.parametrize("seed", range(15))
    def test_exp_of_sum(self, pair3, seed):
        rng = random.Random(700 + seed)
        a = random_form(rng, pair3.frame_corr, max_terms=2, degrees=[2])
        b = random_form(rng, pair3.frame_corr, max_terms=2, degrees=[2])
        assert (a + b).exp_nilpotent() == a.exp_nilpotent().wedge(b.exp_nilpotent())


def assert_same_form(got, want):
    assert got == want
    assert got.to_json() == want.to_json()


class TestExpFactoredAgainstSeries:
    """The factored product against `series_exp`, the power series it
    replaced."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_universal_curvature(self, n):
        pair = SemiflatPair(n)
        f = pair.frame_corr
        a = Form.zero(f)
        for k in range(1, n + 1):
            a = a + Form.monomial(f, [f"dtc{k}", f"dth{k}"])
        assert_same_form(a.exp_nilpotent(), series_exp(a))
        assert_same_form((-a).exp_nilpotent(), series_exp(-a))

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_twice_the_nilmanifold_omega_on_the_holomorphic_frame(self, K):
        nd = nil.build(nil.upper_triangular(K))
        a = frame_collect(nil.omega_hermitian(nd) * 2, nd.pair.holo_frame)
        assert_same_form(a.exp_nilpotent(), series_exp(a))

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_degree_two_and_four(self, pair3, seed):
        rng = random.Random(4100 + seed)
        a = random_form(rng, pair3.frame_corr, max_terms=8, degrees=[2, 4])
        assert_same_form(a.exp_nilpotent(), series_exp(a))

    def test_oracle_keeps_the_input_checks(self, pair3):
        for bad in (Form.gen(pair3.frame_x, "dth1"), Form.scalar(pair3.frame_x, 1),
                    Form.monomial(pair3.frame_x, ["dth1", "dr1"])
                    + Form.monomial(pair3.frame_x, ["dth1", "dth2", "dr1"])):
            for route in (Form.exp_nilpotent, series_exp):
                with pytest.raises(ValueError, match="even-degree"):
                    route(bad)


def fiber_bucketed_form(rng, frame, fiber_class):
    """Three fiber masks, each with up to three terms whose other legs are
    drawn at random: several terms per fiber mask."""
    top = frame.class_mask(fiber_class)
    others = ((1 << len(frame)) - 1) & ~top
    terms = {}
    for _ in range(3):
        fiber = rng.randrange(1 << len(frame)) & top
        for _ in range(3):
            p = random_poly(rng, frame.base_vars, 2, 2)
            if p:
                _accumulate(terms, fiber | (rng.randrange(1 << len(frame)) & others), p)
    return Form(frame, terms)


class TestWedgePushforward:
    @pytest.mark.parametrize("fiber_class", [GenClass.FIBER_MIRROR, GenClass.FIBER_X])
    def test_matches_wedge_then_pushforward(self, pair3, fiber_class):
        f = pair3.frame_corr
        top = f.class_mask(fiber_class)
        crowded = collided = nonzero = 0
        for seed in range(40):
            rng = random.Random(5200 + seed)
            a = random_form(rng, f, max_terms=8)
            b = fiber_bucketed_form(rng, f, fiber_class)
            got = a.wedge_pushforward(b, fiber_class)
            assert_same_form(got, a.wedge(b).pushforward(fiber_class))
            fibers = [m & top for m in b.terms]
            crowded += len(fibers) > len(set(fibers))
            collided += any(
                m1 & m2 and (m1 | m2) & top == top and not m1 & m2 & top
                for m1 in a.terms for m2 in b.terms
            )
            nonzero += bool(got)
        # the draws exercise shared fiber masks, colliding legs and survivors
        assert crowded and collided and nonzero

    def test_transform_kernels(self, pair3):
        rng = random.Random(5300)
        for _ in range(10):
            a = random_form(rng, pair3.frame_corr, max_terms=6)
            for exp, cls in ((pair3._exp_plus, GenClass.FIBER_MIRROR),
                             (pair3._exp_minus, GenClass.FIBER_X)):
                assert_same_form(a.wedge_pushforward(exp, cls), a.wedge(exp).pushforward(cls))

    def test_frame_mismatch(self, pair3):
        with pytest.raises(FrameMismatch):
            Form.gen(pair3.frame_corr, "dth1").wedge_pushforward(
                Form.gen(pair3.frame_x, "dth1"), GenClass.FIBER_X
            )


class TestPushforward:
    def test_full_fiber_wedge_survives(self, pair1):
        f = pair1.frame_corr
        g = Poly.variable("r1")
        a = Form.monomial(f, ["dtc1", "dr1"], g)
        assert a.pushforward(GenClass.FIBER_MIRROR) == Form.monomial(f, ["dr1"], g)

    def test_no_fiber_part_dies(self, pair1):
        f = pair1.frame_corr
        a = Form.monomial(f, ["dr1"], Poly.variable("r1"))
        assert a.pushforward(GenClass.FIBER_MIRROR).is_zero()

    def test_koszul_transposition_sign(self, pair1):
        # moving the fiber generator to the front across dth1 costs one transposition
        fr = pair1.frame_corr
        a = Form.monomial(fr, ["dth1", "dtc1"])
        assert a.pushforward(GenClass.FIBER_MIRROR) == Form.monomial(fr, ["dth1"], GaussianRational(-1))

    def test_sign_against_brute_force(self, pair2):
        fr = pair2.frame_corr
        fiber = fr.class_mask(GenClass.FIBER_MIRROR)
        fiber_idx = sorted(bits(fiber))
        size = len(fr)
        for rest in subsets([i for i in range(size) if not (fiber >> i) & 1]):
            mask = fiber | sum(1 << i for i in rest)
            pushed = Form(fr, {mask: Poly.constant(1)}).pushforward(GenClass.FIBER_MIRROR)
            expect_sign = brute_perm_sign(fiber_idx + list(rest))
            rest_mask = sum(1 << i for i in rest)
            assert pushed == Form(fr, {rest_mask: Poly.constant(expect_sign)})

    @pytest.mark.parametrize("seed", range(15))
    def test_projection_formula(self, pair3, seed):
        rng = random.Random(900 + seed)
        fr = pair3.frame_corr
        a = random_form(rng, fr, max_terms=3)
        b = random_form(rng, pair3.frame_x, max_terms=2).transport(fr)
        lhs = a.wedge(b).pushforward(GenClass.FIBER_MIRROR)
        rhs = a.pushforward(GenClass.FIBER_MIRROR).wedge(b)
        assert lhs == rhs


class TestContract:
    def test_basic(self, pair3):
        f = pair3.frame_x
        a = Form.monomial(f, ["dth1", "dr1"])
        assert a.contract("dth1") == Form.gen(f, "dr1")
        assert Form.gen(f, "dr2").contract("dth1").is_zero()
        assert a.contract("dth1").contract("dr1") == Form.scalar(f, 1)

    @pytest.mark.parametrize("seed", range(20))
    def test_antiderivation(self, pair3, seed):
        rng = random.Random(1100 + seed)
        fr = pair3.frame_corr
        ka = rng.randint(0, 2)
        a = random_form(rng, fr, degrees=[ka], max_terms=2)
        b = random_form(rng, fr, max_terms=2, degrees=[rng.randint(0, 2)])
        lab = rng.choice([g.label for g in fr.generators])
        lhs = a.wedge(b).contract(lab)
        rhs = a.contract(lab).wedge(b) + a.wedge(b.contract(lab)) * ((-1) ** ka)
        assert lhs == rhs


class TestFrameExpandCollect:
    def test_expand_e13(self):
        nd = nil.build(nil.upper_triangular(3))
        got = frame_expand(Form.gen(nd.x_frame, "e13"), nd.x_coord)
        assert got == Form.gen(nd.x_coord, "dr13") - Form.monomial(
            nd.x_coord, ["dr23"], Poly.variable("r12")
        )

    def test_collect_dr13(self):
        nd = nil.build(nil.upper_triangular(3))
        got = frame_collect(Form.gen(nd.x_coord, "dr13"), nd.x_frame)
        assert got == Form.gen(nd.x_frame, "e13") + Form.monomial(
            nd.x_frame, ["e23"], Poly.variable("r12")
        )

    def test_expand_fc23(self):
        nd = nil.build(nil.upper_triangular(3))
        assert nd.fc_forms[nd.algebra.labels.index("23")] == Form.gen(nd.xc_coord, "dthc23") + Form.monomial(
            nd.xc_coord, ["dthc13"], Poly.variable("r12")
        )

    def test_expand_needs_an_expansion_on_the_target(self):
        # a coordinate generator has no expansion, and the expansions of the
        # complex-side frame live on x_coord, not on xc_coord
        nd = nil.build(nil.upper_triangular(3))
        with pytest.raises(FrameMismatch, match="dr12"):
            frame_expand(Form.gen(nd.x_coord, "dr12"), nd.x_coord)
        with pytest.raises(FrameMismatch, match="e12"):
            frame_expand(Form.gen(nd.x_frame, "e12"), nd.xc_coord)

    def test_collect_needs_the_coordinate_frame_of_the_coframe(self):
        # generators are matched by label only once the form's frame is
        # checked: a's dz/dzb frame has b's labels dr1 and dtc1 on its
        # coordinate frame, and once read b's symplectic-side dr1 as
        # -1/2 i dz1 + 1/2 i dz1b
        a, b = SemiflatPair(2), SemiflatPair(2)
        for form in (Form.gen(b.frame_x, "dr1"), Form.gen(b.frame_xc, "dtc1"), Form.gen(a.frame_x, "dr1")):
            with pytest.raises(FrameMismatch, match="is not the coordinate frame of"):
                frame_collect(form, a.holo_frame)
        # a coordinate frame is no coframe, and a coframe no coordinate frame
        with pytest.raises(calculus.BasisChangeError, match="is not a coframe"):
            frame_collect(Form.gen(a.frame_xc, "dr1"), a.frame_xc)
        with pytest.raises(FrameMismatch, match="is not the coordinate frame of"):
            frame_collect(Form.gen(a.holo_frame, "dz1"), a.holo_frame)
        got = frame_collect(Form.gen(a.frame_xc, "dr1"), a.holo_frame)
        assert got == (Form.gen(a.holo_frame, "dz1") - Form.gen(a.holo_frame, "dz1b")) * (-I / 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_expand_collect_roundtrip(self, seed):
        nd = nil.build(nil.upper_triangular(3))
        rng = random.Random(1300 + seed)
        a = random_form(rng, nd.x_coord, max_terms=3)
        assert frame_expand(frame_collect(a, nd.x_frame), nd.x_coord) == a

    @pytest.mark.parametrize("K", [3, 4])
    def test_collect_matches_unit_pivot_oracle(self, K):
        nd = nil.build(nil.upper_triangular(K))
        for frame, coord in ((nd.x_frame, nd.x_coord), (nd.xc_frame, nd.xc_coord)):
            oracle = collect_by_unit_pivot(frame)
            assert set(oracle) == {g.label for g in coord.generators}
            for lab, want in oracle.items():
                assert frame_collect(Form.gen(coord, lab), frame) == want, lab

    @staticmethod
    def two_generator_frame(real, w, wb):
        return FrameSpec(
            [
                Generator("w", GenClass.FIBER_MIRROR, w),
                Generator("wb", GenClass.BASE, wb),
            ],
            real.base_vars,
            1,
        )

    def test_coframe_differs_from_coordinate_frame_with_same_labels(self, pair1):
        f = pair1.frame_xc
        dz = Form.gen(f, "dtc1") + Form.gen(f, "dr1") * I
        frame = self.two_generator_frame(f, dz, dz.conjugate())
        coords = FrameSpec(
            [Generator("w", GenClass.FIBER_MIRROR), Generator("wb", GenClass.BASE)], f.base_vars, 1
        )
        assert frame != coords
        assert Form.gen(frame, "w") != Form.gen(coords, "w")
        # a frame equals only itself, even when rebuilt from the same data
        rebuilt = self.two_generator_frame(f, dz, dz.conjugate())
        assert frame != rebuilt
        w, w_rebuilt = Form.gen(frame, "w"), Form.gen(rebuilt, "w")
        with pytest.raises(FrameMismatch):
            w + w_rebuilt
        with pytest.raises(FrameMismatch):
            w.wedge(w_rebuilt)
        assert w != w_rebuilt

    def test_dz_frame_collects(self, pair1):
        # dz and its conjugate both lead with dtc1, so no unit-pivot order
        # exists; the transition [[1, i], [1, -i]] is still invertible over Q(i)
        f = pair1.frame_xc
        dz = Form.gen(f, "dtc1") + Form.gen(f, "dr1") * I
        dzb = Form.gen(f, "dtc1") - Form.gen(f, "dr1") * I
        frame = self.two_generator_frame(f, dz, dzb)
        w, wb = Form.gen(frame, "w"), Form.gen(frame, "wb")
        half = GaussianRational(Fraction(1, 2))
        assert frame_collect(Form.gen(f, "dtc1"), frame) == (w + wb) * half
        assert frame_collect(Form.gen(f, "dr1"), frame) == (w - wb) * (-I * half)
        rng = random.Random(1400)
        for _ in range(10):
            a = random_form(rng, f, max_terms=3)
            assert frame_expand(frame_collect(a, frame), f) == a

    @pytest.mark.parametrize("case", ["repeated-expansion", "r1-dtc1", "one-plus-r1-dtc1"])
    def test_non_invertible_frame_rejected(self, pair1, case):
        f = pair1.frame_xc
        r1 = Poly.variable("r1")
        dz = Form.gen(f, "dtc1") + Form.gen(f, "dr1") * I
        w, wb = {
            "repeated-expansion": (dz, dz),
            "r1-dtc1": (Form.gen(f, "dtc1") * r1, Form.gen(f, "dr1")),
            "one-plus-r1-dtc1": (Form.gen(f, "dtc1") * (1 + r1), Form.gen(f, "dr1")),
        }[case]
        frame = self.two_generator_frame(f, w, wb)
        with pytest.raises(BasisChangeError):
            frame_collect(Form.gen(f, "dtc1"), frame)
        assert calculus.BasisChangeError is BasisChangeError


class TestFrameRules:
    @pytest.mark.parametrize("labels, base_vars, paired, message", [
        (["a", "a"], ["r1"], [None, None], r"generator labels must be unique strings, got \['a', 'a'\]"),
        (["a", 5], ["r1"], [None, None], "generator labels must be unique strings"),
        (["a", "b"], ["r1", "r1"], [None, None], "base variables must be unique strings"),
        (["a", "b"], ["r1", None], [None, None], "base variables must be unique strings"),
        (["a", "b"], "r1r2", [None, None], "base variables must be unique strings"),
        (["a", "b"], ["r1"], ["r2", None], r"paired variables \['r2'\] must be distinct base variables of \['r1'\]"),
        (["a", "b"], ["r1"], ["r1", "r1"], r"paired variables \['r1', 'r1'\] must be distinct"),
        (["a", "b"], ["r1"], [["r1"], None], "paired variables"),
    ], ids=["repeated-label", "int-label", "repeated-variable", "null-variable", "string-of-variables", "unknown-pairing",
            "variable-paired-twice", "list-pairing"])
    def test_malformed_frame_refused(self, labels, base_vars, paired, message):
        gens = [Generator(lab, paired_base_var=v) for lab, v in zip(labels, paired)]
        with pytest.raises(ValueError, match=message):
            FrameSpec(gens, base_vars, 1)

    def test_collect_onto_a_coordinate_frame_refused(self, pair1):
        # frame_collect reads the expansions of a coframe's generators
        with pytest.raises(BasisChangeError, match="is not a coframe"):
            frame_collect(Form.gen(pair1.frame_x, "dth1"), pair1.frame_xc)


class TestTransportAndJson:
    def test_transport_roundtrip(self, pair3):
        a = Form.monomial(pair3.frame_x, ["dth2", "dr1"], Poly.variable("r3"))
        lifted = a.transport(pair3.frame_corr)
        assert lifted.transport(pair3.frame_x) == a

    def test_transport_missing_label(self, pair3):
        a = Form.gen(pair3.frame_corr, "dtc1")
        with pytest.raises(FrameMismatch):
            a.transport(pair3.frame_x)

    def test_json_roundtrip(self, pair3):
        rng = random.Random(7)
        a = random_form(rng, pair3.frame_x, max_terms=4)
        blob = json.dumps(a.to_json(), sort_keys=True)
        assert Form.from_json(json.loads(blob), pair3.frame_x) == a

    def test_substitute_requires_images(self, pair3):
        a = Form.gen(pair3.frame_x, "dth1")
        with pytest.raises(FrameMismatch):
            substitute_generators(a, pair3.frame_x, {})

    def test_substitute_checks_every_image_before_wedging(self, pair2):
        # dth1 ^ dth1 vanishes before dr1 is reached; it once returned 0
        f = pair2.frame_x
        dth1 = Form.gen(f, "dth1")
        images = {f.index["dth1"]: dth1, f.index["dth2"]: dth1}
        with pytest.raises(FrameMismatch, match="'dr1'"):
            substitute_generators(Form.monomial(f, ["dth1", "dth2", "dr1"]), f, images)


# label lists: ascending, unsorted (each sign), a repeat, an odd reversal
MONOMIAL_LABELS = [
    [], ["dr2"], ["dth1", "dth3", "dr2"], ["dr2", "dth1"], ["dr1", "dth3", "dth2"],
    ["dth2", "dr1", "dth2"], ["dr3", "dr2", "dr1", "dth3", "dth2", "dth1"],
]


class TestMonomialAndJson:
    """Form.monomial and Form.from_json read a label list by one mask-and-sign
    rule; the oracle wedges the generators on one at a time."""

    @pytest.mark.parametrize("labels", MONOMIAL_LABELS)
    @pytest.mark.parametrize("coeff", [1, -3, I, Poly.variable("r2") + 1])
    def test_monomial_matches_wedge_chain(self, pair3, labels, coeff):
        got = Form.monomial(pair3.frame_x, labels, coeff)
        want = wedge_chain(pair3.frame_x, labels, coeff)
        assert got == want and got.to_json() == want.to_json()

    def test_repeated_label_gives_zero(self, pair3):
        assert Form.monomial(pair3.frame_x, ["dr1", "dth1", "dr1"], 5).is_zero()

    @pytest.mark.parametrize("seed", range(30))
    def test_from_json_matches_wedge_chain_sum(self, pair3, seed):
        rng = random.Random(seed)
        frame = pair3.frame_x
        r1 = Poly.variable("r1")
        terms = []
        for _ in range(rng.randint(1, 6)):
            labels = rng.choice(MONOMIAL_LABELS)
            terms.append((labels, rng.choice([Poly.constant(2), r1 * I, r1 + 1, Poly()])))
        if rng.random() < 0.5:
            # the same mask again, reordered, with the sign that cancels it
            labels, c = terms[0]
            terms.append((labels[::-1], c * -brute_perm_sign(range(len(labels), 0, -1))))
        doc = {
            "frame": [g.label for g in frame.generators],
            "terms": [{"gens": labels, "coeff": c.to_json()} for labels, c in terms],
        }
        got = Form.from_json(doc, frame)
        want = Form.zero(frame)
        for labels, c in terms:
            want = want + wedge_chain(frame, labels) * c
        assert got == want and got.to_json() == want.to_json(), terms

    @pytest.mark.parametrize("read", ["monomial", "from_json"])
    def test_unknown_label_names_label_and_frame(self, pair2, read):
        frame = pair2.holo_frame
        with pytest.raises(FrameMismatch, match=r"unknown generator 'dz9'.*'dz1', 'dz2'"):
            if read == "monomial":
                Form.monomial(frame, ["dz1", "dz9"])
            else:
                doc = Form.gen(frame, "dz1").to_json()
                doc["terms"][0]["gens"] = ["dz9"]
                Form.from_json(doc, frame)


def public_form(frame, pieces):
    """The Form of (mask, coefficient) pieces summed per mask, built through
    the public constructor (which drops the masks that cancel)."""
    terms = {}
    for m, c in pieces:
        terms[m] = terms[m] + c if m in terms else c
    return Form(frame, terms)


class TestFormFastConstructor:
    """Form operations skip the public constructor's checks; their results
    still hold only nonzero Poly coefficients and equal the checked route."""

    @pytest.mark.parametrize("seed", range(40))
    def test_results_are_clean_and_match_public_route(self, pair3, seed):
        rng = random.Random(7000 + seed)
        fr = pair3.frame_corr
        a = random_form(rng, fr, max_terms=4)
        b = random_form(rng, fr, max_terms=3)
        if rng.random() < 0.3:
            b = b - a  # cancellations in +
        scalar = rng.choice([0, 2, Poly.variable("r1"), Poly(("r1",), {})])
        lab = rng.choice([g.label for g in fr.generators])
        bit = 1 << fr.index[lab]
        split = (GenClass.FIBER_X, GenClass.BASE)
        top = fr.class_mask(GenClass.FIBER_MIRROR)
        target = pair3.frame_x
        fx = Form(fr, {m: p for m, p in a.terms.items() if not m & top})  # legs on frame_x only
        index = {i: target.index[g.label] for i, g in enumerate(fr.generators) if g.label in target.index}

        def sorted_sign(m1, m2):
            return brute_perm_sign(list(bits(m1)) + list(bits(m2)))

        cases = [
            ("+", a + b, public_form(fr, [*a.terms.items(), *b.terms.items()])),
            ("neg", -a, public_form(fr, [(m, -p) for m, p in a.terms.items()])),
            ("*", a * scalar, public_form(fr, [(m, p * scalar) for m, p in a.terms.items()])),
            ("wedge", a.wedge(b), public_form(fr, [
                (m1 | m2, p1 * p2 * sorted_sign(m1, m2))
                for m1, p1 in a.terms.items() for m2, p2 in b.terms.items() if not m1 & m2
            ])),
            ("contract", a.contract(lab), public_form(fr, [
                (m ^ bit, p * brute_perm_sign([fr.index[lab]] + [i for i in bits(m) if i != fr.index[lab]]))
                for m, p in a.terms.items() if m & bit
            ])),
            ("pushforward", a.pushforward(GenClass.FIBER_MIRROR), public_form(fr, [
                (m & ~top, p * sorted_sign(top, m & ~top)) for m, p in a.terms.items() if m & top == top
            ])),
            ("conjugate", a.conjugate(), public_form(fr, [(m, p.conjugate()) for m, p in a.terms.items()])),
            ("bidegree_project", a.bidegree_project(1, 1, split), public_form(fr, [
                (m, p) for m, p in a.terms.items() if fr.bidegree(m, split) == (1, 1)
            ])),
            ("relabel", fx.transport(target), public_form(target, [
                (sum(1 << index[i] for i in bits(m)), p) for m, p in fx.terms.items()
            ])),
        ]
        for pq, got in fx.bidegree_components(split).items():
            want = public_form(fr, [(m, p) for m, p in fx.terms.items() if fr.bidegree(m, split) == pq])
            cases.append((f"bidegree_components{pq}", got, want))
        for op, got, want in cases:
            assert type(got) is Form and got.frame == want.frame, op
            for m, p in got.terms.items():
                assert type(m) is int and type(p) is Poly and p, op
            assert got.terms == want.terms, op


# the loops that the two kernels replaced, kept as oracles: `_wedge_into`
# behind wedge and substitution, `_contract_into` behind contract and
# pushforward (the Lambda oracles live in test_calculus)


def wedge_by_negated_products(a, b):
    """Oracle for Form.wedge: the per-pair loop that negated each product
    with a negative Koszul sign."""
    out = {}
    for m1, p1 in a.terms.items():
        for m2, p2 in b.terms.items():
            if m1 & m2:
                continue
            add = p1 * p2
            _accumulate(out, m1 | m2, add if koszul_sign(m1, m2) > 0 else -add)
    return Form(a.frame, out)


def wedge_by_permutation(a, b):
    """Oracle for Form.wedge that calls neither kernel nor koszul_sign: each
    product signed by sorting the concatenated legs with swap counting."""
    out = {}
    for m1, p1 in a.terms.items():
        for m2, p2 in b.terms.items():
            if not m1 & m2:
                _accumulate(out, m1 | m2, p1 * p2 * brute_perm_sign(list(bits(m1)) + list(bits(m2))))
    return Form(a.frame, out)


def substitute_by_form_chain(form, target, images):
    """Oracle for substitute_generators: each term a chain of Form.wedge
    calls on Forms, the route it once took."""
    out = {}
    for m, c in form.terms.items():
        term = Form(target, {0: c})
        for i in bits(m):
            term = term.wedge(images[i])
            if term.is_zero():
                break
        for tm, tp in term.terms.items():
            _accumulate(out, tm, tp)
    return Form(target, out)


def contract_by_leg(form, label):
    """Oracle for Form.contract: the single-leg loop it replaced."""
    bit = 1 << form.frame.index[label]
    out = {}
    for m, c in form.terms.items():
        if m & bit:
            _accumulate(out, m ^ bit, c if koszul_sign(bit, m ^ bit) > 0 else -c)
    return Form(form.frame, out)


def pushforward_by_class(form, fiber_class):
    """Oracle for Form.pushforward: the fiber-mask loop it replaced."""
    top = form.frame.class_mask(fiber_class)
    out = {}
    for m, c in form.terms.items():
        if m & top == top:
            rest = m & ~top
            _accumulate(out, rest, c if koszul_sign(top, rest) > 0 else -c)
    return Form(form.frame, out)


SUBST_FRAMES = [(n, "holo_frame") for n in (1, 2, 3)] + [("K3", "x_frame"), ("K3", "xc_frame")]
SUBST_IDS = [f"{size}-{side}" for size, side in SUBST_FRAMES]


class TestKernelsMatchLoops:
    """Every caller of the two kernels against the loop it replaced, on the
    seeded mixed-universe forms, in == and in to_json()."""

    @pytest.mark.parametrize("case", KERNEL_FRAMES, ids=KERNEL_IDS)
    def test_wedge(self, case):
        frame = oracle_frame(case)
        forms = list(kernel_forms(frame, 2600 + KERNEL_FRAMES.index(case)))
        for a, b in zip(forms, forms[1:]):
            got = a.wedge(b)
            assert_same_form(got, wedge_by_negated_products(a, b))
            assert_same_form(got, wedge_by_permutation(a, b))

    @pytest.mark.parametrize("case", KERNEL_FRAMES, ids=KERNEL_IDS)
    def test_contract_and_pushforward(self, case):
        frame = oracle_frame(case)
        for a in kernel_forms(frame, 2700 + KERNEL_FRAMES.index(case)):
            for g in frame.generators:
                assert_same_form(a.contract(g.label), contract_by_leg(a, g.label))
            for cls in GenClass:
                assert_same_form(a.pushforward(cls), pushforward_by_class(a, cls))

    @pytest.mark.parametrize("case", SUBST_FRAMES, ids=SUBST_IDS)
    def test_substitute_generators(self, case):
        frame = oracle_frame(case)
        coord = frame.generators[0].coord_expansion.frame
        seed = 2800 + SUBST_FRAMES.index(case)
        expand = {i: g.coord_expansion for i, g in enumerate(frame.generators)}
        for a in kernel_forms(frame, seed):
            want = substitute_by_form_chain(a, coord, expand)
            assert_same_form(substitute_generators(a, coord, expand), want)
            assert_same_form(frame_expand(a, coord), want)
        collect = {i: frame_collect(Form.gen(coord, g.label), frame) for i, g in enumerate(coord.generators)}
        for a in kernel_forms(coord, seed + 50):
            want = substitute_by_form_chain(a, frame, collect)
            assert_same_form(substitute_generators(a, frame, collect), want)
            assert_same_form(frame_collect(a, frame), want)

    def test_image_on_another_frame_rejected(self, pair2):
        # images are checked before any wedge, the frame of each as well
        x = pair2.frame_x
        images = {i: Form.gen(x, g.label) for i, g in enumerate(x.generators)}
        images[3] = Form.gen(SemiflatPair(2).frame_x, "dr2")
        with pytest.raises(FrameMismatch, match="different frame"):
            substitute_generators(Form.gen(x, "dr2"), x, images)


class TestFrameTables:
    """The per-pair tables (monomial images, relabel maps) are built once per
    pair of frame objects and keyed by the frame object itself."""

    @pytest.mark.parametrize("case", SUBST_FRAMES, ids=SUBST_IDS)
    def test_warm_table_expands_as_the_wedge_chain(self, case):
        # a fresh frame of the case, so every call after the first reads
        # monomial images an earlier call built
        size, side = case
        frame = getattr(nil.build(nil.upper_triangular(3)) if size == "K3" else SemiflatPair(size), side)
        coord = frame.generators[0].coord_expansion.frame
        expand = {i: g.coord_expansion for i, g in enumerate(frame.generators)}
        forms = list(kernel_forms(frame, 2900 + SUBST_FRAMES.index(case)))
        for _ in range(2):
            for a in forms:
                assert_same_form(frame_expand(a, coord), substitute_by_form_chain(a, coord, expand))

    def test_frames_with_the_same_labels_never_share_an_entry(self):
        a, b = SemiflatPair(2), SemiflatPair(2)
        dz = Form.monomial(a.holo_frame, ["dz1", "dz2b"])
        assert frame_expand(dz, a.frame_xc).frame is a.frame_xc
        # b's real frame has a's labels, yet a's holomorphic generators do not
        # expand on it: the warm table of a's real frame does not answer
        with pytest.raises(FrameMismatch, match="no image"):
            frame_expand(dz, b.frame_xc)
        x = Form.gen(a.frame_x, "dth1")
        assert x.transport(a.frame_corr).frame is a.frame_corr
        assert x.transport(b.frame_corr).frame is b.frame_corr
        keys = list(a.frame_x._tables)
        assert keys == [("transport", a.frame_corr), ("transport", b.frame_corr)]
        # a table of the frame alone has a name for its key, one for a pair
        # of frames the other frame object
        assert "collect" in a.holo_frame._tables
        assert all(type(key) is str or type(key[1]) is FrameSpec for key in a.holo_frame._tables)

    def test_tables_outlive_no_frame(self):
        # frames freed and rebuilt with the same labels: every result lands on
        # the frame object it was asked for
        for _ in range(30):
            pair = SemiflatPair(1)
            got = frame_expand(Form.gen(pair.holo_frame, "dz1"), pair.frame_xc)
            assert got.frame is pair.frame_xc
            assert got == Form.gen(pair.frame_xc, "dtc1") + Form.gen(pair.frame_xc, "dr1") * I
            lifted = Form.gen(pair.frame_x, "dr1").transport(pair.frame_corr)
            assert lifted.frame is pair.frame_corr
