import json
import random
from fractions import Fraction

import pytest

from syzkit import calculus
from syzkit.coeffring import GaussianRational, I, ONE, Poly
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
from syzkit.randgen import random_form
from syzkit import nilmanifold as nil

from conftest import brute_perm_sign, subsets


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
        nd = nil.build(3)
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
        nd = nil.build(3)
        got = frame_expand(Form.gen(nd.x_frame, "e13"), nd.x_coord)
        assert got == Form.gen(nd.x_coord, "dr13") - Form.monomial(
            nd.x_coord, ["dr23"], Poly.variable("r12")
        )

    def test_collect_dr13(self):
        nd = nil.build(3)
        got = frame_collect(Form.gen(nd.x_coord, "dr13"), nd.x_frame)
        assert got == Form.gen(nd.x_frame, "e13") + Form.monomial(
            nd.x_frame, ["e23"], Poly.variable("r12")
        )

    def test_expand_fc23(self):
        nd = nil.build(3)
        assert nd.fc_forms[(2, 3)] == Form.gen(nd.xc_coord, "dthc23") + Form.monomial(
            nd.xc_coord, ["dthc13"], Poly.variable("r12")
        )

    def test_expand_needs_an_expansion_on_the_target(self):
        # a coordinate generator has no expansion, and the expansions of the
        # complex-side frame live on x_coord, not on xc_coord
        nd = nil.build(3)
        with pytest.raises(FrameMismatch, match="dr12"):
            frame_expand(Form.gen(nd.x_coord, "dr12"), nd.x_coord)
        with pytest.raises(FrameMismatch, match="e12"):
            frame_expand(Form.gen(nd.x_frame, "e12"), nd.xc_coord)

    @pytest.mark.parametrize("seed", range(10))
    def test_expand_collect_roundtrip(self, seed):
        nd = nil.build(3)
        rng = random.Random(1300 + seed)
        a = random_form(rng, nd.x_coord, max_terms=3)
        assert frame_expand(frame_collect(a, nd.x_frame), nd.x_coord) == a

    @pytest.mark.parametrize("K", [3, 4])
    def test_collect_matches_unit_pivot_oracle(self, K):
        nd = nil.build(K)
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
