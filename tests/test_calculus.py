import functools
import random
from fractions import Fraction

import pytest

from syzkit.calculus import (
    HOLO_SPLIT,
    BasisChangeError,
    MissingPairing,
    SymplecticData,
    coframe,
    d_lambda,
    dolbeault,
    dolbeault_part,
    dual_lefschetz,
    exterior_d,
    holo_coframe,
    polarization_switch,
    polarization_unswitch,
)
from syzkit.coeffring import DEGREE_BOUND, GaussianRational, I, P_ONE, Poly, _accumulate, exponents
from syzkit.exterior import (
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    _wedge_into,
    bits,
    frame_collect,
    frame_expand,
    koszul_sign,
    substitute_generators,
)
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_complex_side_form, random_form, random_poly
from syzkit import calculus
from syzkit import nilmanifold as nil

from conftest import iwasawa_omega_check


def switch_by_wedging(form, target):
    """Oracle for polarization_switch: the algebra map that sends dz_k to the
    k-th mirror-fiber generator and dzb_k to the k-th base generator of
    `target`, applied by wedging the single-generator images in monomial order."""
    frame = form.frame
    fibers = target.gens_of_class(GenClass.FIBER_MIRROR)
    bases = target.gens_of_class(GenClass.BASE)
    holo = [i for i, g in enumerate(frame.generators) if g.leg_class is GenClass.FIBER_MIRROR]
    anti = [i for i, g in enumerate(frame.generators) if g.leg_class is GenClass.BASE]
    images = {}
    for k, i in enumerate(holo):
        images[i] = Form.gen(target, target.generators[fibers[k]].label)
    for k, i in enumerate(anti):
        images[i] = Form.gen(target, target.generators[bases[k]].label)
    return substitute_generators(form, target, images)


def unswitch_by_wedging(form, holo_frame):
    """Oracle for polarization_unswitch, by wedging as above."""
    frame = form.frame
    fibers = frame.gens_of_class(GenClass.FIBER_MIRROR)
    bases = frame.gens_of_class(GenClass.BASE)
    holo = [i for i, g in enumerate(holo_frame.generators) if g.leg_class is GenClass.FIBER_MIRROR]
    anti = [i for i, g in enumerate(holo_frame.generators) if g.leg_class is GenClass.BASE]
    images = {}
    for k, i in enumerate(fibers):
        images[i] = Form.gen(holo_frame, holo_frame.generators[holo[k]].label)
    for k, i in enumerate(bases):
        images[i] = Form.gen(holo_frame, holo_frame.generators[anti[k]].label)
    return substitute_generators(form, holo_frame, images)


def transport_by_labels(form, frame):
    """Oracle for Form.transport: look each monomial's labels up in the
    target frame, rejecting a missing label or a reordered monomial."""
    out = {}
    for m, c in form.terms.items():
        idxs = []
        for i in bits(m):
            lab = form.frame.generators[i].label
            if lab not in frame.index:
                raise FrameMismatch(f"generator {lab!r} missing from target frame")
            idxs.append(frame.index[lab])
        if idxs != sorted(idxs):
            raise FrameMismatch("target frame reorders generators")
        out[sum(1 << i for i in idxs)] = c
    return Form(frame, out)


def exterior_d_by_wedging(form):
    """Oracle for exterior_d: each term's two parts built as Forms, wedged
    and summed one piece at a time, as the package once computed d."""
    frame = form.frame
    out = Form.zero(frame)
    for mask, c in form.terms.items():
        mono = Form(frame, {mask: P_ONE})
        for v in frame.base_vars:
            dc = c.diff(v)
            if dc.is_zero():
                continue
            dv = frame.base_one_form(v)
            if dv is None:
                raise FrameMismatch(f"no one-form paired with base variable {v!r}")
            out = out + (dv * dc).wedge(mono)
        for i in bits(mask):
            dg = frame.d_of_generator(i)
            if dg is None or dg.is_zero():
                continue
            below = (mask & ((1 << i) - 1)).bit_count()
            rest = Form(frame, {mask ^ (1 << i): c})
            piece = dg.wedge(rest)
            out = out + (piece if below % 2 == 0 else -piece)
    return out


def exterior_d_by_variable(form):
    """Oracle for exterior_d's per-term kernel: every coefficient
    differentiated by `Poly.diff` for each base variable, one Poly-level
    wedge per variable and per structure equation."""
    frame = form.frame
    terms = form.terms.items()
    out = {}
    for v in frame.base_vars:
        dc = {}
        for mask, c in terms:
            d = c.diff(v)
            if d:
                dc[mask] = d
        if dc:
            dv = frame.base_one_form(v)
            if dv is None:
                raise FrameMismatch(f"no one-form paired with base variable {v!r}")
            _wedge_into(out, dv.terms, dc)
    for i in range(len(frame)):
        dg = frame.d_of_generator(i)
        if dg:
            bit = 1 << i
            rest = {}
            for mask, c in terms:
                if mask & bit:
                    r = mask ^ bit
                    rest[r] = c if koszul_sign(bit, r) > 0 else -c
            if rest:
                _wedge_into(out, dg.terms, rest)
    return Form(frame, out)


def dual_lefschetz_by_contraction(form, s):
    """Oracle for dual_lefschetz: two single contractions per pairing entry,
    scaled by half the entry and summed as Forms."""
    frame = s.frame
    out = Form.zero(frame)
    labels = [g.label for g in frame.generators]
    for i, row in enumerate(s.pairing):
        for j, p in enumerate(row):
            if not p:
                continue
            piece = form.contract(labels[j]).contract(labels[i])
            if piece.is_zero():
                continue
            out = out + piece * (p * Fraction(1, 2))
    return out


def dual_lefschetz_by_halved_entries(form, s):
    """Oracle for dual_lefschetz that calls no kernel: the loop it replaced,
    one pass per nonzero off-diagonal entry p^ij with half the entry, each
    monomial holding legs i and j losing j and then i, one koszul_sign per leg."""
    out = {}
    for i, row in enumerate(s.pairing):
        for j, p in enumerate(row):
            if i == j or not p:
                continue
            h = p * Fraction(1, 2)
            bi, bj = 1 << i, 1 << j
            for mask, c in form.terms.items():
                if mask & (bi | bj) != bi | bj:
                    continue
                rest = mask ^ bj
                sign = koszul_sign(bj, rest) * koszul_sign(bi, rest ^ bi)
                _accumulate(out, rest ^ bi, c * h if sign > 0 else c * -h)
    return Form(s.frame, out)


def d_lambda_by_oracles(form, s):
    """d Lambda - Lambda d through the two oracles above."""
    return exterior_d_by_wedging(dual_lefschetz_by_contraction(form, s)) - dual_lefschetz_by_contraction(
        exterior_d_by_wedging(form), s
    )


def dolbeault_by_projection(form, holo_frame):
    """(del, dbar) of a form on the dz/dzb frame by projecting d of each
    (p, q) component onto (p+1, q) and (p, q+1) and summing the
    projections: the route `dolbeault` once took."""
    del_part = dbar_part = Form.zero(holo_frame)
    for (p, q), comp in form.bidegree_components(HOLO_SPLIT).items():
        dc = exterior_d(comp)
        a = dc.bidegree_project(p + 1, q, HOLO_SPLIT)
        b = dc.bidegree_project(p, q + 1, HOLO_SPLIT)
        if a + b != dc:
            raise BasisChangeError("d leaves the adjacent bidegrees; basis not integrable")
        del_part = del_part + a
        dbar_part = dbar_part + b
    return del_part, dbar_part


def with_random_universes(form, rng):
    """`form` with each coefficient rebuilt through the public constructor
    over its used variables plus a random subset of the base variables and a
    padding variable `s`, which no term uses."""
    pool = form.frame.base_vars + ("s",)
    out = {}
    for m, c in form.terms.items():
        vs = tuple(sorted(c.used_vars() | {v for v in pool if rng.random() < 0.5}))
        out[m] = Poly(vs, {exponents(e, vs): x for e, x in c.terms.items()})
    return Form(form.frame, out)


def assert_same_form(got, want):
    """Equal forms that also write equal JSON."""
    assert got == want
    assert got.to_json() == want.to_json()


class TestExteriorD:
    def test_single_term(self, pair3):
        a = Form.monomial(pair3.frame_x, ["dth2"], Poly.variable("r1"))
        assert exterior_d(a) == Form.monomial(
            pair3.frame_x, ["dth2", "dr1"], GaussianRational(-1)
        )

    def test_structure_equation_e13(self):
        nd = nil.build(nil.upper_triangular(3))
        got = exterior_d(Form.gen(nd.x_frame, "e13"))
        want = -Form.gen(nd.x_frame, "e12").wedge(Form.gen(nd.x_frame, "e23"))
        assert got == want

    def test_iwasawa_omega_not_closed_but_square_closed(self, pair3):
        w = iwasawa_omega_check(pair3)
        assert not exterior_d(w).is_zero()
        assert exterior_d(w.wedge(w)).is_zero()

    @pytest.mark.parametrize("seed", range(25))
    def test_d_squared_zero_coordinates(self, pair3, seed):
        rng = random.Random(seed)
        a = random_form(rng, pair3.frame_x)
        assert exterior_d(exterior_d(a)).is_zero()

    @pytest.mark.parametrize("seed", range(15))
    def test_d_squared_zero_frame(self, seed):
        nd = nil.build(nil.upper_triangular(3))
        rng = random.Random(40 + seed)
        a = random_form(rng, nd.x_frame, max_terms=3)
        assert exterior_d(exterior_d(a)).is_zero()

    @pytest.mark.parametrize("seed", range(20))
    def test_leibniz(self, pair3, seed):
        rng = random.Random(80 + seed)
        ka = rng.randint(0, 2)
        a = random_form(rng, pair3.frame_x, degrees=[ka], max_terms=2)
        b = random_form(rng, pair3.frame_x, max_terms=2)
        lhs = exterior_d(a.wedge(b))
        rhs = exterior_d(a).wedge(b) + a.wedge(exterior_d(b)) * ((-1) ** ka)
        assert lhs == rhs

    @pytest.mark.parametrize("seed", range(10))
    def test_frame_d_matches_coordinate_d(self, seed):
        # structure-equation route vs expand-first route
        nd = nil.build(nil.upper_triangular(4))
        rng = random.Random(120 + seed)
        a = random_form(rng, nd.x_frame, max_terms=2, complex_ok=False)
        lhs = frame_expand(exterior_d(a), nd.x_coord)
        rhs = exterior_d(frame_expand(a, nd.x_coord))
        assert lhs == rhs


class TestLefschetz:
    def test_lambda_of_omega_is_n(self, pair3):
        s = pair3.darboux_x
        assert dual_lefschetz(s.omega, s) == Form.scalar(pair3.frame_x, 3)

    @pytest.mark.parametrize("seed", range(15))
    def test_lambda_contraction_oracle(self, pair3, seed):
        # independent route: Lambda(phi) = sum_i i_{r_i} i_{th_i} phi, built from
        # single contractions instead of the pairing-matrix sum
        rng = random.Random(900 + seed)
        s = pair3.darboux_x
        a = random_form(rng, pair3.frame_x)
        oracle = Form.zero(pair3.frame_x)
        for k in (1, 2, 3):
            oracle = oracle + a.contract(f"dth{k}").contract(f"dr{k}")
        assert dual_lefschetz(a, s) == oracle

    def test_lambda_no_paired_legs(self, pair3):
        s = pair3.darboux_x
        assert dual_lefschetz(Form.monomial(pair3.frame_x, ["dth1", "dth2"]), s).is_zero()

    def test_lambda_low_degree(self, pair3):
        s = pair3.darboux_x
        rng = random.Random(0)
        f0 = Form.scalar(pair3.frame_x, 1) * random_poly(rng, pair3.base_vars)
        f1 = random_form(rng, pair3.frame_x, degrees=[1])
        assert dual_lefschetz(f0, s).is_zero()
        assert dual_lefschetz(f1, s).is_zero()

    def test_from_constant_omega_matches_darboux(self, pair2):
        s1 = pair2.darboux_x
        s2 = SymplecticData.from_constant_omega(pair2.frame_x, s1.omega)
        rng = random.Random(3)
        for _ in range(10):
            a = random_form(rng, pair2.frame_x)
            assert dual_lefschetz(a, s1) == dual_lefschetz(a, s2)

    def test_degenerate_omega_rejected(self, pair2):
        w = Form.monomial(pair2.frame_x, ["dth1", "dr1"])
        with pytest.raises(MissingPairing):
            SymplecticData.from_constant_omega(pair2.frame_x, w)

    def test_polynomial_pairing_entry_rejected(self, pair2):
        # the pairing is read as scalars, so Lambda keeps each coefficient
        # monomial
        x = pair2.frame_x
        pairing = [[0] * len(x) for _ in range(len(x))]
        pairing[x.index["dth1"]][x.index["dr1"]] = Poly.variable("r1")
        with pytest.raises(TypeError, match="cannot promote Poly"):
            SymplecticData(x, Form.zero(x), pairing)

    def test_missing_pairing(self, pair3):
        # a non-constant omega has no exact inverse pairing to read off
        w = pair3.darboux_x.omega + Form.monomial(pair3.frame_x, ["dth1", "dth2"], Poly.variable("r1"))
        with pytest.raises(MissingPairing, match="non-constant"):
            SymplecticData.from_constant_omega(pair3.frame_x, w)


class TestDLambda:
    def test_kills_functions(self, pair3):
        s = pair3.darboux_x
        g = Form.scalar(pair3.frame_x, 1) * Poly.variable("r1")
        assert d_lambda(g, s).is_zero()

    def test_kills_omega(self, pair3):
        s = pair3.darboux_x
        assert d_lambda(s.omega, s).is_zero()

    @pytest.mark.parametrize("seed", range(25))
    def test_squared_zero_and_anticommute(self, pair3, seed):
        rng = random.Random(200 + seed)
        s = pair3.darboux_x
        a = random_form(rng, pair3.frame_x)
        assert d_lambda(d_lambda(a, s), s).is_zero()
        assert exterior_d(d_lambda(a, s)) == -d_lambda(exterior_d(a), s)


class TestDolbeault:
    def test_dbar_of_function(self, pair3):
        hf = pair3.holo_frame
        g = random_poly(random.Random(1), pair3.base_vars, complex_ok=False)
        f = Form.scalar(hf, 1) * g
        dl, db = dolbeault(f, hf)
        half_i = I * Fraction(1, 2)
        want_db = Form.zero(hf)
        want_dl = Form.zero(hf)
        for k, v in enumerate(pair3.base_vars, 1):
            want_db = want_db + Form.monomial(hf, [f"dz{k}b"], g.diff(v) * half_i)
            want_dl = want_dl + Form.monomial(hf, [f"dz{k}"], g.diff(v) * (-half_i))
        assert db == want_db
        assert dl == want_dl

    def test_dbar_of_flat_holomorphic_generator(self, pair3):
        hf = pair3.holo_frame
        dl, db = dolbeault(Form.gen(hf, "dz1"), hf)
        assert db.is_zero() and dl.is_zero()

    @pytest.mark.parametrize("seed", range(25))
    def test_del_plus_dbar_is_d(self, pair3, seed):
        rng = random.Random(300 + seed)
        hf = pair3.holo_frame
        a = random_complex_side_form(rng, pair3)
        dl, db = dolbeault(a, hf)
        assert frame_expand(dl + db, pair3.frame_xc) == exterior_d(frame_expand(a, pair3.frame_xc))

    @pytest.mark.parametrize("seed", range(20))
    def test_del_dbar_squares_and_anticommute(self, pair3, seed):
        rng = random.Random(400 + seed)
        hf = pair3.holo_frame
        a = random_complex_side_form(rng, pair3)
        dl, db = dolbeault(a, hf)
        dll, dlb = dolbeault(dl, hf)
        dbl, dbb = dolbeault(db, hf)
        assert dll.is_zero() and dbb.is_zero()
        assert dlb == -dbl

    def test_one_rule_names_the_part_of_each_step(self):
        assert dolbeault_part((1, 2), (2, 2)) == 0
        assert dolbeault_part((1, 2), (1, 3)) == 1
        for dst in ((2, 3), (1, 2), (0, 3), None):
            with pytest.raises(BasisChangeError, match="not integrable"):
                dolbeault_part((1, 2), dst)

    def test_non_adjacent_term_rejected(self, pair1, monkeypatch):
        # a d whose image of a function has a (1,1) term leaves the adjacent
        # bidegrees (1,0) and (0,1)
        hf = pair1.holo_frame
        monkeypatch.setattr(calculus, "exterior_d", lambda form: Form.monomial(hf, ["dz1", "dz1b"]))
        with pytest.raises(BasisChangeError, match="not integrable"):
            dolbeault(Form.scalar(hf, 1), hf)

    def test_real_frame_form_refused(self, pair2):
        # a real form is collected onto the dz/dzb frame before it is split
        a = Form.monomial(pair2.frame_xc, ["dtc1"], Poly.variable("r2"))
        with pytest.raises(FrameMismatch, match="dz/dzb frame only"):
            dolbeault(a, pair2.holo_frame)
        dl, db = dolbeault(frame_collect(a, pair2.holo_frame), pair2.holo_frame)
        assert frame_expand(dl + db, pair2.frame_xc) == exterior_d(a)

    def test_round_trip_guard(self, pair2):
        # a non-invertible candidate basis must be rejected at construction
        f = pair2.frame_xc
        dz1 = Form.gen(f, "dtc1") + Form.gen(f, "dr1") * I
        with pytest.raises(BasisChangeError):
            holo_coframe(f, [("dz1", dz1), ("dz2", dz1)])

    def test_polynomial_transition_basis(self, pair3):
        # eta = dth + i*mu with det(mu) = 1: inverse stays polynomial
        from syzkit.sustruct import mirror_transform

        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        hf = su.holo_frame
        assert hf is not None
        rng = random.Random(5)
        for _ in range(5):
            a = random_form(rng, pair3.frame_x, max_terms=3)
            assert frame_expand(frame_collect(a, hf), pair3.frame_x) == a


class TestPolarizationSwitch:
    def test_monomial_image(self, pair3):
        hf = pair3.holo_frame
        a = Form.monomial(hf, ["dz1", "dz2b"])
        s = polarization_switch(a, pair3.frame_xc)
        assert s == Form.monomial(pair3.frame_xc, ["dtc1", "dr2"])

    def test_scalar(self, pair3):
        hf = pair3.holo_frame
        one = Form.scalar(hf, 1)
        assert polarization_switch(one, pair3.frame_xc) == Form.scalar(
            pair3.frame_xc, 1
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_bijection(self, pair3, seed):
        rng = random.Random(500 + seed)
        a = random_complex_side_form(rng, pair3)
        s = polarization_switch(a, pair3.frame_xc)
        back = polarization_unswitch(s, pair3.holo_frame)
        assert back == a
        assert s.degrees() == a.degrees()


class TestRelabelMatchesOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_switch_and_unswitch(self, n):
        pair = SemiflatPair(n)
        rng = random.Random(1700 + n)
        for target in (pair.frame_xc, pair.frame_corr):
            for _ in range(15):
                a = random_complex_side_form(rng, pair)
                s = polarization_switch(a, target)
                assert s == switch_by_wedging(a, target)
                back = polarization_unswitch(s, pair.holo_frame)
                assert back == unswitch_by_wedging(s, pair.holo_frame)
                assert back == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_transport(self, n):
        pair = SemiflatPair(n)
        rng = random.Random(1800 + n)
        for side in (pair.frame_x, pair.frame_xc):
            for _ in range(15):
                a = random_form(rng, side, max_terms=4)
                lifted = a.transport(pair.frame_corr)
                assert lifted == transport_by_labels(a, pair.frame_corr)
                assert lifted.transport(side) == transport_by_labels(lifted, side) == a

    def test_missing_and_reordering_targets_rejected(self, pair2):
        # dth1 is not on the complex side; the swapped map reorders dth1 ^ dth2
        with pytest.raises(FrameMismatch, match="missing"):
            Form.gen(pair2.frame_x, "dth1").transport(pair2.frame_xc)
        with pytest.raises(FrameMismatch, match="reorders"):
            Form.monomial(pair2.frame_x, ["dth1", "dth2"]).relabel(pair2.frame_x, {0: 1, 1: 0})

    def test_unswitch_checks_generator_counts(self, pair2, pair3):
        a = Form.gen(pair3.frame_xc, "dtc1")
        with pytest.raises(FrameMismatch, match="counts"):
            polarization_unswitch(a, pair2.holo_frame)


def invariant_holo_frame(nd):
    """The dz/dzb frame of dz_ij = f_ij + i e_ij over the nilmanifold's x_frame."""
    x = nd.x_frame
    return holo_coframe(x, [(f"dz{s}", Form.gen(x, f"f{s}") + Form.gen(x, f"e{s}") * I) for s in nd.algebra.labels])


def mirror_holo_frame():
    """The dz/dzb frame of a mirror_transform structure: its factors
    dth_a + i mu_a.dr have a polynomial transition matrix."""
    from syzkit.sustruct import mirror_transform

    pair = SemiflatPair(3)
    return mirror_transform(pair, iwasawa_omega_check(pair)).holo_frame


# dz/dzb frames by name, each built on demand
ROUND_TRIP_FRAMES = {
    **{f"flat-n{n}": (lambda n=n: SemiflatPair(n).holo_frame) for n in (1, 2, 3, 4)},
    **{f"nil-pair-K{K}": (lambda K=K: nil.semiflat_pair(nil.upper_triangular(K)).holo_frame) for K in (2, 3, 4)},
    "nil-iib-K3": lambda: nil.build_iib_side(nil.build(nil.upper_triangular(3))).holo_frame,
    "mirror-transform": mirror_holo_frame,
    "invariant-K3": lambda: invariant_holo_frame(nil.build(nil.upper_triangular(3))),
}


class TestCoframe:
    @pytest.mark.parametrize("case", list(ROUND_TRIP_FRAMES))
    def test_every_generator_round_trips(self, case):
        # the oracle for the certificate that `coframe` gives: the verified
        # inverse X of the transition matrix M has M X = I, so X M = I, and
        # no round trip between the two frames can fail
        hf = ROUND_TRIP_FRAMES[case]()
        real = hf.generators[0].coord_expansion.frame
        for g in real.generators:
            probe = Form.gen(real, g.label)
            assert frame_expand(frame_collect(probe, hf), real) == probe, g.label
        for g in hf.generators:
            probe = Form.gen(hf, g.label)
            assert frame_collect(frame_expand(probe, real), hf) == probe, g.label

    def test_generator_count_refused(self, pair1):
        x = pair1.frame_xc
        with pytest.raises(BasisChangeError, match="1 generators expand on the 2 of"):
            coframe([Generator("w", coord_expansion=Form.gen(x, "dtc1"))], x)

    def test_generator_without_expansion_refused(self, pair1):
        x = pair1.frame_xc
        with pytest.raises(BasisChangeError, match="'wb' has no coordinate expansion"):
            coframe([Generator("w", coord_expansion=Form.gen(x, "dtc1")), Generator("wb", GenClass.BASE)], x)

    def test_expansion_on_another_frame_refused(self):
        # a frame with the same labels: such a coframe was once built, with
        # its structure equations derived by label, and its frame_expand
        # onto `coord` failed later with "no image for generator 'g0'"
        coord, other = SemiflatPair(2).frame_xc, SemiflatPair(2).frame_xc
        gens = [Generator(f"g{k}", coord_expansion=Form.gen(other, g.label)) for k, g in enumerate(other.generators)]
        with pytest.raises(BasisChangeError, match="'g0' is not a one-form on"):
            coframe(gens, coord)

    @pytest.mark.parametrize("extra", [["dtc1", "dr1"], []], ids=["two-form-term", "scalar-term"])
    def test_expansion_not_a_one_form_refused(self, pair1, extra):
        x = pair1.frame_xc
        w = Form.gen(x, "dtc1") + Form.monomial(x, extra)
        with pytest.raises(BasisChangeError, match="'w' is not a one-form on"):
            coframe([Generator("w", GenClass.FIBER_MIRROR, w), Generator("wb", GenClass.BASE, Form.gen(x, "dr1"))], x)

    def test_complex_basis_over_the_invariant_frame(self):
        # dz_ij = f_ij + i e_ij is a coframe over the nilmanifold's coframe:
        # its derived structure equations make d commute with frame_expand
        nd = nil.build(nil.upper_triangular(3))
        x = nd.x_frame
        hf = invariant_holo_frame(nd)
        rng = random.Random(1900)
        for _ in range(10):
            a = random_form(rng, hf, max_terms=2, complex_ok=False)
            assert frame_expand(exterior_d(a), x) == exterior_d(frame_expand(a, x))
            dl, db = dolbeault(a, hf)
            assert dl + db == exterior_d(a)

    def test_leg_classes_read_through_the_expansion(self):
        nd = nil.build(nil.upper_triangular(3))
        x = nd.x_frame
        assert Generator("g", coord_expansion=Form.gen(x, "e12")).leg_class is GenClass.BASE
        assert Generator("h", coord_expansion=Form.gen(x, "f12")).leg_class is GenClass.FIBER_MIRROR
        mixed = Form.gen(x, "e12") + Form.gen(x, "f12")
        assert Generator("m", coord_expansion=mixed).leg_class is None


@functools.cache
def oracle_frame(case):
    """(size, side): a frame of SemiflatPair(size), or of the K=3
    nilmanifold for size "K3"."""
    size, side = case
    return getattr(nil.build(nil.upper_triangular(3)) if size == "K3" else SemiflatPair(size), side)


KERNEL_FRAMES = [(n, side) for n in (1, 2, 3) for side in ("frame_x", "frame_xc", "frame_corr", "holo_frame")] + [
    ("K3", "x_frame"),
    ("K3", "xc_frame"),
]
KERNEL_IDS = [f"{size}-{side}" for size, side in KERNEL_FRAMES]


def kernel_forms(frame, seed, count=30):
    """Seeded random forms on `frame`, half of them with mixed coefficient universes."""
    rng = random.Random(seed)
    for k in range(count):
        a = random_form(rng, frame, max_terms=4)
        yield with_random_universes(a, rng) if k % 2 else a


def corr_symplectic_data(frame):
    """A constant pairing on the odd-rank correspondence frame, which has no
    symplectic form to invert: each base leg pairs with both fiber legs of
    its index, the mirror one with weight i/3."""
    pairing = [[0] * len(frame) for _ in range(len(frame))]
    bases = frame.gens_of_class(GenClass.BASE)
    for cls, w in ((GenClass.FIBER_X, GaussianRational(1)), (GenClass.FIBER_MIRROR, I * Fraction(1, 3))):
        for f, b in zip(frame.gens_of_class(cls), bases):
            pairing[f][b], pairing[b][f] = w, -w
    return SymplecticData(frame, Form.zero(frame), pairing)


def mixed_symplectic_data(frame):
    """A pairing with Darboux entries, a diagonal entry and, past rank one, a
    symmetric fiber-base entry, an antisymmetric complex fiber-fiber entry
    and a one-sided complex base-base entry."""
    fibers = [i for i, g in enumerate(frame.generators) if g.leg_class is not GenClass.BASE]
    bases = frame.gens_of_class(GenClass.BASE)
    pairing = [[0] * len(frame) for _ in range(len(frame))]
    for f, b in zip(fibers, bases):
        pairing[f][b], pairing[b][f] = 1, -1
    pairing[fibers[0]][fibers[0]] = 5
    if len(bases) > 1:
        pairing[fibers[0]][bases[1]] = pairing[bases[1]][fibers[0]] = 3
        pairing[fibers[1]][fibers[0]] = GaussianRational(Fraction(1, 3), 1)
        pairing[fibers[0]][fibers[1]] = GaussianRational(Fraction(-1, 3), -1)
        pairing[bases[0]][bases[1]] = GaussianRational(Fraction(2, 5), 1)
    return SymplecticData(frame, Form.zero(frame), pairing)


class TestKernelsMatchOracles:
    @pytest.mark.parametrize("case", KERNEL_FRAMES, ids=KERNEL_IDS)
    def test_exterior_d(self, case):
        frame = oracle_frame(case)
        for a in kernel_forms(frame, 2100 + KERNEL_FRAMES.index(case)):
            got = exterior_d(a)
            assert_same_form(got, exterior_d_by_wedging(a))
            assert_same_form(got, exterior_d_by_variable(a))

    @pytest.mark.parametrize("case", KERNEL_FRAMES, ids=KERNEL_IDS)
    def test_dual_lefschetz_and_d_lambda(self, case):
        frame = oracle_frame(case)
        if case[1] == "frame_corr":
            s = corr_symplectic_data(frame)
        else:
            s = SymplecticData.darboux(frame, frame.generators[0].leg_class)
        for a in kernel_forms(frame, 2200 + KERNEL_FRAMES.index(case)):
            assert_same_form(dual_lefschetz(a, s), dual_lefschetz_by_contraction(a, s))
            assert_same_form(dual_lefschetz(a, s), dual_lefschetz_by_halved_entries(a, s))
            assert_same_form(d_lambda(a, s), d_lambda_by_oracles(a, s))

    def test_dual_lefschetz_non_darboux(self, pair3):
        # fiber-fiber and base-base legs in omega, complex and non-unit entries
        x = pair3.frame_x
        omega = pair3.darboux_x.omega * GaussianRational(2, 1)
        omega = omega + Form.monomial(x, ["dth1", "dth2"], Fraction(1, 3))
        omega = omega + Form.monomial(x, ["dr2", "dr3"], I)
        s = SymplecticData.from_constant_omega(x, omega)
        assert any(i >= 3 and j >= 3 for i, row in enumerate(s.pairing) for j, p in enumerate(row) if p)
        for a in kernel_forms(x, 2300):
            assert_same_form(dual_lefschetz(a, s), dual_lefschetz_by_contraction(a, s))
            assert_same_form(dual_lefschetz(a, s), dual_lefschetz_by_halved_entries(a, s))

    # the frames that d^Lambda reads in the IIA flux (the nilmanifold's two
    # invariant frames) and in the fm intertwining (frame_x of the flat pair)
    FLUX_AND_FM = [("K3", "x_frame"), ("K3", "xc_frame")] + [(n, "frame_x") for n in (1, 2, 3)]

    @pytest.mark.parametrize("case", FLUX_AND_FM, ids=[f"{size}-{side}" for size, side in FLUX_AND_FM])
    def test_mixed_pairing_on_the_flux_and_fm_frames(self, case):
        frame = oracle_frame(case)
        s = mixed_symplectic_data(frame)
        # each pair of legs i < j becomes one block; the symmetric entries
        # and the diagonal leave none
        assert len(s.blocks) == len(frame) // 2 + 2 * (len(frame) > 2)
        for a in kernel_forms(frame, 2500 + self.FLUX_AND_FM.index(case)):
            assert_same_form(dual_lefschetz(a, s), dual_lefschetz_by_halved_entries(a, s))
            assert_same_form(dual_lefschetz(a, s), dual_lefschetz_by_contraction(a, s))
            assert_same_form(d_lambda(a, s), d_lambda_by_oracles(a, s))

    HOLO_FRAMES = [(n, "holo_frame") for n in (1, 2, 3)] + [("K3", "invariant")]

    @pytest.mark.parametrize("case", HOLO_FRAMES, ids=[f"{size}-{side}" for size, side in HOLO_FRAMES])
    def test_dolbeault(self, case):
        frame = invariant_holo_frame(nil.build(nil.upper_triangular(3))) if case[1] == "invariant" else oracle_frame(case)
        for a in kernel_forms(frame, 2600 + self.HOLO_FRAMES.index(case)):
            got, want = dolbeault(a, frame), dolbeault_by_projection(a, frame)
            assert_same_form(got[0], want[0])
            assert_same_form(got[1], want[1])

    def test_unpaired_base_variable_rejected_as_by_the_oracle(self):
        frame = FrameSpec([Generator("a", GenClass.FIBER_X)], ["r1"], 1)
        a = Form.monomial(frame, ["a"], Poly.variable("r1"))
        for d in (exterior_d, exterior_d_by_wedging, exterior_d_by_variable):
            with pytest.raises(FrameMismatch, match="no one-form"):
                d(a)
        # a constant coefficient needs no pairing
        assert exterior_d(Form.gen(frame, "a")).is_zero()

    def test_degree_bound_refused_as_by_the_oracles(self, pair2):
        # d's kernel adds monomials, so a term that reaches the total degree
        # bound is an OverflowError, as it is in the oracles' Poly products
        x = pair2.frame_x
        r1 = Poly.variable("r1")
        top = r1 ** (DEGREE_BOUND - 1)
        # g1 = dth1 + r1^2 dr2, so d g1 = 2 r1 dr1 ^ dr2
        exps = [Form.gen(x, "dth1") + Form.gen(x, "dr2") * (r1 * r1)] + [
            Form.gen(x, lab) for lab in ("dth2", "dr1", "dr2")
        ]
        frame = coframe([Generator(f"g{k + 1}", coord_expansion=f) for k, f in enumerate(exps)], x)
        for d in (exterior_d, exterior_d_by_wedging, exterior_d_by_variable):
            with pytest.raises(OverflowError, match="total degree bound"):
                d(Form.monomial(frame, ["g1"], top))


class TestLefschetzFrameCheck:
    def test_form_from_another_pair_rejected(self):
        # the same labels on another frame object; a one-form's double
        # contractions all vanish, so only an up-front frame check sees it
        s = SemiflatPair(2).darboux_x
        a = Form.gen(SemiflatPair(2).frame_x, "dr1")
        with pytest.raises(FrameMismatch):
            dual_lefschetz(a, s)
        with pytest.raises(FrameMismatch):
            d_lambda(a, s)

    def test_form_on_the_complex_side_rejected(self, pair2):
        # frame_xc has no dth legs to look up
        a = Form.gen(pair2.frame_xc, "dtc1")
        with pytest.raises(FrameMismatch):
            dual_lefschetz(a, pair2.darboux_x)

    def test_nonzero_contraction_from_another_frame_rejected(self, pair2):
        a = SemiflatPair(2).darboux_x.omega
        with pytest.raises(FrameMismatch):
            dual_lefschetz(a, pair2.darboux_x)
