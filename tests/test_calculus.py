import random
from fractions import Fraction

import pytest

from syzkit.calculus import (
    BasisChangeError,
    MissingPairing,
    SymplecticData,
    d_lambda,
    dolbeault,
    dual_lefschetz,
    exterior_d,
    holo_coframe,
    polarization_switch,
    polarization_unswitch,
)
from syzkit.coeffring import GaussianRational, I, Poly
from syzkit.exterior import (
    Form,
    FrameMismatch,
    GenClass,
    Generator,
    bits,
    frame_collect,
    frame_expand,
    substitute_generators,
)
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_complex_side_form, random_form, random_poly
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


class TestExteriorD:
    def test_single_term(self, pair3):
        a = Form.monomial(pair3.frame_x, ["dth2"], Poly.variable("r1"))
        assert exterior_d(a) == Form.monomial(
            pair3.frame_x, ["dth2", "dr1"], GaussianRational(-1)
        )

    def test_structure_equation_e13(self):
        nd = nil.build(3)
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
        nd = nil.build(3)
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
        nd = nil.build(4)
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


class TestCoframe:
    def test_complex_basis_over_the_invariant_frame(self):
        # dz_ij = f_ij + i e_ij is a coframe over the nilmanifold's coframe:
        # its derived structure equations make d commute with frame_expand
        nd = nil.build(3)
        x = nd.x_frame
        holo = [
            (f"dz{i}{j}", Form.gen(x, f"f{i}{j}") + Form.gen(x, f"e{i}{j}") * I)
            for i, j in nd.pairs
        ]
        hf = holo_coframe(x, holo)
        rng = random.Random(1900)
        for _ in range(10):
            a = random_form(rng, hf, max_terms=2, complex_ok=False)
            assert frame_expand(exterior_d(a), x) == exterior_d(frame_expand(a, x))
            dl, db = dolbeault(a, hf)
            assert dl + db == exterior_d(a)

    def test_leg_classes_read_through_the_expansion(self):
        nd = nil.build(3)
        x = nd.x_frame
        assert Generator("g", coord_expansion=Form.gen(x, "e12")).leg_class is GenClass.BASE
        assert Generator("h", coord_expansion=Form.gen(x, "f12")).leg_class is GenClass.FIBER_MIRROR
        mixed = Form.gen(x, "e12") + Form.gen(x, "f12")
        assert Generator("m", coord_expansion=mixed).leg_class is None
