import json
from fractions import Fraction

import pytest

from syzkit import nilmanifold as nil
from syzkit.calculus import MissingPairing, exterior_d
from syzkit.coeffring import GaussianRational, I, ONE, Poly
from syzkit.exterior import Form, GenClass, frame_collect, frame_expand
from syzkit.randgen import random_symmetric_mu, trial_rng
from syzkit.sustruct import (
    Polarization,
    SUStructure,
    check_iia,
    check_iib,
    flux_iia,
    flux_iib,
    mirror_transform,
    proportional_to,
)

from conftest import iwasawa_omega_check


def flat_su_iib(pair):
    frame = pair.frame_xc
    n = pair.n
    factors = [
        Form.gen(frame, f"dtc{k}") + Form.gen(frame, f"dr{k}") * I for k in range(1, n + 1)
    ]
    omega = Form.zero(frame)
    for k in range(1, n + 1):
        omega = omega + Form.monomial(frame, [f"dtc{k}", f"dr{k}"])
    return SUStructure(n, frame, omega, Omega_factors=factors)


def iwasawa_su_iib(pair3):
    su = flat_su_iib(pair3)
    return SUStructure(
        3,
        pair3.frame_xc,
        iwasawa_omega_check(pair3),
        Omega_factors=su.Omega_factors,
    )


def omega_to_the(su, k):
    out = Form.scalar(su.frame, 1)
    for _ in range(k):
        out = out.wedge(su.omega)
    return out


class TestOmegaPower:
    def structures(self, pair3):
        su_b = iwasawa_su_iib(pair3)
        yield su_b
        yield mirror_transform(pair3, su_b.omega)
        yield nil.build_iib_side(nil.build(3))

    def test_matches_repeated_wedge(self, pair3):
        for su in self.structures(pair3):
            for k in range(su.n + 1):
                assert su.omega_power(k) == omega_to_the(su, k), k

    def test_each_power_cached(self, pair3):
        for su in self.structures(pair3):
            first = [su.omega_power(k) for k in range(su.n + 1)]
            assert all(su.omega_power(k) is w for k, w in enumerate(first))


class TestConformalFactor:
    def test_flat_n2_value(self, pair2):
        w = Form.monomial(pair2.frame_xc, ["dtc1", "dr1"]) + Form.monomial(
            pair2.frame_xc, ["dtc2", "dr2"]
        )
        su = mirror_transform(pair2, w)
        oo = su.Omega.wedge(su.Omega.conjugate())
        # 4 dth1^dr1^dth2^dr2 reordered to the canonical monomial
        assert oo == Form.monomial(
            pair2.frame_x, ["dth1", "dth2", "dr1", "dr2"], GaussianRational(-4)
        )
        cf = su.conformal_factor()
        assert cf.is_constant() and cf.constant_value() == GaussianRational(-4)
        fc = flat_su_iib(pair2).conformal_factor()
        assert cf.constant_value() * fc.constant_value() == GaussianRational(16)

    def test_iwasawa_sides_constant(self, pair3):
        su_b = iwasawa_su_iib(pair3)
        cf_b = su_b.conformal_factor()
        assert cf_b.is_constant() and cf_b.constant_value() == GaussianRational(8)
        su_a = mirror_transform(pair3, su_b.omega)
        cf_a = su_a.conformal_factor()
        assert cf_a.is_constant() and cf_a.constant_value() == GaussianRational(8)
        assert cf_a.constant_value() * cf_b.constant_value() == GaussianRational(2) ** 6

    def test_degenerate_omega_rejected(self, pair2):
        w = Form.monomial(pair2.frame_xc, ["dtc1", "dr1"])
        su = SUStructure(
            2,
            pair2.frame_xc,
            w,
            Omega_factors=flat_su_iib(pair2).Omega_factors,
        )
        with pytest.raises(ValueError):
            su.conformal_factor()


class TestCheckIIB:
    def test_iwasawa_passes_nonkahler(self, pair3):
        su = iwasawa_su_iib(pair3)
        assert check_iib(su).passed
        assert not exterior_d(su.omega).is_zero()

    def test_flat_torus_kahler(self, pair3):
        su = flat_su_iib(pair3)
        assert check_iib(su).passed
        assert exterior_d(su.omega).is_zero()

    def test_broken_volume_form_fails(self, pair2):
        frame = pair2.frame_xc
        base = flat_su_iib(pair2)
        bad_factors = [
            base.Omega_factors[0] * Poly.variable("r2"),
            base.Omega_factors[1],
        ]
        su = SUStructure(2, frame, base.omega, Omega_factors=bad_factors)
        rep = check_iib(su)
        assert "d-Omega-vanishes" in rep.failed_ids


class TestCheckIIA:
    def test_iwasawa_mirror_passes(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        rep = check_iia(su)
        assert rep.passed

    def test_real_part_projection_identity(self, pair3):
        # for phase 0 or pi, Re(Omega) is exactly the (n,0) + (1,n-1) part
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        re = (su.Omega + su.Omega.conjugate()) * Fraction(1, 2)
        assert re == su.pq_project(3, 0) + su.pq_project(1, 2)
        im = (su.Omega - su.Omega.conjugate()) * (ONE / (2 * I))
        assert im == (su.pq_project(2, 1) + su.pq_project(0, 3)) * (-I)

    def test_d_re_omega_zero_iff_projections(self, pair3):
        # the equivalence, exercised on structures where both sides fail too
        for seed in range(20):
            rng = trial_rng(42, seed)
            mu = random_symmetric_mu(rng, 3, pair3.base_vars)
            w = Form.zero(pair3.frame_xc)
            for a in range(3):
                for b in range(3):
                    if not mu[a][b].is_zero():
                        w = w + Form.monomial(
                            pair3.frame_xc, [f"dtc{a+1}", f"dr{b+1}"], mu[a][b]
                        )
            su = mirror_transform(pair3, w)
            re = (su.Omega + su.Omega.conjugate()) * Fraction(1, 2)
            assert re == su.pq_project(3, 0) + su.pq_project(1, 2)
            lhs = exterior_d(re).is_zero()
            rhs = (
                exterior_d(su.pq_project(3, 0)).is_zero()
                and exterior_d(su.pq_project(1, 2)).is_zero()
            )
            assert lhs == rhs

    def test_biconditional_with_iib(self, pair3):
        # source balanced <-> transformed side passes the symplectic system
        hits = {True: 0, False: 0}
        for seed in range(30):
            rng = trial_rng(9, seed)
            mu = random_symmetric_mu(rng, 3, pair3.base_vars)
            w = Form.zero(pair3.frame_xc)
            for a in range(3):
                for b in range(3):
                    if not mu[a][b].is_zero():
                        w = w + Form.monomial(
                            pair3.frame_xc, [f"dtc{a+1}", f"dr{b+1}"], mu[a][b]
                        )
            try:
                su = mirror_transform(pair3, w)
            except ValueError:
                continue  # degenerate draw
            balanced = exterior_d(w.wedge(w)).is_zero()
            mid_closed = exterior_d(su.pq_project(1, 2)).is_zero()
            assert balanced == mid_closed, seed
            hits[balanced] += 1
        assert hits[True] > 0 and hits[False] > 0

    def test_missing_polarization(self, pair3):
        su = iwasawa_su_iib(pair3)
        with pytest.raises(ValueError):
            check_iia(su)

    def test_phase_mismatch_detected(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        wrong = SUStructure(
            su.n, su.frame, su.omega,
            Omega_factors=su.Omega_factors, prefactor=su.prefactor,
            polarization=Polarization(GenClass.FIBER_X, 0),  # true phase is pi
        )
        rep = check_iia(wrong)
        assert "special-phase" in rep.failed_ids


class TestFluxes:
    def test_flat_fluxes_vanish(self, pair3):
        su_b = flat_su_iib(pair3)
        rho_b, _ = flux_iib(su_b)
        assert rho_b.is_zero()
        su_a = mirror_transform(pair3, su_b.omega)
        rho_a, _ = flux_iia(su_a)
        assert rho_a.is_zero()

    def test_iwasawa_rho_b(self, pair3):
        su = iwasawa_su_iib(pair3)
        candidate = Form.monomial(pair3.frame_xc, ["dtc1", "dtc2", "dr1", "dr2"])
        rho, rep = flux_iib(su)
        assert rep.passed
        assert proportional_to(rho, candidate) == GaussianRational(Fraction(-1, 4))
        assert rho == candidate * GaussianRational(Fraction(-1, 4))
        assert exterior_d(rho).is_zero()

    def test_iwasawa_rho_a(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        candidate = Form.monomial(pair3.frame_x, ["dth3", "dr1", "dr2"])
        rho, rep = flux_iia(su)
        assert rep.passed
        assert proportional_to(rho, candidate) == GaussianRational(-16)
        assert rho == candidate * GaussianRational(-16)

    def test_iwasawa_flux_correspondence(self, pair3):
        su_b = iwasawa_su_iib(pair3)
        su_a = mirror_transform(pair3, su_b.omega)
        rho_a, _ = flux_iia(su_a)
        rho_b, _ = flux_iib(su_b)
        ft = frame_expand(pair3.fm_backward(rho_a), pair3.frame_xc)
        assert ft == rho_b * (GaussianRational(2) ** 8)

    def test_flux_iia_requires_darboux(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        tweaked = SUStructure(
            su.n, su.frame, su.omega * 2,
            Omega_factors=su.Omega_factors, prefactor=su.prefactor,
            polarization=su.polarization,
        )
        with pytest.raises(MissingPairing):
            flux_iia(tweaked)


class TestMirrorTransform:
    def test_iwasawa_factored_output(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        f = pair3.frame_x
        r1 = Poly.variable("r1")
        eta1 = Form.gen(f, "dth1") + Form.gen(f, "dr1") * I
        eta2 = (
            Form.gen(f, "dth2")
            + Form.gen(f, "dr2") * ((Poly.constant(1) + r1 * r1) * I)
            + Form.gen(f, "dr3") * (-r1 * I)
        )
        eta3 = Form.gen(f, "dth3") + Form.gen(f, "dr2") * (-r1 * I) + Form.gen(f, "dr3") * I
        assert su.Omega_factors == [eta1, eta2, eta3]
        assert su.prefactor == GaussianRational(-1)
        # the factored display: prefactor * (dth1 + i dr1) ^ ((dth2 + r1 dth3) + i dr2)
        #                                  ^ (dth3 + i (dr3 - r1 dr2))
        disp = (
            (Form.gen(f, "dth1") + Form.gen(f, "dr1") * I)
            .wedge(Form.gen(f, "dth2") + Form.gen(f, "dth3") * r1 + Form.gen(f, "dr2") * I)
            .wedge(Form.gen(f, "dth3") + (Form.gen(f, "dr3") - Form.gen(f, "dr2") * r1) * I)
        )
        assert su.Omega == -disp

    def test_matches_transform_of_exponential(self, pair3):
        w = iwasawa_omega_check(pair3)
        su = mirror_transform(pair3, w)
        via_ft = pair3.fm_forward(frame_collect(w * 2, pair3.holo_frame).exp_nilpotent())
        assert via_ft == su.Omega

    def test_omega_is_11_for_symmetric_mu(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        assert su.Omega.wedge(su.omega).is_zero()
        assert su.Omega.conjugate().wedge(su.omega).is_zero()

    def test_degenerate_mu_rejected(self, pair2):
        w = Form.monomial(pair2.frame_xc, ["dtc1", "dr1"]) + Form.monomial(
            pair2.frame_xc, ["dtc2", "dr2"], Poly()
        )
        with pytest.raises(ValueError):
            mirror_transform(pair2, w)

    def test_asymmetric_mu_rejected(self, pair2):
        w = Form.monomial(pair2.frame_xc, ["dtc1", "dr1"]) + Form.monomial(
            pair2.frame_xc, ["dtc2", "dr2"]
        ) + Form.monomial(pair2.frame_xc, ["dtc1", "dr2"])
        with pytest.raises(ValueError):
            mirror_transform(pair2, w)

    def test_nonreal_rejected(self, pair2):
        w = Form.monomial(pair2.frame_xc, ["dtc1", "dr1"], I) + Form.monomial(
            pair2.frame_xc, ["dtc2", "dr2"]
        )
        with pytest.raises(ValueError):
            mirror_transform(pair2, w)

    def test_leg_count_fact(self, pair3):
        # the (n-k, k) component of the volume form transforms (2w)^k / k!
        w = iwasawa_omega_check(pair3)
        su = mirror_transform(pair3, w)
        wc = frame_collect(w, pair3.holo_frame)
        power = Form.scalar(pair3.holo_frame, 1)
        fact = 1
        for k in range(0, 4):
            if k:
                power = power.wedge(wc * 2)
                fact *= k
            assert su.pq_project(3 - k, k) == pair3.fm_forward(power * Fraction(1, fact))


class TestLazyComplexBasis:
    def test_mirror_basis_built_on_first_read(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        assert "holo_frame" not in vars(su)
        _, rep = flux_iib(su)
        assert rep.passed
        hf = vars(su)["holo_frame"]
        assert [g.label for g in hf.generators] == ["dz1", "dz2", "dz3", "dz1b", "dz2b", "dz3b"]

    def test_dependent_factors_give_no_basis(self, pair3):
        obj = mirror_transform(pair3, iwasawa_omega_check(pair3)).to_json()
        obj["Omega_factors"][1] = obj["Omega_factors"][0]
        su = SUStructure.from_json(json.loads(json.dumps(obj)))
        assert su.holo_frame is None
        rep = check_iia(su)
        assert not rep.passed
        assert "conformal-factor-nonvanishing" in rep.failed_ids


class TestSerialization:
    def test_roundtrip_iib(self, pair3):
        su = iwasawa_su_iib(pair3)
        blob = json.dumps(su.to_json(), sort_keys=True)
        back = SUStructure.from_json(json.loads(blob))
        assert back.omega == su.omega.transport(back.frame)
        assert back.Omega == su.Omega.transport(back.frame)
        assert check_iib(back).passed

    def test_roundtrip_iia(self, pair3):
        su = mirror_transform(pair3, iwasawa_omega_check(pair3))
        blob = json.dumps(su.to_json(), sort_keys=True)
        back = SUStructure.from_json(json.loads(blob))
        assert back.polarization.phase_quarter == 2
        assert check_iia(back).passed


def test_proportional_to_edge_cases(pair2):
    a = Form.monomial(pair2.frame_x, ["dth1", "dr1"], 3)
    b = Form.monomial(pair2.frame_x, ["dth1", "dr1"])
    assert proportional_to(a, b) == GaussianRational(3)
    assert proportional_to(a, Form.gen(pair2.frame_x, "dth1")) is None
    assert proportional_to(Form.zero(pair2.frame_x), b) == GaussianRational(0)
    c = b + Form.monomial(pair2.frame_x, ["dth2", "dr2"])
    assert proportional_to(a, c) is None
