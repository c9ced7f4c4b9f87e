import json
from fractions import Fraction

import pytest

from syzkit import nilmanifold as nil
from syzkit.calculus import MissingPairing, exterior_d
from syzkit.coeffring import GaussianRational, I, ONE, Poly
from syzkit.exterior import Form, GenClass, frame_collect, frame_expand, reversal_sign
from syzkit.fourier import SemiflatPair
from syzkit.randgen import trial_rng
from syzkit.reports import FAIL
from syzkit.sustruct import (
    NonConstantFactor,
    _volume_square_top,
    Polarization,
    SUStructure,
    check_iia,
    check_iib,
    check_su,
    constant_ratio,
    flux_constant,
    flux_correspondence,
    flux_iia,
    flux_iib,
    mirror_transform,
    proportional_to,
)

from conftest import iwasawa_omega_check, random_symmetric_mu


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


def scaled_flat_su_iib(pair2, omega_coeff, factor_coeff):
    """flat_su_iib(pair2) with the dtc1 ^ dr1 term of omega scaled by
    omega_coeff and the first volume-form factor by factor_coeff."""
    su = flat_su_iib(pair2)
    omega = su.omega + Form.monomial(pair2.frame_xc, ["dtc1", "dr1"], omega_coeff - 1)
    factors = [su.Omega_factors[0] * factor_coeff, su.Omega_factors[1]]
    return SUStructure(2, pair2.frame_xc, omega, Omega_factors=factors)


def unimodular_su_iib(pair, rng):
    """The flat pair's IIB structure with omega = sum mu_ab dtc_a ^ dr_b,
    mu = A^T A for an upper unitriangular A whose entries above the diagonal
    are c * r_k + c0, so det mu = 1."""
    n, frame = pair.n, pair.frame_xc
    r = [Poly.variable(v) for v in pair.base_vars]
    A = [[Poly.constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = r[rng.randrange(n)] * rng.choice([-2, -1, 1, 2]) + rng.randint(-1, 1)
    omega = Form.zero(frame)
    for a in range(n):
        for b in range(n):
            mu = sum((A[k][a] * A[k][b] for k in range(n)), Poly())
            omega = omega + Form.monomial(frame, [f"dtc{a + 1}", f"dr{b + 1}"], mu)
    return SUStructure(n, frame, omega, Omega_factors=flat_su_iib(pair).Omega_factors)


def failed_ids(rep):
    return [i.id for i in rep.items if i.status == FAIL]


def iwasawa_su_iib(pair3):
    su = flat_su_iib(pair3)
    return SUStructure(
        3,
        pair3.frame_xc,
        iwasawa_omega_check(pair3),
        Omega_factors=su.Omega_factors,
    )


def incremental_powers(su, kmax):
    """omega^0..omega^kmax, each wedged once onto the one before: the route
    `omega_power` once took, kept as the oracle for its exponential."""
    powers = [Form.scalar(su.frame, 1)]
    while len(powers) <= kmax:
        powers.append(powers[-1].wedge(su.omega))
    return powers


def nil_structures(K):
    """Both sides the pipeline builds at size K: the IIB side, its mirror
    transform and the frame-product IIA side."""
    nd = nil.build(nil.upper_triangular(K))
    su_b = nil.build_iib_side(nd)
    return [su_b, mirror_transform(nd.pair, su_b.omega), nil.build_iia_side(nd)]


def assert_powers_match_incremental(su):
    for k, want in enumerate(incremental_powers(su, su.n + 1)):
        got = su.omega_power(k)
        assert got == want, k
        assert got.to_json() == want.to_json(), k


class TestOmegaPower:
    def structures(self, pair3):
        su_b = iwasawa_su_iib(pair3)
        yield su_b
        yield mirror_transform(pair3, su_b.omega)
        yield nil.build_iib_side(nil.build(nil.upper_triangular(3)))

    def test_matches_repeated_wedge(self, pair3):
        for su in self.structures(pair3):
            assert_powers_match_incremental(su)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_nilmanifold_sides_match_repeated_wedge(self, K):
        for su in nil_structures(K):
            assert_powers_match_incremental(su)

    def test_each_power_cached(self, pair3):
        for su in self.structures(pair3):
            first = [su.omega_power(k) for k in range(su.n + 1)]
            assert all(su.omega_power(k) is w for k, w in enumerate(first))

    def test_power_one_is_omega_and_needs_no_exponential(self, pair2):
        su = flat_su_iib(pair2)
        assert su.omega_power(1) is su.omega
        assert "_exp_omega_parts" not in vars(su)

    def test_negative_power_rejected(self, pair2):
        with pytest.raises(ValueError, match="non-negative"):
            flat_su_iib(pair2).omega_power(-1)


class TestOmegaMustBeTwoForm:
    @pytest.mark.parametrize("extra", [["dtc1"], [], ["dtc1", "dtc2", "dr1", "dr2"]])
    def test_other_degrees_rejected(self, pair2, extra):
        su = flat_su_iib(pair2)
        omega = su.omega + Form.monomial(pair2.frame_xc, extra)
        with pytest.raises(ValueError, match="omega must be a two-form"):
            SUStructure(2, pair2.frame_xc, omega, Omega_factors=su.Omega_factors)

    def test_zero_omega_accepted(self, pair2):
        su = SUStructure(2, pair2.frame_xc, Form.zero(pair2.frame_xc),
                         Omega_factors=flat_su_iib(pair2).Omega_factors)
        assert su.omega_power(2).is_zero()


def volume_square_by_factors(su):
    """Omega ^ conj(Omega), as Omega times conj(prefactor) wedged with the
    conjugate of one factor at a time: the route `conformal_factor` once
    took, kept as an oracle for the one-pass top pairing."""
    out = su.Omega * su.prefactor.conjugate()
    for f in su.Omega_factors:
        out = out.wedge(f.conjugate())
    return out


def top_coefficient(form):
    """The coefficient of the top monomial of a form that has no other term."""
    top = (1 << len(form.frame)) - 1
    assert set(form.terms) <= {top}
    return form.terms.get(top, Poly())


class TestVolumeSquareByFactors:
    """The one-pass top pairing `_volume_square_top` against two slow
    routes: the single wedge Omega ^ conj(Omega), and the wedge with one
    conjugate factor at a time."""

    def check(self, su):
        by_factors = volume_square_by_factors(su)
        want = su.Omega.wedge(su.Omega.conjugate())
        assert by_factors == want
        assert by_factors.to_json() == want.to_json()
        got = _volume_square_top(su)
        assert got == top_coefficient(want)
        assert got.to_json() == top_coefficient(want).to_json()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flat_pairs_odd_and_even_rank(self, n):
        pair = SemiflatPair(n)
        su_b = flat_su_iib(pair)
        for su in (su_b, mirror_transform(pair, su_b.omega), unimodular_su_iib(pair, trial_rng(6200, n))):
            self.check(su)

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_nilmanifold_sides(self, K):
        for su in nil_structures(K):
            self.check(su)

    def test_flat_three_dimensional_and_mirrors(self, pair2, pair3):
        su_b = iwasawa_su_iib(pair3)
        for su in (flat_su_iib(pair2), flat_su_iib(pair3), su_b,
                   mirror_transform(pair3, su_b.omega),
                   mirror_transform(pair2, flat_su_iib(pair2).omega)):
            self.check(su)

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_mirror_transforms(self, pair3, seed):
        rng = trial_rng(6100, seed)
        mu = random_symmetric_mu(rng, 3, pair3.base_vars)
        w = Form.zero(pair3.frame_xc)
        for a in range(3):
            for b in range(3):
                w = w + Form.monomial(pair3.frame_xc, [f"dtc{a + 1}", f"dr{b + 1}"], mu[a][b])
        self.check(mirror_transform(pair3, w))

    def test_complex_prefactor(self, pair2):
        su = flat_su_iib(pair2)
        self.check(SUStructure(2, pair2.frame_xc, su.omega, Omega_factors=su.Omega_factors,
                               prefactor=GaussianRational(Fraction(1, 2), 3)))


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
        assert cf == GaussianRational(-4)
        assert cf * flat_su_iib(pair2).conformal_factor() == GaussianRational(16)

    def test_iwasawa_sides_constant(self, pair3):
        su_b = iwasawa_su_iib(pair3)
        cf_b = su_b.conformal_factor()
        assert cf_b == GaussianRational(8)
        su_a = mirror_transform(pair3, su_b.omega)
        cf_a = su_a.conformal_factor()
        assert cf_a == GaussianRational(8)
        assert cf_a * cf_b == GaussianRational(2) ** 6

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


class TestNonConstantFactor:
    # the witnesses are the ratio with its denominator scaled to leading coefficient 1
    def test_ratio_witness(self, pair2):
        r1 = Poly.variable("r1")
        rep = check_su(scaled_flat_su_iib(pair2, 1 + r1 * r1, 1))
        assert [i.to_json() for i in rep.items[1:]] == [
            {"id": "conformal-factor-defined", "status": "pass"},
            {"id": "conformal-factor-nonvanishing", "status": "undetermined",
             "witness": "(-4)/(1 + r1^2)"},
        ]

    def test_polynomial_witness(self, pair2):
        # omega^n has a constant top coefficient, so the witness is a polynomial
        r1 = Poly.variable("r1")
        rep = check_su(scaled_flat_su_iib(pair2, 1, 1 + r1))
        assert [i.to_json() for i in rep.items[1:]] == [
            {"id": "conformal-factor-defined", "status": "pass"},
            {"id": "conformal-factor-nonvanishing", "status": "undetermined",
             "witness": "-4 - 8*r1 - 4*r1^2"},
        ]

    def test_polynomial_parts_with_constant_ratio_pass(self, pair2):
        r1 = Poly.variable("r1")
        rep = check_su(scaled_flat_su_iib(pair2, (1 + r1) * (1 + r1), 1 + r1))
        assert rep.passed
        assert rep.items[-1].to_json() == {
            "id": "conformal-factor-constant", "status": "pass", "witness": "-4"
        }

    def test_fluxes_raise(self, pair2):
        r1 = Poly.variable("r1")
        with pytest.raises(NonConstantFactor, match=r"^\(-4\)/\(1 \+ r1\^2\)$"):
            flux_iib(scaled_flat_su_iib(pair2, 1 + r1 * r1, 1))
        su = mirror_transform(pair2, flat_su_iib(pair2).omega)
        tweaked = SUStructure(
            2, su.frame, su.omega,
            Omega_factors=[su.Omega_factors[0] * (1 + r1), su.Omega_factors[1]],
            prefactor=su.prefactor, polarization=su.polarization,
        )
        with pytest.raises(NonConstantFactor):
            flux_iia(tweaked)


class TestConformalFactorUndefined:
    def test_frame_without_2n_generators_fails(self, pair2):
        # n = 1 on the four generators of the rank-2 complex side
        f = pair2.frame_xc
        su = SUStructure(1, f, Form.monomial(f, ["dtc1", "dr1"]), [Form.gen(f, "dtc1") + Form.gen(f, "dr1") * I])
        assert [i.to_json() for i in check_su(su).items] == [
            {"id": "Omega-wedge-omega-vanishes", "status": "pass"},
            {"id": "conformal-factor-defined", "status": "fail",
             "witness": "frame must have exactly 2n one-form generators"},
        ]

    def test_volume_square_not_a_top_form_fails(self, pair2):
        # one factor for n = 2, or a factor with a two-form term: Omega is not
        # pure of degree n, so Omega ^ conj(Omega) would not be a top form,
        # and the structure is refused before any check runs
        su = flat_su_iib(pair2)
        bent = su.Omega_factors[1] + Form.monomial(su.frame, ["dtc1", "dr2"])
        for factors in (su.Omega_factors[:1], su.Omega_factors * 2, [su.Omega_factors[0], bent]):
            with pytest.raises(ValueError, match="Omega needs exactly n = 2 factors, each a one-form"):
                SUStructure(2, su.frame, su.omega, factors)


class TestSpecialPhase:
    @staticmethod
    def flat_iia(pair1, first_factor, prefactor=ONE):
        f = pair1.frame_x
        return SUStructure(
            1, f, Form.monomial(f, ["dth1", "dr1"]), [first_factor + Form.gen(f, "dr1") * I],
            prefactor=prefactor, polarization=Polarization(GenClass.FIBER_X, None),
        )

    def special_phase(self, su):
        items = [i.to_json() for i in check_iia(su).items if i.id == "special-phase"]
        assert len(items) == 1
        return items[0]

    def test_nonconstant_pure_fiber_coefficient_undetermined(self, pair1):
        su = self.flat_iia(pair1, Form.monomial(pair1.frame_x, ["dth1"], 1 + Poly.variable("r1")))
        assert self.special_phase(su) == {
            "id": "special-phase", "status": "undetermined", "witness": "non-constant coefficient 1 + r1"
        }

    def test_no_quarter_turn_phase_fails(self, pair1):
        su = self.flat_iia(pair1, Form.gen(pair1.frame_x, "dth1"), prefactor=GaussianRational(1, 1))
        assert self.special_phase(su) == {
            "id": "special-phase", "status": "fail", "witness": "coefficient 1+i has no quarter-turn phase"
        }


class TestConstantRatio:
    def test_constant_detection(self):
        den = 1 + Poly.variable("r1")
        assert constant_ratio(den * 3, den) == GaussianRational(3)
        assert constant_ratio(den * I, den * 2) == I / 2

    def test_nonconstant(self):
        r1 = Poly.variable("r1")
        assert constant_ratio(Poly.constant(1), 1 + r1) is None
        assert constant_ratio(1 + r1, Poly.constant(1)) is None
        # equal leading terms, different tails
        assert constant_ratio(r1 * r1 + 1, r1 * r1 + r1) is None

    def test_zero_numerator(self):
        assert constant_ratio(Poly(), 1 + Poly.variable("r1")) == 0


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
        assert "d-Omega-vanishes" in failed_ids(rep)


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
        assert "special-phase" in failed_ids(rep)


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

    def test_flux_constant_is_the_closed_form(self):
        # computed from the intertwining constant, it must equal the closed
        # form -(-1)^(n(n-1)/2) 2^(2n+2) that the README states
        for n in range(1, 13):
            assert flux_constant(n) == GaussianRational(-reversal_sign(n) * 2 ** (2 * n + 2)), n

    # fm_backward(rho_A) / rho_B on one seeded unimodular draw per n: the
    # sign is -(-1)^(n(n-1)/2), so it turns at n = 4, which U_K (n = 1, 3, 6,
    # 10) never reaches; test_nilmanifold checks it on closed patterns at
    # n = 4, 5 and 6
    RATIOS = {2: 2 ** 6, 3: 2 ** 8, 4: -(2 ** 10), 5: -(2 ** 12)}

    @pytest.mark.parametrize("n", sorted(RATIOS))
    def test_flux_constant_on_unimodular_flat_pairs(self, n):
        pair = SemiflatPair(n)
        su_b = unimodular_su_iib(pair, trial_rng(0, n))
        su_a = mirror_transform(pair, su_b.omega)
        # det mu = 1: both conformal factors are constant
        assert su_a.conformal_factor() * su_b.conformal_factor() == 2 ** (2 * n)
        rho_a, _ = flux_iia(su_a)
        rho_b, _ = flux_iib(su_b)
        assert not rho_b.is_zero()
        got, want = flux_correspondence(pair, rho_a, rho_b)
        assert proportional_to(got, rho_b) == self.RATIOS[n]
        assert got == want

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

    def test_symplectic_form_is_the_pairs_darboux_form(self, pair3):
        # one Darboux form per pair: mirror_transform and build_iia_side read
        # the pair's instead of inverting their own
        assert mirror_transform(pair3, iwasawa_omega_check(pair3)).omega is pair3.darboux_x.omega
        nd = nil.build(nil.upper_triangular(3))
        assert nil.build_iia_side(nd).omega is nd.pair.darboux_x.omega

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
        with pytest.raises(ValueError, match="omega_check is degenerate: .* determinant 0"):
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
        assert "conformal-factor-nonvanishing" in failed_ids(rep)


class TestSerialization:
    def test_roundtrip_iib(self, pair3):
        su = iwasawa_su_iib(pair3)
        blob = json.dumps(su.to_json(), sort_keys=True)
        back = SUStructure.from_json(json.loads(blob))
        assert back.omega == su.omega.transport(back.frame)
        assert back.Omega == su.Omega.transport(back.frame)
        assert check_iib(back).passed

    @pytest.mark.parametrize("key, lengths", [
        ("labels", "7, 6, 6"), ("classes", "6, 7, 6"), ("paired", "6, 6, 7"),
    ])
    def test_frame_lists_of_unequal_length_rejected(self, pair3, key, lengths):
        # the longer list's extra entries were once dropped by zip
        obj = iwasawa_su_iib(pair3).to_json()
        obj["frame"][key].append(obj["frame"][key][0])
        with pytest.raises(ValueError, match=f"'labels', 'classes' and 'paired' differ in length: {lengths}"):
            SUStructure.from_json(obj)

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
