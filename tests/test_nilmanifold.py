import warnings

import pytest

from syzkit.calculus import exterior_d
from syzkit.coeffring import P_ONE, GaussianRational, Poly
from syzkit.exterior import Form
from syzkit import nilmanifold as nil
from syzkit.sustruct import check_iia, check_iib, flux_correspondence, flux_iia, flux_iib, proportional_to

from conftest import iwasawa_omega_check


def at(nd, label):
    """The basis index of the element labelled `label`."""
    return nd.algebra.labels.index(label)


def u_pairs(K):
    """The index pairs i < j of U_K in dictionary order, written out here
    independently of `upper_triangular`."""
    return [(i, j) for i in range(1, K + 1) for j in range(i + 1, K + 1)]


def pattern(spec):
    """J = span{E_ij : ij in spec}, with E_ij E_jk = E_ik written out here
    independently of `upper_triangular`; the pattern must be closed under
    that product."""
    pairs = spec.split(",")
    index = {p: s for s, p in enumerate(pairs)}
    products = [(p, q, p[0] + q[1]) for p in pairs for q in pairs if p[1] == q[0]]
    assert all(pq in index for _, _, pq in products), f"{spec} is not closed"
    return nil.NilAlgebra(tuple(pairs), tuple((index[p], index[q], index[pq], P_ONE) for p, q, pq in products))


@pytest.fixture(scope="module")
def nd3():
    return nil.build(nil.upper_triangular(3))


@pytest.fixture(scope="module")
def nd4():
    return nil.build(nil.upper_triangular(4))


class TestBuild:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            nil.upper_triangular(1)
        with pytest.raises(ValueError):
            nil.upper_triangular(99)

    def test_default_cap_is_five(self):
        # K=6 (n = 15) is unmeasured; K=5 finishes in well under a minute
        assert nil.MAX_K == 5
        with pytest.raises(ValueError, match=r"K=6 is outside 2\.\.5; .* grows as 4\^n"):
            nil.upper_triangular(6)
        with pytest.raises(ValueError, match=r"K=1 is outside 2\.\.5"):
            nil.upper_triangular(1)

    def test_no_cost_warning_at_cap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert nil.build(nil.upper_triangular(5)).n == 10

    def test_k3_frames(self, nd3):
        assert nd3.n == 3
        assert nd3.e_forms[at(nd3, "13")] == Form.gen(nd3.x_coord, "dr13") - Form.monomial(
            nd3.x_coord, ["dr23"], Poly.variable("r12")
        )
        assert nd3.e_forms[at(nd3, "12")] == Form.gen(nd3.x_coord, "dr12")
        assert nd3.fc_forms[at(nd3, "23")] == Form.gen(nd3.xc_coord, "dthc23") + Form.monomial(
            nd3.xc_coord, ["dthc13"], Poly.variable("r12")
        )

    def test_k4_counts(self, nd4):
        assert nd4.n == 6
        assert nd4.algebra.labels == ("12", "13", "14", "23", "24", "34")
        assert len(nd4.e_forms) == len(nd4.f_forms) == len(nd4.fc_forms) == 6

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_top_wedges_match_coordinates(self, K):
        nd = nil.build(nil.upper_triangular(K))
        we = Form.scalar(nd.x_coord, 1)
        wdr = Form.scalar(nd.x_coord, 1)
        wf = Form.scalar(nd.x_coord, 1)
        wdth = Form.scalar(nd.x_coord, 1)
        for s, label in enumerate(nd.algebra.labels):
            we = we.wedge(nd.e_forms[s])
            wdr = wdr.wedge(Form.gen(nd.x_coord, f"dr{label}"))
            wf = wf.wedge(nd.f_forms[s])
            wdth = wdth.wedge(Form.gen(nd.x_coord, f"dth{label}"))
        assert we == wdr
        assert wf == wdth


class TestGammaInvariance:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_frames_invariant_symbolically(self, K):
        nd = nil.build(nil.upper_triangular(K))
        rep = nil.check_gamma_invariance(nd)
        assert rep.passed

    def test_bare_coordinate_form_not_invariant(self, nd3):
        pulled = nil.gamma_pullback(nd3, Form.gen(nd3.x_coord, "dr13"))
        residue = pulled - Form.gen(nd3.x_coord, "dr13")
        assert residue == Form.monomial(nd3.x_coord, ["dr23"], Poly.variable("a12"))

    def test_single_lattice_step_fixes_e13(self, nd3):
        # a12 = 1, all other symbols 0
        e13 = nd3.e_forms[at(nd3, "13")]
        stepped = nil.gamma_pullback(nd3, e13)
        numeric = stepped.map_coefficients(
            lambda p: p.subst({"a12": Poly.constant(1), "a13": Poly(), "a23": Poly()})
        )
        assert numeric == e13


class TestStructureEquations:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_all_hold(self, K):
        rep = nil.structure_equations(nil.build(nil.upper_triangular(K)))
        assert rep.passed

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_derived_equations_match_closed_forms(self, K):
        # de_ij = -sum_k e_ik ^ e_kj on both frames, df_ij = -sum_k e_ik ^ f_kj
        nd = nil.build(nil.upper_triangular(K))
        for frame, fibers in ((nd.x_frame, ["f"]), (nd.xc_frame, [])):
            for i, j in u_pairs(K):
                for leg in ["e"] + fibers:
                    want = Form.zero(frame)
                    for k in range(i + 1, j):
                        want = want - Form.gen(frame, f"e{i}{k}").wedge(Form.gen(frame, f"{leg}{k}{j}"))
                    got = frame.d_of_generator(frame.index[f"{leg}{i}{j}"])
                    assert got == want, (frame, leg, i, j)

    def test_de13_instance(self, nd3):
        got = exterior_d(Form.gen(nd3.x_frame, "e13"))
        want = -Form.gen(nd3.x_frame, "e12").wedge(Form.gen(nd3.x_frame, "e23"))
        assert got == want

    def test_dfc23_instance(self, nd3):
        got = exterior_d(Form.gen(nd3.xc_frame, "fc23"))
        want = Form.gen(nd3.xc_frame, "e12").wedge(Form.gen(nd3.xc_frame, "fc13"))
        assert got == want

    def test_adjacent_generators_closed(self, nd4):
        for i in range(1, 4):
            assert exterior_d(Form.gen(nd4.x_frame, f"e{i}{i+1}")).is_zero()
            assert exterior_d(nd4.e_forms[at(nd4, f"{i}{i + 1}")]).is_zero()


def fiber_coefficient(form, label):
    """The coefficient of the generator `label` in a one-form."""
    return form.terms.get(1 << form.frame.index[label], Poly())


def pairing(nd, f, fc):
    """<f, fc>: the fiber coefficients of f and fc summed in pairs over every
    position, each read by its label."""
    return sum(
        (fiber_coefficient(f, f"dth{s}") * fiber_coefficient(fc, f"dthc{s}") for s in nd.algebra.labels),
        Poly(),
    )


class TestDualPairing:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_identity_matrix(self, K):
        # the sparse row product against the pairing of each f with each fc
        nd = nil.build(nil.upper_triangular(K))
        m = nil.dual_pairing_matrix(nd)
        assert len(m) == nd.n
        for i in range(nd.n):
            for j in range(nd.n):
                want = pairing(nd, nd.f_forms[i], nd.fc_forms[j])
                assert want == (1 if i == j else 0), (i, j)
                assert m[i].get(j, Poly()) == want, (i, j)
            assert all(m[i].values()), "a sparse row holds only nonzero entries"

    def test_perturbed_coframe_is_not_dual(self):
        # fc_23 = dthc23 + r12 * dthc13 moved to r12 * dthc12: <f_12, fc_23>
        # and <f_13, fc_23> become r12 and -r12, and the row product agrees
        # with the pairing of each f with each fc off the diagonal too
        nd = nil.build(nil.upper_triangular(3))
        x = nd.xc_coord
        nd.fc_forms[at(nd, "23")] = Form.gen(x, "dthc23") + Form.gen(x, "dthc12") * Poly.variable("r12")
        m = nil.dual_pairing_matrix(nd)
        assert m != [{i: 1} for i in range(nd.n)]
        for i in range(nd.n):
            for j in range(nd.n):
                assert m[i].get(j, Poly()) == pairing(nd, nd.f_forms[i], nd.fc_forms[j]), (i, j)

    def test_nested_recursion_is_not_dual_at_k4(self, nd4):
        # nesting the dual coframe in its own recursion looks symmetric but
        # fails duality once chains of length three appear: the (1,4)/(3,4)
        # pairing picks up r12*r23
        nested = {}
        for j, k in u_pairs(4):
            fc = Form.gen(nd4.xc_coord, f"dthc{j}{k}")
            for i in range(1, j):
                fc = fc + nested[(i, k)] * Poly.variable(f"r{i}{j}")
            nested[(j, k)] = fc
        got = pairing(nd4, nd4.f_forms[at(nd4, "14")], nested[(3, 4)])
        assert got == Poly.variable("r12") * Poly.variable("r23")


class TestSides:
    def test_iib_passes(self, nd3, nd4):
        for nd in (nd3, nd4):
            assert check_iib(nil.build_iib_side(nd)).passed

    def test_iib_strictly_balanced(self, nd3, nd4):
        for nd in (nd3, nd4):
            su = nil.build_iib_side(nd)
            wk = Form.scalar(nd.x_coord, 1)
            for _ in range(nd.n - 2):
                wk = wk.wedge(su.omega)
            assert not exterior_d(wk).is_zero()
            assert not exterior_d(su.omega).is_zero()

    def test_iia_passes(self, nd3):
        su = nil.build_iia_side(nd3)
        rep = check_iia(su)
        assert rep.passed

    def test_omega_is_one_one_in_frame_basis(self, nd4):
        # pi^{2,0} and pi^{0,2} of the Hermitian form vanish against the
        # volume form and its conjugate
        su = nil.build_iib_side(nd4)
        assert su.Omega.wedge(su.omega).is_zero()
        assert su.Omega.conjugate().wedge(su.omega).is_zero()

    def test_iia_volume_vs_canonical_power(self, nd3):
        su = nil.build_iia_side(nd3)
        oo = su.Omega.wedge(su.Omega.conjugate())
        wn = Form.scalar(nd3.xc_coord, 1)
        for _ in range(nd3.n):
            wn = wn.wedge(su.omega)
        from syzkit.sustruct import proportional_to

        c = proportional_to(oo, wn)
        assert c is not None and c != GaussianRational(0)


class TestK3MatchesThreeDimensionalExample:
    """Relabeling (r12, r23, r13) -> (r1, r2, r3) identifies the K=3 family
    with the explicit three-dimensional system."""

    def relabel(self):
        return {"r12": "r1", "r23": "r2", "r13": "r3"}

    def test_hermitian_form_matches(self, nd3, pair3):
        w = nil.omega_hermitian(nd3)
        sub = {k: Poly.variable(v) for k, v in self.relabel().items()}
        gen_map = {
            "dth12": "dtc1", "dth23": "dtc2", "dth13": "dtc3",
            "dr12": "dr1", "dr23": "dr2", "dr13": "dr3",
        }
        images = {
            nd3.x_coord.index[src]: Form.gen(pair3.frame_xc, dst)
            for src, dst in gen_map.items()
        }
        from syzkit.exterior import substitute_generators

        relabeled = substitute_generators(w.map_coefficients(lambda p: p.subst(sub)),
                                          pair3.frame_xc, images)
        assert relabeled == iwasawa_omega_check(pair3)

    def test_fluxes_match(self, nd3):
        rep, su_b, su_a = nil.check_mirror_pair(nd3)
        assert rep.passed
        rho_a, _ = flux_iia(su_a)
        rho_b, _ = flux_iib(su_b)
        # rho_A ~ dr(12) ^ dr(23) ^ (fiber form dual to r13) with constant 16;
        # rho_B ~ the Poincare-dual four-form with constant -1/4
        assert rho_a == Form.monomial(
            nd3.xc_coord, ["dthc13", "dr12", "dr23"], GaussianRational(16)
        ).transport(rho_a.frame)
        assert rho_b == Form.monomial(
            nd3.x_coord, ["dth12", "dth23", "dr12", "dr23"],
            GaussianRational.promote(-1) / 4,
        ).transport(rho_b.frame)


class TestMirrorPair:
    @pytest.mark.parametrize("K", [2, 3])
    def test_pipeline_passes(self, K):
        rep, _, _ = nil.check_mirror_pair(nil.build(nil.upper_triangular(K)))
        assert rep.passed

    def test_k2_fluxes_vanish(self):
        rep, su_b, su_a = nil.check_mirror_pair(nil.build(nil.upper_triangular(2)))
        assert flux_iia(su_a)[0].is_zero() and flux_iib(su_b)[0].is_zero()

    def test_k3_conformal_product(self, nd3):
        rep, su_b, su_a = nil.check_mirror_pair(nd3)
        fa = su_a.conformal_factor()
        fb = su_b.conformal_factor()
        assert fa * fb == GaussianRational(64)

    def test_volume_form_constant(self, nd3):
        rep, su_b, su_a = nil.check_mirror_pair(nd3)
        omega_nil = nil.build_iia_side(nd3).Omega
        from syzkit.sustruct import proportional_to

        c = proportional_to(su_a.Omega, omega_nil.transport(su_a.frame))
        assert c == GaussianRational(-1)  # (-1)^{n(n-1)/2} for n = 3


class TestCheckFamily:
    def test_k2_passes_without_the_omega_power_claim(self):
        # n = 1: omega^(n-2) would be a negative power, so no item claims it
        nd = nil.build(nil.upper_triangular(2))
        rep, su_b, su_a = nil.check_family(nd)
        assert rep.passed
        parts = (nil.structure_equations(nd), nil.check_gamma_invariance(nd))
        want = [i.id for part in parts for i in part.items] + ["dual-pairing-identity"]
        want += [i.id for i in nil.check_mirror_pair(nd)[0].items]
        assert [i.id for i in rep.items] == want
        assert su_b.n == su_a.n == 1


class TestOtherAlgebras:
    """Nilmanifolds of algebras other than U_K, through the same builder."""

    # closed patterns and the flux factor -(-1)^(n(n-1)/2) 2^(2n+2): U_K
    # reaches only n = 1, 3, 6 and 10, so n = 4 and 5 are the nilmanifold
    # checks where the sign turns
    PATTERNS = {"12,13,23,45": -(2 ** 10), "13,14,23,24,34": -(2 ** 12), "12,13,23,45,46,56": 2 ** 14}

    @pytest.mark.parametrize("spec", sorted(PATTERNS))
    def test_closed_pattern_passes_every_check(self, spec):
        nd = nil.build(pattern(spec))
        assert nd.n == len(spec.split(","))
        rep, su_b, su_a = nil.check_family(nd)
        assert [i.id for i in rep.items if i.status != "pass"] == []
        rho_a, _ = flux_iia(su_a)
        rho_b, _ = flux_iib(su_b)
        assert not rho_b.is_zero()
        got, _ = flux_correspondence(nd.pair, rho_a, rho_b)
        assert proportional_to(got, rho_b) == self.PATTERNS[spec]

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_upper_triangular_is_the_full_pattern(self, K):
        want = pattern(",".join(f"{i}{j}" for i, j in u_pairs(K)))
        got = nil.upper_triangular(K)
        assert got.labels == want.labels
        assert sorted(c[:3] for c in got.constants) == sorted(c[:3] for c in want.constants)
        assert all(c[3] == 1 for c in got.constants)

    def test_structure_equations_catch_a_non_associative_table(self):
        # b1 b2 = b3 and b3 b1 = b4, nothing else: (b1 b2) b1 = b4 but
        # b1 (b2 b1) = 0, and exactly the four items of b4 fail
        alg = nil.NilAlgebra(("1", "2", "3", "4"), ((0, 1, 2, P_ONE), (2, 0, 3, P_ONE)))
        b1, b2 = ([Poly.constant(int(s == k)) for s in range(4)] for k in (0, 1))
        assert alg.times(alg.times(b1, b2, Poly()), b1, Poly()) != alg.times(b1, alg.times(b2, b1, Poly()), Poly())
        rep, _, _ = nil.check_family(nil.build(alg))
        failing = [i.id for i in rep.items if i.status != "pass"]
        assert failing == ["d-e4", "d-f4", "invariant-e4", "invariant-f4"]
