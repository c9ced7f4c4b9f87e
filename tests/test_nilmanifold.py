import pytest

from syzkit.calculus import exterior_d
from syzkit.coeffring import GaussianRational, Poly
from syzkit.exterior import Form
from syzkit import nilmanifold as nil
from syzkit.sustruct import check_iia, check_iib

from conftest import iwasawa_omega_check


@pytest.fixture(scope="module")
def nd3():
    return nil.build(3)


@pytest.fixture(scope="module")
def nd4():
    return nil.build(4)


class TestBuild:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            nil.build(1)
        with pytest.raises(ValueError):
            nil.build(99)

    def test_default_cap_is_four(self, monkeypatch):
        # K=5 does not finish inside the budgets the CLI is run with
        monkeypatch.delenv("SYZKIT_MAX_K", raising=False)
        with pytest.raises(ValueError, match="exceeds the configured cap 4"):
            nil.build(5)

    def test_cost_warning_at_cap(self, monkeypatch):
        monkeypatch.setenv("SYZKIT_MAX_K", "5")
        with pytest.warns(RuntimeWarning):
            nil.build(5)

    def test_k3_frames(self, nd3):
        assert nd3.n == 3
        assert nd3.e_forms[(1, 3)] == Form.gen(nd3.x_coord, "dr13") - Form.monomial(
            nd3.x_coord, ["dr23"], Poly.variable("r12")
        )
        assert nd3.e_forms[(1, 2)] == Form.gen(nd3.x_coord, "dr12")
        assert nd3.fc_forms[(2, 3)] == Form.gen(nd3.xc_coord, "dthc23") + Form.monomial(
            nd3.xc_coord, ["dthc13"], Poly.variable("r12")
        )

    def test_k4_counts(self, nd4):
        assert nd4.n == 6
        assert len(nd4.pairs) == 6
        assert len(nd4.e_forms) == len(nd4.f_forms) == len(nd4.fc_forms) == 6

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_top_wedges_match_coordinates(self, K):
        nd = nil.build(K)
        we = Form.scalar(nd.x_coord, 1)
        wdr = Form.scalar(nd.x_coord, 1)
        wf = Form.scalar(nd.x_coord, 1)
        wdth = Form.scalar(nd.x_coord, 1)
        for p in nd.pairs:
            we = we.wedge(nd.e_forms[p])
            wdr = wdr.wedge(Form.gen(nd.x_coord, f"dr{p[0]}{p[1]}"))
            wf = wf.wedge(nd.f_forms[p])
            wdth = wdth.wedge(Form.gen(nd.x_coord, f"dth{p[0]}{p[1]}"))
        assert we == wdr
        assert wf == wdth


class TestGammaInvariance:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_frames_invariant_symbolically(self, K):
        nd = nil.build(K)
        rep = nil.check_gamma_invariance(nd)
        assert rep.passed

    def test_bare_coordinate_form_not_invariant(self, nd3):
        pulled = nil.gamma_pullback(nd3, Form.gen(nd3.x_coord, "dr13"))
        residue = pulled - Form.gen(nd3.x_coord, "dr13")
        assert residue == Form.monomial(nd3.x_coord, ["dr23"], Poly.variable("a12"))

    def test_single_lattice_step_fixes_e13(self, nd3):
        # a12 = 1, all other symbols 0
        e13 = nd3.e_forms[(1, 3)]
        stepped = nil.gamma_pullback(nd3, e13)
        numeric = stepped.map_coefficients(
            lambda p: p.subst({"a12": Poly.constant(1), "a13": Poly(), "a23": Poly()})
        )
        assert numeric == e13


class TestStructureEquations:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_all_hold(self, K):
        rep = nil.structure_equations(nil.build(K))
        assert rep.passed

    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_derived_equations_match_closed_forms(self, K):
        # de_ij = -sum_k e_ik ^ e_kj on both frames, df_ij = -sum_k e_ik ^ f_kj
        nd = nil.build(K)
        for frame, fibers in ((nd.x_frame, ["f"]), (nd.xc_frame, [])):
            for i, j in nd.pairs:
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
            assert exterior_d(nd4.e_forms[(i, i + 1)]).is_zero()


class TestDualPairing:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_identity_matrix(self, K):
        nd = nil.build(K)
        m = nil.dual_pairing_matrix(nd)
        for i in range(nd.n):
            for j in range(nd.n):
                assert m[i][j] == (1 if i == j else 0), (nd.pairs[i], nd.pairs[j])

    def test_nested_recursion_is_not_dual_at_k4(self, nd4):
        # nesting the dual coframe in its own recursion looks symmetric but
        # fails duality once chains of length three appear: the (1,4)/(3,4)
        # pairing picks up r12*r23
        nested = {}
        for j, k in nd4.pairs:
            fc = Form.gen(nd4.xc_coord, f"dthc{j}{k}")
            for i in range(1, j):
                fc = fc + nested[(i, k)] * Poly.variable(f"r{i}{j}")
            nested[(j, k)] = fc
        f14 = nd4.f_forms[(1, 4)]
        pairing = Poly()
        for p in nd4.pairs:
            a = f14.coefficient([f"dth{p[0]}{p[1]}"])
            b = nested[(3, 4)].coefficient([f"dthc{p[0]}{p[1]}"])
            pairing = pairing + a * b
        assert pairing == Poly.variable("r12") * Poly.variable("r23")


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
        rep, arts = nil.check_mirror_pair(nd3)
        assert rep.passed
        # rho_A ~ dr(12) ^ dr(23) ^ (fiber form dual to r13) with constant 16;
        # rho_B ~ the Poincare-dual four-form with constant -1/4
        assert arts.rho_a == Form.monomial(
            nd3.xc_coord, ["dthc13", "dr12", "dr23"], GaussianRational(16)
        ).transport(arts.rho_a.frame)
        assert arts.rho_b == Form.monomial(
            nd3.x_coord, ["dth12", "dth23", "dr12", "dr23"],
            GaussianRational.promote(-1) / 4,
        ).transport(arts.rho_b.frame)


class TestMirrorPair:
    @pytest.mark.parametrize("K", [2, 3])
    def test_pipeline_passes(self, K):
        rep, _ = nil.check_mirror_pair(nil.build(K))
        assert rep.passed

    def test_k2_fluxes_vanish(self):
        rep, arts = nil.check_mirror_pair(nil.build(2))
        assert arts.rho_a.is_zero() and arts.rho_b.is_zero()

    def test_k3_conformal_product(self, nd3):
        rep, arts = nil.check_mirror_pair(nd3)
        fa = arts.su_mirror.conformal_factor()
        fb = arts.su_iib.conformal_factor()
        assert fa * fb == GaussianRational(64)

    def test_volume_form_constant(self, nd3):
        rep, arts = nil.check_mirror_pair(nd3)
        omega_nil = nil.build_iia_side(nd3).Omega
        from syzkit.sustruct import proportional_to

        c = proportional_to(
            arts.su_mirror.Omega, omega_nil.transport(arts.su_mirror.frame)
        )
        assert c == GaussianRational(-1)  # (-1)^{n(n-1)/2} for n = 3
