"""Acceptance suite: every criterion at its stated runtime bound, all
arithmetic exact (zero tolerance).  Run with `pytest tests/test_acceptance.py
-v -s` to see one line per criterion."""

import itertools
import time
from fractions import Fraction
from math import comb

from click.testing import CliRunner

from syzkit import cohomology as coh
from syzkit import nilmanifold as nil
from syzkit.calculus import exterior_d
from syzkit.cli import main as cli_main
from syzkit.coeffring import GaussianRational, I
from syzkit.exterior import Form, frame_expand
from syzkit.fourier import SemiflatPair
from syzkit.proptest import suite_operator_algebra
from syzkit.randgen import random_complex_side_form, trial_rng
from syzkit.sustruct import check_iia, check_iib, flux_iia, flux_iib, mirror_transform

from conftest import iwasawa_omega_check, random_symmetric_mu


def report(num, name, ok, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {name}: {status} ({elapsed:.2f}s, limit {limit}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.2f}s"


def index_subsets(n):
    out = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return out


def test_criterion_1_involution():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        pair = SemiflatPair(n)
        sign = GaussianRational(pair.fm_roundtrip_sign())
        for I_set in index_subsets(n):
            for J_set in index_subsets(n):
                m = pair.holo_monomial(I_set, J_set)
                if pair.fm_backward(pair.fm_forward(m)) != m * sign:
                    ok = False
    report(1, "transform-involution", ok, time.perf_counter() - t0, 10)


def test_criterion_2_closed_form_vs_integral():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        pair = SemiflatPair(n)
        for I_set in index_subsets(n):
            for J_set in index_subsets(n):
                if pair.fm_forward(pair.holo_monomial(I_set, J_set)) != pair.fm_monomial(
                    I_set, J_set
                ):
                    ok = False
    report(2, "closed-form-vs-integral", ok, time.perf_counter() - t0, 30)


def test_criterion_3_intertwining():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        pair = SemiflatPair(n)
        for trial in range(100):
            rng = trial_rng(5000 + n, trial)
            a = random_complex_side_form(rng, pair)
            r = pair.check_intertwining(a)
            if not r.passed:
                ok = False
    report(3, "intertwining", ok, time.perf_counter() - t0, 60)


def test_criterion_4_mirror_su_structures():
    t0 = time.perf_counter()
    ok = True
    for K in (3, 4):
        nd = nil.build(nil.upper_triangular(K))
        pair = nil.semiflat_pair(nil.upper_triangular(K))
        su_b = nil.build_iib_side(nd)
        su_a = mirror_transform(pair, nil.omega_hermitian(nd).transport(pair.frame_xc))
        ok &= check_iib(su_b).passed
        ok &= check_iia(su_a).passed
        prod = su_a.conformal_factor() * su_b.conformal_factor()
        ok &= prod == GaussianRational(2) ** (2 * nd.n)
    report(4, "mirror-su-structures", ok, time.perf_counter() - t0, 300)


def test_criterion_5_flux_correspondence(pair3):
    t0 = time.perf_counter()
    su_b_omega = iwasawa_omega_check(pair3)
    frame = pair3.frame_xc
    factors = [
        Form.gen(frame, f"dtc{k}") + Form.gen(frame, f"dr{k}") * I for k in (1, 2, 3)
    ]
    from syzkit.sustruct import SUStructure

    su_b = SUStructure(
        3,
        frame,
        su_b_omega,
        Omega_factors=factors,
    )
    su_a = mirror_transform(pair3, su_b_omega)
    rho_a, _ = flux_iia(su_a)
    rho_b, _ = flux_iib(su_b)
    ok = frame_expand(pair3.fm_backward(rho_a), pair3.frame_xc) == rho_b * (
        GaussianRational(2) ** 8
    )
    ok &= rho_a == Form.monomial(
        pair3.frame_x, ["dth3", "dr1", "dr2"], GaussianRational(-16)
    )
    ok &= rho_b == Form.monomial(
        pair3.frame_xc, ["dtc1", "dtc2", "dr1", "dr2"], GaussianRational(Fraction(-1, 4))
    )
    report(5, "flux-correspondence", ok, time.perf_counter() - t0, 30)


def test_criterion_6_nilmanifold_structure():
    t0 = time.perf_counter()
    ok = True
    for K in (3, 4):
        nd = nil.build(nil.upper_triangular(K))
        ok &= nil.structure_equations(nd).passed
        ok &= nil.check_gamma_invariance(nd).passed
        m = nil.dual_pairing_matrix(nd)
        ok &= m == [{i: 1} for i in range(nd.n)]
        omega = nil.omega_hermitian(nd)
        wk = Form.scalar(nd.x_coord, 1)
        for _ in range(nd.n - 2):
            wk = wk.wedge(omega)
        ok &= not exterior_d(wk).is_zero()
        ok &= exterior_d(wk.wedge(omega)).is_zero()
    report(6, "nilmanifold-structure", ok, time.perf_counter() - t0, 300)


def test_criterion_7_real_part_equivalence(pair3):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    seed = 0
    structures = [iwasawa_omega_check(pair3)]
    while len(structures) < 21 and seed < 100:
        rng = trial_rng(7000, seed)
        seed += 1
        mu = random_symmetric_mu(rng, 3, pair3.base_vars)
        w = Form.zero(pair3.frame_xc)
        for a in range(3):
            for b in range(3):
                if not mu[a][b].is_zero():
                    w = w + Form.monomial(pair3.frame_xc, [f"dtc{a+1}", f"dr{b+1}"], mu[a][b])
        from syzkit import linalg

        if linalg.poly_det(mu).is_zero():
            continue
        structures.append(w)
    for w in structures:
        su = mirror_transform(pair3, w)
        re = (su.Omega + su.Omega.conjugate()) * Fraction(1, 2)
        if re != su.pq_project(3, 0) + su.pq_project(1, 2):
            ok = False
        lhs = exterior_d(re).is_zero()
        rhs = (
            exterior_d(su.pq_project(3, 0)).is_zero()
            and exterior_d(su.pq_project(1, 2)).is_zero()
        )
        if lhs != rhs:
            ok = False
        checked += 1
    ok &= checked >= 21
    report(7, "real-part-equivalence", ok, time.perf_counter() - t0, 60)


def test_criterion_8_cohomology_mirror():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        pair = SemiflatPair(n)
        bc = coh.bc_complex(pair.holo_frame, 0)
        ty = coh.ty_complex(pair.frame_x, 0)
        for p in range(n + 1):
            for q in range(n + 1):
                rep, bcr, tyr = coh.mirror_compare(ty, bc, p, q, pair.fm_forward)
                expect = comb(n, p) * comb(n, q)
                ok &= rep.passed and bcr.dim == expect and tyr.dim == expect
    pair = nil.semiflat_pair(nil.upper_triangular(3))
    baselines = {(0, 1, 1): 9, (0, 2, 2): 9, (1, 1, 1): 19, (1, 2, 2): 30,
                 (2, 1, 1): 28, (2, 2, 2): 58}
    for D in (0, 1, 2):
        bc = coh.bc_complex(pair.holo_frame, D)
        ty = coh.ty_complex(pair.frame_x, D)
        for (p, q) in ((1, 1), (2, 2)):
            rep, bcr, tyr = coh.mirror_compare(ty, bc, p, q, pair.fm_forward)
            ok &= rep.passed
            ok &= bcr.dim == tyr.dim == baselines[(D, p, q)]
    report(8, "cohomology-mirror", ok, time.perf_counter() - t0, 120)


def test_criterion_9_operator_algebra():
    t0 = time.perf_counter()
    rep = suite_operator_algebra(200, 424242)
    report(9, "operator-algebra", rep.passed, time.perf_counter() - t0, 60)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    runner = CliRunner()
    ok = True
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        ok &= runner.invoke(cli_main, ["nil", "--K", "3", "--out", str(d)]).exit_code == 0
        ok &= (
            runner.invoke(
                cli_main,
                ["proptest", "--suite", "intertwining", "--trials", "12", "--seed", "77",
                 "--out", str(d / "prop.json")],
            ).exit_code
            == 0
        )
        ok &= (
            runner.invoke(
                cli_main,
                ["cohomology", "--K", "3", "--which", "mirror", "--p", "1", "--q", "1",
                 "--degree", "1", "--out", str(d / "coh.json")],
            ).exit_code
            == 0
        )
        outs.append(d)
    for name in ("nil-K3-report.json", "iib-K3.json", "iia-K3.json", "prop.json", "coh.json"):
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(10, "determinism", ok, time.perf_counter() - t0, 120)
