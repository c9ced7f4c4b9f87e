import itertools
import random
from fractions import Fraction

import pytest

from syzkit import fourier
from syzkit.calculus import HOLO_SPLIT, dolbeault, exterior_d, polarization_switch
from syzkit.coeffring import GaussianRational, I, Poly
from syzkit.exterior import Form, FrameMismatch, GenClass, frame_collect, reversal_sign
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_complex_side_form, random_form

from conftest import brute_perm_sign, series_exp, wedge_chain


def index_subsets(n):
    out = []
    for k in range(n + 1):
        out.extend(itertools.combinations(range(1, n + 1), k))
    return out


def sign_of_concatenation(first, second):
    """Permutation sign of (first, second) relative to ascending order, by
    inversion counting over the index lists; 0 when an index repeats.  The
    oracle for the mask-based signs of `fm_monomial`."""
    seq = list(first) + list(second)
    if len(set(seq)) != len(seq):
        return 0
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def fm_monomial_oracle(pair, I_set, J_set):
    """(-1)^{(n-p)(n-p-1)/2} sign(I, I^c) dth_{I^c} ^ dr_J as a chain of
    wedges, with both signs counted over index lists."""
    n = pair.n
    comp = [i for i in range(1, n + 1) if i not in set(I_set)]
    k = n - len(I_set)
    s = sign_of_concatenation(sorted(I_set), comp) * (-1) ** (k * (k - 1) // 2)
    labels = [f"dth{i}" for i in comp] + [f"dr{j}" for j in sorted(J_set)]
    return wedge_chain(pair.frame_x, labels, s)


def backward_monomial_oracle(pair, theta_set, r_set):
    """Independent closed form for the symplectic-to-complex direction:
    dth_{I^c} ^ dr_J maps to (-1)^p (-1)^{p(p-1)/2} (-1)^{np} sign(I, I^c)
    dz_I ^ dzb_J, where I is the complement of the theta set and p = |I|."""
    n = pair.n
    I_set = [i for i in range(1, n + 1) if i not in set(theta_set)]
    p = len(I_set)
    s = sign_of_concatenation(I_set, sorted(theta_set))
    e = p + p * (p - 1) // 2 + n * p
    coeff = GaussianRational(s if e % 2 == 0 else -s)
    return pair.holo_monomial(I_set, r_set, coeff)


def forward_by_components(pair, form):
    """The per-bidegree route `fm_forward` once took: each (p, q) component of
    the complex-side form is switched onto the fiber product, wedged with
    exp(sum dtc_i ^ dth_i) (summed as a series here) and integrated over the
    mirror fibers, then read on the symplectic frame.  Returns the sum of the
    images and the image of each component."""
    corr = pair.frame_corr
    mirror = [g.label for g in corr.generators if g.leg_class is GenClass.FIBER_MIRROR]
    curvature = Form.zero(corr)
    for tc, tx in zip(mirror, pair.fiber_x_labels):
        curvature = curvature + Form.monomial(corr, [tc, tx])
    exp_curvature = series_exp(curvature)
    images = {}
    for pq, comp in pair.to_complex_side(form).bidegree_components(HOLO_SPLIT).items():
        lifted = polarization_switch(comp, corr)
        integrated = lifted.wedge_pushforward(exp_curvature, GenClass.FIBER_MIRROR)
        images[pq] = integrated.transport(pair.frame_x)
    return sum(images.values(), Form.zero(pair.frame_x)), images


def mixed_bidegree_forms(pair, frame, seed, count=6):
    """`count` seeded random forms on `frame` whose complex-side reading has
    at least two (p, q) components."""
    rng = random.Random(seed)
    forms = []
    while len(forms) < count:
        form = random_form(rng, frame, 6, 2)
        if len(pair.to_complex_side(form).bidegree_components(HOLO_SPLIT)) > 1:
            forms.append(form)
    return forms


class TestSignOfConcatenation:
    def test_against_brute_force(self):
        for n in range(1, 6):
            for I_set in index_subsets(n):
                comp = [i for i in range(1, n + 1) if i not in set(I_set)]
                assert sign_of_concatenation(I_set, comp) == brute_perm_sign(
                    list(I_set) + comp
                )

    def test_repeats_give_zero(self):
        assert sign_of_concatenation([1], [1, 2]) == 0


def test_reversal_sign_is_the_sign_of_the_reversal():
    for k in range(13):
        assert reversal_sign(k) == brute_perm_sign(list(range(k, 0, -1))), k


class TestForwardTransform:
    def test_constant_n3(self, pair3):
        got = pair3.fm_forward(Form.scalar(pair3.holo_frame, 1))
        assert got == Form.monomial(
            pair3.frame_x, ["dth1", "dth2", "dth3"], GaussianRational(-1)
        )

    def test_dz1_n3(self, pair3):
        got = pair3.fm_forward(pair3.holo_monomial([1], []))
        assert got == Form.monomial(pair3.frame_x, ["dth2", "dth3"], GaussianRational(-1))

    def test_exp_two_omega_flat_n2(self, pair2):
        f = pair2.frame_xc
        w = Form.monomial(f, ["dtc1", "dr1"]) + Form.monomial(f, ["dtc2", "dr2"])
        got = pair2.fm_forward(frame_collect(w * 2, pair2.holo_frame).exp_nilpotent())
        eta1 = Form.gen(pair2.frame_x, "dth1") + Form.gen(pair2.frame_x, "dr1") * I
        eta2 = Form.gen(pair2.frame_x, "dth2") + Form.gen(pair2.frame_x, "dr2") * I
        assert got == -(eta1.wedge(eta2))

    def test_accepts_real_frame_input(self, pair2):
        a = Form.monomial(pair2.frame_xc, ["dr1"], Poly.variable("r2"))
        via_real = pair2.fm_forward(a)
        via_holo = pair2.fm_forward(frame_collect(a, pair2.holo_frame))
        assert via_real == via_holo

    def test_rejects_wrong_side(self, pair2):
        with pytest.raises(FrameMismatch):
            pair2.fm_forward(Form.gen(pair2.frame_x, "dth1"))

    def test_rejects_fiber_dependent_coefficients(self, pair2):
        bad = Form.scalar(pair2.holo_frame, 1) * Poly.variable("th1")
        with pytest.raises(ValueError):
            pair2.fm_forward(bad)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_leg_counts(self, n):
        pair = SemiflatPair(n)
        for I_set in index_subsets(n):
            for J_set in index_subsets(n):
                out = pair.fm_forward(pair.holo_monomial(I_set, J_set))
                assert out.leg_count(GenClass.FIBER_X) == {n - len(I_set)}
                assert out.leg_count(GenClass.BASE) == {len(J_set)}


class TestOnePassAgainstComponents:
    """`fm_forward` runs the whole form through one pass; the route it
    replaced, one pass per (p, q) component, is the oracle."""

    @pytest.mark.parametrize("side", ["holo_frame", "frame_xc"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_the_component_sum(self, n, side):
        pair = SemiflatPair(n)
        for form in mixed_bidegree_forms(pair, getattr(pair, side), 100 * n):
            got = pair.fm_forward(form)
            want, images = forward_by_components(pair, form)
            assert got == want and got.to_json() == want.to_json()
            # a (p, q) component lands on n - p fiber legs and q base legs
            for (p, q), image in images.items():
                assert image.leg_count(GenClass.FIBER_X) == {n - p}, (p, q)
                assert image.leg_count(GenClass.BASE) == {q}, (p, q)

    def test_a_mutated_pass_fails_it(self):
        # exp(-F) in place of exp(F) flips the sign of each component with
        # n - p odd
        pair = SemiflatPair(3)
        pair._exp_plus = pair._exp_minus
        forms = mixed_bidegree_forms(pair, pair.holo_frame, 300)
        assert any(pair.fm_forward(f) != forward_by_components(pair, f)[0] for f in forms)


class TestClosedFormRule:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_the_index_list_oracle(self, n):
        pair = SemiflatPair(n)
        js = dict.fromkeys([(), (1,), (n,), tuple(range(1, n + 1))])
        for I_set in index_subsets(n):
            for J_set in js:
                got = pair.fm_monomial(I_set, J_set)
                want = fm_monomial_oracle(pair, I_set, J_set)
                assert got == want and got.to_json() == want.to_json(), (n, I_set, J_set)

    @pytest.mark.parametrize("I_set, J_set", [([1, 1], []), ([2, 1, 2], [3]), ([1], [2, 2])])
    def test_repeated_index_gives_zero(self, pair3, I_set, J_set):
        assert pair3.fm_monomial(I_set, J_set).is_zero()

    @pytest.mark.parametrize("method", ["fm_monomial", "holo_monomial"])
    @pytest.mark.parametrize("I_set, J_set", [([0], []), ([], [-1]), ([4], []), ([], [1, 4])])
    def test_rejects_indices_outside_1_to_n(self, pair3, method, I_set, J_set):
        # holo_monomial once read 0 as dz3 and -1 as dz2b
        with pytest.raises(ValueError, match="indices must lie in 1..n"):
            getattr(pair3, method)(I_set, J_set)

    def test_full_holomorphic_set_is_constant(self, pair3):
        got = pair3.fm_monomial([1, 2, 3], [])
        assert got == Form.scalar(pair3.frame_x, 1)

    def test_empty_I_single_J(self, pair3):
        got = pair3.fm_monomial([], [1])
        assert got == Form.monomial(
            pair3.frame_x, ["dth1", "dth2", "dth3", "dr1"], GaussianRational(-1)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_integral_path(self, n):
        pair = SemiflatPair(n)
        for I_set in index_subsets(n):
            for J_set in index_subsets(n):
                assert pair.fm_forward(pair.holo_monomial(I_set, J_set)) == pair.fm_monomial(
                    I_set, J_set
                ), (n, I_set, J_set)


class TestBackwardTransform:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_backward_closed_form_oracle(self, n):
        pair = SemiflatPair(n)
        for theta_set in index_subsets(n):
            for r_set in index_subsets(n):
                labels = [f"dth{i}" for i in theta_set] + [f"dr{j}" for j in r_set]
                a = Form.monomial(pair.frame_x, labels)
                assert pair.fm_backward(a) == backward_monomial_oracle(
                    pair, theta_set, r_set
                ), (n, theta_set, r_set)

    def test_backward_of_minus_dth123(self, pair3):
        # inverting the image of 1 through the involution: the sign is the
        # involution sign -1, not +1
        a = Form.monomial(pair3.frame_x, ["dth1", "dth2", "dth3"], GaussianRational(-1))
        assert pair3.fm_backward(a) == Form.scalar(pair3.holo_frame, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_involution_exhaustive(self, n):
        pair = SemiflatPair(n)
        sign = GaussianRational(pair.fm_roundtrip_sign())
        for I_set in index_subsets(n):
            for J_set in index_subsets(n):
                m = pair.holo_monomial(I_set, J_set)
                assert pair.fm_backward(pair.fm_forward(m)) == m * sign

    @pytest.mark.parametrize("seed", range(20))
    def test_involution_random_linear(self, pair3, seed):
        rng = random.Random(seed)
        a = random_complex_side_form(rng, pair3)
        sign = GaussianRational(pair3.fm_roundtrip_sign())
        assert pair3.fm_backward(pair3.fm_forward(a)) == a * sign

    def test_other_composition_order(self, pair2):
        rng = random.Random(77)
        sign = GaussianRational(pair2.fm_roundtrip_sign())
        for _ in range(10):
            a = random_complex_side_form(rng, pair2)
            fwd = pair2.fm_forward(a)
            assert pair2.fm_forward(pair2.fm_backward(fwd)) == fwd * sign


class TestIntertwining:
    def test_intertwining_constant(self):
        for n in range(1, 13):
            assert fourier.intertwining_constant(n) == I * Fraction((-1) ** n, 2), n

    def test_gr_dzb1_n1(self, pair1):
        # both sides vanish identically for a (0,1) form in rank one
        g = Poly.variable("r1")
        a = Form.monomial(pair1.holo_frame, ["dz1b"], g)
        rep = pair1.check_intertwining(a)
        assert rep.passed
        assert pair1.fm_forward(a) == Form.monomial(pair1.frame_x, ["dth1", "dr1"], g)

    def test_constant_monomial_both_sides_zero(self, pair3):
        a = pair3.holo_monomial([1], [2])
        rep = pair3.check_intertwining(a)
        assert rep.passed
        assert pair3.fm_forward(exterior_d(Form.zero(pair3.frame_xc))).is_zero()

    def test_explicit_function_case(self, pair1):
        # FT(dbar g) and -(i/2) d FT(g) computed independently
        g = Poly.variable("r1") ** 2
        a = Form.scalar(pair1.holo_frame, 1) * g
        lhs = pair1.fm_forward(
            Form.monomial(pair1.holo_frame, ["dz1b"], g.diff("r1") * (I * Fraction(1, 2)))
        )
        ft_a = pair1.fm_forward(a)
        rhs = exterior_d(ft_a) * (I * Fraction(-1, 2))
        assert lhs == rhs

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_campaign(self, n):
        pair = SemiflatPair(n)
        for seed in range(25):
            rng = random.Random(1000 * n + seed)
            a = random_complex_side_form(rng, pair)
            rep = pair.check_intertwining(a)
            assert rep.passed, (n, seed)

    def test_difference_witness_shape(self, pair2):
        rng = random.Random(4)
        a = random_complex_side_form(rng, pair2)
        rep = pair2.check_intertwining(a)
        assert [(i.id, i.status, i.witness) for i in rep.items] == [
            ("d-intertwines-dbar", "pass", None),
            ("dlambda-intertwines-del", "pass", None),
        ]

    def test_failing_identity_is_witnessed_by_its_difference(self, pair2, monkeypatch):
        # with d replaced by zero on the symplectic side, the d identity reads
        # FT(dbar phi) = 0, so its witness is FT(dbar phi); d^Lambda keeps
        # its own d and still passes
        a = Form.scalar(pair2.holo_frame, 1) * Poly.variable("r1") ** 2
        _, dbar_a = dolbeault(a, pair2.holo_frame)
        want = pair2.fm_forward(dbar_a)
        assert not want.is_zero()
        monkeypatch.setattr(fourier, "exterior_d", lambda form: Form.zero(form.frame))
        rep = pair2.check_intertwining(a)
        assert [(i.id, i.status, i.witness) for i in rep.items] == [
            ("d-intertwines-dbar", "fail", str(want)),
            ("dlambda-intertwines-del", "pass", None),
        ]
