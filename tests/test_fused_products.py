"""Every sparse product runs through one fused multiply-accumulate kernel
(`coeffring._mul_into`, settled by `coeffring._settle`).  The per-pair path it
replaced, `GaussianRational` products summed by `_accumulate`, stays here as
the oracle for each caller, compared in == and in to_json(), on seeded
operands whose coefficients have denominators 1, 2 and 3 and nonzero
imaginary parts.  The Koszul masks that sign the wedge loops (and define
`koszul_sign`) are checked against a selection-sort permutation sign on every
disjoint pair of masks.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from syzkit import linalg
from syzkit.coeffring import DEGREE_BOUND, GaussianRational, Poly, _accumulate, _poly, _signed_product
from syzkit.exterior import (
    Form,
    GenClass,
    bits,
    frame_expand,
    koszul_mask,
    koszul_sign,
    substitute_generators,
)
from syzkit.fourier import SemiflatPair
from syzkit.sustruct import _volume_square_top

from conftest import brute_perm_sign, subsets
from test_calculus import oracle_frame

VARS = ("r1", "r2", "r3")
OVERFLOW = f"a product reaches the total degree bound {DEGREE_BOUND}"


# -- the per-pair path, kept as the oracle ---------------------------------------


def product_by_pairs(p, q):
    """Oracle for Poly.__mul__: one GaussianRational product per pair of
    terms, summed by `_accumulate`, then the degree-bound check."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            _accumulate(terms, m1 + m2, c1 * c2)
    if any(m & DEGREE_BOUND for m in terms):
        raise OverflowError(OVERFLOW)
    return _poly(terms)


def wedge_by_pairs(a, b):
    """Oracle for Form.wedge: per pair of terms, `koszul_sign` and
    `product_by_pairs`, summed by `_accumulate`."""
    out = {}
    for m1, p1 in a.terms.items():
        for m2, p2 in b.terms.items():
            if not m1 & m2:
                p = product_by_pairs(p1, p2)
                _accumulate(out, m1 | m2, p if koszul_sign(m1, m2) > 0 else -p)
    return Form(a.frame, out)


def exp_by_series(form):
    """Oracle for Form.exp_nilpotent: sum_k form^k / k!, each power by
    `wedge_by_pairs`."""
    out = power = Form.scalar(form.frame, 1)
    k = fact = 1
    while True:
        power = wedge_by_pairs(power, form)
        if power.is_zero():
            return out
        out = out + power * Fraction(1, fact)
        k += 1
        fact *= k


def substitute_by_pairs(form, target, images):
    """Oracle for substitute_generators: each monomial's image a chain of
    `wedge_by_pairs` onto its coefficient."""
    out = {}
    for m, c in form.terms.items():
        term = Form(target, {0: c})
        for i in bits(m):
            term = wedge_by_pairs(term, images[i])
        for tm, tp in term.terms.items():
            _accumulate(out, tm, tp)
    return Form(target, out)


def row_product_by_pairs(a, b):
    """Oracle for linalg.poly_row_product: entry (i, j) the `_accumulate`d
    sum of `product_by_pairs` over the nonzero a[i][k] and b[k][j]."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                _accumulate(acc, j, product_by_pairs(x, y))
        out.append(acc)
    return out


def volume_square_top_by_pairs(omega, n):
    """Oracle for sustruct._volume_square_top: the top coefficient of
    Omega ^ conj(Omega), one signed `product_by_pairs` per term of Omega."""
    top = (1 << 2 * n) - 1
    acc = {}
    for m, c in omega.terms.items():
        d = omega.terms.get(top ^ m)
        if d is not None:
            p = product_by_pairs(c, d.conjugate())
            _accumulate(acc, 0, p if koszul_sign(m, top ^ m) > 0 else -p)
    return acc.get(0, Poly())


# -- seeded operands -------------------------------------------------------------


def scalar(rng):
    """A nonzero Gaussian rational over denominators 1, 2 and 3, real,
    imaginary or neither."""
    while True:
        re = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        im = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) if rng.random() < 0.6 else 0
        if re or im:
            return GaussianRational(re, im)


def poly(rng, max_terms=4, max_degree=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(VARS)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(VARS))] += 1
        terms[tuple(exps)] = scalar(rng)
    return Poly(VARS, terms)


def form(rng, frame, max_terms=4, degrees=None):
    size = len(frame)
    masks = [m for m in range(1 << size) if degrees is None or m.bit_count() in degrees]
    return Form(frame, {rng.choice(masks): poly(rng) for _ in range(rng.randint(1, max_terms))})


def assert_same(got, want):
    assert got == want
    assert got.to_json() == want.to_json()


# -- the kernel behind Poly.__mul__ ------------------------------------------------


class TestPolyProduct:
    def test_seeded_products(self):
        rng = random.Random(3300)
        for _ in range(300):
            p, q = poly(rng), poly(rng)
            assert_same(p * q, product_by_pairs(p, q))

    def test_constant_operands(self):
        rng = random.Random(3301)
        for _ in range(50):
            p, c = poly(rng), Poly.constant(scalar(rng))
            assert_same(p * c, product_by_pairs(p, c))
            assert_same(c * p, product_by_pairs(c, p))

    def test_signed_products(self):
        # negate odd or even, a constant (1 and -1 among them) on either
        # side or none
        rng = random.Random(3302)
        constants = [Poly.constant(1), Poly.constant(-1)] + [Poly.constant(scalar(rng)) for _ in range(20)]
        for c in constants:
            p, q = poly(rng), poly(rng)
            for negate in (0, 1, 2, 3):
                for x, y in ((p, c), (c, p), (c, c), (p, q)):
                    want = product_by_pairs(x, y)
                    assert_same(_signed_product(x, y, negate), -want if negate & 1 else want)

    def test_unequal_denominators_meet_on_one_monomial(self):
        # (x/2 + 1/3)(x/3 + 1/2): the x terms 1/4 and 1/9 sum over 36
        x = Poly.variable("r1")
        p = x * Fraction(1, 2) + Fraction(1, 3)
        q = x * Fraction(1, 3) + Fraction(1, 2)
        want = Poly(("r1",), {(2,): Fraction(1, 6), (1,): Fraction(13, 36), (0,): Fraction(1, 6)})
        assert_same(p * q, want)
        assert_same(p * q, product_by_pairs(p, q))

    def test_cancelling_terms_are_dropped(self):
        # (x + i y)(x - i y) = x^2 + y^2: the cross terms sum to zero
        x, y = Poly.variable("r1"), Poly.variable("r2")
        i = GaussianRational(0, 1)
        got = (x + y * i) * (x - y * i)
        assert_same(got, x * x + y * y)
        assert_same(got, product_by_pairs(x + y * i, x - y * i))
        assert len(got.terms) == 2

    def test_normalized_once_from_unreduced_sums(self):
        # (1 + i)/2 squared is i/2, and 1/2 + 1/2 is 1: every settled
        # triple is in lowest terms
        h = Poly.constant(GaussianRational(Fraction(1, 2), Fraction(1, 2)))
        x = Poly.variable("r1")
        assert_same((h + x) * (h + x), product_by_pairs(h + x, h + x))
        half = x * Fraction(1, 2) + Fraction(1, 2)
        assert_same(half * (x + 1), product_by_pairs(half, x + 1))

    def test_degree_bound_message(self):
        top = Poly.variable("r1") ** (DEGREE_BOUND - 1)
        r1 = Poly.variable("r1") + 1
        with pytest.raises(OverflowError) as want:
            product_by_pairs(top, r1)
        with pytest.raises(OverflowError) as got:
            top * r1
        assert str(got.value) == str(want.value) == OVERFLOW


# -- the kernel behind the form products -----------------------------------------

FORM_FRAMES = [(1, "frame_corr"), (2, "frame_corr"), (2, "holo_frame"), (3, "frame_x"), ("K3", "x_frame")]
FORM_IDS = [f"{size}-{side}" for size, side in FORM_FRAMES]


class TestFormProducts:
    @pytest.mark.parametrize("case", FORM_FRAMES, ids=FORM_IDS)
    def test_wedge(self, case):
        frame = oracle_frame(case)
        rng = random.Random(3400 + FORM_FRAMES.index(case))
        for _ in range(40):
            a, b = form(rng, frame), form(rng, frame)
            assert_same(a.wedge(b), wedge_by_pairs(a, b))

    def test_odd_form_squares_to_zero(self, pair2):
        # every pair's product cancels against its transpose: the zero form
        rng = random.Random(3410)
        for _ in range(20):
            a = form(rng, pair2.frame_corr, degrees={1, 3})
            assert a.wedge(a).terms == {}
            assert wedge_by_pairs(a, a).terms == {}

    def test_wedge_degree_bound_message(self, pair2):
        f = pair2.frame_corr
        top = Form.monomial(f, ["dth1"], Poly.variable("r1") ** (DEGREE_BOUND - 1))
        one = Form.monomial(f, ["dth2"], Poly.variable("r1"))
        with pytest.raises(OverflowError) as want:
            wedge_by_pairs(top, one)
        with pytest.raises(OverflowError) as got:
            top.wedge(one)
        assert str(got.value) == str(want.value) == OVERFLOW

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exp_nilpotent(self, n):
        frame = SemiflatPair(n).frame_corr
        rng = random.Random(3420 + n)
        for _ in range(15):
            a = form(rng, frame, max_terms=3, degrees={2, 4})
            assert_same(a.exp_nilpotent(), exp_by_series(a))

    # at odd n the fiber block's sign against the legs left over varies
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("cls", [GenClass.FIBER_X, GenClass.FIBER_MIRROR], ids=lambda c: c.value)
    def test_wedge_pushforward(self, n, cls):
        frame = SemiflatPair(n).frame_corr
        rng = random.Random(3430 + n)
        for _ in range(60):
            a, b = form(rng, frame), form(rng, frame)
            assert_same(a.wedge_pushforward(b, cls), wedge_by_pairs(a, b).pushforward(cls))

    @pytest.mark.parametrize("case", [(2, "holo_frame"), ("K3", "x_frame"), ("K3", "xc_frame")],
                             ids=["2-holo_frame", "K3-x_frame", "K3-xc_frame"])
    def test_substitute_generators_and_frame_expand(self, case):
        frame = oracle_frame(case)
        coord = frame.generators[0].coord_expansion.frame
        images = {i: g.coord_expansion for i, g in enumerate(frame.generators)}
        rng = random.Random(3440)
        for _ in range(20):
            a = form(rng, frame)
            want = substitute_by_pairs(a, coord, images)
            assert_same(substitute_generators(a, coord, images), want)
            assert_same(frame_expand(a, coord), want)


# -- the kernel behind the matrix and top-pairing products ---------------------------


def test_poly_row_product():
    rng = random.Random(3500)
    for _ in range(30):
        n, k, p = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a = [{j: poly(rng) for j in range(k) if rng.random() < 0.6} for _ in range(n)]
        b = [{j: poly(rng) for j in range(p) if rng.random() < 0.6} for _ in range(k)]
        got = linalg.poly_row_product(a, b)
        want = row_product_by_pairs(a, b)
        assert [sorted(row) for row in got] == [sorted(row) for row in want]
        for g, w in zip(got, want):
            for j in g:
                assert_same(g[j], w[j])


def test_poly_row_product_drops_cancelled_entries():
    # [x, 1] . [[1], [-x]] = 0: the one entry sums to zero and is left out
    x = Poly.variable("r1")
    assert linalg.poly_row_product([{0: x, 1: Poly.constant(1)}], [{0: Poly.constant(1)}, {0: -x}]) == [{}]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_volume_square_top(n):
    frame = SemiflatPair(n).frame_x
    rng = random.Random(3600 + n)
    for _ in range(15):
        omega = form(rng, frame, max_terms=6, degrees={n})
        got = _volume_square_top(SimpleNamespace(Omega=omega, n=n))
        assert_same(got, volume_square_top_by_pairs(omega, n))


# -- the Koszul masks --------------------------------------------------------------


def test_koszul_mask_sign_on_every_disjoint_pair():
    # every pair of disjoint masks over 8 generators, so over at most 8,
    # against the sign of sorting a's legs followed by b's
    full = (1 << 8) - 1
    for a in range(full + 1):
        q = koszul_mask(a)
        rest = full ^ a
        b = rest
        while True:
            want = brute_perm_sign(list(bits(a)) + list(bits(b)))
            assert (-1 if (b & q).bit_count() & 1 else 1) == koszul_sign(a, b) == want, (a, b)
            if not b:
                break
            b = (b - 1) & rest


def test_koszul_mask_bits():
    # bit j counts the legs of a above j; a leg of a sees the legs above it
    assert koszul_mask(0) == 0
    for legs in subsets(range(6)):
        a = sum(1 << i for i in legs)
        q = koszul_mask(a)
        for j in range(8):
            assert q >> j & 1 == sum(1 for i in legs if i > j) % 2
