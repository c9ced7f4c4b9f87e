import random
from fractions import Fraction

import pytest

from syzkit.coeffring import GaussianRational, Poly
from syzkit.exterior import Form
from syzkit.fourier import SemiflatPair
from syzkit.randgen import _below, random_form, random_poly, random_scalar


def random_form_oracle(rng, frame, max_terms=4, max_degree=2, degrees=None, complex_ok=True):
    """The mask list rebuilt on every draw, and each drawn term added as a
    new Form, as `random_form` once did."""
    size = len(frame)
    masks = list(range(1 << size))
    if degrees is not None:
        allowed = set(degrees)
        masks = [m for m in masks if m.bit_count() in allowed]
    out = Form.zero(frame)
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(masks)
        p = random_poly(rng, frame.base_vars, max_degree, 2, complex_ok)
        out = out + Form(frame, {m: p})
    return out


@pytest.mark.parametrize("side", ["frame_corr", "frame_x", "holo_frame"])
def test_random_form_draws_as_the_rebuilt_mask_list(side):
    frame = getattr(SemiflatPair(3), side)
    for seed in range(500):
        for degrees in (None, [seed % (len(frame) + 1)]):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_form(got_rng, frame, degrees=degrees, complex_ok=seed % 3 > 0)
            want = random_form_oracle(want_rng, frame, degrees=degrees, complex_ok=seed % 3 > 0)
            assert got == want and got.to_json() == want.to_json(), (seed, degrees)
            assert got_rng.getstate() == want_rng.getstate(), (seed, degrees)


def test_random_form_keeps_to_the_degrees(pair2):
    rng = random.Random(7)
    for _ in range(50):
        assert random_form(rng, pair2.frame_x, degrees=[1, 3]).degrees() <= {1, 3}


def random_scalar_by_fractions(rng, complex_ok=True):
    """Oracle for random_scalar: both parts drawn as Fractions, the imaginary
    part first, and handed to the public constructor."""

    def rational():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))

    im = rational() if complex_ok and rng.random() < 0.5 else 0
    return GaussianRational(rational(), im)


def random_poly_by_fractions(rng, vars, max_degree=2, max_terms=3, complex_ok=True):
    """random_poly drawing its coefficients from the Fraction oracle."""
    vs = tuple(sorted(vars))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * len(vs)
        for _ in range(rng.randint(0, max_degree)):
            if vs:
                e[rng.randrange(len(vs))] += 1
        terms[tuple(e)] = random_scalar_by_fractions(rng, complex_ok)
    return Poly(vs, terms)


@pytest.mark.parametrize("complex_ok", [True, False])
def test_random_scalar_draws_as_the_fraction_route(complex_ok):
    for seed in range(3000):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = random_scalar(got_rng, complex_ok)
        want = random_scalar_by_fractions(want_rng, complex_ok)
        assert (got._a, got._b, got._d) == (want._a, want._b, want._d), seed
        assert got_rng.getstate() == want_rng.getstate(), seed


@pytest.mark.parametrize("complex_ok", [True, False])
def test_random_poly_draws_as_the_fraction_route(complex_ok):
    for seed in range(3000):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        vars = ("r1", "r2", "r3")[: seed % 4]
        got = random_poly(got_rng, vars, complex_ok=complex_ok)
        want = random_poly_by_fractions(want_rng, vars, complex_ok=complex_ok)
        assert got.to_json() == want.to_json(), seed
        assert got_rng.getstate() == want_rng.getstate(), seed


def test_degrees_no_mask_has_raise_index_error(pair2):
    with pytest.raises(IndexError):
        random_form(random.Random(0), pair2.frame_x, degrees=[99])


@pytest.mark.parametrize("n", [0, -1])
def test_empty_range_raises_rather_than_draws_forever(n):
    calls = []

    def bits(k):
        calls.append(k)
        return 0

    with pytest.raises(ValueError, match="empty range"):
        _below(bits, n)
    assert calls == []


def test_below_draws_as_randrange():
    for seed in range(200):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 5, 8, 9, 16, 17, 100):
            assert _below(got_rng.getrandbits, n) == want_rng.randrange(n), (seed, n)
            assert _below(got_rng.getrandbits, n) == want_rng.randint(0, n - 1), (seed, n)
            assert _below(got_rng.getrandbits, n) == want_rng.choice(range(n)), (seed, n)
        assert got_rng.getstate() == want_rng.getstate(), seed
