import random

import pytest

from syzkit.exterior import Form
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_form, random_poly


def random_form_oracle(rng, frame, max_terms=4, max_degree=2, degrees=None, complex_ok=True):
    """The mask list rebuilt on every draw, as `random_form` once did."""
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
            got = random_form(random.Random(seed), frame, degrees=degrees)
            assert got == random_form_oracle(random.Random(seed), frame, degrees=degrees), (seed, degrees)


def test_random_form_keeps_to_the_degrees(pair2):
    rng = random.Random(7)
    for _ in range(50):
        assert random_form(rng, pair2.frame_x, degrees=[1, 3]).degrees() <= {1, 3}
