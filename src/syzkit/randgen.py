"""Seeded random generators for property campaigns.

Plain `random.Random` with per-trial derived seeds keeps every campaign
bit-reproducible, which the report contract requires.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Optional, Sequence

from .coeffring import GaussianRational, Poly, _accumulate, _poly, _reduced, _universe
from .exterior import Form, FrameSpec, _form
from .fourier import SemiflatPair


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed * 1000003 + trial) & 0xFFFFFFFF)


# a numerator in [-4, 4] over one of these denominators, drawn by `choice`
_DENOMINATORS = (1, 1, 1, 2, 3)


def random_scalar(rng: random.Random, complex_ok: bool = True) -> GaussianRational:
    """re + i*im with re and im drawn as numerator then denominator, the
    imaginary part first (half the time, when `complex_ok`)."""
    if complex_ok and rng.random() < 0.5:
        b, db = rng.randint(-4, 4), rng.choice(_DENOMINATORS)
    else:
        b, db = 0, 1
    a, da = rng.randint(-4, 4), rng.choice(_DENOMINATORS)
    return _reduced(a * db, b * da, da * db)


def random_poly(
    rng: random.Random,
    vars: Sequence[str],
    max_degree: int = 2,
    max_terms: int = 3,
    complex_ok: bool = True,
) -> Poly:
    """A draw of up to `max_terms` terms; a later draw of the same exponents
    replaces the earlier one.  The universe is checked once, and the drawn
    scalars are already normalized, so the result is built unchecked."""
    vs = _universe(sorted(vars))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_degree)
        e = [0] * len(vs)
        for _ in range(budget):
            if vs:
                e[rng.randrange(len(vs))] += 1
        terms[tuple(e)] = random_scalar(rng, complex_ok)
    return _poly(vs, {e: c for e, c in terms.items() if c})


def random_form(
    rng: random.Random,
    frame: FrameSpec,
    max_terms: int = 4,
    max_degree: int = 2,
    degrees: Optional[Sequence[int]] = None,
    complex_ok: bool = True,
) -> Form:
    """Random invariant form; optionally restricted to the given form degrees."""
    size = len(frame)
    # `choice` indexes its argument, so a range draws exactly as its list would
    masks = range(1 << size) if degrees is None else _masks_of_degrees(size, frozenset(degrees))
    terms: dict[int, Poly] = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(masks)
        p = random_poly(rng, frame.base_vars, max_degree, 2, complex_ok)
        if p:
            _accumulate(terms, m, p)
    return _form(frame, terms)


@cache
def _masks_of_degrees(size: int, degrees: frozenset[int]) -> tuple[int, ...]:
    """The generator masks of a size-`size` frame whose degree is in `degrees`."""
    return tuple(m for m in range(1 << size) if m.bit_count() in degrees)


def random_complex_side_form(
    rng: random.Random,
    pair: SemiflatPair,
    max_terms: int = 3,
    max_degree: int = 2,
) -> Form:
    """Random form on the dz/dzb monomial frame of the pair."""
    return random_form(rng, pair.holo_frame, max_terms, max_degree)

