"""Seeded random generators for property campaigns.

Plain `random.Random` with per-trial derived seeds keeps every campaign
bit-reproducible, which the report contract requires.

Every integer draw reads the generator's bits directly by CPython's rejection
rule (`_below`): k = n.bit_length() bits from `getrandbits`, drawn again while
the value is n or more.  That is exactly what `randint(a, b)` (n = b - a + 1),
`randrange(n)` and `choice` (n = its length) consume and return, so a draw
here and one through those methods leave the generator in the same state.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable, Optional, Sequence

from .coeffring import (
    DEGREE_BOUND, GaussianRational, Poly, _accumulate, _poly, _reduced, _universe, variable_monomial,
)
from .exterior import Form, FrameSpec, _form
from .fourier import SemiflatPair


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed * 1000003 + trial) & 0xFFFFFFFF)


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from [0, n) through `bits` (a generator's `getrandbits`), as
    `randrange(n)` makes it.  An empty range (n < 1) raises ValueError, as
    `randrange` does, instead of drawing forever."""
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


# a numerator in [-4, 4] over one of these denominators, drawn as by `choice`
_DENOMINATORS = (1, 1, 1, 2, 3)


def _ratio_draw(bits: Callable[[int], int]) -> tuple[int, int]:
    """(numerator, denominator): `_below(bits, 9) - 4`, then
    `_DENOMINATORS[_below(bits, 5)]`, written out since every scalar draws
    them."""
    n = bits(4)
    while n >= 9:
        n = bits(4)
    d = bits(3)
    while d >= 5:
        d = bits(3)
    return n - 4, _DENOMINATORS[d]


def random_scalar(rng: random.Random, complex_ok: bool = True) -> GaussianRational:
    """re + i*im with re and im drawn as numerator then denominator, the
    imaginary part first (half the time, when `complex_ok`)."""
    bits = rng.getrandbits
    b, db = _ratio_draw(bits) if complex_ok and rng.random() < 0.5 else (0, 1)
    a, da = _ratio_draw(bits)
    return _reduced(a * db, b * da, da * db)


def random_poly(
    rng: random.Random,
    vars: Sequence[str],
    max_degree: int = 2,
    max_terms: int = 3,
    complex_ok: bool = True,
) -> Poly:
    """A draw of up to `max_terms` terms, each monomial a sum of `budget`
    variable monomials drawn from the sorted `vars`; a later draw of the same
    monomial replaces the earlier one.  The variables are checked once, and
    the drawn scalars are already normalized, so the result is built
    unchecked."""
    if max_degree >= DEGREE_BOUND:
        raise ValueError(f"max_degree {max_degree} reaches the total degree bound {DEGREE_BOUND}")
    units = _variable_monomials(tuple(vars))
    bits = rng.getrandbits
    nv = len(units)
    terms = {}
    for _ in range(1 + _below(bits, max_terms)):
        budget = _below(bits, max_degree + 1)
        m = 0
        if nv:
            for _ in range(budget):
                m += units[_below(bits, nv)]
        terms[m] = random_scalar(rng, complex_ok)
    return _poly({m: c for m, c in terms.items() if c})


def random_form(
    rng: random.Random,
    frame: FrameSpec,
    max_terms: int = 4,
    max_degree: int = 2,
    degrees: Optional[Sequence[int]] = None,
    complex_ok: bool = True,
) -> Form:
    """Random invariant form; optionally restricted to the given form degrees
    (a set no mask has raises IndexError, as `choice` of nothing does)."""
    size = len(frame)
    masks = range(1 << size) if degrees is None else _masks_of_degrees(size, frozenset(degrees))
    if not masks:
        raise IndexError(f"no generator monomial of degree {sorted(degrees)} on {frame!r}")
    bits = rng.getrandbits
    terms: dict[int, Poly] = {}
    for _ in range(1 + _below(bits, max_terms)):
        m = masks[_below(bits, len(masks))]
        p = random_poly(rng, frame.base_vars, max_degree, 2, complex_ok)
        if p:
            _accumulate(terms, m, p)
    return _form(frame, terms)


@cache
def _variable_monomials(vars: tuple[str, ...]) -> tuple[int, ...]:
    """The monomials of `vars` in name order; the names must be unique."""
    return tuple(map(variable_monomial, _universe(sorted(vars))))


@cache
def _masks_of_degrees(size: int, degrees: frozenset[int]) -> tuple[int, ...]:
    """The generator masks of a size-`size` frame whose degree is in `degrees`."""
    return tuple(m for m in range(1 << size) if m.bit_count() in degrees)


def random_complex_side_form(rng: random.Random, pair: SemiflatPair) -> Form:
    """Random form on the dz/dzb monomial frame of the pair: up to 3 terms,
    coefficients of degree at most 2."""
    return random_form(rng, pair.holo_frame, 3, 2)

