"""Seeded random generators for property campaigns.

Plain `random.Random` with per-trial derived seeds keeps every campaign
bit-reproducible, which the report contract requires.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence

from .coeffring import GaussianRational, Poly
from .exterior import Form, FrameSpec
from .fourier import SemiflatPair


def trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed * 1000003 + trial) & 0xFFFFFFFF)


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice([1, 1, 1, 2, 3]))


def random_scalar(rng: random.Random, complex_ok: bool = True) -> GaussianRational:
    im = random_rational(rng) if complex_ok and rng.random() < 0.5 else 0
    return GaussianRational(random_rational(rng), im)


def random_poly(
    rng: random.Random,
    vars: Sequence[str],
    max_degree: int = 2,
    max_terms: int = 3,
    complex_ok: bool = True,
) -> Poly:
    vs = tuple(sorted(vars))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        budget = rng.randint(0, max_degree)
        e = [0] * len(vs)
        for _ in range(budget):
            if vs:
                e[rng.randrange(len(vs))] += 1
        terms[tuple(e)] = random_scalar(rng, complex_ok)
    return Poly(vs, {e: c for e, c in terms.items() if c})


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
    out = Form.zero(frame)
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(masks)
        p = random_poly(rng, frame.base_vars, max_degree, 2, complex_ok)
        out = out + Form(frame, {m: p})
    return out


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


def random_symmetric_mu(
    rng: random.Random,
    n: int,
    vars: Sequence[str],
    max_degree: int = 1,
) -> list[list[Poly]]:
    """Random real symmetric coefficient matrix, identity plus a perturbation.
    No package module calls it: the IIA tests draw their matrices from it."""
    vs = tuple(sorted(vars))
    mu = [[Poly.constant(1 if i == j else 0, vs) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                p = random_poly(rng, vs, max_degree, 2, complex_ok=False)
                mu[i][j] = mu[i][j] + p
                if i != j:
                    mu[j][i] = mu[j][i] + p
    return mu
