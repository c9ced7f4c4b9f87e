"""Differential operators: d, the dual Lefschetz operator Lambda, d^Lambda,
the Dolbeault pair in a complex basis, and the polarization switch.

d acts through the stored frame data: coefficients are differentiated against
the base variables (each paired with a one-form), and frame generators
contribute their structure equations.  d and Lambda are each written once, as
a kernel on one scalar term (`d_term`, `lambda_term`), which the Form
operators sum over a form's terms and the cohomology columns apply to one
basis element; Lambda reads a scalar pairing, held as one block (legs,
scalar) per pair of legs.  `coframe` is the one builder of a frame
of one-forms over another frame: it derives the frame's base one-forms and
structure equations from the generators' expansions, and it is the one place
a change of basis is checked: it refuses a generator count or an expansion
that does not fit the coordinate frame, and its first collect inverts the
transition matrix, exactly and verified.  A complex basis is such a frame
(`holo_coframe`, the dz/dzb generators handed to `coframe`), so the change
of basis is `frame_collect` in and `frame_expand` out; `dolbeault` reads
forms on the dz/dzb frame only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from . import linalg
from .coeffring import (
    ONE, GaussianRational, Poly, P_ONE, Scalarish, _accumulate, exponents, group_terms, variable_monomial,
)
from .exterior import (
    BasisChangeError,
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    _form,
    bits,
    frame_collect,
    koszul_mask,
)

# the (p, q) split of the dz/dzb frame: p legs on dz, q legs on dzb
HOLO_SPLIT = (GenClass.FIBER_MIRROR, GenClass.BASE)


class MissingPairing(ValueError):
    """The dual Lefschetz operator needs an exact inverse pairing."""


def d_rule(frame: FrameSpec) -> tuple:
    """The frame data that d reads, flattened to (mask, koszul_mask(mask),
    monomial, scalar) terms once per frame, on first use: for each base variable in
    `frame.base_vars` (its name, its monomial, and the terms of its one-form
    or None when it has none), then for each generator the terms of its
    structure equation."""
    return frame.table("d", lambda: (
        tuple((v, variable_monomial(v), _rule_terms(frame.base_one_form(v))) for v in frame.base_vars),
        tuple(_rule_terms(frame.d_of_generator(i)) or () for i in range(len(frame))),
    ))


def _rule_terms(form: Form | None) -> tuple | None:
    """The scalar terms of `form` as (mask, koszul_mask(mask), monomial,
    scalar); None for None."""
    if form is None:
        return None
    return tuple(
        (mask, koszul_mask(mask), f, c) for mask, poly in form.terms.items() for f, c in poly.terms.items()
    )


def d_term(acc: dict, rule: tuple, mask: int, e: int, exps: Sequence[int], c: GaussianRational) -> None:
    """acc += d(c x^e mono) as (mask, monomial) -> scalar terms, where mono
    is the generator monomial `mask`, `exps` are the exponents of x^e over
    the frame's base variables and `rule` is `d_rule(frame)`:

    d(c x^e mono) = sum_v e_v c x^(e - 1_v) dv ^ mono
        + sum_(i in mono) (-1)^(legs of mono below i) c x^e d(gen_i) ^ (mono - i).

    The d of every form and every column of d in `cohomology` is this sum.
    Each sign is a popcount against the rule term's Koszul mask.  A `c` that
    is the object ONE is not multiplied.
    """
    dvar, dgen = rule
    for ek, (v, unit, terms) in zip(exps, dvar):
        if not ek:
            continue
        if terms is None:
            raise FrameMismatch(f"no one-form paired with base variable {v!r}")
        low = e - unit
        k = c if ek == 1 else c * ek
        for m, q, f, a in terms:
            if not m & mask:
                x = a if k is ONE else a * k
                _accumulate(acc, (m | mask, low + f), -x if (mask & q).bit_count() & 1 else x)
    for i in bits(mask):
        terms = dgen[i]
        if terms:
            rest = mask ^ (1 << i)
            # koszul_sign(1 << i, rest) is -1 to the number of legs of rest below i
            below = (rest & ((1 << i) - 1)).bit_count()
            for m, q, f, a in terms:
                if not m & rest:
                    x = a if c is ONE else a * c
                    _accumulate(acc, (m | rest, e + f), -x if ((rest & q).bit_count() + below) & 1 else x)


def exterior_d(form: Form) -> Form:
    """Exterior derivative of an invariant form: `d_term` summed over its
    scalar terms."""
    frame = form.frame
    rule = d_rule(frame)
    vars = frame.base_vars
    acc: dict = {}
    for mask, poly in form.terms.items():
        for e, c in poly.terms.items():
            d_term(acc, rule, mask, e, exponents(e, vars) if e else (), c)
    return _form(frame, group_terms(acc))


def coframe(generators: Sequence[Generator], coord: FrameSpec) -> FrameSpec:
    """The frame of the one-forms `generators`, each expanded on `coord`:
    the one place a change of basis is checked.

    A generator count other than len(coord), or a generator whose expansion
    is missing or is not a one-form on `coord` itself, is a
    BasisChangeError.  The first collect inverts the transition matrix,
    exactly and verified, so a frame is built only when the change of basis
    is invertible, and `frame_collect` and `frame_expand` are then inverse to
    each other.  Each base one-form of `coord` and each generator's d (the
    derivative of its expansion) are collected into the frame, so d on the
    frame agrees with d on `coord`; `coord` may itself be such a frame.
    """
    if len(generators) != len(coord):
        raise BasisChangeError(f"{len(generators)} generators expand on the {len(coord)} of {coord!r}")
    for g in generators:
        exp = g.coord_expansion
        if exp is None:
            raise BasisChangeError(f"{g.label!r} has no coordinate expansion")
        if exp.frame is not coord or exp.degrees() not in ({1}, set()):
            raise BasisChangeError(f"the expansion of {g.label!r} is not a one-form on {coord!r}")
    frame = FrameSpec(generators, coord.base_vars, coord.n)
    for v in coord.base_vars:
        dv = coord.base_one_form(v)
        if dv is not None:
            frame._set_base_one_form(v, frame_collect(dv, frame))
    for g in frame.generators:
        frame._set_structure(g.label, frame_collect(exterior_d(g.coord_expansion), frame))
    return frame


class SymplecticData:
    """A symplectic form together with the exact inverse pairing used by the
    dual Lefschetz operator; the pairing's entries are scalars."""

    def __init__(self, frame: FrameSpec, omega: Form, pairing: Sequence[Sequence[Scalarish]]):
        self.frame = frame
        self.omega = omega
        self.pairing = tuple(tuple(map(GaussianRational.promote, row)) for row in pairing)
        # i_(x_i) i_(x_j) = -i_(x_j) i_(x_i) = -i_(x_i ^ x_j) for i < j, and
        # i_(x_i) i_(x_i) = 0, so Lambda = sum_(i<j) a i_(x_i ^ x_j) with
        # a = (p^ji - p^ij) / 2: one block (legs, koszul_mask(legs), a) per
        # nonzero a, where legs = bit_i | bit_j
        p = self.pairing
        blocks = []
        for i, j in combinations(range(len(p)), 2):
            a = (p[j][i] - p[i][j]) * Fraction(1, 2)
            if a:
                legs = 1 << i | 1 << j
                blocks.append((legs, koszul_mask(legs), a))
        self.blocks = tuple(blocks)

    @staticmethod
    def darboux(frame: FrameSpec, fiber_class: GenClass = GenClass.FIBER_X) -> "SymplecticData":
        """Canonical data for omega = sum_i fiber_i ^ base_i."""
        fibers = frame.gens_of_class(fiber_class)
        bases = frame.gens_of_class(GenClass.BASE)
        if len(fibers) != len(bases):
            raise MissingPairing("fiber and base generator counts differ")
        omega = Form.zero(frame)
        for f, b in zip(fibers, bases):
            omega = omega + Form(frame, {(1 << f) | (1 << b): P_ONE if f < b else -P_ONE})
        return SymplecticData.from_constant_omega(frame, omega)

    @staticmethod
    def from_constant_omega(frame: FrameSpec, omega: Form) -> "SymplecticData":
        """Invert a constant-coefficient symplectic form exactly."""
        rows: list[dict[int, GaussianRational]] = [{} for _ in range(len(frame))]
        for mask, c in omega.terms.items():
            if mask.bit_count() != 2:
                raise MissingPairing("omega must be a two-form")
            if not c.is_constant():
                raise MissingPairing("omega has non-constant coefficients; supply a pairing")
            i, j = sorted(bits(mask))
            v = c.constant_value()
            rows[i][j] = v
            rows[j][i] = -v
        try:
            inv = linalg.invert(rows)
        except ArithmeticError as e:
            raise MissingPairing(f"omega is degenerate: {e}") from None
        return SymplecticData(frame, omega, inv)


def lambda_term(acc: dict, blocks: tuple, mask: int, e: int, exps: Sequence[int], c: GaussianRational) -> None:
    """acc += Lambda(c x^e mono) as (mask, monomial) -> scalar terms, one
    signed block contraction per block (legs, Koszul mask of legs, scalar a)
    of `SymplecticData.blocks`: a c x^e i_legs mono.  It has the signature of
    `d_term`; `exps` is not read.  A `c` that is the object ONE is not
    multiplied."""
    for legs, q, a in blocks:
        if mask & legs == legs:
            rest = mask ^ legs
            x = a if c is ONE else a * c
            _accumulate(acc, (rest, e), -x if (rest & q).bit_count() & 1 else x)


def dual_lefschetz(form: Form, s: SymplecticData) -> Form:
    """Lambda(phi) = 1/2 sum_ij (omega^{-1})^{ij} i_{x_i} i_{x_j} phi:
    `lambda_term` summed over the scalar terms of phi."""
    if form.frame is not s.frame:
        raise FrameMismatch("the form and the symplectic data live on different frame objects")
    blocks = s.blocks
    acc: dict = {}
    for mask, poly in form.terms.items():
        for e, c in poly.terms.items():
            lambda_term(acc, blocks, mask, e, (), c)
    return _form(s.frame, group_terms(acc))


def d_lambda(form: Form, s: SymplecticData) -> Form:
    """The symplectic adjoint differential d Lambda - Lambda d (degree -1)."""
    return exterior_d(dual_lefschetz(form, s)) - dual_lefschetz(exterior_d(form), s)


def holo_coframe(real_frame: FrameSpec, holo_forms: Sequence[tuple[str, Form]]) -> FrameSpec:
    """The dz/dzb frame of the holomorphic one-forms `holo_forms` (label,
    form) on `real_frame`: the `coframe` of the forms (class FIBER_MIRROR)
    and their conjugates (labeled `<label>b`, class BASE), which checks the
    change of basis."""
    return coframe(
        [Generator(lab, GenClass.FIBER_MIRROR, f) for lab, f in holo_forms]
        + [Generator(lab + "b", GenClass.BASE, f.conjugate()) for lab, f in holo_forms],
        real_frame,
    )


def dolbeault_part(src: tuple[int, int], dst: tuple[int, int] | None) -> int:
    """The part of d that a term from bidegree `src` to `dst` belongs to: 0
    for del, at (p+1, q), and 1 for dbar, at (p, q+1).  A term at any other
    bidegree means the basis is not integrable."""
    p, q = src
    if dst == (p + 1, q):
        return 0
    if dst == (p, q + 1):
        return 1
    raise BasisChangeError("d leaves the adjacent bidegrees; basis not integrable")


def dolbeault(form: Form, holo_frame: FrameSpec) -> tuple[Form, Form]:
    """Split d into its (1,0) and (0,1) parts on the dz/dzb frame
    `holo_frame`, on which `form` lives (a FrameMismatch otherwise: a form
    on the real frame is collected onto it with `frame_collect` first).

    Returns (del, dbar).  Each term of d of a (p, q) component goes to the
    part `dolbeault_part` names, so the components write disjoint terms of
    each part.
    """
    if form.frame is not holo_frame:
        raise FrameMismatch("dolbeault reads forms on its dz/dzb frame only")
    bidegree = holo_frame.bidegree
    parts: tuple[dict[int, Poly], dict[int, Poly]] = ({}, {})
    for pq, comp in form.bidegree_components(HOLO_SPLIT).items():
        for mask, c in exterior_d(comp).terms.items():
            parts[dolbeault_part(pq, bidegree(mask, HOLO_SPLIT))][mask] = c
    return _form(holo_frame, parts[0]), _form(holo_frame, parts[1])


def _switch_index(holo_frame: FrameSpec, target: FrameSpec) -> dict[int, int]:
    """dz_k -> the k-th mirror-fiber generator and dzb_k -> the k-th base
    generator of `target`, as generator positions; built once per pair of
    frames."""
    return holo_frame.table(("switch", target), lambda: _build_switch_index(holo_frame, target))


def _build_switch_index(holo_frame: FrameSpec, target: FrameSpec) -> dict[int, int]:
    holo = holo_frame.gens_of_class(GenClass.FIBER_MIRROR)
    anti = holo_frame.gens_of_class(GenClass.BASE)
    fibers = target.gens_of_class(GenClass.FIBER_MIRROR)
    bases = target.gens_of_class(GenClass.BASE)
    if len(holo) != len(fibers) or len(anti) != len(bases):
        raise FrameMismatch("generator counts do not match the target frame")
    return dict(zip(holo + anti, fibers + bases))


def polarization_switch(form: Form, target: FrameSpec) -> Form:
    """Send dz_k to the k-th mirror-fiber generator and dzb_k to the k-th base
    generator, preserving coefficients and monomial order."""
    if any(g.coord_expansion is None for g in form.frame.generators):
        raise FrameMismatch("polarization switch expects a dz/dzb monomial basis")
    return form.relabel(target, _switch_index(form.frame, target))


def polarization_unswitch(form: Form, holo_frame: FrameSpec) -> Form:
    """Inverse switch: k-th mirror-fiber generator to dz_k, k-th base
    generator to dzb_k."""
    index = holo_frame.table(
        ("unswitch", form.frame), lambda: {t: h for h, t in _switch_index(holo_frame, form.frame).items()}
    )
    return form.relabel(holo_frame, index)
