"""Differential operators: d, the dual Lefschetz operator Lambda, d^Lambda,
the Dolbeault pair in a complex basis, and the polarization switch.

d acts through the stored frame data: coefficients are differentiated against
the base variables (each paired with a one-form), and frame generators
contribute their structure equations.  `coframe` is the one builder of a frame
of one-forms over another frame: it derives the frame's base one-forms and
structure equations from the generators' expansions.  A complex basis is such
a frame (`holo_coframe`), so the change of basis is `frame_collect` in and
`frame_expand` out.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg
from .coeffring import GaussianRational, Poly, P_ONE
from .exterior import (
    BasisChangeError,
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    bits,
    frame_collect,
    frame_expand,
)

# the (p, q) split of the dz/dzb frame: p legs on dz, q legs on dzb
HOLO_SPLIT = (GenClass.FIBER_MIRROR, GenClass.BASE)


class MissingPairing(ValueError):
    """The dual Lefschetz operator needs an exact inverse pairing."""


def exterior_d(form: Form) -> Form:
    """Exterior derivative of an invariant form.

    d(g * gamma) = sum_j (dg/dr_j) dr_j ^ gamma + g * d(gamma), where the
    second part uses the frame's stored structure equations (zero for
    coordinate generators).
    """
    frame = form.frame
    out = Form.zero(frame)
    for mask, c in form.terms.items():
        mono = Form(frame, {mask: P_ONE})
        for v in frame.base_vars:
            dc = c.diff(v)
            if dc.is_zero():
                continue
            dv = frame.base_one_form(v)
            if dv is None:
                raise FrameMismatch(f"no one-form paired with base variable {v!r}")
            out = out + (dv * dc).wedge(mono)
        for i in bits(mask):
            dg = frame.d_of_generator(i)
            if dg is None or dg.is_zero():
                continue
            below = (mask & ((1 << i) - 1)).bit_count()
            rest = Form(frame, {mask ^ (1 << i): c})
            piece = dg.wedge(rest)
            out = out + (piece if below % 2 == 0 else -piece)
    return out


def coframe(generators: Sequence[Generator], coord: FrameSpec) -> FrameSpec:
    """The frame of the one-forms `generators`, each expanded on `coord`.

    Each base one-form of `coord` and each generator's d (the derivative of
    its expansion) are collected into the frame, so d on the frame agrees
    with d on `coord`; `coord` may itself be such a frame.
    """
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
    dual Lefschetz operator."""

    def __init__(self, frame: FrameSpec, omega: Form, pairing: Sequence[Sequence[Poly]]):
        self.frame = frame
        self.omega = omega
        self.pairing = tuple(tuple(row) for row in pairing)

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
        pairing = [[Poly.constant(x) for x in row] for row in inv]
        return SymplecticData(frame, omega, pairing)


def dual_lefschetz(form: Form, s: SymplecticData) -> Form:
    """Lambda(phi) = 1/2 sum_ij (omega^{-1})^{ij} i_{x_i} i_{x_j} phi."""
    frame = s.frame
    out = Form.zero(frame)
    labels = [g.label for g in frame.generators]
    for i, row in enumerate(s.pairing):
        for j, p in enumerate(row):
            if p.is_zero():
                continue
            piece = form.contract(labels[j]).contract(labels[i])
            if piece.is_zero():
                continue
            out = out + piece * (p * Fraction(1, 2))
    return out


def d_lambda(form: Form, s: SymplecticData) -> Form:
    """The symplectic adjoint differential d Lambda - Lambda d (degree -1)."""
    return exterior_d(dual_lefschetz(form, s)) - dual_lefschetz(exterior_d(form), s)


def holo_coframe(real_frame: FrameSpec, holo_forms: Sequence[tuple[str, Form]]) -> FrameSpec:
    """The dz/dzb frame of the holomorphic one-forms `holo_forms` (label,
    form) on `real_frame`, with the conjugates labeled `<label>b`.

    It is a `coframe` over the real frame, so `frame_collect` (through the
    verified polynomial inverse) and `frame_expand` change basis; a round
    trip of every generator of both frames checks the two here.
    """
    labels = [lab for lab, _ in holo_forms]
    holo = [f for _, f in holo_forms]
    anti = [f.conjugate() for f in holo]
    for f in holo + anti:
        if f.frame is not real_frame:
            raise BasisChangeError("basis forms must live on the real frame")
        if f.degrees() not in ({1}, set()):
            raise BasisChangeError("basis forms must be one-forms")
    frame = coframe(
        [Generator(lab, GenClass.FIBER_MIRROR, f) for lab, f in zip(labels, holo)]
        + [Generator(lab + "b", GenClass.BASE, f) for lab, f in zip(labels, anti)],
        real_frame,
    )
    for g in real_frame.generators:
        probe = Form.gen(real_frame, g.label)
        if frame_expand(frame_collect(probe, frame), real_frame) != probe:
            raise BasisChangeError("round trip through the complex basis failed")
    for g in frame.generators:
        probe = Form.gen(frame, g.label)
        if frame_collect(frame_expand(probe, real_frame), frame) != probe:
            raise BasisChangeError("round trip through the complex basis failed")
    return frame


def dolbeault(form: Form, holo_frame: FrameSpec) -> tuple[Form, Form]:
    """Split d into its (1,0) and (0,1) parts on the dz/dzb frame
    `holo_frame` (a form on its real frame is collected onto it first).

    Returns (del, dbar).  Raises if d escapes the two adjacent bidegrees,
    which would mean the basis is not integrable.
    """
    if form.frame is not holo_frame:
        exp = holo_frame.generators[0].coord_expansion
        if exp is None or form.frame is not exp.frame:
            raise BasisChangeError("form lives on neither the real nor the complex frame")
        form = frame_collect(form, holo_frame)
    del_part = Form.zero(holo_frame)
    dbar_part = Form.zero(holo_frame)
    for (p, q), comp in form.bidegree_components(HOLO_SPLIT).items():
        dc = exterior_d(comp)
        a = dc.bidegree_project(p + 1, q, HOLO_SPLIT)
        b = dc.bidegree_project(p, q + 1, HOLO_SPLIT)
        if a + b != dc:
            raise BasisChangeError("d leaves the adjacent bidegrees; basis not integrable")
        del_part = del_part + a
        dbar_part = dbar_part + b
    return del_part, dbar_part


def _switch_index(holo_frame: FrameSpec, target: FrameSpec) -> dict[int, int]:
    """dz_k -> the k-th mirror-fiber generator and dzb_k -> the k-th base
    generator of `target`, as generator positions."""
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
    index = _switch_index(holo_frame, form.frame)
    return form.relabel(holo_frame, {t: h for h, t in index.items()})
