"""Differential operators: d, Lefschetz L and its dual, d^Lambda, the
Dolbeault pair in a complex basis, and the polarization switch.

d acts through the stored frame data: coefficients are differentiated against
the base variables (each paired with a one-form), and frame generators with
structure equations contribute their stored differentials.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .coeffring import GaussianRational, Poly, P_ONE
from .exterior import (
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    bits,
    substitute_generators,
)


class MissingPairing(ValueError):
    """The dual Lefschetz operator needs an exact inverse pairing."""


class BasisChangeError(ValueError):
    """A complex change of basis failed or is not exactly invertible."""


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


class SymplecticData:
    """A symplectic form together with the inverse pairing used by the dual
    Lefschetz operator, when an exact one is available."""

    def __init__(self, frame: FrameSpec, omega: Form, pairing: Optional[Sequence[Sequence[Poly]]] = None):
        self.frame = frame
        self.omega = omega
        self.pairing = None if pairing is None else tuple(tuple(row) for row in pairing)

    @staticmethod
    def darboux(frame: FrameSpec, fiber_class: GenClass = GenClass.FIBER_X) -> "SymplecticData":
        """Canonical data for omega = sum_i fiber_i ^ base_i."""
        fibers = frame.gens_of_class(fiber_class)
        bases = frame.gens_of_class(GenClass.BASE)
        if len(fibers) != len(bases):
            raise MissingPairing("fiber and base generator counts differ")
        omega = Form.zero(frame)
        size = len(frame)
        pairing = [[Poly() for _ in range(size)] for _ in range(size)]
        for f, b in zip(fibers, bases):
            omega = omega + Form(frame, {(1 << f) | (1 << b): P_ONE if f < b else -P_ONE})
            pairing[b][f] = P_ONE
            pairing[f][b] = -P_ONE
        return SymplecticData(frame, omega, pairing)

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


def lefschetz(form: Form, s: SymplecticData) -> Form:
    return s.omega.wedge(form)


def dual_lefschetz(form: Form, s: SymplecticData) -> Form:
    """Lambda(phi) = 1/2 sum_ij (omega^{-1})^{ij} i_{x_i} i_{x_j} phi."""
    if s.pairing is None:
        raise MissingPairing("no exact inverse pairing available")
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


class ComplexBasis:
    """A holomorphic coframe dz_k (with conjugates) over a real frame.

    Stores both directions of the change of basis; the inverse is computed
    exactly (Newton-lifted from the inverse of the constant term and verified,
    so a constant transition returns after the first check) and checked by a
    round trip.
    """

    def __init__(self, real_frame: FrameSpec, holo_forms: Sequence[tuple[str, Form]]):
        self.real_frame = real_frame
        self.nz = len(holo_forms)
        self.holo_labels = [lab for lab, _ in holo_forms]
        self.anti_labels = [lab + "b" for lab, _ in holo_forms]
        holo = [f for _, f in holo_forms]
        anti = [f.conjugate() for f in holo]

        used: set[int] = set()
        for f in holo + anti:
            if f.frame != real_frame:
                raise BasisChangeError("basis forms must live on the real frame")
            if f.degrees() not in ({1}, set()):
                raise BasisChangeError("basis forms must be one-forms")
            for m in f.terms:
                used.add(next(bits(m)))
        cols = sorted(used)
        if len(cols) != 2 * self.nz:
            raise BasisChangeError(
                f"basis spans {len(cols)} real generators, expected {2 * self.nz}"
            )
        self._cols = cols

        trans = [
            [f.terms.get(1 << c, Poly()) for c in cols]
            for f in holo + anti
        ]
        try:
            inv = linalg.poly_matrix_inverse_unit_det(trans)
        except ArithmeticError as e:
            raise BasisChangeError(str(e)) from None

        gens = []
        for k, lab in enumerate(self.holo_labels):
            gens.append(Generator(lab, GenClass.FRAME, holo[k], leg_class=GenClass.FIBER_MIRROR))
        for k, lab in enumerate(self.anti_labels):
            gens.append(Generator(lab, GenClass.FRAME, anti[k], leg_class=GenClass.BASE))
        self.holo_frame = FrameSpec(gens, real_frame.base_vars, real_frame.n)

        # real generator -> combination of dz/dzb
        self._real_images: dict[int, Form] = {}
        for ci, c in enumerate(cols):
            img = Form.zero(self.holo_frame)
            for k in range(2 * self.nz):
                p = inv[ci][k]
                if p.is_zero():
                    continue
                lab = self.holo_labels[k] if k < self.nz else self.anti_labels[k - self.nz]
                img = img + Form.gen(self.holo_frame, lab) * p
            self._real_images[c] = img

        for v in real_frame.base_vars:
            dv = real_frame.base_one_form(v)
            if dv is not None:
                self.holo_frame._set_base_one_form(v, self.to_complex(dv))
        for k, lab in enumerate(self.holo_labels + self.anti_labels):
            de = exterior_d((holo + anti)[k])
            self.holo_frame._set_structure(lab, self.to_complex(de))

        for c in cols:
            probe = Form.gen(real_frame, real_frame.generators[c].label)
            if self.from_complex(self.to_complex(probe)) != probe:
                raise BasisChangeError("round trip through the complex basis failed")
        for lab in self.holo_labels + self.anti_labels:
            probe = Form.gen(self.holo_frame, lab)
            if self.to_complex(self.from_complex(probe)) != probe:
                raise BasisChangeError("round trip through the complex basis failed")

    def to_complex(self, form: Form) -> Form:
        return substitute_generators(form, self.holo_frame, self._real_images)

    def from_complex(self, form: Form) -> Form:
        images = {}
        for i, g in enumerate(self.holo_frame.generators):
            images[i] = g.coord_expansion
        return substitute_generators(form, self.real_frame, images)

    def pq_project(self, form: Form, p: int, q: int) -> Form:
        return form.bidegree_project(p, q, (GenClass.FIBER_MIRROR, GenClass.BASE))

    def pq_components(self, form: Form) -> dict[tuple[int, int], Form]:
        hm = self.holo_frame.class_mask(GenClass.FIBER_MIRROR)
        am = self.holo_frame.class_mask(GenClass.BASE)
        out: dict[tuple[int, int], Form] = {}
        for m, c in form.terms.items():
            key = ((m & hm).bit_count(), (m & am).bit_count())
            out[key] = out.get(key, Form.zero(self.holo_frame)) + Form(self.holo_frame, {m: c})
        return out


def dolbeault(form: Form, basis: ComplexBasis) -> tuple[Form, Form]:
    """Split d into its (1,0) and (0,1) parts in the given complex basis.

    Returns (del, dbar).  Raises if d escapes the two adjacent bidegrees,
    which would mean the basis is not integrable.
    """
    if form.frame == basis.real_frame:
        form = basis.to_complex(form)
    elif form.frame != basis.holo_frame:
        raise BasisChangeError("form lives on neither the real nor the complex frame")
    del_part = Form.zero(basis.holo_frame)
    dbar_part = Form.zero(basis.holo_frame)
    for (p, q), comp in basis.pq_components(form).items():
        dc = exterior_d(comp)
        a = basis.pq_project(dc, p + 1, q)
        b = basis.pq_project(dc, p, q + 1)
        if a + b != dc:
            raise BasisChangeError("d leaves the adjacent bidegrees; basis not integrable")
        del_part = del_part + a
        dbar_part = dbar_part + b
    return del_part, dbar_part


def polarization_switch(form: Form, target: FrameSpec, fiber_class: GenClass = GenClass.FIBER_MIRROR) -> Form:
    """Send dz_k to the k-th fiber generator and dzb_k to the k-th base
    generator, preserving coefficients and monomial order."""
    frame = form.frame
    if any(g.gclass is not GenClass.FRAME for g in frame.generators):
        raise FrameMismatch("polarization switch expects a dz/dzb monomial basis")
    fibers = target.gens_of_class(fiber_class)
    bases = target.gens_of_class(GenClass.BASE)
    holo = [i for i, g in enumerate(frame.generators) if g.leg_class is GenClass.FIBER_MIRROR]
    anti = [i for i, g in enumerate(frame.generators) if g.leg_class is GenClass.BASE]
    if len(holo) != len(fibers) or len(anti) != len(bases):
        raise FrameMismatch("generator counts do not match the target frame")
    images = {}
    for k, i in enumerate(holo):
        images[i] = Form.gen(target, target.generators[fibers[k]].label)
    for k, i in enumerate(anti):
        images[i] = Form.gen(target, target.generators[bases[k]].label)
    return substitute_generators(form, target, images)


def polarization_unswitch(form: Form, holo_frame: FrameSpec, fiber_class: GenClass) -> Form:
    """Inverse switch: k-th fiber generator to dz_k, k-th base generator to dzb_k."""
    frame = form.frame
    fibers = frame.gens_of_class(fiber_class)
    bases = frame.gens_of_class(GenClass.BASE)
    holo = [i for i, g in enumerate(holo_frame.generators) if g.leg_class is GenClass.FIBER_MIRROR]
    anti = [i for i, g in enumerate(holo_frame.generators) if g.leg_class is GenClass.BASE]
    images = {}
    for k, i in enumerate(fibers):
        images[i] = Form.gen(holo_frame, holo_frame.generators[holo[k]].label)
    for k, i in enumerate(bases):
        images[i] = Form.gen(holo_frame, holo_frame.generators[anti[k]].label)
    return substitute_generators(form, holo_frame, images)
