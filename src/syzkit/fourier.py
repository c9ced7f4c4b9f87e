"""Fourier-Mukai transform of torus-invariant forms on a semi-flat dual pair.

Two independent implementations are kept: the integral path and the
closed-form monomial rule.  The integral path is one pass over the whole form
in each direction: switch polarization onto the fiber product, wedge the
exponentiated universal curvature and integrate over the dual fibers in one
`Form.wedge_pushforward`, then read the result on the other side.  A (p, q)
term lands on n - p fiber legs and q base legs, and distinct terms land on
distinct monomials, so the pass equals the sum of its bidegree components;
the tests keep that per-component route as the oracle.  The two
implementations are cross-validated exhaustively in the tests; sign fidelity
is the whole point of this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .calculus import (
    SymplecticData,
    d_lambda,
    dolbeault,
    exterior_d,
    holo_coframe,
    polarization_switch,
    polarization_unswitch,
)
from .coeffring import GaussianRational, I
from .exterior import (
    Form,
    FrameMismatch,
    FrameSpec,
    GenClass,
    Generator,
    bits,
    frame_collect,
    koszul_sign,
    reversal_sign,
)
from .reports import CheckReport


def intertwining_constant(n: int) -> GaussianRational:
    """The c = (-1)^n i/2 of the intertwining laws FT(dbar phi) = c d FT(phi)
    and FT(del phi) = c d^Lambda FT(phi) on a rank-n pair."""
    return GaussianRational(0, Fraction((-1) ** n, 2))


class SemiflatPair:
    """Dual torus bundles over a common base, plus the correspondence frame.

    The symplectic side carries fiber generators of class FIBER_X, the
    complex side fiber generators of class FIBER_MIRROR; both share the base
    generators.  The fiber product is represented by one frame holding all
    three classes.
    """

    def __init__(
        self,
        n: int,
        base_vars: Optional[Sequence[str]] = None,
        fiber_x_labels: Optional[Sequence[str]] = None,
        fiber_mirror_labels: Optional[Sequence[str]] = None,
        holo_labels: Optional[Sequence[str]] = None,
    ):
        if n < 1:
            raise ValueError("fiber rank must be at least 1")
        self.n = n
        rv = list(base_vars) if base_vars else [f"r{i}" for i in range(1, n + 1)]
        tx = list(fiber_x_labels) if fiber_x_labels else [f"dth{i}" for i in range(1, n + 1)]
        tc = list(fiber_mirror_labels) if fiber_mirror_labels else [f"dtc{i}" for i in range(1, n + 1)]
        zl = list(holo_labels) if holo_labels else [f"dz{i}" for i in range(1, n + 1)]
        if not (len(rv) == len(tx) == len(tc) == len(zl) == n):
            raise ValueError("label lists must all have length n")
        self.base_vars = tuple(rv)
        self.fiber_x_labels = tuple(tx)
        self.holo_labels = tuple(zl)

        def base_gens():
            return [Generator(f"d{v}", GenClass.BASE, paired_base_var=v) for v in rv]

        self.frame_x = FrameSpec(
            [Generator(l, GenClass.FIBER_X) for l in tx] + base_gens(), rv, n
        )
        self.frame_xc = FrameSpec(
            [Generator(l, GenClass.FIBER_MIRROR) for l in tc] + base_gens(), rv, n
        )
        self.frame_corr = FrameSpec(
            [Generator(l, GenClass.FIBER_X) for l in tx]
            + [Generator(l, GenClass.FIBER_MIRROR) for l in tc]
            + base_gens(),
            rv,
            n,
        )

        holo_forms = []
        for k in range(n):
            f = Form.gen(self.frame_xc, tc[k]) + Form.gen(self.frame_xc, f"d{rv[k]}") * I
            holo_forms.append((zl[k], f))
        self.holo_frame = holo_coframe(self.frame_xc, holo_forms)

        # universal curvature divided by 2i: sum_i dtc_i ^ dth_i
        f2i = Form.zero(self.frame_corr)
        for k in range(n):
            f2i = f2i + Form.monomial(self.frame_corr, [tc[k], tx[k]])
        self._exp_plus = f2i.exp_nilpotent()
        self._exp_minus = (-f2i).exp_nilpotent()
        self.darboux_x = SymplecticData.darboux(self.frame_x, GenClass.FIBER_X)

    # -- input normalization -------------------------------------------------

    def to_complex_side(self, form: Form) -> Form:
        """Normalize a complex-side form to the dz/dzb monomial frame."""
        if form.frame is self.holo_frame:
            return form
        if form.frame is self.frame_xc:
            return frame_collect(form, self.holo_frame)
        raise FrameMismatch("form does not live on the complex side of this pair")

    # -- the transform -------------------------------------------------------

    def fm_forward(self, form: Form) -> Form:
        """Transform a complex-side invariant form to the symplectic side."""
        phi = self.to_complex_side(form)
        phi.check_invariant()
        lifted = polarization_switch(phi, self.frame_corr)
        integrated = lifted.wedge_pushforward(self._exp_plus, GenClass.FIBER_MIRROR)
        return integrated.transport(self.frame_x)

    def fm_backward(self, form: Form) -> Form:
        """Transform a symplectic-side invariant form to the complex side
        (returned on the dz/dzb monomial frame)."""
        if form.frame is not self.frame_x:
            raise FrameMismatch("form does not live on the symplectic side of this pair")
        form.check_invariant()
        lifted = form.transport(self.frame_corr)
        integrated = lifted.wedge_pushforward(self._exp_minus, GenClass.FIBER_X)
        return polarization_unswitch(integrated, self.holo_frame)

    def fm_roundtrip_sign(self) -> int:
        return reversal_sign(self.n)

    # -- closed-form monomial rule --------------------------------------------

    def _check_indices(self, *index_sets: Sequence[int]) -> None:
        if any(not 1 <= i <= self.n for s in index_sets for i in s):
            raise ValueError("indices must lie in 1..n")

    def fm_monomial(self, I_set: Sequence[int], J_set: Sequence[int]) -> Form:
        """Closed-form image of dz_I ^ dzb_J on the symplectic side.

        The result is (-1)^{(n-p)(n-p-1)/2} sign(I, I^c) dth_{I^c} ^ dr_J,
        with sign(I, I^c) the koszul_sign of the ascending block I followed by
        its complement.  A repeated index gives the zero form.
        """
        self._check_indices(I_set, J_set)
        # bit i stands for index i; bit 0 stays clear
        mask_I = 0
        for i in I_set:
            mask_I |= 1 << i
        if mask_I.bit_count() != len(I_set):
            return Form.zero(self.frame_x)
        comp = ((1 << (self.n + 1)) - 2) & ~mask_I
        coeff = koszul_sign(mask_I, comp) * reversal_sign(self.n - len(I_set))
        labels = [self.fiber_x_labels[i - 1] for i in bits(comp)]
        labels += [f"d{self.base_vars[j - 1]}" for j in sorted(J_set)]
        return Form.monomial(self.frame_x, labels, coeff)

    def holo_monomial(self, I_set: Sequence[int], J_set: Sequence[int], coeff=1) -> Form:
        self._check_indices(I_set, J_set)
        labels = [self.holo_labels[i - 1] for i in sorted(I_set)]
        labels += [self.holo_labels[j - 1] + "b" for j in sorted(J_set)]
        return Form.monomial(self.holo_frame, labels, coeff)

    # -- intertwining ----------------------------------------------------------

    def check_intertwining(self, form: Form) -> CheckReport:
        """FT(dbar phi) = c d FT(phi) and FT(del phi) = c d^Lambda FT(phi),
        c = `intertwining_constant(n)`, checked exactly: one item each,
        witnessed by the difference of its two sides."""
        phi = self.to_complex_side(form)
        del_phi, dbar_phi = dolbeault(phi, self.holo_frame)
        ft_phi = self.fm_forward(phi)
        c = intertwining_constant(self.n)
        rep = CheckReport()
        d_diff = self.fm_forward(dbar_phi) - exterior_d(ft_phi) * c
        rep.add("d-intertwines-dbar", d_diff.is_zero(), d_diff)
        dl_diff = self.fm_forward(del_phi) - d_lambda(ft_phi, self.darboux_x) * c
        rep.add("dlambda-intertwines-del", dl_diff.is_zero(), dl_diff)
        return rep
