"""Fourier-Mukai transform of torus-invariant forms on a semi-flat dual pair.

Two independent implementations are kept: the integral path (switch
polarization, pull back to the fiber product, wedge the exponentiated
universal curvature, integrate over the dual fibers) and the closed-form
monomial rule.  They are cross-validated exhaustively in the tests; sign
fidelity is the whole point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .calculus import (
    HOLO_SPLIT,
    SymplecticData,
    d_lambda,
    dolbeault,
    exterior_d,
    holo_coframe,
    polarization_switch,
    polarization_unswitch,
)
from .coeffring import GaussianRational, I
from .exterior import Form, FrameMismatch, FrameSpec, GenClass, Generator, frame_collect


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
        self.fiber_mirror_labels = tuple(tc)
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
        if form.frame == self.holo_frame:
            return form
        if form.frame == self.frame_xc:
            return frame_collect(form, self.holo_frame)
        raise FrameMismatch("form does not live on the complex side of this pair")

    def _check_invariant(self, form: Form) -> None:
        bad = form.used_coeff_vars() - set(self.base_vars)
        if bad:
            raise ValueError(f"coefficients depend on non-base variables {sorted(bad)}")

    # -- the transform -------------------------------------------------------

    def fm_forward(self, form: Form) -> Form:
        """Transform a complex-side invariant form to the symplectic side."""
        phi = self.to_complex_side(form)
        self._check_invariant(phi)
        out = Form.zero(self.frame_x)
        for (p, q), comp in phi.bidegree_components(HOLO_SPLIT).items():
            lifted = polarization_switch(comp, self.frame_corr)
            integrated = lifted.wedge(self._exp_plus).pushforward(GenClass.FIBER_MIRROR)
            res = integrated.transport(self.frame_x)
            fibs = res.leg_count(GenClass.FIBER_X) - {self.n - p}
            bass = res.leg_count(GenClass.BASE) - {q}
            if (fibs or bass) and not res.is_zero():
                raise ArithmeticError("transform violated the leg-count contract")
            out = out + res
        return out

    def fm_backward(self, form: Form) -> Form:
        """Transform a symplectic-side invariant form to the complex side
        (returned on the dz/dzb monomial frame)."""
        if form.frame != self.frame_x:
            raise FrameMismatch("form does not live on the symplectic side of this pair")
        self._check_invariant(form)
        lifted = form.transport(self.frame_corr)
        integrated = lifted.wedge(self._exp_minus).pushforward(GenClass.FIBER_X)
        return polarization_unswitch(integrated, self.holo_frame)

    def fm_roundtrip_sign(self) -> int:
        return -1 if (self.n * (self.n - 1) // 2) % 2 else 1

    # -- closed-form monomial rule --------------------------------------------

    def fm_monomial(self, I_set: Sequence[int], J_set: Sequence[int]) -> Form:
        """Closed-form image of dz_I ^ dzb_J on the symplectic side.

        The result is (-1)^{(n-p)(n-p-1)/2} sign(I, I^c) dth_{I^c} ^ dr_J,
        with sign(I, I^c) the permutation sign of the concatenation relative
        to ascending order.
        """
        n = self.n
        I_list = sorted(I_set)
        J_list = sorted(J_set)
        if I_list and not (1 <= I_list[0] and I_list[-1] <= n):
            raise ValueError("indices must lie in 1..n")
        if J_list and not (1 <= J_list[0] and J_list[-1] <= n):
            raise ValueError("indices must lie in 1..n")
        p = len(I_list)
        comp = [i for i in range(1, n + 1) if i not in set(I_list)]
        s = sign_of_concatenation(I_list, comp)
        e = ((n - p) * (n - p - 1) // 2) % 2
        coeff = GaussianRational(s if e == 0 else -s)
        labels = [self.fiber_x_labels[i - 1] for i in comp] + [f"d{self.base_vars[j - 1]}" for j in J_list]
        return Form.monomial(self.frame_x, labels, coeff)

    def holo_monomial(self, I_set: Sequence[int], J_set: Sequence[int], coeff=1) -> Form:
        labels = [self.holo_labels[i - 1] for i in sorted(I_set)]
        labels += [self.holo_labels[j - 1] + "b" for j in sorted(J_set)]
        return Form.monomial(self.holo_frame, labels, coeff)

    # -- intertwining ----------------------------------------------------------

    def check_intertwining(self, form: Form) -> "IntertwiningReport":
        """Both identities relating (del, dbar) on the complex side to
        (d^Lambda, d) on the symplectic side, checked exactly."""
        phi = self.to_complex_side(form)
        del_phi, dbar_phi = dolbeault(phi, self.holo_frame)
        ft_phi = self.fm_forward(phi)
        c = I * Fraction(1, 2)
        if self.n % 2:
            c = -c
        lhs_d = self.fm_forward(dbar_phi)
        rhs_d = exterior_d(ft_phi) * c
        lhs_dl = self.fm_forward(del_phi)
        rhs_dl = d_lambda(ft_phi, self.darboux_x) * c
        return IntertwiningReport(
            d_ok=(lhs_d == rhs_d),
            d_lambda_ok=(lhs_dl == rhs_dl),
            d_diff=lhs_d - rhs_d,
            d_lambda_diff=lhs_dl - rhs_dl,
        )


@dataclass
class IntertwiningReport:
    d_ok: bool
    d_lambda_ok: bool
    d_diff: Form
    d_lambda_diff: Form

    @property
    def ok(self) -> bool:
        return self.d_ok and self.d_lambda_ok


def sign_of_concatenation(first: Sequence[int], second: Sequence[int]) -> int:
    """Permutation sign of (first, second) relative to ascending order,
    by inversion counting."""
    seq = list(first) + list(second)
    if len(set(seq)) != len(seq):
        return 0
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1
