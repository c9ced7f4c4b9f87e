"""SU(n) structures and the two supersymmetry systems.

An SU(n) structure is a nondegenerate (1,1)-form together with a decomposable
complex volume form; the conformal factor relates their top wedges.  The
complex-side system asks for a closed volume form and a balanced metric; the
symplectic-side system asks for a closed symplectic form plus closedness of
two polarized projections of the volume form.  Flux currents measure the
failure of the Calabi-Yau equations on each side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Optional, Sequence

from . import linalg
from .calculus import (
    BasisChangeError,
    MissingPairing,
    SymplecticData,
    d_lambda,
    dolbeault,
    exterior_d,
    holo_coframe,
)
from .coeffring import GaussianRational, I, ONE, Poly, ZERO, _mul_into, _settle
from .exterior import (
    Form,
    FrameSpec,
    GenClass,
    Generator,
    _form,
    bits,
    frame_collect,
    frame_expand,
    koszul_sign,
    reversal_sign,
)
from .fourier import SemiflatPair, intertwining_constant
from .reports import PASS, UNDETERMINED, CheckReport

QUARTER_UNITS = (GaussianRational(1), I, GaussianRational(-1), -I)


@dataclass
class Polarization:
    fiber_class: GenClass
    phase_quarter: Optional[int] = None  # e^{i theta} = i^phase_quarter


class SUStructure:
    """A pair (omega, Omega) with optional polarization data.

    Omega is `prefactor` times the wedge of `Omega_factors`, its decomposition
    into exactly n complex one-forms, so Omega is pure of degree n (other
    factors are a ValueError); the product is formed once, on first read, so
    a structure read from a fixture can be refused by its size before it is
    formed.  omega must be a two-form.  The induced dz/dzb frame, with the
    factors named dz1..dzn, is built on the first read of `holo_frame`, and
    is None when the transition is not exactly invertible.  `omega_power(k)`
    reads omega^k off one exponential of omega, formed on first use, and
    keeps it.
    """

    def __init__(
        self,
        n: int,
        frame: FrameSpec,
        omega: Form,
        Omega_factors: Sequence[Form],
        prefactor: GaussianRational = ONE,
        polarization: Optional[Polarization] = None,
    ):
        if any(m.bit_count() != 2 for m in omega.terms):
            raise ValueError("omega must be a two-form")
        if len(Omega_factors) != n or any(m.bit_count() != 1 for f in Omega_factors for m in f.terms):
            raise ValueError(f"Omega needs exactly n = {n} factors, each a one-form")
        self.n = n
        self.frame = frame
        self.omega = omega
        self.Omega_factors = list(Omega_factors)
        self.prefactor = prefactor
        self.polarization = polarization
        self._conformal: Optional[GaussianRational] = None
        self._omega_powers = {0: Form.scalar(frame, 1), 1: omega}

    @cached_property
    def Omega(self) -> Form:
        Omega = Form.scalar(self.frame, self.prefactor)
        for f in self.Omega_factors:
            Omega = Omega.wedge(f)
        return Omega

    @cached_property
    def holo_frame(self) -> Optional[FrameSpec]:
        named = [(f"dz{k}", f) for k, f in enumerate(self.Omega_factors, 1)]
        try:
            return holo_coframe(self.frame, named)
        except BasisChangeError:
            return None

    @cached_property
    def _exp_omega_parts(self) -> dict[int, dict[int, Poly]]:
        """The terms of exp(omega) keyed by half their degree."""
        parts: dict[int, dict[int, Poly]] = {}
        for m, c in self.omega.exp_nilpotent().terms.items():
            parts.setdefault(m.bit_count() // 2, {})[m] = c
        return parts

    def omega_power(self, k: int) -> Form:
        """omega^k (omega^0 = 1), as k! times the degree-2k part of exp(omega)."""
        if k < 0:
            raise ValueError("omega power must be non-negative")
        powers = self._omega_powers
        if k not in powers:
            powers[k] = _form(self.frame, self._exp_omega_parts.get(k, {})) * factorial(k)
        return powers[k]

    def conformal_factor(self) -> GaussianRational:
        if self._conformal is None:
            self._conformal = conformal_factor(self)
        return self._conformal

    def pq_project(self, p: int, q: int) -> Form:
        if self.polarization is None:
            raise ValueError("no polarization set")
        return self.Omega.bidegree_project(p, q, (self.polarization.fiber_class, GenClass.BASE))

    def to_json(self):
        pol = None
        if self.polarization is not None:
            pol = {
                "fiber_class": self.polarization.fiber_class.value,
                "phase_quarter": self.polarization.phase_quarter,
            }
        return {
            "n": self.n,
            "frame": {
                "labels": [g.label for g in self.frame.generators],
                "classes": [g.leg_class.value for g in self.frame.generators],
                "paired": [g.paired_base_var for g in self.frame.generators],
                "base_vars": list(self.frame.base_vars),
            },
            "omega": self.omega.to_json(),
            "polarization": pol,
            "Omega_factors": [f.to_json() for f in self.Omega_factors],
            "prefactor": self.prefactor.to_json(),
        }

    @staticmethod
    def from_json(obj) -> "SUStructure":
        """The structure a fixture document describes; a malformed document
        raises KeyError, TypeError or ValueError.  Its frame is a coordinate
        frame: the `FrameSpec` rules hold (unique string labels and base
        variables, each paired variable a base variable paired once) and
        every base variable is paired with a generator.  The coefficients of
        omega and of each Omega factor use base variables only
        (`Form.check_invariant`).  Its `polarization` is null, or names
        `fiber_class` 'fiber-x' or 'fiber-mirror' (a class with generators in
        the frame) and `phase_quarter` null or an integer in 0..3.  There are
        exactly n Omega factors, each a one-form (`SUStructure`)."""
        fr = obj["frame"]
        lists = fr["labels"], fr["classes"], fr["paired"]
        if len({len(v) for v in lists}) != 1:
            lengths = ", ".join(str(len(v)) for v in lists)
            raise ValueError(f"frame lists 'labels', 'classes' and 'paired' differ in length: {lengths}")
        gens = [Generator(lab, GenClass(cls), paired_base_var=paired) for lab, cls, paired in zip(*lists)]
        n = obj["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f"n must be at least 1 and an integer, got {n!r}")
        frame = FrameSpec(gens, fr["base_vars"], n)
        unpaired = [v for v in frame.base_vars if frame.base_one_form(v) is None]
        if unpaired:
            raise ValueError(f"base variables {unpaired} are paired with no generator")
        omega = Form.from_json(obj["omega"], frame)
        pol = obj.get("polarization")
        if pol is not None:
            fiber, phase = pol["fiber_class"], pol.get("phase_quarter")
            if fiber not in ("fiber-x", "fiber-mirror"):
                raise ValueError(f"polarization fiber_class must be 'fiber-x' or 'fiber-mirror', got {fiber!r}")
            if not frame.gens_of_class(GenClass(fiber)):
                raise ValueError(f"polarization fiber_class {fiber!r} names no generator of the frame")
            if phase is not None and (type(phase) is not int or not 0 <= phase <= 3):
                raise ValueError(f"polarization phase_quarter must be null or an integer in 0..3, got {phase!r}")
            pol = Polarization(GenClass(fiber), phase)
        factors = [Form.from_json(f, frame) for f in obj["Omega_factors"]]
        for form in (omega, *factors):
            form.check_invariant()
        return SUStructure(
            n,
            frame,
            omega,
            Omega_factors=factors,
            prefactor=GaussianRational.from_json(obj["prefactor"]),
            polarization=pol,
        )


class NonConstantFactor(ValueError):
    """The conformal factor is a ratio of polynomials that is not a constant;
    the message is the ratio, its denominator scaled to leading coefficient 1."""


def constant_ratio(num: Poly, den: Poly) -> Optional[GaussianRational]:
    """The constant c with num == c * den exactly, or None; den is nonzero."""
    if num.is_zero():
        return ZERO
    c = num.leading_coefficient() / den.leading_coefficient()
    return c if num == den * c else None


def conformal_factor(s: SUStructure) -> GaussianRational:
    """Solve Omega ^ conj(Omega) = i^n F omega^n / n! for the constant F, exactly.

    The i^n normalization is fixed once and for all; variant conventions
    differing by an overall sign are NOT silently applied, so F may
    legitimately come out negative (it does on the flat examples).  Reports
    carry the exact value instead of forcing positivity.  A non-constant F
    raises `NonConstantFactor`.  It stays a module function behind
    `SUStructure.conformal_factor` because `perfbench/spans.py` traces it by
    this name.
    """
    if len(s.frame) != 2 * s.n:
        raise ValueError("frame must have exactly 2n one-form generators")
    top = (1 << 2 * s.n) - 1
    # omega^n / n! is the degree-2n part of exp(omega), its top coefficient
    den = s._exp_omega_parts.get(s.n, {}).get(top)
    if den is None:
        raise ValueError("omega is degenerate: omega^n = 0")
    num = _volume_square_top(s)
    den = den * I ** s.n
    c = constant_ratio(num, den)
    if c is None:
        unit = ONE / den.leading_coefficient()
        num, den = num * unit, den * unit
        raise NonConstantFactor(str(num) if den.is_constant() else f"({num})/({den})")
    return c


def _volume_square_top(s: SUStructure) -> Poly:
    """The top coefficient of Omega ^ conj(Omega), in one pass over the terms
    of Omega (pure of degree n, on 2n generators):
    sum_m koszul_sign(m, ~m) * Omega_m * conj(Omega_~m).  The terms at m and
    at ~m are conjugate up to koszul_sign(~m, m) = (-1)^n koszul_sign(m, ~m),
    so each pair {m, ~m} costs one product P, and the sum Q of
    koszul_sign(m, ~m) * P over the pairs gives Q + (-1)^n conj(Q)."""
    terms = s.Omega.terms
    top = (1 << 2 * s.n) - 1
    acc: dict = {}
    for m, c in terms.items():
        rest = top ^ m
        if m < rest and (d := terms.get(rest)) is not None:
            _mul_into(acc, c.terms, d.conjugate().terms, koszul_sign(m, rest) < 0)
    q = _settle(acc)
    # the variables are real, so conj(Q) has conj(v) at each monomial of Q
    return q - q.conjugate() if s.n & 1 else q + q.conjugate()


def proportional_to(form: Form, candidate: Form) -> Optional[GaussianRational]:
    """The exact constant c with form == c * candidate, or None."""
    if candidate.is_zero():
        return ZERO if form.is_zero() else None
    if form.is_zero():
        return ZERO
    mask, cc = next(iter(sorted(candidate.terms.items())))
    fc = form.terms.get(mask)
    if fc is None:
        return None
    c = constant_ratio(fc, cc)
    if c is not None and form == candidate * Poly.constant(c):
        return c
    return None


def check_su(s: SUStructure) -> CheckReport:
    """The defining compatibilities of an SU(n) structure."""
    rep = CheckReport()
    ow = s.Omega.wedge(s.omega)
    rep.add("Omega-wedge-omega-vanishes", ow.is_zero(), ow)
    try:
        cf = s.conformal_factor()
    except NonConstantFactor as e:
        rep.add("conformal-factor-defined", True)
        rep.add_status("conformal-factor-nonvanishing", UNDETERMINED, e)
        return rep
    except ValueError as e:
        rep.add("conformal-factor-defined", False, e)
        return rep
    rep.add("conformal-factor-defined", True)
    rep.add("conformal-factor-nonvanishing", bool(cf), cf)
    rep.add_status("conformal-factor-constant", PASS, str(cf))
    return rep


def check_iib(s: SUStructure) -> CheckReport:
    """Closed volume form + balanced metric, each exactly."""
    rep = CheckReport()
    rep.extend(check_su(s))
    dO = exterior_d(s.Omega)
    rep.add("d-Omega-vanishes", dO.is_zero(), dO)
    dw = exterior_d(s.omega_power(s.n - 1))
    rep.add("d-omega-power-n-minus-1-vanishes", dw.is_zero(), dw)
    return rep


def check_iia(s: SUStructure) -> CheckReport:
    """Symplectic form + closedness of the (n,0) and (1,n-1) projections."""
    if s.polarization is None:
        raise ValueError("IIA check needs a polarization")
    rep = CheckReport()
    rep.extend(check_su(s))
    dw = exterior_d(s.omega)
    rep.add("d-omega-vanishes", dw.is_zero(), dw)
    top = s.pq_project(s.n, 0)
    d_top = exterior_d(top)
    rep.add("d-pi-n0-Omega-vanishes", d_top.is_zero(), d_top)
    mid = s.pq_project(1, s.n - 1)
    d_mid = exterior_d(mid)
    rep.add("d-pi-1-nminus1-Omega-vanishes", d_mid.is_zero(), d_mid)
    _check_special_phase(rep, s, top)
    return rep


def _check_special_phase(rep: CheckReport, s: SUStructure, pure_fiber: Form) -> None:
    """The pure-fiber component must be a positive real multiple of e^{i theta}."""
    coeffs = list(pure_fiber.terms.values())
    if len(coeffs) != 1:
        rep.add("special-phase", False, "pure-fiber component is not a single monomial")
        return
    c = coeffs[0]
    if not c.is_constant():
        rep.add_status("special-phase", UNDETERMINED, f"non-constant coefficient {c}")
        return
    v = c.constant_value()
    computed = None
    for q, unit in enumerate(QUARTER_UNITS):
        w = v / unit
        if w.im == 0 and w.re > 0:
            computed = q
            break
    if computed is None:
        rep.add("special-phase", False, f"coefficient {v} has no quarter-turn phase")
        return
    declared = s.polarization.phase_quarter
    if declared is None:
        rep.add_status("special-phase", PASS, f"computed phase quarter {computed}")
    else:
        rep.add("special-phase", declared == computed,
                f"declared {declared}, computed {computed}")


def flux_iib(s: SUStructure) -> tuple[Form, CheckReport]:
    """2i del dbar (F^{-1} omega)."""
    hf = s.holo_frame
    if hf is None:
        raise ValueError("IIB flux needs the complex basis")
    rep = CheckReport()
    cf = s.conformal_factor()
    if not cf:
        raise ValueError("conformal factor vanishes")
    arg = frame_collect(s.omega * (ONE / cf), hf)
    _, dbar = dolbeault(arg, hf)
    ddbar, _ = dolbeault(dbar, hf)
    rho = frame_expand(ddbar, s.frame) * (I * 2)
    d_rho = exterior_d(rho)
    rep.add("flux-closed", d_rho.is_zero(), d_rho)
    return rho, rep


def flux_iia(s: SUStructure) -> tuple[Form, CheckReport]:
    """-i d d^Lambda (F (pi^{n-1,1} Omega + pi^{0,n} Omega)) for Darboux omega."""
    if s.polarization is None:
        raise ValueError("IIA flux needs a polarization")
    symp = SymplecticData.darboux(s.frame, s.polarization.fiber_class)
    if symp.omega != s.omega:
        raise MissingPairing("IIA flux requires the canonical Darboux omega")
    rep = CheckReport()
    arg = (s.pq_project(s.n - 1, 1) + s.pq_project(0, s.n)) * s.conformal_factor()
    rho = exterior_d(d_lambda(arg, symp)) * (-I)
    d_rho = exterior_d(rho)
    rep.add("flux-closed", d_rho.is_zero(), d_rho)
    return rho, rep


def flux_constant(n: int) -> GaussianRational:
    """The k with fm_backward(rho_A) = k * rho_B: reversal_sign(n) * 2^(2n) / c^2
    with c = `intertwining_constant(n)`; as c^2 = -1/4, that is
    -reversal_sign(n) * 2^(2n+2).

    Write FT for `fm_forward`, w for the complex-side omega with conformal
    factor Fc, and Omega_A = FT(exp(2w)) for the mirror volume form with
    conformal factor F; both factors are constant and F * Fc = 2^(2n).
    - FT carries the degree-2 and top-degree parts of exp(2w) to the
      (n-1,1) and (0,n) parts of Omega_A, so their sum, the argument of
      `flux_iia`, is F * FT(2w + (2w)^n / n!).
    - del-dbar kills the top-degree term, and the intertwining laws
      FT(dbar phi) = c d FT(phi) and FT(del phi) = c d^Lambda FT(phi)
      (`check_intertwining`) give d d^Lambda FT(phi) = FT(dbar del phi) / c^2.
    - So rho_A = -i F d d^Lambda FT(2w) = -2i F FT(dbar del w) / c^2, and
      rho_B = 2i del dbar (w / Fc) = -2i dbar del w / Fc gives
      rho_A = F Fc FT(rho_B) / c^2 = 2^(2n) FT(rho_B) / c^2.
    - `fm_backward` after `fm_forward` is reversal_sign(n), which gives k.
    """
    return GaussianRational(reversal_sign(n) * 2 ** (2 * n)) / intertwining_constant(n) ** 2


def flux_correspondence(pair: SemiflatPair, rho_a: Form, rho_b: Form) -> tuple[Form, Form]:
    """The two sides of the flux correspondence, equal when it holds:
    `fm_backward` of the IIA flux read on the complex side's `frame_xc`, and
    flux_constant(n) times the IIB flux."""
    return frame_expand(pair.fm_backward(rho_a), pair.frame_xc), rho_b * flux_constant(pair.n)


def mirror_transform(pair: SemiflatPair, omega_check: Form) -> SUStructure:
    """Build the symplectic-side structure whose volume form is the transform
    of exp(2 * omega_check), a real two-form on the pair's `frame_xc`.

    The volume form is returned factored: prefactor (-1)^{n(n-1)/2} times the
    product of (dth_i + i mu_i) with mu_i the i-th row of the coefficient
    matrix of omega_check.
    """
    n = pair.n
    if omega_check.frame is not pair.frame_xc:
        raise ValueError("omega_check must live on the complex side of the pair")
    if omega_check.conjugate() != omega_check:
        raise ValueError("omega_check must be real")
    fibers = pair.frame_xc.gens_of_class(GenClass.FIBER_MIRROR)
    bases = pair.frame_xc.gens_of_class(GenClass.BASE)
    allowed = set()
    mu = [[Poly() for _ in range(n)] for _ in range(n)]
    for a, fa in enumerate(fibers):
        for b, db in enumerate(bases):
            allowed.add((1 << fa) | (1 << db))
    for mask, c in omega_check.terms.items():
        if mask not in allowed:
            raise ValueError("omega_check must pair one fiber leg with one base leg")
        i_f, i_b = sorted(bits(mask))
        mu[fibers.index(i_f)][bases.index(i_b)] = c
    for a in range(n):
        for b in range(a + 1, n):
            if mu[a][b] != mu[b][a]:
                raise ValueError("coefficient matrix is not symmetric")
    det = linalg.poly_det(mu)
    if det.is_zero():
        # each factor dth_a + i mu_a.dr has its own dth_a leg, so the factors
        # are independent for every mu; det mu = 0 is a degenerate omega_check
        raise ValueError("omega_check is degenerate: its coefficient matrix has determinant 0")

    factors = []
    for a in range(n):
        f = Form.gen(pair.frame_x, pair.fiber_x_labels[a])
        for b in range(n):
            if not mu[a][b].is_zero():
                f = f + Form.gen(pair.frame_x, f"d{pair.base_vars[b]}") * (mu[a][b] * I)
        factors.append(f)

    omega = pair.darboux_x.omega
    sign = reversal_sign(n)
    phase = 0 if sign > 0 else 2
    return SUStructure(
        n,
        pair.frame_x,
        omega,
        Omega_factors=factors,
        prefactor=GaussianRational(sign),
        polarization=Polarization(GenClass.FIBER_X, phase),
    )
