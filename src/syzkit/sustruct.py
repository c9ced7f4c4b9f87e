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
from fractions import Fraction
from functools import cached_property
from math import factorial
from typing import Optional, Sequence

from . import linalg
from .calculus import (
    HOLO_SPLIT,
    BasisChangeError,
    MissingPairing,
    SymplecticData,
    d_lambda,
    dolbeault,
    exterior_d,
    holo_coframe,
)
from .coeffring import (
    GaussianRational,
    I,
    ONE,
    P_ONE,
    Poly,
    PolyRatio,
    ZERO,
    exponent_vectors,
)
from .exterior import Form, FrameSpec, GenClass, Generator, bits, frame_collect, frame_expand
from .fourier import SemiflatPair
from .reports import PASS, UNDETERMINED, CheckReport

QUARTER_UNITS = (GaussianRational(1), I, GaussianRational(-1), -I)


@dataclass
class Polarization:
    fiber_class: GenClass
    phase_quarter: Optional[int] = None  # e^{i theta} = i^phase_quarter


class SUStructure:
    """A pair (omega, Omega) with optional polarization data.

    Omega is `prefactor` times the wedge of `Omega_factors`, its decomposition
    into complex one-forms; the product is formed once, here.  Given
    `holo_labels` to name the factors, the induced dz/dzb frame is built from
    them on the first read of `holo_frame`, and is None when the transition
    is not exactly invertible.  `omega_power(k)` wedges each power of omega
    once and keeps it; `mu`, the coefficient matrix, is read on first use.
    """

    def __init__(
        self,
        n: int,
        frame: FrameSpec,
        omega: Form,
        Omega_factors: Sequence[Form],
        prefactor: GaussianRational = ONE,
        polarization: Optional[Polarization] = None,
        holo_labels: Optional[Sequence[str]] = None,
    ):
        self.n = n
        self.frame = frame
        self.omega = omega
        self.Omega_factors = list(Omega_factors)
        Omega = Form.scalar(frame, prefactor)
        for f in self.Omega_factors:
            Omega = Omega.wedge(f)
        self.Omega = Omega
        self.prefactor = prefactor
        self.polarization = polarization
        self.holo_labels = None if holo_labels is None else list(holo_labels)
        self._conformal: Optional[PolyRatio] = None
        self._omega_powers = [Form.scalar(frame, 1), omega]

    @cached_property
    def holo_frame(self) -> Optional[FrameSpec]:
        if self.holo_labels is None:
            return None
        try:
            return holo_coframe(self.frame, list(zip(self.holo_labels, self.Omega_factors)))
        except BasisChangeError:
            return None

    @cached_property
    def mu(self) -> list[list[Poly]]:
        """The coefficient matrix: with a polarization, read from the factors
        fiber_a + i sum_b mu_ab base_b; without one, from
        omega = sum mu_ab fiber_a ^ base_b."""
        bases = self.frame.gens_of_class(GenClass.BASE)
        if self.polarization is None:
            fibers = [i for i, g in enumerate(self.frame.generators)
                      if g.leg_class in (GenClass.FIBER_X, GenClass.FIBER_MIRROR)]
            mu = [[Poly() for _ in bases] for _ in fibers]
            for mask, c in self.omega.terms.items():
                idx = sorted(bits(mask))
                if len(idx) != 2 or idx[0] not in fibers or idx[1] not in bases:
                    raise ValueError("omega does not pair fiber legs with base legs")
                mu[fibers.index(idx[0])][bases.index(idx[1])] = c
            return mu
        fibers = self.frame.gens_of_class(self.polarization.fiber_class)
        base_bits = {1 << b for b in bases}
        if len(self.Omega_factors) != len(fibers):
            raise ValueError("the factors do not match the polarized fibers")
        mu = []
        for fa, factor in zip(fibers, self.Omega_factors):
            rest = dict(factor.terms)
            if rest.pop(1 << fa, None) != P_ONE or not rest.keys() <= base_bits:
                raise ValueError("a factor is not its fiber one-form plus i times base one-forms")
            mu.append([rest.get(1 << b, Poly()) * (-I) for b in bases])
        return mu

    def omega_power(self, k: int) -> Form:
        """omega^k (omega^0 = 1); each power is wedged once, on first use."""
        if k < 0:
            raise ValueError("omega power must be non-negative")
        powers = self._omega_powers
        while len(powers) <= k:
            powers.append(powers[-1].wedge(self.omega))
        return powers[k]

    def conformal_factor(self) -> PolyRatio:
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
        fr = obj["frame"]
        gens = []
        for lab, cls, paired in zip(fr["labels"], fr["classes"], fr["paired"]):
            gens.append(Generator(lab, GenClass(cls), paired_base_var=paired))
        frame = FrameSpec(gens, fr["base_vars"], obj["n"])
        if obj["n"] < 1:
            raise ValueError(f"n must be at least 1, got {obj['n']}")
        omega = Form.from_json(obj["omega"], frame)
        pol = None
        if obj.get("polarization"):
            pol = Polarization(
                GenClass(obj["polarization"]["fiber_class"]),
                obj["polarization"].get("phase_quarter"),
            )
        factors = [Form.from_json(f, frame) for f in obj["Omega_factors"]]
        return SUStructure(
            obj["n"],
            frame,
            omega,
            Omega_factors=factors,
            prefactor=GaussianRational.from_json(obj["prefactor"]),
            polarization=pol,
            holo_labels=[f"dz{k+1}" for k in range(len(factors))],
        )


def _top_coefficient(frame: FrameSpec, form: Form) -> Poly:
    top = (1 << len(frame)) - 1
    for mask, c in form.terms.items():
        if mask != top:
            raise ValueError("form is not a top form")
    return form.terms.get(top, Poly())


def conformal_factor(s: SUStructure) -> PolyRatio:
    """Solve Omega ^ conj(Omega) = i^n F omega^n / n! for F, exactly.

    The i^n normalization is fixed once and for all; variant conventions
    differing by an overall sign are NOT silently applied, so F may
    legitimately come out negative (it does on the flat examples).  Reports
    carry the exact value instead of forcing positivity.
    """
    if len(s.frame) != 2 * s.n:
        raise ValueError("frame must have exactly 2n one-form generators")
    oo = s.Omega.wedge(s.Omega.conjugate())
    wn = s.omega_power(s.n) * Fraction(1, factorial(s.n))
    den = _top_coefficient(s.frame, wn)
    if den.is_zero():
        raise ValueError("omega is degenerate: omega^n = 0")
    num = _top_coefficient(s.frame, oo)
    return PolyRatio(num, den * I ** s.n)


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
    try:
        c = PolyRatio(fc, cc).constant_value()
    except ValueError:
        return None
    if form == candidate * Poly.constant(c):
        return c
    return None


def check_su(s: SUStructure) -> CheckReport:
    """The defining compatibilities of an SU(n) structure."""
    rep = CheckReport("su-structure")
    ow = s.Omega.wedge(s.omega)
    rep.add("Omega-wedge-omega-vanishes", ow.is_zero(), ow)
    try:
        cf = s.conformal_factor()
    except ValueError as e:
        rep.add("conformal-factor-defined", False, e)
        return rep
    rep.add("conformal-factor-defined", True)
    if cf.is_constant():
        v = cf.constant_value()
        rep.add("conformal-factor-nonvanishing", bool(v), cf)
        rep.add_status("conformal-factor-constant", PASS, str(v))
    else:
        rep.add_status("conformal-factor-nonvanishing", UNDETERMINED, cf)
    return rep


def check_iib(s: SUStructure) -> CheckReport:
    """Closed volume form + balanced metric, each exactly."""
    rep = CheckReport("iib-system")
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
    rep = CheckReport("iia-system")
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


def _scale_by_inverse_conformal(s: SUStructure, form: Form) -> Form:
    cf = s.conformal_factor()
    if cf.is_constant():
        v = cf.constant_value()
        if not v:
            raise ValueError("conformal factor vanishes")
        return form * (ONE / v)
    num, den = cf.num, cf.den
    if num.is_constant():
        return form * (den * (ONE / num.constant_value()))
    raise ValueError("non-constant conformal factor without exact inverse")


def flux_iib(s: SUStructure) -> tuple[Form, CheckReport]:
    """2i del dbar (F^{-1} omega)."""
    hf = s.holo_frame
    if hf is None:
        raise ValueError("IIB flux needs the complex basis")
    rep = CheckReport("flux-iib")
    arg = _scale_by_inverse_conformal(s, s.omega)
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
    rep = CheckReport("flux-iia")
    cf = s.conformal_factor()
    part = s.pq_project(s.n - 1, 1) + s.pq_project(0, s.n)
    if cf.is_constant():
        arg = part * cf.constant_value()
    elif cf.den.is_constant():
        arg = part * (cf.num * (ONE / cf.den.constant_value()))
    else:
        raise ValueError("conformal factor is not exactly representable")
    rho = exterior_d(d_lambda(arg, symp)) * (-I)
    d_rho = exterior_d(rho)
    rep.add("flux-closed", d_rho.is_zero(), d_rho)
    return rho, rep


def mirror_transform(pair: SemiflatPair, omega_check: Form) -> SUStructure:
    """Build the symplectic-side structure whose volume form is the transform
    of exp(2 * omega_check).

    The volume form is returned factored: prefactor (-1)^{n(n-1)/2} times the
    product of (dth_i + i mu_i) with mu_i the i-th row of the coefficient
    matrix of omega_check.
    """
    n = pair.n
    if omega_check.frame == pair.holo_frame:
        omega_check = frame_expand(omega_check, pair.frame_xc)
    if omega_check.frame != pair.frame_xc:
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
        raise ValueError("degenerate coefficient matrix: the one-forms are dependent")

    factors = []
    for a in range(n):
        f = Form.gen(pair.frame_x, pair.fiber_x_labels[a])
        for b in range(n):
            if not mu[a][b].is_zero():
                f = f + Form.gen(pair.frame_x, f"d{pair.base_vars[b]}") * (mu[a][b] * I)
        factors.append(f)
    pref = ONE if (n * (n - 1) // 2) % 2 == 0 else -ONE

    omega = SymplecticData.darboux(pair.frame_x, GenClass.FIBER_X).omega
    phase = 0 if pref == ONE else 2
    return SUStructure(
        n,
        pair.frame_x,
        omega,
        Omega_factors=factors,
        prefactor=pref,
        polarization=Polarization(GenClass.FIBER_X, phase),
        holo_labels=[f"dw{k+1}" for k in range(n)],
    )


def default_sample_points(base_vars: Sequence[str]) -> list[dict]:
    pts = [{v: Fraction(0) for v in base_vars}]
    for v in base_vars:
        p = {w: Fraction(0) for w in base_vars}
        p[v] = Fraction(1)
        pts.append(p)
    return pts


def check_hermitian_at(s: SUStructure, points: Optional[Sequence[dict]] = None) -> CheckReport:
    """Positive definiteness of the coefficient matrix at rational points,
    by exact leading principal minors."""
    rep = CheckReport("hermitian-at-points")
    mu = s.mu
    n = len(mu)
    if points is None:
        points = default_sample_points(s.frame.base_vars)
    for pt in points:
        tag = ",".join(f"{v}={pt[v]}" for v in s.frame.base_vars)
        ok = True
        witness = None
        for k in range(1, n + 1):
            sub = [[Poly.constant(mu[i][j].evaluate(pt)) for j in range(k)] for i in range(k)]
            det = linalg.poly_det(sub).constant_value()
            if det.im != 0 or det.re <= 0:
                ok = False
                witness = f"minor {k} = {det} at ({tag})"
                break
        rep.add(f"positive-definite@({tag})", ok, witness)
    return rep


def check_deformation_class(
    s: SUStructure,
    delta: Form,
    side: str,
    degree_bound: Optional[int] = None,
) -> CheckReport:
    """Class membership for an infinitesimal deformation.

    IIB: delta must be closed and equal omega^{n-2} ^ beta with beta a
    primitive (1,1)-form (exact linear solve for beta).  IIA: the (1,n-1)
    projection must be closed, delta must be d^Lambda-closed and primitive.
    """
    rep = CheckReport(f"deformation-{side.lower()}")
    n = s.n
    if side.upper() == "IIB":
        if n < 2:
            raise ValueError("IIB deformation classes need n >= 2")
        if delta.degrees() not in ({2 * n - 2}, set()):
            raise ValueError(f"IIB deformation must have degree {2*n - 2}")
        dd = exterior_d(delta)
        rep.add("deformation-closed", dd.is_zero(), dd)
        if s.holo_frame is None:
            rep.add_status("lefschetz-primitive-decomposition", UNDETERMINED,
                           "no complex basis available")
            return rep
        if degree_bound is None:
            degree_bound = max((p.degree() for p in delta.terms.values()), default=0)
            degree_bound = max(degree_bound, 0)
        beta = _solve_primitive_11(s, delta, s.omega_power(n - 2), s.omega_power(n - 1), degree_bound)
        rep.add("lefschetz-primitive-decomposition", beta is not None,
                f"no primitive (1,1) beta with omega^{n-2}^beta = delta "
                f"(coefficient degree <= {degree_bound})")
        if beta is not None:
            rep.add_status("primitive-witness", PASS, str(beta))
    elif side.upper() == "IIA":
        if delta.degrees() not in ({n}, set()):
            raise ValueError(f"IIA deformation must have degree {n}")
        if s.polarization is None:
            raise ValueError("IIA deformation check needs a polarization")
        proj = delta.bidegree_project(1, n - 1, (s.polarization.fiber_class, GenClass.BASE))
        dp = exterior_d(proj)
        rep.add("projected-deformation-closed", dp.is_zero(), dp)
        symp = SymplecticData.darboux(s.frame, s.polarization.fiber_class)
        dl = d_lambda(delta, symp)
        rep.add("deformation-dlambda-closed", dl.is_zero(), dl)
        wd = s.omega.wedge(delta)
        rep.add("deformation-primitive", wd.is_zero(), wd)
    else:
        raise ValueError(f"unknown side {side!r}")
    return rep


def _solve_primitive_11(
    s: SUStructure, delta: Form, wk: Form, wk1: Form, degree_bound: int
) -> Optional[Form]:
    hf = s.holo_frame
    monos = [mask for mask in range(1 << len(hf)) if hf.bidegree(mask, HOLO_SPLIT) == (1, 1)]
    uvars = tuple(sorted(s.frame.base_vars))
    exps = exponent_vectors(len(uvars), degree_bound)
    unknowns = [(m, e) for m in monos for e in exps]

    delta_c = frame_collect(delta, hf)
    wk_c = frame_collect(wk, hf)
    wk1_c = frame_collect(wk1, hf)

    rows_index: dict[tuple, int] = {}
    rhs_entries: dict[int, GaussianRational] = {}

    def key_of(mask, exp, eq):
        k = (eq, mask, exp)
        if k not in rows_index:
            rows_index[k] = len(rows_index)
        return rows_index[k]

    def entries_of(form: Form, eq: int, into: dict[int, GaussianRational]):
        for mask, c in form.terms.items():
            cu = c.in_universe(uvars) if c.vars != uvars else c
            for exp, v in cu.terms.items():
                into[key_of(mask, exp, eq)] = v

    entries_of(delta_c, 0, rhs_entries)

    col_vecs = []
    for m, e in unknowns:
        gen_form = Form(hf, {m: Poly(uvars, {tuple(e): ONE})})
        entries: dict[int, GaussianRational] = {}
        entries_of(wk_c.wedge(gen_form), 0, entries)
        entries_of(wk1_c.wedge(gen_form), 1, entries)
        col_vecs.append(entries)

    sol = linalg.solve(col_vecs, rhs_entries)
    if sol is None:
        return None
    beta = Form.zero(hf)
    for j in sorted(sol):
        m, e = unknowns[j]
        beta = beta + Form(hf, {m: Poly(uvars, {tuple(e): sol[j]})})
    return frame_expand(beta, s.frame)
