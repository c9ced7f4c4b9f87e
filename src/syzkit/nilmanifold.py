"""Nilmanifolds of nilpotent associative algebras: frames, both
supersymmetry sides, lattice-invariance certificates, and the mirror pipeline.
`check_family` runs every check of a nilmanifold, in the order `syzkit nil`
reports them.

A nilpotent associative algebra J (`NilAlgebra`) has basis b_1..b_n and
structure constants b_p b_q = sum_s c_pq^s b_s.  Its group 1 + J acts on
itself by left multiplication, affinely in the coordinates:
(1 + a)(1 + r) = 1 + a + r + a r (Isaacs, J. Algebra 177, 1995).  So the
semi-flat construction applies with one base coordinate r_s per basis
element.  The tangent-bundle side carries the complex structure (fiber
coordinates th_s, engine class FIBER_MIRROR, since it is the side that gets
dualized); the cotangent-bundle side carries the canonical symplectic form
(fiber coordinates thc_s, engine class FIBER_X).  The invariant coframes are
e = (1 + r)^-1 dr, f = (1 + r)^-1 dth and fc = L(r)^T dthc, where L(r) is the
matrix of left multiplication by 1 + r, so <f_p, fc_q> = delta_pq.  The
lattice acts by r -> a + r + a r and moves dr and dth by 1 + a, with symbols
a_s; frame invariance is checked as a polynomial identity in both r and a.
The two coordinate frames are those of the flat pair with the algebra's
labels (`semiflat_pair`).  Both invariant frames are `calculus.coframe`s over
them, so their structure equations are derived; `structure_equations` checks
the closed forms de_s = -sum c_pq^s e_p ^ e_q and df_s = -sum c_pq^s e_p ^ f_q
against d of the expansions.

`upper_triangular(K)` is the upper-unitriangular family: J = U_K, the
strictly upper-triangular K x K matrices, with basis E_ij (i < j, dictionary
order, n = K(K-1)/2, labels "ij").
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .calculus import coframe, exterior_d
from .coeffring import GaussianRational, I, P_ONE, Poly
from .exterior import (
    Form,
    FrameSpec,
    GenClass,
    Generator,
    frame_collect,
    frame_expand,
    reversal_sign,
    substitute_generators,
)
from .fourier import SemiflatPair
from .reports import CheckReport
from .sustruct import (
    Polarization,
    SUStructure,
    check_iia,
    check_iib,
    flux_correspondence,
    flux_iia,
    flux_iib,
    mirror_transform,
    proportional_to,
)


# the largest matrix size: the 2n-generator algebra grows as 4^n with
# n = K(K-1)/2, and `nil --K 5` (n = 10) took 4.5-5.0 s in four whole-process
# runs on a shared 2-vCPU machine
MAX_K = 5


@dataclass(frozen=True)
class NilAlgebra:
    """A nilpotent associative algebra: its basis labels, and its structure
    constants b_p b_q = sum_s c_pq^s b_s as the nonzero (p, q, s, c_pq^s).
    An element is the list of its n coefficients."""

    labels: tuple[str, ...]
    constants: tuple[tuple[int, int, int, Poly], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def times(self, x: list[Poly], y: list, zero) -> list:
        """The product x y, for y with polynomial or form coefficients; every
        entry of the product starts at `zero`."""
        out = [zero] * self.n
        for p, q, s, c in self.constants:
            out[s] = out[s] + y[q] * (x[p] * c)
        return out


def upper_triangular(K: int) -> NilAlgebra:
    """U_K: the strictly upper-triangular K x K matrices, with basis E_ij
    (i < j) in dictionary order labelled "ij" and E_ij E_jk = E_ik, after the
    size check every size-K construction makes (2 <= K <= MAX_K)."""
    if not 2 <= K <= MAX_K:
        raise ValueError(
            f"matrix size K={K} is outside 2..{MAX_K}; "
            f"the 2n-generator algebra grows as 4^n with n = K(K-1)/2"
        )
    pairs = [(i, j) for i in range(1, K + 1) for j in range(i + 1, K + 1)]
    index = {p: s for s, p in enumerate(pairs)}
    return NilAlgebra(
        tuple(f"{i}{j}" for i, j in pairs),
        tuple((index[p], index[q], index[p[0], q[1]], P_ONE) for p in pairs for q in pairs if p[1] == q[0]),
    )


@dataclass
class NilData:
    algebra: NilAlgebra
    pair: SemiflatPair         # the flat pair with the algebra's labels
    x_frame: FrameSpec         # f, e: a coframe over x_coord
    xc_frame: FrameSpec        # fc, e: a coframe over xc_coord
    e_forms: list[Form]        # one per basis element, like f_forms and fc_forms
    f_forms: list[Form]
    fc_forms: list[Form]
    gamma_var_subst: dict[str, Poly]
    gamma_x_images: dict[int, Form]

    @property
    def n(self) -> int:
        return self.algebra.n

    @property
    def x_coord(self) -> FrameSpec:
        """Complex side TB/L: dth + dr."""
        return self.pair.frame_xc

    @property
    def xc_coord(self) -> FrameSpec:
        """Symplectic side T*B/L*: dthc + dr."""
        return self.pair.frame_x


def build(algebra: NilAlgebra) -> NilData:
    """Construct both invariant coframes and the lattice action of 1 + J."""
    pair = semiflat_pair(algebra)
    x_coord = pair.frame_xc
    xc_coord = pair.frame_x
    labels = algebra.labels
    zero = Form.zero(x_coord)
    r = [Poly.variable(f"r{s}") for s in labels]
    a = [Poly.variable(f"a{s}") for s in labels]
    dr = [Form.gen(x_coord, f"dr{s}") for s in labels]
    dth = [Form.gen(x_coord, f"dth{s}") for s in labels]
    dthc = [Form.gen(xc_coord, f"dthc{s}") for s in labels]

    def solve(rhs: list[Form]) -> list[Form]:
        # (1 + r) v = rhs as v = rhs - r v: r is nilpotent, so n steps reach
        # the fixed point
        v = rhs
        for _ in range(algebra.n):
            v = [b - rv for b, rv in zip(rhs, algebra.times(r, v, zero))]
        return v

    e_forms = solve(dr)
    f_forms = solve(dth)
    # fc = L(r)^T dthc against f = L(r)^-1 dth (nesting fc in its own
    # recursion instead breaks duality on U_K once K >= 4)
    fc_forms = list(dthc)
    for p, q, s, c in algebra.constants:
        fc_forms[q] = fc_forms[q] + dthc[s] * (r[p] * c)

    x_frame = coframe(
        [Generator(f"f{s}", coord_expansion=f) for s, f in zip(labels, f_forms)]
        + [Generator(f"e{s}", coord_expansion=e) for s, e in zip(labels, e_forms)],
        x_coord,
    )
    xc_frame = coframe(
        [Generator(f"fc{s}", coord_expansion=fc) for s, fc in zip(labels, fc_forms)]
        + [Generator(f"e{s}", coord_expansion=e.transport(xc_coord)) for s, e in zip(labels, e_forms)],
        xc_coord,
    )

    # the lattice element 1 + a: r -> a + r + a r, dr -> (1 + a) dr, dth -> (1 + a) dth
    def moved(v: list, start) -> list:
        return [w + av for w, av in zip(v, algebra.times(a, v, start))]

    var_subst = {f"r{s}": img + b for s, img, b in zip(labels, moved(r, Poly()), a)}
    x_images = {x_coord.index[f"{d}{s}"]: img for d, v in (("dr", dr), ("dth", dth))
                for s, img in zip(labels, moved(v, zero))}

    return NilData(algebra, pair, x_frame, xc_frame, e_forms, f_forms, fc_forms, var_subst, x_images)


def gamma_pullback(nd: NilData, form: Form) -> Form:
    """Pull a coordinate form on the complex side back along the symbolic
    lattice action (coefficients and differentials both move)."""
    moved = form.map_coefficients(lambda p: p.subst(nd.gamma_var_subst))
    return substitute_generators(moved, nd.x_coord, nd.gamma_x_images)


def check_gamma_invariance(nd: NilData) -> CheckReport:
    """Every frame one-form equals its own pullback, identically in r and a."""
    rep = CheckReport()
    for s, e, f in zip(nd.algebra.labels, nd.e_forms, nd.f_forms):
        for name, form in ((f"e{s}", e), (f"f{s}", f)):
            diff = gamma_pullback(nd, form) - form
            rep.add(f"invariant-{name}", diff.is_zero(), diff)
    return rep


def structure_equations(nd: NilData) -> CheckReport:
    """Differentiate the coordinate expansions and compare with the structure
    equations de_s = -sum c_pq^s e_p ^ e_q and df_s = -sum c_pq^s e_p ^ f_q,
    read from the algebra's structure constants, and with the derived dfc_s
    stored on the symplectic-side frame."""
    rep = CheckReport()
    x = nd.x_frame
    labels = nd.algebra.labels
    e = [Form.gen(x, f"e{s}") for s in labels]
    f = [Form.gen(x, f"f{s}") for s in labels]
    de = [Form.zero(x)] * nd.n
    df = list(de)
    for p, q, s, c in nd.algebra.constants:
        de[s] = de[s] - e[p].wedge(e[q]) * c
        df[s] = df[s] - e[p].wedge(f[q]) * c
    for s, label in enumerate(labels):
        for name, coord, claimed in (
            (f"e{label}", nd.e_forms[s], de[s]),
            (f"f{label}", nd.f_forms[s], df[s]),
        ):
            got = exterior_d(coord)
            want = frame_expand(claimed, nd.x_coord)
            rep.add(f"d-{name}", got == want, got - want)
        name = f"fc{label}"
        claimed = nd.xc_frame.d_of_generator(nd.xc_frame.index[name])
        got = exterior_d(nd.fc_forms[s])
        want = frame_expand(claimed, nd.xc_coord)
        rep.add(f"d-{name}-derived", got == want, got - want)
    return rep


def omega_hermitian(nd: NilData) -> Form:
    """The Hermitian (1,1)-form sum f_s ^ e_s on the complex side, expanded
    in coordinates."""
    w = Form.zero(nd.x_coord)
    for f, e in zip(nd.f_forms, nd.e_forms):
        w = w + f.wedge(e)
    return w


def build_iib_side(nd: NilData) -> SUStructure:
    """Complex side: holomorphic volume form in the coordinates z_s =
    th_s + i r_s, Hermitian form sum f ^ e."""
    factors = [
        Form.gen(nd.x_coord, f"dth{s}") + Form.gen(nd.x_coord, f"dr{s}") * I
        for s in nd.algebra.labels
    ]
    return SUStructure(
        nd.n,
        nd.x_coord,
        omega_hermitian(nd),
        Omega_factors=factors,
    )


def build_iia_side(nd: NilData) -> SUStructure:
    """Symplectic side: canonical symplectic form, volume form wedge of the
    factors fc_s + i e_s (basis order), fiber polarization."""
    factors = [fc + e.transport(nd.xc_coord) * I for fc, e in zip(nd.fc_forms, nd.e_forms)]
    return SUStructure(
        nd.n,
        nd.xc_coord,
        nd.pair.darboux_x.omega,
        Omega_factors=factors,
        polarization=Polarization(GenClass.FIBER_X, None),
    )


def semiflat_pair(algebra: NilAlgebra) -> SemiflatPair:
    """The flat semi-flat pair of rank n written with the algebra's labels:
    fibers dthc_s / dth_s over the base r_s, holomorphic one-forms dz_s.  It
    needs only the labels, not the nilmanifold frames."""
    labels = algebra.labels
    return SemiflatPair(
        algebra.n,
        base_vars=[f"r{s}" for s in labels],
        fiber_x_labels=[f"dthc{s}" for s in labels],
        fiber_mirror_labels=[f"dth{s}" for s in labels],
        holo_labels=[f"dz{s}" for s in labels],
    )


def check_mirror_pair(nd: NilData) -> tuple[CheckReport, SUStructure, SUStructure]:
    """Full transform pipeline on the pair: volume-form match, conformal
    product, both supersymmetry systems, and the flux correspondence.
    Returns the report, the IIB structure and its mirror IIA structure."""
    rep = CheckReport()
    n = nd.n
    pair = nd.pair
    su_b = build_iib_side(nd)
    rep.extend(check_iib(su_b))

    w = su_b.omega
    su_a = mirror_transform(pair, w)
    rep.extend(check_iia(su_a))

    exp_2w = frame_collect(w * 2, pair.holo_frame).exp_nilpotent()
    omega_fm = pair.fm_forward(exp_2w)
    rep.add("volume-form-integral-vs-closed-form", omega_fm == su_a.Omega,
            omega_fm - su_a.Omega)

    c = proportional_to(omega_fm, build_iia_side(nd).Omega)
    pref = GaussianRational(reversal_sign(n))
    rep.add("volume-form-matches-frame-product", c == pref,
            f"constant {c}, expected {pref}")

    f_a = su_a.conformal_factor()
    f_b = su_b.conformal_factor()
    prod_ok = (f_a * f_b) == GaussianRational(2) ** (2 * n)
    rep.add("conformal-product", prod_ok, f"F={f_a} Fcheck={f_b}")

    flux_a, rep_a = flux_iia(su_a)
    rep.extend(rep_a)
    flux_b, rep_b = flux_iib(su_b)
    rep.extend(rep_b)

    got, want = flux_correspondence(pair, flux_a, flux_b)
    rep.add("flux-correspondence", got == want, got - want)

    return rep, su_b, su_a


def dual_pairing_matrix(nd: NilData) -> list[dict[int, Poly]]:
    """<f_p, fc_q> with the tangent/cotangent fibers paired positionally, as
    sparse rows (q -> nonzero entry): the product of the f fiber rows and the
    transposed fc fiber rows, each form read once."""
    labels = nd.algebra.labels
    fibers = {nd.x_coord.index[f"dth{s}"]: r for r, s in enumerate(labels)}
    dual = {nd.xc_coord.index[f"dthc{s}"]: r for r, s in enumerate(labels)}
    f_rows = [
        {fibers[i]: c for m, c in f.terms.items() if (i := m.bit_length() - 1) in fibers}
        for f in nd.f_forms
    ]
    fc_cols: list[dict[int, Poly]] = [{} for _ in labels]
    for q, fc in enumerate(nd.fc_forms):
        for m, c in fc.terms.items():
            if (i := m.bit_length() - 1) in dual:
                fc_cols[dual[i]][q] = c
    return linalg.poly_row_product(f_rows, fc_cols)


def check_family(nd: NilData) -> tuple[CheckReport, SUStructure, SUStructure]:
    """Every check that `syzkit nil` reports, in its order: the structure
    equations, Gamma-invariance, the dual pairing, d(omega^(n-2)) != 0 (a
    claim only for n >= 3) and the mirror pipeline.  Returns the report, the
    IIB structure and its mirror IIA structure."""
    rep = CheckReport()
    rep.extend(structure_equations(nd))
    rep.extend(check_gamma_invariance(nd))
    pairing = dual_pairing_matrix(nd)
    rep.add("dual-pairing-identity", pairing == [{i: P_ONE} for i in range(nd.n)])
    mirror_rep, su_b, su_a = check_mirror_pair(nd)
    if nd.n >= 3:
        rep.add("d-omega-power-n-minus-2-nonzero", not exterior_d(su_b.omega_power(nd.n - 2)).is_zero())
    rep.extend(mirror_rep)
    return rep, su_b, su_a
