"""Upper-unitriangular nilmanifold family: frames, both supersymmetry sides,
lattice-invariance certificates, and the mirror pipeline.  `check_family`
runs every check of a family, in the order `syzkit nil` reports them.

For size K the base has coordinates r_ij (i < j, dictionary order, n =
K(K-1)/2 of them).  The tangent-bundle side carries the complex structure
(fiber coordinates th_ij, engine class FIBER_MIRROR, since it is the side
that gets dualized); the cotangent-bundle side carries the canonical
symplectic form (fiber coordinates thc_ij, engine class FIBER_X).  The
lattice acts by affine maps whose coefficients are the symbols a_ij; frame
invariance is checked as a polynomial identity in both r and a.  The two
coordinate frames are those of the flat pair with the family's labels
(`semiflat_pair`).  Both invariant frames are `calculus.coframe`s over them,
so their structure equations are derived; `structure_equations` checks the
closed forms de = -e^e and df = -e^f against d of the expansions.
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
# n = K(K-1)/2, and `nil --K 5` (n = 10) takes 8-13 s on a shared 2-vCPU
# machine
MAX_K = 5


@dataclass
class NilData:
    n: int
    pairs: list[tuple[int, int]]
    pair: SemiflatPair         # the flat pair with the family's labels
    x_frame: FrameSpec         # f, e: a coframe over x_coord
    xc_frame: FrameSpec        # fc, e: a coframe over xc_coord
    e_forms: dict[tuple[int, int], Form]
    f_forms: dict[tuple[int, int], Form]
    fc_forms: dict[tuple[int, int], Form]
    gamma_var_subst: dict[str, Poly]
    gamma_x_images: dict[int, Form]

    @property
    def x_coord(self) -> FrameSpec:
        """Complex side TB/L: dth + dr."""
        return self.pair.frame_xc

    @property
    def xc_coord(self) -> FrameSpec:
        """Symplectic side T*B/L*: dthc + dr."""
        return self.pair.frame_x


def _family_pairs(K: int) -> list[tuple[int, int]]:
    """The index pairs i < j of matrix size K in dictionary order, after the
    size check every size-K construction makes (2 <= K <= MAX_K)."""
    if not 2 <= K <= MAX_K:
        raise ValueError(
            f"matrix size K={K} is outside 2..{MAX_K}; "
            f"the 2n-generator algebra grows as 4^n with n = K(K-1)/2"
        )
    return [(i, j) for i in range(1, K + 1) for j in range(i + 1, K + 1)]


def build(K: int) -> NilData:
    """Construct all frames and the lattice action for matrix size K."""
    pairs = _family_pairs(K)
    pair = semiflat_pair(K)
    n = len(pairs)
    x_coord = pair.frame_xc
    xc_coord = pair.frame_x

    # e_{ik} = dr_{ik} - sum_{i<j<k} r_{ij} e_{jk}; f same over dth;
    # fc_{jk} = dthc_{jk} + sum_{i<j} r_{ij} fc_{ik}
    e_forms: dict[tuple[int, int], Form] = {}
    f_forms: dict[tuple[int, int], Form] = {}
    for gap in range(1, K):
        for i, k in pairs:
            if k - i != gap:
                continue
            e = Form.gen(x_coord, f"dr{i}{k}")
            f = Form.gen(x_coord, f"dth{i}{k}")
            for j in range(i + 1, k):
                rij = Poly.variable(f"r{i}{j}")
                e = e - e_forms[(j, k)] * rij
                f = f - f_forms[(j, k)] * rij
            e_forms[(i, k)] = e
            f_forms[(i, k)] = f
    # the tangent-side recursion linearizes to dth_{ik} = f_{ik} + sum_j r_{ij} f_{jk},
    # so the dual coframe has the one-step closed form below (nesting the dual
    # forms instead of the coordinate forms breaks duality once K >= 4)
    fc_forms: dict[tuple[int, int], Form] = {}
    for j, k in pairs:
        fc = Form.gen(xc_coord, f"dthc{j}{k}")
        for i in range(1, j):
            fc = fc + Form.gen(xc_coord, f"dthc{i}{k}") * Poly.variable(f"r{i}{j}")
        fc_forms[(j, k)] = fc

    x_frame = coframe(
        [Generator(f"f{i}{j}", coord_expansion=f_forms[(i, j)]) for i, j in pairs]
        + [Generator(f"e{i}{j}", coord_expansion=e_forms[(i, j)]) for i, j in pairs],
        x_coord,
    )
    xc_frame = coframe(
        [Generator(f"fc{i}{j}", coord_expansion=fc_forms[(i, j)]) for i, j in pairs]
        + [Generator(f"e{i}{j}", coord_expansion=e_forms[(i, j)].transport(xc_coord)) for i, j in pairs],
        xc_coord,
    )

    # lattice action r'_{ik} = r_{ik} + sum_{i<j<k} a_{ij} r_{jk} + a_{ik},
    # th'_{ik} = th_{ik} + sum a_{ij} th_{jk}
    var_subst: dict[str, Poly] = {}
    x_images: dict[int, Form] = {}
    for i, k in pairs:
        img = Poly.variable(f"r{i}{k}") + Poly.variable(f"a{i}{k}")
        dr_img = Form.gen(x_coord, f"dr{i}{k}")
        dth_img = Form.gen(x_coord, f"dth{i}{k}")
        for j in range(i + 1, k):
            a = Poly.variable(f"a{i}{j}")
            img = img + a * Poly.variable(f"r{j}{k}")
            dr_img = dr_img + Form.gen(x_coord, f"dr{j}{k}") * a
            dth_img = dth_img + Form.gen(x_coord, f"dth{j}{k}") * a
        var_subst[f"r{i}{k}"] = img
        x_images[x_coord.index[f"dr{i}{k}"]] = dr_img
        x_images[x_coord.index[f"dth{i}{k}"]] = dth_img

    return NilData(
        n=n,
        pairs=pairs,
        pair=pair,
        x_frame=x_frame,
        xc_frame=xc_frame,
        e_forms=e_forms,
        f_forms=f_forms,
        fc_forms=fc_forms,
        gamma_var_subst=var_subst,
        gamma_x_images=x_images,
    )


def gamma_pullback(nd: NilData, form: Form) -> Form:
    """Pull a coordinate form on the complex side back along the symbolic
    lattice action (coefficients and differentials both move)."""
    moved = form.map_coefficients(lambda p: p.subst(nd.gamma_var_subst))
    return substitute_generators(moved, nd.x_coord, nd.gamma_x_images)


def check_gamma_invariance(nd: NilData) -> CheckReport:
    """Every frame one-form equals its own pullback, identically in r and a."""
    rep = CheckReport()
    for i, j in nd.pairs:
        for name, form in ((f"e{i}{j}", nd.e_forms[(i, j)]), (f"f{i}{j}", nd.f_forms[(i, j)])):
            diff = gamma_pullback(nd, form) - form
            rep.add(f"invariant-{name}", diff.is_zero(), diff)
    return rep


def structure_equations(nd: NilData) -> CheckReport:
    """Differentiate the coordinate expansions and compare with the structure
    equations de_ij = -sum_k e_ik ^ e_kj and df_ij = -sum_k e_ik ^ f_kj, and
    with the derived dfc_ij stored on the symplectic-side frame."""
    rep = CheckReport()
    x = nd.x_frame
    for i, j in nd.pairs:
        de = Form.zero(x)
        df = Form.zero(x)
        for k in range(i + 1, j):
            de = de - Form.gen(x, f"e{i}{k}").wedge(Form.gen(x, f"e{k}{j}"))
            df = df - Form.gen(x, f"e{i}{k}").wedge(Form.gen(x, f"f{k}{j}"))
        for name, coord, claimed in (
            (f"e{i}{j}", nd.e_forms[(i, j)], de),
            (f"f{i}{j}", nd.f_forms[(i, j)], df),
        ):
            got = exterior_d(coord)
            want = frame_expand(claimed, nd.x_coord)
            rep.add(f"d-{name}", got == want, got - want)
        name = f"fc{i}{j}"
        claimed = nd.xc_frame.d_of_generator(nd.xc_frame.index[name])
        got = exterior_d(nd.fc_forms[(i, j)])
        want = frame_expand(claimed, nd.xc_coord)
        rep.add(f"d-{name}-derived", got == want, got - want)
    return rep


def omega_hermitian(nd: NilData) -> Form:
    """The Hermitian (1,1)-form sum f_ij ^ e_ij on the complex side,
    expanded in coordinates."""
    w = Form.zero(nd.x_coord)
    for p in nd.pairs:
        w = w + nd.f_forms[p].wedge(nd.e_forms[p])
    return w


def build_iib_side(nd: NilData) -> SUStructure:
    """Complex side: holomorphic volume form in the coordinates z_ij =
    th_ij + i r_ij, Hermitian form sum f ^ e."""
    factors = [
        Form.gen(nd.x_coord, f"dth{i}{j}") + Form.gen(nd.x_coord, f"dr{i}{j}") * I
        for i, j in nd.pairs
    ]
    return SUStructure(
        nd.n,
        nd.x_coord,
        omega_hermitian(nd),
        Omega_factors=factors,
    )


def build_iia_side(nd: NilData) -> SUStructure:
    """Symplectic side: canonical symplectic form, volume form wedge of the
    factors fc_jk + i e_jk (dictionary order), fiber polarization."""
    factors = [nd.fc_forms[p] + nd.e_forms[p].transport(nd.xc_coord) * I for p in nd.pairs]
    return SUStructure(
        nd.n,
        nd.xc_coord,
        nd.pair.darboux_x.omega,
        Omega_factors=factors,
        polarization=Polarization(GenClass.FIBER_X, None),
    )


def semiflat_pair(K: int) -> SemiflatPair:
    """The flat semi-flat pair of rank n = K(K-1)/2 written with the size-K
    family's labels: fibers dthc_ij / dth_ij over the base r_ij, holomorphic
    one-forms dz_ij.  It needs only the labels, not the nilmanifold frames."""
    pairs = _family_pairs(K)
    return SemiflatPair(
        len(pairs),
        base_vars=[f"r{i}{j}" for i, j in pairs],
        fiber_x_labels=[f"dthc{i}{j}" for i, j in pairs],
        fiber_mirror_labels=[f"dth{i}{j}" for i, j in pairs],
        holo_labels=[f"dz{i}{j}" for i, j in pairs],
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
    fibers = {nd.x_coord.index[f"dth{i}{j}"]: r for r, (i, j) in enumerate(nd.pairs)}
    dual = {nd.xc_coord.index[f"dthc{i}{j}"]: r for r, (i, j) in enumerate(nd.pairs)}
    f_rows = [
        {fibers[i]: c for m, c in nd.f_forms[p].terms.items() if (i := m.bit_length() - 1) in fibers}
        for p in nd.pairs
    ]
    fc_cols: list[dict[int, Poly]] = [{} for _ in nd.pairs]
    for q, p in enumerate(nd.pairs):
        for m, c in nd.fc_forms[p].terms.items():
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
