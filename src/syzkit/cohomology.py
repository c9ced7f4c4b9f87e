"""Finite-dimensional invariant cohomology with exact linear algebra.

The complexes are spanned by form monomials times coefficient monomials of
bounded total degree; all the operators in use lower the coefficient degree,
so the span closes.  Ranks and kernels come from the deterministic exact
elimination in `linalg`; dimensions at a given degree bound are reported as
such (per-D data, no asymptotic claims).

Only the primitive operators get columns of their own: d on both sides, and
the dual Lefschetz operator Lambda on the symplectic side.  They are built
from the frame data, not by applying Form operators to the basis: d by its
Leibniz rule on the frame's base one-forms and structure equations, Lambda as
the signed double contraction with the inverse pairing (the Form-level
`calculus.exterior_d` and `calculus.dual_lefschetz` are the tests' oracle for
them).  The composites are exact sparse products of the stored columns:
d^Lambda = d.Lambda - Lambda.d, d d^Lambda = d.d^Lambda, del and dbar are the
(p+1,q) and (p,q+1) rows of d on the dz/dzb frame, and del-dbar = del.dbar.
Every term of a primitive column is looked up in the basis, which proves the
span closed, and `vectorize` is linear and injective there, so each product
column is the vector of the composite applied to that basis element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Callable, Mapping, Optional, Sequence

from . import linalg
from .coeffring import GaussianRational, ONE, Poly, exponent_vectors
from .exterior import BasisChangeError, Form, FrameMismatch, FrameSpec, GenClass, bits, koszul_sign
from .calculus import HOLO_SPLIT, SymplecticData
from .reports import CheckReport

Key = tuple[int, tuple[int, ...]]  # a basis monomial: (generator mask, coefficient exponents)


class SpanEscape(ValueError):
    """An operator image does not lie in the degree-filtered span."""

    def __init__(self, message: str, witness: Optional[Form] = None):
        super().__init__(message)
        self.witness = witness


def product(*terms: tuple[int, Sequence[linalg.Vec], Sequence[linalg.Vec]]) -> list[linalg.Vec]:
    """Sparse columns of the sum of sign * (outer . inner) over the terms
    (sign, outer, inner): column i of outer . inner is the image under
    `outer` of the vector inner[i], the sum of inner[i][k] * outer[k]."""
    out = []
    for i in range(len(terms[0][2])):
        acc: linalg.Vec = {}
        for sign, outer, inner in terms:
            for k, b in inner[i].items():
                if sign < 0:
                    b = -b
                for r, a in outer[k].items():
                    c = acc.get(r)
                    acc[r] = b * a if c is None else c + b * a
        out.append({r: c for r, c in acc.items() if c})
    return out


class FiniteComplex:
    """Monomial basis of invariant forms with coefficient degree <= D, with
    the columns of d on it, and of Lambda when symplectic data is given.

    `images[op][i]` is the sparse vector, keyed by basis index, of op applied
    to basis element i.  The primitive columns are built from the frame data
    when the complex is built; the concrete complexes add each composite as an
    exact product of them (`product`), and `apply` reads the stored columns."""

    def __init__(
        self,
        frame: FrameSpec,
        D: int,
        split: tuple[GenClass, GenClass],
        symp: Optional[SymplecticData] = None,
    ):
        if D < 0:
            raise ValueError("degree bound must be nonnegative")
        self.frame = frame
        self.D = D
        self.split = split
        self.vars = tuple(sorted(frame.base_vars))
        self.exps = exponent_vectors(len(self.vars), D)
        self.basis: list[Key] = []
        size = len(frame)
        # the (p, q) bidegree of every generator mask, indexed by the mask
        self.mask_bidegree = [frame.bidegree(mask, split) for mask in range(1 << size)]
        for mask in range(1 << size):
            for e in self.exps:
                self.basis.append((mask, e))
        self.pos = {key: i for i, key in enumerate(self.basis)}
        self.images: dict[str, list[linalg.Vec]] = {"d": self._d_columns()}
        if symp is not None:
            self.images["lambda"] = self._lambda_columns(symp)

    # -- primitive columns ----------------------------------------------------

    def _d_columns(self) -> list[linalg.Vec]:
        """d(x^e mono) = sum_v e_v x^(e - 1_v) dv ^ mono
        + sum_(i in mono) (-1)^(legs of mono below i) x^e d(gen_i) ^ (mono - i)."""
        frame = self.frame
        dvar = []
        for v in self.vars:
            dv = frame.base_one_form(v)
            dvar.append(None if dv is None else self._flatten(dv))
        dgen = []
        for i in range(len(frame)):
            dg = frame.d_of_generator(i)
            dgen.append(() if dg is None else self._flatten(dg))
        cols = []
        for idx, (mask, e) in enumerate(self.basis):
            acc: dict[Key, GaussianRational] = {}
            for k, ek in enumerate(e):
                if not ek:
                    continue
                terms = dvar[k]
                if terms is None:
                    raise FrameMismatch(f"no one-form paired with base variable {self.vars[k]!r}")
                low = e[:k] + (ek - 1,) + e[k + 1:]
                for m, f, c in terms:
                    if m & mask:
                        continue
                    key = (m | mask, tuple(map(add, low, f)))
                    c = c * ek if koszul_sign(m, mask) > 0 else c * -ek
                    s = acc.get(key)
                    acc[key] = c if s is None else s + c
            for i in bits(mask):
                terms = dgen[i]
                rest = mask ^ (1 << i)
                sign = -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1
                for m, f, c in terms:
                    if m & rest:
                        continue
                    key = (m | rest, tuple(map(add, e, f)))
                    c = c if koszul_sign(m, rest) == sign else -c
                    s = acc.get(key)
                    acc[key] = c if s is None else s + c
            cols.append(self._column(acc, "d", idx))
        return cols

    def _lambda_columns(self, symp: SymplecticData) -> list[linalg.Vec]:
        """Lambda(x^e mono) = 1/2 sum_ij p^ij x^e i_(x_i) i_(x_j) mono."""
        half = GaussianRational(Fraction(1, 2))
        pairs = []
        for i, row in enumerate(symp.pairing):
            for j, p in enumerate(row):
                if p.is_zero():
                    continue
                pairs.append((1 << i, 1 << j, [(f, c * half) for f, c in self._exponents(p, None)]))
        cols = []
        for idx, (mask, e) in enumerate(self.basis):
            acc: dict[Key, GaussianRational] = {}
            for bi, bj, terms in pairs:
                if not mask & bj:
                    continue
                rest = mask ^ bj
                if not rest & bi:
                    continue
                odd = ((mask & (bj - 1)).bit_count() + (rest & (bi - 1)).bit_count()) & 1
                rest ^= bi
                for f, c in terms:
                    key = (rest, tuple(map(add, e, f)))
                    c = -c if odd else c
                    s = acc.get(key)
                    acc[key] = c if s is None else s + c
            cols.append(self._column(acc, "lambda", idx))
        return cols

    def _flatten(self, form: Form) -> list[tuple[int, tuple[int, ...], GaussianRational]]:
        """The terms of a frame-data form as (mask, exponents over vars, coefficient)."""
        return [(mask, e, c) for mask, poly in form.terms.items() for e, c in self._exponents(poly, form)]

    def _exponents(self, poly: Poly, witness: Optional[Form]):
        """The terms of `poly` with exponent vectors over `self.vars`; a
        variable outside them with a nonzero exponent is a SpanEscape."""
        if poly.vars == self.vars:
            return poly.terms.items()
        at = [self.vars.index(v) if v in self.vars else None for v in poly.vars]
        out = []
        for exps, c in poly.terms.items():
            e = [0] * len(self.vars)
            for k, x in zip(at, exps):
                if x:
                    if k is None:
                        raise SpanEscape(f"coefficients use variables outside {self.vars}", witness)
                    e[k] = x
            out.append((tuple(e), c))
        return out

    def _column(self, acc: Mapping[Key, GaussianRational], op: str, idx: int) -> linalg.Vec:
        """The sparse vector of an image given by its (mask, exponent) terms;
        a nonzero term outside the basis is a SpanEscape."""
        col: linalg.Vec = {}
        for key, c in acc.items():
            if not c:
                continue
            r = self.pos.get(key)
            if r is None:
                raise SpanEscape(
                    f"{op} of basis element {idx}: a term of coefficient degree {sum(key[1])} "
                    f"escapes the degree-{self.D} span",
                    self._form_of_keys(acc),
                )
            col[r] = c
        return col

    # -- vectorization -------------------------------------------------------

    def basis_form(self, idx: int) -> Form:
        mask, e = self.basis[idx]
        return Form(self.frame, {mask: Poly(self.vars, {e: ONE})})

    def vectorize(self, form: Form) -> linalg.Vec:
        """The sparse vector of `form`, keyed by basis index."""
        v: linalg.Vec = {}
        for mask, poly in form.terms.items():
            for e, c in self._exponents(poly, form):
                i = self.pos.get((mask, e))
                if i is None:
                    raise SpanEscape(
                        f"term of coefficient degree {sum(e)} escapes the degree-{self.D} span",
                        form,
                    )
                v[i] = c
        return v

    def form_of(self, vec: Mapping[int, GaussianRational]) -> Form:
        return self._form_of_keys({self.basis[i]: vec[i] for i in sorted(vec)})

    def _form_of_keys(self, coeffs: Mapping[Key, GaussianRational]) -> Form:
        terms: dict[int, dict[tuple[int, ...], GaussianRational]] = {}
        for (mask, e), c in coeffs.items():
            terms.setdefault(mask, {})[e] = c
        return Form(self.frame, {mask: Poly(self.vars, t) for mask, t in terms.items()})

    # -- structure ------------------------------------------------------------

    def slot(self, p: int, q: int) -> list[int]:
        bidegree = self.mask_bidegree
        return [i for i, (mask, _) in enumerate(self.basis) if bidegree[mask] == (p, q)]

    def apply(self, op: str, form: Form) -> Form:
        """op applied to a form of the span, through the stored columns."""
        return self.form_of(product((1, self.images[op], [self.vectorize(form)]))[0])

    def matrix_on_slot(self, op: str, from_idx: Sequence[int], to_idx: Sequence[int]) -> list[linalg.Vec]:
        """Sparse columns, one per basis element of `from_idx`: its image
        under op, keyed by position in `to_idx` (after checking nothing
        leaks outside it)."""
        cols = [self.images[op][i] for i in from_idx]
        at = {r: k for k, r in enumerate(to_idx)}
        if any(r not in at for col in cols for r in col):
            raise SpanEscape(f"operator {op} leaks outside the target slot")
        return [{at[r]: c for r, c in col.items()} for col in cols]


@dataclass
class CohomologyReport:
    D: int
    bidegree: tuple[int, int]
    dim: int
    representatives: list[Form]
    operator_ranks: dict[str, int] = field(default_factory=dict)

    def to_json(self):
        return {
            "D": self.D,
            "bidegree": list(self.bidegree),
            "dim": self.dim,
            "representatives": [f.to_json() for f in self.representatives],
            "operator_ranks": dict(sorted(self.operator_ranks.items())),
        }


def _quotient_report(
    cpx: FiniteComplex,
    p: int,
    q: int,
    kernel_ops: Sequence[str],
    image_op: str,
    image_from: tuple[int, int],
) -> CohomologyReport:
    slot = cpx.slot(p, q)
    # one column per slot element: its images under every kernel operator, stacked
    size = len(cpx.basis)
    stacked = [
        {k * size + r: c for k, op in enumerate(kernel_ops) for r, c in cpx.images[op][i].items()}
        for i in slot
    ]
    ker = linalg.nullspace(stacked)
    im_cols = cpx.matrix_on_slot(image_op, cpx.slot(*image_from), slot)
    pivots = linalg.column_space_pivots(im_cols + ker)
    rank_im = sum(1 for piv in pivots if piv < len(im_cols))
    dim = len(ker) - rank_im
    reps = [
        cpx.form_of({slot[k]: c for k, c in ker[piv - len(im_cols)].items()})
        for piv in pivots
        if piv >= len(im_cols)
    ]
    if len(reps) != dim:
        raise ArithmeticError("representative count disagrees with the computed dimension")
    ranks = {f"ker({'+'.join(kernel_ops)})": len(ker), f"rank({image_op})": rank_im}
    return CohomologyReport(cpx.D, (p, q), dim, reps, ranks)


# -- concrete complexes ------------------------------------------------------


def dolbeault_split(
    cpx: FiniteComplex, d_cols: Sequence[linalg.Vec]
) -> tuple[list[linalg.Vec], list[linalg.Vec]]:
    """(del, dbar): the (p+1,q) and (p,q+1) rows of each column of d, where
    column i is the image of the (p,q) basis element i.  Any other row means
    d leaves the adjacent bidegrees, so the basis is not integrable."""
    bidegree = [cpx.mask_bidegree[mask] for mask, _ in cpx.basis]
    dl: list[linalg.Vec] = []
    db: list[linalg.Vec] = []
    for i, col in enumerate(d_cols):
        p, q = bidegree[i]
        a: linalg.Vec = {}
        b: linalg.Vec = {}
        for r, c in col.items():
            if bidegree[r] == (p + 1, q):
                a[r] = c
            elif bidegree[r] == (p, q + 1):
                b[r] = c
            else:
                raise BasisChangeError("d leaves the adjacent bidegrees; basis not integrable")
        dl.append(a)
        db.append(b)
    return dl, db


def bc_complex(holo_frame: FrameSpec, D: int) -> FiniteComplex:
    """Complex-side complex on the dz/dzb monomial frame: d applied to the
    basis, and del-dbar = del . dbar from the split of its images."""
    cpx = FiniteComplex(holo_frame, D, HOLO_SPLIT)
    dl, db = dolbeault_split(cpx, cpx.images["d"])
    cpx.images["deldbar"] = product((1, dl, db))
    return cpx


def ty_complex(frame: FrameSpec, D: int) -> FiniteComplex:
    """Symplectic-side complex: d and Lambda (Darboux pairing of the x-fiber
    and base legs) applied to the basis; d^Lambda = d . Lambda - Lambda . d
    and d d^Lambda = d . d^Lambda taken from their images.  Lambda's images
    are kept only until then."""
    symp = SymplecticData.darboux(frame, GenClass.FIBER_X)
    cpx = FiniteComplex(frame, D, (GenClass.FIBER_X, GenClass.BASE), symp)
    d, lam = cpx.images["d"], cpx.images.pop("lambda")
    dl = product((1, d, lam), (-1, lam, d))
    cpx.images.update({"dlambda": dl, "ddlambda": product((1, d, dl))})
    return cpx


def bott_chern(cpx: FiniteComplex, p: int, q: int) -> CohomologyReport:
    """Closed (p,q) monomial forms modulo del-dbar images, exactly."""
    return _quotient_report(cpx, p, q, ["d"], "deldbar", (p - 1, q - 1))


def tseng_yau(cpx: FiniteComplex, p: int, q: int) -> CohomologyReport:
    """Forms killed by d and d^Lambda in the (p,q) slot modulo d d^Lambda
    images (which arrive from the (p+1, q-1) slot)."""
    return _quotient_report(cpx, p, q, ["d", "dlambda"], "ddlambda", (p + 1, q - 1))


def mirror_compare(
    ty: FiniteComplex,
    bc: FiniteComplex,
    p: int,
    q: int,
    transform: Callable[[Form], Form],
) -> tuple[CheckReport, CohomologyReport, CohomologyReport]:
    """Dimensions must agree between the (p,q) complex-side quotient and the
    (n-p, q) symplectic-side quotient, and the transform must carry
    representatives to closed forms independent modulo images."""
    n = ty.frame.n
    rep = CheckReport("cohomology-mirror", config={"p": p, "q": q, "D": ty.D})
    bc_rep = bott_chern(bc, p, q)
    ty_rep = tseng_yau(ty, n - p, q)
    rep.add("dims-equal", bc_rep.dim == ty_rep.dim, f"bc={bc_rep.dim} ty={ty_rep.dim}")

    slot = ty.slot(n - p, q)
    im_cols = ty.matrix_on_slot("ddlambda", ty.slot(n - p + 1, q - 1), slot)
    at = {r: k for k, r in enumerate(slot)}
    mapped_cols = []
    for f in bc_rep.representatives:
        g = transform(f)
        vec = ty.vectorize(g)
        if any(r not in at for r in vec):
            raise SpanEscape("transformed representative leaves the mirror slot", g)
        rep.add(f"image-d-closed[{len(mapped_cols)}]", ty.apply("d", g).is_zero(), g)
        rep.add(f"image-dlambda-closed[{len(mapped_cols)}]", ty.apply("dlambda", g).is_zero(), g)
        mapped_cols.append({at[r]: c for r, c in vec.items()})
    pivots = linalg.column_space_pivots(im_cols + mapped_cols)
    base_rank = sum(1 for piv in pivots if piv < len(im_cols))
    tot_rank = len(pivots)
    rep.add(
        "images-independent-mod-exact",
        tot_rank == base_rank + len(mapped_cols),
        f"rank {tot_rank} vs {base_rank}+{len(mapped_cols)}",
    )
    return rep, bc_rep, ty_rep
