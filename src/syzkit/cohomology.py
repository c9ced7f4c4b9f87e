"""Finite-dimensional invariant cohomology with exact linear algebra.

The complexes are spanned by form monomials times coefficient monomials of
bounded total degree; all the operators in use lower the coefficient degree,
so the span closes.  Ranks and kernels come from the deterministic exact
elimination in `linalg`; dimensions at a given degree bound are reported as
such (per-D data, no asymptotic claims).

The basis is never enumerated.  Basis element i is the generator mask i // E
times the coefficient monomial exps[i % E], where E = len(exps), so the index
of (mask, e) is mask * E plus the position of e in exps, and a bidegree slot
is generated from combinations of the two classes' generators.  Coefficient
monomials are the ints of `coeffring`, so a column adds them; each basis
monomial is decoded into its exponents once per basis.

Only the primitive operators get columns of their own: d on both sides, and
the dual Lefschetz operator Lambda on the symplectic side.  Column i of each
is one call of the per-term kernel that `exterior_d` and `dual_lefschetz`
also sum over a form's terms (`calculus.d_term`: the Leibniz rule on the
frame's base one-forms and structure equations; `calculus.lambda_term`: one
signed block contraction per block (legs, scalar) of the pairing, so Lambda
keeps each coefficient monomial), on basis element i with
coefficient 1, so each rule is written once (the tests check the columns
against a wedge-built d and two contraction-built Lambdas).  The
composites are exact sparse products of the primitive columns:
d^Lambda = d.Lambda - Lambda.d, d d^Lambda = d.d^Lambda, del and dbar are the
(p+1,q) and (p,q+1) rows of d on the dz/dzb frame, and del-dbar = del.dbar.
Every term of a primitive column is looked up in the basis, which proves that
column inside the span, and `vectorize` is linear and injective there, so each
product column is the vector of the composite applied to that basis element.

Every column is built the first time it is read, so a query builds only the
columns of the slots it reads.  A column that no query reads is never built,
so a span escape there is never checked.  MAX_BASIS bounds the basis elements
whose columns one query reads on one complex; that count comes from the slot
sizes and the bidegree steps of the primitives, before any column is built.
Columns, kernels and the mirror comparison's transformed representatives are
sparse vectors keyed by basis index: each representative is vectorized once,
and only the quotients' representatives become forms again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import linalg
from .coeffring import ONE, GaussianRational, Poly, _accumulate, exponents, group_terms, monomials, total_degree
from .exterior import Form, FrameSpec, GenClass
from .calculus import HOLO_SPLIT, SymplecticData, d_rule, d_term, dolbeault_part, lambda_term
from .reports import CheckReport

Key = tuple[int, int]  # a basis monomial: (generator mask, coefficient monomial)
Bidegree = tuple[int, int]

# the most basis elements whose columns one query reads on one complex: the
# slowest admitted query measured, K = 5 (3,4) at D = 0, takes about 13 s on a
# 2-vCPU machine (README)
MAX_BASIS = 1 << 17


class ComplexTooLarge(ValueError):
    """A query would read the columns of more than MAX_BASIS basis elements."""


class SpanEscape(ValueError):
    """An operator image does not lie in the degree-filtered span."""

    def __init__(self, message: str, witness: Optional[Form] = None):
        super().__init__(message)
        self.witness = witness


def _add_image(acc: linalg.Vec, sign: int, cols: Mapping[int, linalg.Vec], vec: linalg.Vec) -> None:
    """acc += sign * (the image of vec under cols), the sum of
    vec[k] * cols[k] over the entries of vec in order."""
    for k, b in vec.items():
        if sign < 0:
            b = -b
        for r, a in cols[k].items():
            _accumulate(acc, r, b * a)


class MonomialBasis:
    """The monomials x^e mono of a complex, with coefficient degree <= D,
    indexed by arithmetic: element i is (i // E, exps[i % E]), E = len(exps),
    with `exps` in degree-then-lex order over the sorted base variables."""

    def __init__(self, frame: FrameSpec, D: int, split: tuple[GenClass, GenClass]):
        self.frame = frame
        self.D = D
        self.split = split
        self.vars = tuple(sorted(frame.base_vars))
        self.E = comb(len(self.vars) + D, D)
        self.size = self.E << len(frame)
        self.classes = [frame.gens_of_class(cls) for cls in split]
        self.class_masks = [frame.class_mask(cls) for cls in split]

    # the monomials are listed when a column or a vector first needs them, so
    # a query refused by its size never lists them
    @cached_property
    def exps(self) -> list[int]:
        return monomials(self.vars, self.D)

    @cached_property
    def exp_index(self) -> dict[int, int]:
        return {e: k for k, e in enumerate(self.exps)}

    @cached_property
    def exponent_vectors(self) -> list[tuple[int, ...]]:
        """The exponents of each monomial of `exps` over the frame's base
        variables, in the order `calculus.d_term` reads them."""
        vars = self.frame.base_vars
        return [exponents(e, vars) for e in self.exps]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> Key:
        if not 0 <= i < self.size:
            raise IndexError("basis index out of range")
        mask, k = divmod(i, self.E)
        return mask, self.exps[k]

    def bidegree(self, i: int) -> Optional[Bidegree]:
        return self.frame.bidegree(i // self.E, self.split)

    def step(self, mask: int) -> Bidegree:
        """The legs of `mask` in each class of the split."""
        m1, m2 = self.class_masks
        return (mask & m1).bit_count(), (mask & m2).bit_count()

    def slot(self, p: int, q: int) -> list[int]:
        """The indices of bidegree (p, q), ascending."""
        if p < 0 or q < 0:
            return []
        a, b = self.classes
        masks = sorted(
            sum(1 << g for g in ga + gb) for ga in combinations(a, p) for gb in combinations(b, q)
        )
        E = self.E
        return [mask * E + k for mask in masks for k in range(E)]

    def slot_size(self, p: int, q: int) -> int:
        if p < 0 or q < 0:
            return 0
        a, b = self.classes
        return comb(len(a), p) * comb(len(b), q) * self.E

    def terms(self, poly: Poly, witness: Form):
        """The terms of `poly`; a variable outside `self.vars` that they use
        is a SpanEscape."""
        if not poly.used_vars().issubset(self.vars):
            raise SpanEscape(f"coefficients use variables outside {self.vars}", witness)
        return poly.terms.items()

    def vector(
        self, acc: Mapping[Key, GaussianRational], op: Optional[str] = None, idx: int = 0
    ) -> linalg.Vec:
        """The sparse vector of the (mask, exponent) terms `acc`, keyed by
        basis index; a term outside the basis is a SpanEscape, which names
        the column when `acc` is `op` applied to basis element `idx`."""
        exp_index, E = self.exp_index, self.E
        vec: linalg.Vec = {}
        for (mask, e), c in acc.items():
            k = exp_index.get(e)
            if k is None:
                what = "term" if op is None else f"{op} of basis element {idx}: a term"
                raise SpanEscape(
                    f"{what} of coefficient degree {total_degree(e)} escapes the degree-{self.D} span",
                    self.form(acc),
                )
            vec[mask * E + k] = c
        return vec

    def form(self, coeffs: Mapping[Key, GaussianRational]) -> Form:
        return Form(self.frame, group_terms(coeffs))


# -- columns built on first read ----------------------------------------------
#
# Each mapping holds the basis and the mappings it reads, never the complex,
# so a complex is freed as soon as its last reference goes.


class Columns(dict):
    """Sparse columns keyed by basis index, each built the first time it is
    read.  `steps` holds every bidegree step from a basis element to the rows
    of its column."""

    steps: frozenset[Bidegree]

    def reads(self, at: Bidegree) -> set[Bidegree]:
        """The bidegrees whose columns are read to build the columns at `at`."""
        return {at}


class PrimitiveColumns(Columns):
    """The columns of a primitive operator, d or Lambda: column i is its
    per-term kernel (`calculus.d_term` or `calculus.lambda_term`) applied to
    basis element i, (mask, x^e), with coefficient 1."""

    def __init__(self, basis: MonomialBasis, op: str, kernel: Callable, rule: tuple, steps: Iterable[Bidegree]):
        super().__init__()
        self.basis, self.op, self.kernel, self.rule = basis, op, kernel, rule
        self.steps = frozenset(steps)

    def __missing__(self, idx: int) -> linalg.Vec:
        basis = self.basis
        mask, e = basis[idx]
        acc: dict[Key, GaussianRational] = {}
        self.kernel(acc, self.rule, mask, e, basis.exponent_vectors[idx % basis.E], ONE)
        col = self[idx] = basis.vector(acc, self.op, idx)
        return col


class RowsOfD(Columns):
    """The rows of each column of d in one part of the Dolbeault split, 0 for
    del and 1 for dbar, as `calculus.dolbeault_part` assigns them; it refuses
    a row in neither part, where the basis is not integrable."""

    def __init__(self, d: PrimitiveColumns, part: int):
        super().__init__()
        self.d, self.part = d, part
        self.steps = frozenset([(1 - part, part)])

    def __missing__(self, idx: int) -> linalg.Vec:
        bidegree = self.d.basis.bidegree
        src = bidegree(idx)
        col = self[idx] = {
            r: c for r, c in self.d[idx].items() if dolbeault_part(src, bidegree(r)) == self.part
        }
        return col


class ProductColumns(Columns):
    """The sum of sign * (outer . inner) over the terms (sign, outer, inner),
    one column at a time: column i is the sum of the images under `outer` of
    the vectors inner[i]."""

    def __init__(self, *terms: tuple[int, Columns, Columns]):
        super().__init__()
        self.terms = terms
        self.steps = frozenset(
            (a + c, b + d) for _, outer, inner in terms for a, b in inner.steps for c, d in outer.steps
        )

    def __missing__(self, idx: int) -> linalg.Vec:
        col: linalg.Vec = {}
        for sign, outer, inner in self.terms:
            _add_image(col, sign, outer, inner[idx])
        self[idx] = col
        return col

    def reads(self, at: Bidegree) -> set[Bidegree]:
        out = set()
        for _, outer, inner in self.terms:
            out |= inner.reads(at)
            for a, b in inner.steps:
                out |= outer.reads((at[0] + a, at[1] + b))
        return out


class FiniteComplex:
    """Monomial basis of invariant forms with coefficient degree <= D, with
    the columns of d on it.

    Every vector, column and kernel is keyed by basis index: `images[op][i]`
    is the sparse vector of op applied to basis element i, built when it is
    first read.  The concrete complexes add Lambda (`lambda_columns`) and the
    composites, and `apply` reads the columns.  Every generator lies in a
    class of the split (a ValueError otherwise), so the bidegree slots
    partition the basis and `admit` counts a query by its slots."""

    def __init__(self, frame: FrameSpec, D: int, split: tuple[GenClass, GenClass]):
        if D < 0:
            raise ValueError("degree bound must be nonnegative")
        self.frame = frame
        self.D = D
        self.basis = basis = MonomialBasis(frame, D, split)
        m1, m2 = basis.class_masks
        if m1 | m2 != (1 << len(frame)) - 1:
            raise ValueError("the split leaves a generator out, so its slots do not cover the basis")
        self.vars = basis.vars
        # the frame data that d reads, each form with the generator it
        # replaces: every term gives a bidegree step of d, and a variable
        # outside the basis is a SpanEscape here, with the form as its witness
        frame_data = [(0, frame.base_one_form(v)) for v in self.vars]
        frame_data += [(1 << i, frame.d_of_generator(i)) for i in range(len(frame))]
        step = basis.step
        steps = set()
        for bit, form in frame_data:
            if form:
                p, q = step(bit)
                for mask, poly in form.terms.items():
                    basis.terms(poly, form)
                    a, b = step(mask)
                    steps.add((a - p, b - q))
        self.images: dict[str, Columns] = {"d": PrimitiveColumns(basis, "d", d_term, d_rule(frame), steps)}

    def lambda_columns(self, symp: SymplecticData) -> PrimitiveColumns:
        basis = self.basis
        steps = ((-p, -q) for p, q in (basis.step(legs) for legs, _, _ in symp.blocks))
        return PrimitiveColumns(basis, "lambda", lambda_term, symp.blocks, steps)

    def admit(self, reads: Iterable[tuple[str, Bidegree]]) -> int:
        """The number of basis elements whose columns are built to read the
        columns of each (op, bidegree) slot in `reads`; past MAX_BASIS it is
        a ComplexTooLarge, raised before any column is built."""
        at: set[Bidegree] = set()
        for op, pq in reads:
            at |= self.images[op].reads(pq)
        count = sum(self.basis.slot_size(*pq) for pq in at)
        if count > MAX_BASIS:
            raise ComplexTooLarge(
                f"the query would build the columns of {count} basis elements of the degree-{self.D} "
                f"complex on {len(self.frame)} generators and {len(self.vars)} variables, "
                f"past the bound {MAX_BASIS}"
            )
        return count

    # -- vectorization -------------------------------------------------------

    def vectorize(self, form: Form) -> linalg.Vec:
        """The sparse vector of `form`, keyed by basis index."""
        basis = self.basis
        return basis.vector(
            {(mask, e): c for mask, poly in form.terms.items() for e, c in basis.terms(poly, form)}
        )

    def form_of(self, vec: Mapping[int, GaussianRational]) -> Form:
        return self.basis.form({self.basis[i]: vec[i] for i in sorted(vec)})

    # -- structure ------------------------------------------------------------

    def slot(self, p: int, q: int) -> list[int]:
        return self.basis.slot(p, q)

    def apply(self, op: str, vec: linalg.Vec) -> linalg.Vec:
        """op applied to a vector of the span, through the columns."""
        acc: linalg.Vec = {}
        _add_image(acc, 1, self.images[op], vec)
        return acc

    def matrix_on_slot(self, op: str, from_idx: Sequence[int], to_idx: Sequence[int]) -> list[linalg.Vec]:
        """The columns of op on the basis elements of `from_idx`, after
        checking that none leaks outside `to_idx`."""
        cols = [self.images[op][i] for i in from_idx]
        inside = set(to_idx)
        if not all(inside.issuperset(col) for col in cols):
            raise SpanEscape(f"operator {op} leaks outside the target slot")
        return cols


@dataclass
class CohomologyReport:
    D: int
    bidegree: tuple[int, int]
    dim: int
    representatives: list[Form]
    # the complex's base variables, over which the representatives are written
    coeff_vars: tuple[str, ...]
    operator_ranks: dict[str, int] = field(default_factory=dict)

    def to_json(self):
        return {
            "D": self.D,
            "bidegree": list(self.bidegree),
            "dim": self.dim,
            "representatives": [f.to_json(self.coeff_vars) for f in self.representatives],
            "operator_ranks": dict(sorted(self.operator_ranks.items())),
        }


# a quotient at (p, q): the operators whose kernel it takes on the (p, q) slot,
# the operator whose image it divides by, and the step from (p, q) to the slot
# that image arrives from
Quotient = tuple[tuple[str, ...], str, Bidegree]
BOTT_CHERN: Quotient = (("d",), "deldbar", (-1, -1))
TSENG_YAU: Quotient = (("d", "dlambda"), "ddlambda", (1, -1))


def quotient_reads(quotient: Quotient, p: int, q: int) -> list[tuple[str, Bidegree]]:
    """The (operator, bidegree) slots whose columns the quotient at (p, q) reads."""
    kernel_ops, image_op, (dp, dq) = quotient
    return [(op, (p, q)) for op in kernel_ops] + [(image_op, (p + dp, q + dq))]


def _quotient_report(cpx: FiniteComplex, quotient: Quotient, p: int, q: int) -> CohomologyReport:
    cpx.admit(quotient_reads(quotient, p, q))
    kernel_ops, image_op, (dp, dq) = quotient
    slot = cpx.slot(p, q)
    # one column per slot element: its images under every kernel operator, stacked
    size = len(cpx.basis)
    stacked = [
        {k * size + r: c for k, op in enumerate(kernel_ops) for r, c in cpx.images[op][i].items()}
        for i in slot
    ]
    # slot is ascending, so keying by basis index keeps the elimination order
    ker = [{slot[k]: c for k, c in vec.items()} for vec in linalg.nullspace(stacked)]
    im_cols = cpx.matrix_on_slot(image_op, cpx.slot(p + dp, q + dq), slot)
    pivots = linalg.column_space_pivots(im_cols + ker)
    rank_im = sum(1 for piv in pivots if piv < len(im_cols))
    dim = len(ker) - rank_im
    reps = [cpx.form_of(ker[piv - len(im_cols)]) for piv in pivots if piv >= len(im_cols)]
    if len(reps) != dim:
        raise ArithmeticError("representative count disagrees with the computed dimension")
    ranks = {f"ker({'+'.join(kernel_ops)})": len(ker), f"rank({image_op})": rank_im}
    return CohomologyReport(cpx.D, (p, q), dim, reps, cpx.vars, ranks)


# -- concrete complexes ------------------------------------------------------


def bc_complex(holo_frame: FrameSpec, D: int) -> FiniteComplex:
    """Complex-side complex on the dz/dzb monomial frame: d, its del and dbar
    rows, and del-dbar = del . dbar."""
    cpx = FiniteComplex(holo_frame, D, HOLO_SPLIT)
    d = cpx.images["d"]
    dl, db = RowsOfD(d, 0), RowsOfD(d, 1)
    cpx.images.update({"del": dl, "dbar": db, "deldbar": ProductColumns((1, dl, db))})
    return cpx


def ty_complex(frame: FrameSpec, D: int) -> FiniteComplex:
    """Symplectic-side complex: d and Lambda (Darboux pairing of the x-fiber
    and base legs), d^Lambda = d . Lambda - Lambda . d and
    d d^Lambda = d . d^Lambda."""
    symp = SymplecticData.darboux(frame, GenClass.FIBER_X)
    cpx = FiniteComplex(frame, D, (GenClass.FIBER_X, GenClass.BASE))
    d, lam = cpx.images["d"], cpx.lambda_columns(symp)
    dl = ProductColumns((1, d, lam), (-1, lam, d))
    cpx.images.update({"lambda": lam, "dlambda": dl, "ddlambda": ProductColumns((1, d, dl))})
    return cpx


def bott_chern(cpx: FiniteComplex, p: int, q: int) -> CohomologyReport:
    """Closed (p,q) monomial forms modulo del-dbar images, exactly."""
    return _quotient_report(cpx, BOTT_CHERN, p, q)


def tseng_yau(cpx: FiniteComplex, p: int, q: int) -> CohomologyReport:
    """Forms killed by d and d^Lambda in the (p,q) slot modulo d d^Lambda
    images (which arrive from the (p+1, q-1) slot)."""
    return _quotient_report(cpx, TSENG_YAU, p, q)


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
    # both sides are admitted before either builds a column; the comparison
    # below reads only columns that the (n-p, q) Tseng-Yau quotient reads
    ty.admit(quotient_reads(TSENG_YAU, n - p, q))
    bc.admit(quotient_reads(BOTT_CHERN, p, q))
    rep = CheckReport()
    bc_rep = bott_chern(bc, p, q)
    ty_rep = tseng_yau(ty, n - p, q)
    rep.add("dims-equal", bc_rep.dim == ty_rep.dim, f"bc={bc_rep.dim} ty={ty_rep.dim}")

    slot = ty.slot(n - p, q)
    inside = set(slot)
    im_cols = ty.matrix_on_slot("ddlambda", ty.slot(n - p + 1, q - 1), slot)
    mapped_cols = []
    for i, f in enumerate(bc_rep.representatives):
        g = transform(f)
        vec = ty.vectorize(g)
        # before the applies, so that they read only the planned columns
        if not inside.issuperset(vec):
            raise SpanEscape("transformed representative leaves the mirror slot", g)
        rep.add(f"image-d-closed[{i}]", not ty.apply("d", vec), g)
        rep.add(f"image-dlambda-closed[{i}]", not ty.apply("dlambda", vec), g)
        mapped_cols.append(vec)
    pivots = linalg.column_space_pivots(im_cols + mapped_cols)
    base_rank = sum(1 for piv in pivots if piv < len(im_cols))
    tot_rank = len(pivots)
    rep.add(
        "images-independent-mod-exact",
        tot_rank == base_rank + len(mapped_cols),
        f"rank {tot_rank} vs {base_rank}+{len(mapped_cols)}",
    )
    return rep, bc_rep, ty_rep
