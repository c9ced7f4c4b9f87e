"""Graded exterior algebra of invariant forms over polynomial coefficients.

Generator subsets are stored as bitmasks over a fixed frame ordering; every
reordering sign is the parity of a popcount against `koszul_mask`, the one
rule behind `koszul_sign`, and loops that sign many terms against one left
term build its mask once.  Products go through `_wedge_into`
(`wedge_pushforward` keeps its fiber-filtered loop), interior products with a
block of legs through `_contract_into`.  Forms may
have mixed degree (needed for exponentials), are immutable by convention, and
all operations are pure.
Operations whose results already hold only nonzero `Poly` coefficients wrap
them through the private constructor `_form`, which checks nothing; the public
constructor promotes scalars and drops zero terms.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from . import linalg
from .coeffring import GaussianRational, Poly, P_ONE, _accumulate, _add_product, _settle_into

Coefflike = Union[int, Fraction, GaussianRational, Poly]

_new = object.__new__


class FrameMismatch(ValueError):
    """Operands live on different frame objects."""


class BasisChangeError(ValueError):
    """A change of coframe is not exactly invertible."""


class GenClass(enum.Enum):
    FIBER_X = "fiber-x"           # torus-fiber directions of the symplectic side
    FIBER_MIRROR = "fiber-mirror" # torus-fiber directions of the dual/complex side
    BASE = "base"                 # base directions (paired with coefficient variables)

    # members are singletons, so the identity hash agrees with == and runs in
    # C, where Enum's hashes the name in Python on every frame-table lookup
    __hash__ = object.__hash__


class Generator:
    """A labeled one-form generator of a frame: its leg class, and for a
    coframe generator its expansion on the coordinate frame.

    Without a leg class, an expansion whose legs all lie in one class gives
    that class.  Immutable by convention: the slots are written only in
    `__init__`.
    """

    __slots__ = ("label", "leg_class", "coord_expansion", "paired_base_var")

    def __init__(
        self,
        label: str,
        leg_class: Optional[GenClass] = None,
        coord_expansion: Optional["Form"] = None,
        paired_base_var: Optional[str] = None,
    ):
        if leg_class is None and coord_expansion is not None:
            classes = {
                coord_expansion.frame.generators[i].leg_class
                for mask in coord_expansion.terms
                for i in bits(mask)
            }
            if len(classes) == 1:
                leg_class = classes.pop()
        self.label = label
        self.leg_class = leg_class
        self.coord_expansion = coord_expansion
        self.paired_base_var = paired_base_var

    def __repr__(self):
        cls = None if self.leg_class is None else self.leg_class.value
        return f"Generator({self.label!r}, {cls})"


class FrameSpec:
    """Ordered list of generators plus the base-coordinate variables.

    The generator order is the canonical ordering for bitmask monomials, for
    Koszul signs, and for fiber integration.  `n` is the fiber rank.  A frame
    equals only itself, so forms on two frames built apart never mix.  The
    labels and the base variables are unique strings, and a generator's
    paired base variable is one of the base variables, paired with no other
    generator; anything else is a ValueError.
    """

    def __init__(self, generators: Sequence[Generator], base_vars: Sequence[str], n: int):
        gens = tuple(generators)
        base_vars = tuple(base_vars)
        paired = [g.paired_base_var for g in gens if g.paired_base_var is not None]
        for what, names in (("generator labels", [g.label for g in gens]), ("base variables", base_vars)):
            if any(type(x) is not str for x in names) or len(set(names)) != len(names):
                raise ValueError(f"{what} must be unique strings, got {list(names)}")
        if not all(v in base_vars for v in paired) or len(set(paired)) != len(paired):
            raise ValueError(f"paired variables {paired} must be distinct base variables of {list(base_vars)}")
        self.generators = gens
        self.base_vars = base_vars
        self.n = n
        self.index = {g.label: i for i, g in enumerate(gens)}
        self._d_gen: list[Optional[Form]] = [None] * len(gens)
        self._base_one_forms: dict[str, Form] = {}
        self._class_masks: dict[GenClass, int] = {}
        for i, g in enumerate(gens):
            if g.paired_base_var is not None:
                self._base_one_forms[g.paired_base_var] = Form.gen(self, g.label)
            if g.leg_class is not None:
                self._class_masks[g.leg_class] = self._class_masks.get(g.leg_class, 0) | 1 << i
        self._tables: dict = {}

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"FrameSpec([{', '.join(g.label for g in self.generators)}], n={self.n})"

    def class_mask(self, cls: GenClass) -> int:
        return self._class_masks.get(cls, 0)

    def bidegree(self, mask: int, split: tuple[GenClass, GenClass]) -> Optional[tuple[int, int]]:
        """(p, q): the legs of a monomial in split[0] and in split[1], or None
        when it has a leg in neither class."""
        m1 = self._class_masks.get(split[0], 0)
        m2 = self._class_masks.get(split[1], 0)
        if mask & ~(m1 | m2):
            return None
        return (mask & m1).bit_count(), (mask & m2).bit_count()

    def gens_of_class(self, cls: GenClass) -> list[int]:
        return [i for i, g in enumerate(self.generators) if g.leg_class is cls]

    def base_one_form(self, var: str) -> Optional["Form"]:
        return self._base_one_forms.get(var)

    def d_of_generator(self, i: int) -> Optional["Form"]:
        return self._d_gen[i]

    def table(self, key, build: Callable[[], object]):
        """The data `build()` derives from this frame, kept under `key` from
        its first use on.  The key of a table for this frame and another one
        holds the other frame object itself, never its id(), which a freed
        frame hands on to the next one."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = build()
        return table

    # `calculus.coframe` calls these once, before the frame is shared and
    # before d is applied on it, so no table holds what they replace
    def _set_structure(self, label: str, d_form: "Form") -> None:
        self._d_gen[self.index[label]] = d_form

    def _set_base_one_form(self, var: str, form: "Form") -> None:
        self._base_one_forms[var] = form


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def koszul_sign(mask_a: int, mask_b: int) -> int:
    """Sign of merging the ascending blocks a, b into one ascending monomial:
    (-1) to the number of pairs (i in a, j in b) with i > j, each one
    transposition of odd generators, read as a popcount against
    `koszul_mask(a)`."""
    return -1 if (mask_b & koszul_mask(mask_a)).bit_count() & 1 else 1


def koszul_mask(mask_a: int) -> int:
    """The mask with bit j set when `mask_a` has an odd number of bits above
    j, so (b & koszul_mask(a)).bit_count() has the parity of the pairs
    (i in a, j in b) with i > j.  Built once per left operand, it turns each
    sign into an AND and a popcount."""
    q = 0
    a = mask_a
    while a:
        low = a & -a
        q ^= low - 1
        a ^= low
    return q


def reversal_sign(k: int) -> int:
    """Sign of reversing k one-forms, (-1)^(k(k-1)/2): the koszul_sign of
    each generator moved past the ones before it."""
    return -1 if (k * (k - 1) // 2) & 1 else 1


def _monomial_mask(frame: FrameSpec, labels: Sequence[str]) -> tuple[int, int]:
    """(mask, sign): the wedge of the named generators, in the given order, is
    sign times the ascending monomial `mask`; the sign is 0 when a label
    repeats.  A label the frame does not have is a FrameMismatch."""
    mask, sign = 0, 1
    for lab in labels:
        i = frame.index.get(lab)
        if i is None:
            raise FrameMismatch(
                f"unknown generator {lab!r} for frame {[g.label for g in frame.generators]}"
            )
        bit = 1 << i
        sign = 0 if mask & bit else sign * koszul_sign(mask, bit)
        mask |= bit
    return mask, sign


class Form:
    """Element of the exterior algebra: sorted generator subsets -> Poly.
    Immutable by convention: `frame` and `terms` are written only when built."""

    __slots__ = ("frame", "terms")

    def __init__(self, frame: FrameSpec, terms: Mapping[int, Coefflike] | None = None):
        clean: dict[int, Poly] = {}
        for mask, c in (terms or {}).items():
            p = c if isinstance(c, Poly) else Poly.constant(c)
            if not p.is_zero():
                clean[mask] = p
        self.frame = frame
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(frame: FrameSpec) -> "Form":
        return Form(frame, {})

    @staticmethod
    def scalar(frame: FrameSpec, c: Coefflike) -> "Form":
        return Form(frame, {0: c})

    @staticmethod
    def gen(frame: FrameSpec, label: str) -> "Form":
        return Form(frame, {1 << frame.index[label]: P_ONE})

    @staticmethod
    def monomial(frame: FrameSpec, labels: Sequence[str], coeff: Coefflike = 1) -> "Form":
        """Wedge of the named generators in the given order, times coeff."""
        mask, sign = _monomial_mask(frame, labels)
        p = coeff if isinstance(coeff, Poly) else Poly.constant(coeff)
        return Form(frame, {mask: p if sign > 0 else -p} if sign else {})

    # -- basic algebra -----------------------------------------------------

    def _check(self, other: "Form") -> None:
        if self.frame is not other.frame:
            raise FrameMismatch("operands live on different frame objects")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        terms = dict(self.terms)
        for m, p in other.terms.items():
            _accumulate(terms, m, p)
        return _form(self.frame, terms)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return _form(self.frame, {m: -p for m, p in self.terms.items()})

    def __mul__(self, c: Coefflike) -> "Form":
        p = c if isinstance(c, Poly) else Poly.constant(c)
        # a product of nonzero polynomials is nonzero
        return _form(self.frame, {m: q * p for m, q in self.terms.items()} if p else {})

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        return _form(self.frame, _wedge_into({}, self.terms, other.terms))

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.frame is not other.frame:
            return False
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- grading -----------------------------------------------------------

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.terms}

    def leg_count(self, cls: GenClass) -> set[int]:
        cm = self.frame.class_mask(cls)
        return {(m & cm).bit_count() for m in self.terms}

    def bidegree_project(self, p: int, q: int, split: tuple[GenClass, GenClass]) -> "Form":
        """Component with exactly p legs of split[0] and q legs of split[1]
        (and no legs outside the two classes)."""
        bidegree = self.frame.bidegree
        return _form(self.frame, {m: c for m, c in self.terms.items() if bidegree(m, split) == (p, q)})

    def bidegree_components(self, split: tuple[GenClass, GenClass]) -> dict[tuple[int, int], "Form"]:
        """The nonzero (p, q) components under the split; they sum to self."""
        groups: dict[tuple[int, int], dict[int, Poly]] = {}
        for m, c in self.terms.items():
            pq = self.frame.bidegree(m, split)
            if pq is None:
                raise ValueError("form has legs outside the bidegree split")
            groups.setdefault(pq, {})[m] = c
        return {pq: _form(self.frame, terms) for pq, terms in groups.items()}

    # -- operations --------------------------------------------------------

    def exp_nilpotent(self) -> "Form":
        """Sum_k self^k / k! -- finite because the input is nilpotent.

        Requires every term to have even degree >= 2 (so the series is
        finite and the factors commute).  Grouping the terms by their lowest
        generator x_a writes self = sum_a x_a ^ eta_a; each piece squares to
        zero and the pieces commute, so exp = prod_a (1 + x_a ^ eta_a).
        """
        groups: dict[int, dict[int, Poly]] = {}
        for m, c in self.terms.items():
            k = m.bit_count()
            if k == 0 or k % 2:
                raise ValueError("exp requires even-degree terms of degree >= 2")
            groups.setdefault(m & -m, {})[m] = c
        out: dict[int, Poly] = {0: P_ONE}
        for piece in groups.values():
            out = _wedge_into(dict(out), out, piece)
        return _form(self.frame, out)

    def pushforward(self, fiber_class: GenClass) -> "Form":
        """Integrate over the fibers of the given class (volume normalized to 1).

        Keeps only terms containing the full top wedge of fiber generators,
        moved to the front in frame order with the Koszul sign.
        """
        return _form(self.frame, _contract_into({}, self.terms, self.frame.class_mask(fiber_class)))

    def wedge_pushforward(self, other: "Form", fiber_class: GenClass) -> "Form":
        """self.wedge(other).pushforward(fiber_class), pairing each term of
        self only with the terms of other whose fiber legs complete it."""
        self._check(other)
        top = self.frame.class_mask(fiber_class)
        qtop = koszul_mask(top)
        by_fiber: dict[int, list[tuple[int, Poly]]] = {}
        for m2, p2 in other.terms.items():
            by_fiber.setdefault(m2 & top, []).append((m2, p2))
        sums: dict = {}
        for m1, p1 in self.terms.items():
            partners = by_fiber.get(top ^ (m1 & top))
            if not partners:
                continue
            q = koszul_mask(m1)
            for m2, p2 in partners:
                if not m1 & m2:
                    rest = (m1 | m2) & ~top
                    # the sign koszul_sign(m1, m2) * koszul_sign(top, rest)
                    _add_product(sums, rest, p1, p2, (m2 & q).bit_count() + (rest & qtop).bit_count())
        return _form(self.frame, _settle_into({}, sums))

    def contract(self, label: str) -> "Form":
        """Interior product with the dual vector of the named generator."""
        return _form(self.frame, _contract_into({}, self.terms, 1 << self.frame.index[label]))

    def conjugate(self) -> "Form":
        """Complex-conjugate the coefficients (generators are real)."""
        return _form(self.frame, {m: p.conjugate() for m, p in self.terms.items()})

    def transport(self, frame: FrameSpec) -> "Form":
        """Re-express on another frame by matching generator labels (the
        index map is built once per pair of frames)."""
        index = self.frame.table(("transport", frame), lambda: {
            i: frame.index[g.label] for i, g in enumerate(self.frame.generators) if g.label in frame.index
        })
        return self.relabel(frame, index)

    def relabel(self, frame: FrameSpec, index: Mapping[int, int]) -> "Form":
        """Move generator i to generator index[i] of `frame`, coefficients
        unchanged; no monomial may change its generator order (so no sign)."""
        out = {}
        for m, c in self.terms.items():
            nm = 0
            last = -1
            for i in bits(m):
                j = index.get(i)
                if j is None:
                    raise FrameMismatch(
                        f"generator {self.frame.generators[i].label!r} missing from target frame"
                    )
                if j <= last:
                    raise FrameMismatch("target frame reorders generators")
                nm |= 1 << j
                last = j
            out[nm] = c
        return _form(frame, out)

    def check_invariant(self) -> None:
        """A ValueError naming the variables of the coefficients that are not
        base variables of the frame, if there are any: the one invariance
        test of a form, which `fm` and `verify` both read."""
        bad = set().union(*(p.used_vars() for p in self.terms.values())) - set(self.frame.base_vars)
        if bad:
            raise ValueError(f"coefficients depend on non-base variables {sorted(bad)}")

    def map_coefficients(self, fn: Callable[[Poly], Poly]) -> "Form":
        return Form(self.frame, {m: fn(p) for m, p in self.terms.items()})

    # -- rendering / serialization ------------------------------------------

    def _labels(self, mask: int) -> list[str]:
        return [self.frame.generators[i].label for i in bits(mask)]

    def __str__(self):
        if not self.terms:
            return "0"
        bits_out = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            mono = "^".join(self._labels(m)) or "1"
            c = self.terms[m]
            cs = str(c)
            if cs == "1" and mono != "1":
                bits_out.append(mono)
            elif cs == "-1" and mono != "1":
                bits_out.append(f"-{mono}")
            elif len(c.terms) > 1 or (mono != "1" and ("+" in cs or " " in cs)):
                bits_out.append(f"({cs})*{mono}" if mono != "1" else f"({cs})")
            else:
                bits_out.append(f"{cs}*{mono}" if mono != "1" else cs)
        out = bits_out[0]
        for b in bits_out[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def __repr__(self):
        return f"Form({self})"

    def to_json(self, coeff_vars: Optional[Sequence[str]] = None):
        """Each coefficient written as `Poly.to_json(coeff_vars)`."""
        return {
            "frame": [g.label for g in self.frame.generators],
            "terms": [
                {"gens": self._labels(m), "coeff": self.terms[m].to_json(coeff_vars)}
                for m in sorted(self.terms, key=lambda m: (m.bit_count(), m))
            ],
        }

    @staticmethod
    def from_json(obj, frame: FrameSpec) -> "Form":
        labels = [g.label for g in frame.generators]
        if obj["frame"] != labels:
            raise FrameMismatch(f"frame labels {obj['frame']} != {labels}")
        terms: dict[int, Poly] = {}
        for t in obj["terms"]:
            mask, sign = _monomial_mask(frame, t["gens"])
            p = Poly.from_json(t["coeff"])
            if sign and p:
                _accumulate(terms, mask, p if sign > 0 else -p)
        return _form(frame, terms)


def _form(frame: FrameSpec, terms: dict[int, Poly]) -> Form:
    """A Form from nonzero Poly coefficients; nothing is checked or copied."""
    f = _new(Form)
    f.frame = frame
    f.terms = terms
    return f


def _wedge_into(out: dict[int, Poly], a: Mapping[int, Poly], b: Mapping[int, Poly]) -> dict[int, Poly]:
    """out += a ^ b over term dicts; returns out.  A disjoint pair of terms
    is signed by the `koszul_mask` of its left term, built once per left term
    that has one; the products of each output monomial are summed by
    `_add_product` and settled once."""
    sums: dict = {}
    for m1, p1 in a.items():
        q = -1
        for m2, p2 in b.items():
            if not m1 & m2:
                if q < 0:
                    q = koszul_mask(m1)
                _add_product(sums, m1 | m2, p1, p2, (m2 & q).bit_count())
    return _settle_into(out, sums)


def _contract_into(out: dict[int, Poly], terms: Mapping[int, Poly], legs: int) -> dict[int, Poly]:
    """out += the interior product of `terms` with the ascending block of
    generators `legs`; returns out.  A term legs ^ rest gives its coefficient
    at rest, negated when koszul_sign(legs, rest) is -1."""
    for m, c in terms.items():
        if m & legs == legs:
            rest = m ^ legs
            _accumulate(out, rest, c if koszul_sign(legs, rest) > 0 else -c)
    return out


def substitute_generators(
    form: Form, target: FrameSpec, images: Mapping[int, Form], monomials: Optional[dict] = None
) -> Form:
    """Algebra map determined by generator images (one-forms on `target`).

    Every generator used by `form` must have an image; coefficients are
    carried over.  The images are checked before any wedge, so a term that
    maps to zero early still needs them all.  The image of each monomial of
    two or more legs is the image of its lower legs wedged with the image of
    its top leg, built once into `monomials` (mask -> term dict), which a
    caller may keep across calls with the same images (see `frame_expand`).
    """
    used = 0
    for m in form.terms:
        used |= m
    for i in bits(used):
        if i not in images:
            raise FrameMismatch(f"no image for generator {form.frame.generators[i].label!r}")
        if images[i].frame is not target:
            raise FrameMismatch("operands live on different frame objects")
    if monomials is None:
        monomials = {}
    out: dict[int, Poly] = {}
    sums: dict = {}
    for m, c in form.terms.items():
        if not m:
            _accumulate(out, 0, c)
            continue
        image = monomials.get(m)
        if image is None:
            image = _monomial_image(monomials, images, m)
        for tm, tp in image.items():
            _add_product(sums, tm, c, tp, 0)
    return _form(target, _settle_into(out, sums))


def _monomial_image(monomials: dict, images: Mapping[int, Form], m: int) -> dict[int, Poly]:
    """The image of the generator monomial `m` (nonzero), stored into
    `monomials` with the images of its lower legs."""
    top = m.bit_length() - 1
    rest = m ^ (1 << top)
    last = images[top].terms
    if not rest:
        image = last
    else:
        below = monomials.get(rest)
        if below is None:
            below = _monomial_image(monomials, images, rest)
        image = _wedge_into({}, below, last) if below else {}
    monomials[m] = image
    return image


def frame_expand(form: Form, coord_frame: FrameSpec) -> Form:
    """Replace every generator by its expansion on `coord_frame` (a used
    generator with no expansion there is a FrameMismatch).  The image of
    each monomial is built once per pair of frames and kept."""
    images = form.frame.table(("expand-images", coord_frame), lambda: {
        i: g.coord_expansion
        for i, g in enumerate(form.frame.generators)
        if g.coord_expansion is not None and g.coord_expansion.frame is coord_frame
    })
    monomials = form.frame.table(("expand-monomials", coord_frame), dict)
    return substitute_generators(form, coord_frame, images, monomials)


def _collect_images(frame: FrameSpec) -> tuple[FrameSpec, dict[int, Form]]:
    """The coframe's coordinate frame, and each of its generators (by
    position) as a combination of the coframe's generators.

    `calculus.coframe`, which builds every coframe, has checked that the
    generators' expansions are one-forms on one coordinate frame of the same
    size, so they give a square transition matrix (rows: frame generators,
    columns: the coordinate frame's generators), read as sparse rows.  Its
    polynomial inverse is exact and verified, so a coframe whose determinant
    is not a nonzero constant is rejected.  A frame whose generators have no
    expansions, such as a coordinate frame, is a BasisChangeError.
    """
    expansions = [g.coord_expansion for g in frame.generators]
    if any(exp is None for exp in expansions):
        raise BasisChangeError(f"{frame!r} is not a coframe: a generator has no coordinate expansion")
    coord = expansions[0].frame if expansions else frame
    trans = [{m.bit_length() - 1: p for m, p in exp.terms.items()} for exp in expansions]
    try:
        inv = linalg.poly_matrix_inverse_unit_det(trans)
    except ArithmeticError as e:
        raise BasisChangeError(f"cannot invert the expansions of {frame!r}: {e}") from None
    return coord, {k: _form(frame, {1 << j: row[j] for j in sorted(row)}) for k, row in enumerate(inv)}


def frame_collect(form: Form, frame: FrameSpec) -> Form:
    """Inverse of frame_expand: rewrite a form on the coordinate frame of the
    coframe `frame` in the coframe's basis.  A form on any other frame, even
    one with the same labels, is a FrameMismatch."""
    coord, images = frame.table("collect", lambda: _collect_images(frame))
    if form.frame is not coord:
        raise FrameMismatch(f"{form.frame!r} is not the coordinate frame of {frame!r}")
    return substitute_generators(form, frame, images)
