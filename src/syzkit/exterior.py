"""Graded exterior algebra of invariant forms over polynomial coefficients.

Generator subsets are stored as bitmasks over a fixed frame ordering; Koszul
signs come from transposition counting.  Forms may have mixed degree (needed
for exponentials), are immutable by convention, and all operations are pure.
Operations whose results already hold only nonzero `Poly` coefficients wrap
them through the private constructor `_form`, which checks nothing; the public
constructor promotes scalars and drops zero terms.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

from . import linalg
from .coeffring import GaussianRational, Poly, P_ONE

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
    equals only itself, so forms on two frames built apart never mix.
    """

    def __init__(self, generators: Sequence[Generator], base_vars: Sequence[str], n: int):
        gens = tuple(generators)
        labels = [g.label for g in gens]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique within a frame")
        self.generators = gens
        self.base_vars = tuple(base_vars)
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
        self._collect_images: Optional[dict[str, Form]] = None

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

    # `calculus.coframe` calls these once, before the frame is shared
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
    """Sign of merging the ascending blocks a, b into one ascending monomial.

    Counts pairs (i in a, j in b) with i > j; each is one transposition of
    odd generators.
    """
    swaps = 0
    a = mask_a
    while a:
        low = a & -a
        swaps += (mask_b & (low - 1)).bit_count()
        a ^= low
    return -1 if swaps & 1 else 1


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
        out = Form.scalar(frame, coeff)
        for lab in labels:
            out = out.wedge(Form.gen(frame, lab))
        return out

    # -- basic algebra -----------------------------------------------------

    def _check(self, other: "Form") -> None:
        if self.frame is not other.frame:
            raise FrameMismatch("operands live on different frame objects")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        terms = dict(self.terms)
        for m, p in other.terms.items():
            s = terms.get(m)
            s = p if s is None else s + p
            if s.is_zero():
                terms.pop(m, None)
            else:
                terms[m] = s
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
        terms: dict[int, Poly] = {}
        for m1, p1 in self.terms.items():
            for m2, p2 in other.terms.items():
                if m1 & m2:
                    continue
                s = koszul_sign(m1, m2)
                m = m1 | m2
                add = p1 * p2
                if s < 0:
                    add = -add
                t = terms.get(m)
                t = add if t is None else t + add
                if t.is_zero():
                    terms.pop(m, None)
                else:
                    terms[m] = t
        return _form(self.frame, terms)

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.frame is not other.frame:
            return False
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.frame, frozenset(self.terms.items())))

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
        finite and the factors commute).
        """
        for m in self.terms:
            k = m.bit_count()
            if k == 0 or k % 2:
                raise ValueError("exp requires even-degree terms of degree >= 2")
        out = Form.scalar(self.frame, 1)
        power = Form.scalar(self.frame, 1)
        k = 0
        fact = 1
        while True:
            k += 1
            fact *= k
            power = power.wedge(self)
            if power.is_zero():
                break
            out = out + power * Fraction(1, fact)
        return out

    def pushforward(self, fiber_class: GenClass) -> "Form":
        """Integrate over the fibers of the given class (volume normalized to 1).

        Keeps only terms containing the full top wedge of fiber generators,
        moved to the front in frame order with the Koszul sign.
        """
        top = self.frame.class_mask(fiber_class)
        out: dict[int, Poly] = {}
        for m, c in self.terms.items():
            if m & top != top:
                continue
            rest = m & ~top
            s = koszul_sign(top, rest)
            p = c if s > 0 else -c
            t = out.get(rest)
            t = p if t is None else t + p
            if t.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = t
        return _form(self.frame, out)

    def contract(self, label: str) -> "Form":
        """Interior product with the dual vector of the named generator."""
        i = self.frame.index[label]
        bit = 1 << i
        out: dict[int, Poly] = {}
        for m, c in self.terms.items():
            if not m & bit:
                continue
            sign = -1 if (m & (bit - 1)).bit_count() & 1 else 1
            rest = m ^ bit
            p = c if sign > 0 else -c
            t = out.get(rest)
            t = p if t is None else t + p
            if t.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = t
        return _form(self.frame, out)

    def conjugate(self) -> "Form":
        """Complex-conjugate the coefficients (generators are real)."""
        return _form(self.frame, {m: p.conjugate() for m, p in self.terms.items()})

    def transport(self, frame: FrameSpec) -> "Form":
        """Re-express on another frame by matching generator labels."""
        target = frame.index
        return self.relabel(
            frame, {i: target[g.label] for i, g in enumerate(self.frame.generators) if g.label in target}
        )

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

    def coefficient(self, labels: Sequence[str]) -> Poly:
        """Coefficient of the ascending monomial on the named generators."""
        idxs = [self.frame.index[lab] for lab in labels]
        if idxs != sorted(idxs):
            raise ValueError("labels must be in frame order")
        m = 0
        for i in idxs:
            m |= 1 << i
        return self.terms.get(m, Poly())

    def used_coeff_vars(self) -> set[str]:
        out: set[str] = set()
        for p in self.terms.values():
            out |= p.used_vars()
        return out

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

    def to_json(self):
        return {
            "frame": [g.label for g in self.frame.generators],
            "terms": [
                {"gens": self._labels(m), "coeff": self.terms[m].to_json()}
                for m in sorted(self.terms, key=lambda m: (m.bit_count(), m))
            ],
        }

    @staticmethod
    def from_json(obj, frame: FrameSpec) -> "Form":
        labels = [g.label for g in frame.generators]
        if obj["frame"] != labels:
            raise FrameMismatch(f"frame labels {obj['frame']} != {labels}")
        out = Form.zero(frame)
        for t in obj["terms"]:
            mono = Form.monomial(frame, t["gens"], 1)
            out = out + mono * Poly.from_json(t["coeff"])
        return out


def _form(frame: FrameSpec, terms: dict[int, Poly]) -> Form:
    """A Form from nonzero Poly coefficients; nothing is checked or copied."""
    f = _new(Form)
    f.frame = frame
    f.terms = terms
    return f


def substitute_generators(form: Form, target: FrameSpec, images: Mapping[int, Form]) -> Form:
    """Algebra map determined by generator images (one-forms on `target`).

    Every generator used by `form` must have an image; coefficients are
    carried over.
    """
    out = Form.zero(target)
    for m, c in form.terms.items():
        term = Form.scalar(target, c)
        for i in bits(m):
            img = images.get(i)
            if img is None:
                raise FrameMismatch(
                    f"no image for generator {form.frame.generators[i].label!r}"
                )
            term = term.wedge(img)
            if term.is_zero():
                break
        out = out + term
    return out


def frame_expand(form: Form, coord_frame: FrameSpec) -> Form:
    """Replace every generator by its expansion on `coord_frame` (a used
    generator with no expansion there is a FrameMismatch)."""
    images = {
        i: g.coord_expansion
        for i, g in enumerate(form.frame.generators)
        if g.coord_expansion is not None and g.coord_expansion.frame is coord_frame
    }
    return substitute_generators(form, coord_frame, images)


def _collect_images(frame: FrameSpec) -> dict[str, Form]:
    """Each coordinate generator as a combination of the frame's generators.

    The frame's one-form expansions give a square transition matrix (rows:
    frame generators, columns: the coordinate frame's generators); its
    polynomial inverse is exact and verified, so a coframe whose determinant
    is not a nonzero constant is rejected.
    """
    expansions = []
    for g in frame.generators:
        exp = g.coord_expansion
        if exp is None:
            raise BasisChangeError(f"{g.label!r} has no coordinate expansion")
        if exp.degrees() not in ({1}, set()):
            raise BasisChangeError(f"the expansion of {g.label!r} is not a one-form")
        expansions.append(exp)
    coord = expansions[0].frame if expansions else frame
    if any(exp.frame is not coord for exp in expansions) or len(coord) != len(frame):
        raise BasisChangeError(
            f"{len(frame)} frame generators do not expand on one coordinate frame of the same size"
        )
    trans = [[exp.terms.get(1 << c, Poly()) for c in range(len(coord))] for exp in expansions]
    try:
        inv = linalg.poly_matrix_inverse_unit_det(trans)
    except ArithmeticError as e:
        raise BasisChangeError(f"cannot invert the expansions of {frame!r}: {e}") from None
    return {
        g.label: Form(frame, {1 << k: p for k, p in enumerate(row)})
        for g, row in zip(coord.generators, inv)
    }


def frame_collect(form: Form, frame: FrameSpec) -> Form:
    """Inverse of frame_expand: rewrite a coordinate form in a frame basis."""
    if frame._collect_images is None:
        frame._collect_images = _collect_images(frame)
    solved = frame._collect_images
    images = {}
    for i, g in enumerate(form.frame.generators):
        if g.label in solved:
            images[i] = solved[g.label]
    return substitute_generators(form, frame, images)
