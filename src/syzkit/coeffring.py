"""Exact scalar arithmetic: Gaussian rationals and sparse multivariate polynomials.

Everything downstream (forms, operators, cohomology) stores its coefficients
here.  All values are immutable after construction; equality is exact
structural equality after normalization.  There is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """An element of Q(i): rational real part + rational imaginary part."""

    __slots__ = ("re", "im")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def promote(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot promote {type(x).__name__} to GaussianRational")

    def __add__(self, other):
        other = GaussianRational.promote(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.promote(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.promote(other) - self

    def __mul__(self, other):
        other = GaussianRational.promote(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.promote(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.promote(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return ONE / self ** (-k)
        out = GaussianRational(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"

    def to_json(self):
        return {
            "re": [self.re.numerator, self.re.denominator],
            "im": [self.im.numerator, self.im.denominator],
        }

    @staticmethod
    def from_json(obj) -> "GaussianRational":
        return GaussianRational(
            Fraction(obj["re"][0], obj["re"][1]),
            Fraction(obj["im"][0], obj["im"][1]),
        )


def _imag_str(v: Fraction) -> str:
    if v == 1:
        return "i"
    if v == -1:
        return "-i"
    return f"{v}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def _term_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class Poly:
    """Sparse multivariate polynomial over Q(i).

    Exponent vectors are dense tuples over the (sorted) variable universe;
    universes of two operands are merged by variable name.  No zero terms are
    stored and the term order used for printing/JSON is (degree, exponents).
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple[int, ...], Scalarish] | None = None):
        vs = tuple(vars)
        if list(vs) != sorted(set(vs)):
            raise ValueError(f"variables must be sorted and unique, got {vs}")
        clean: dict[tuple[int, ...], GaussianRational] = {}
        for exps, c in (terms or {}).items():
            c = GaussianRational.promote(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError("exponent vector length does not match universe")
            clean[exps] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalarish, vars: Iterable[str] = ()) -> "Poly":
        vs = tuple(vars)
        c = GaussianRational.promote(c)
        if not c:
            return Poly(vs, {})
        return Poly(vs, {(0,) * len(vs): c})

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly((name,), {(1,): ONE})

    @staticmethod
    def promote(x, vars: Iterable[str] = ()) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Poly.constant(x, vars)
        raise TypeError(f"cannot promote {type(x).__name__} to Poly")

    # -- universe management ----------------------------------------------

    def in_universe(self, vars: tuple[str, ...]) -> "Poly":
        """Re-express over a larger (sorted) universe containing self.vars."""
        if vars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"universe {vars} does not contain {v}")
            pos.append(vars.index(v))
        n = len(vars)
        terms = {}
        for exps, c in self.terms.items():
            e = [0] * n
            for p, x in zip(pos, exps):
                e[p] = x
            terms[tuple(e)] = c
        return Poly(vars, terms)

    @staticmethod
    def _aligned(p: "Poly", q: "Poly") -> tuple["Poly", "Poly"]:
        if p.vars == q.vars:
            return p, q
        vs = tuple(sorted(set(p.vars) | set(q.vars)))
        return p.in_universe(vs), q.in_universe(vs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = Poly.promote(other, self.vars)
        a, b = Poly._aligned(self, other)
        terms = dict(a.terms)
        for exps, c in b.terms.items():
            s = terms.get(exps, ZERO) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return Poly(a.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Poly.promote(other, self.vars))

    def __rsub__(self, other):
        return Poly.promote(other, self.vars) - self

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = Poly.promote(other, self.vars)
        a, b = Poly._aligned(self, other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(e, ZERO) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return Poly(a.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Poly.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(other, self.vars)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = Poly._aligned(self, other)
        return a.terms == b.terms

    def __hash__(self):
        # hash ignores padding variables so that equal polys hash equal
        core = frozenset(
            (tuple((v, e) for v, e in zip(self.vars, exps) if e), c)
            for exps, c in self.terms.items()
        )
        return hash(core)

    def __bool__(self):
        return bool(self.terms)

    # -- calculus-facing operations ----------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to `var`."""
        if var not in self.vars:
            return Poly(self.vars, {})
        i = self.vars.index(var)
        terms = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k == 0:
                continue
            e = exps[:i] + (k - 1,) + exps[i + 1:]
            s = terms.get(e, ZERO) + c * k
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.vars, terms)

    def subst(self, assignment: Mapping[str, "Poly | Scalarish"]) -> "Poly":
        """Ring-homomorphic substitution; unmapped variables stay themselves."""
        images = {}
        for v in self.vars:
            img = assignment.get(v)
            if img is None:
                images[v] = Poly.variable(v)
            else:
                images[v] = Poly.promote(img) if not isinstance(img, Poly) else img
        out = Poly((), {})
        for exps, c in self.terms.items():
            term = Poly.constant(c)
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * images[v] ** e
            out = out + term
        return out

    def evaluate(self, point: Mapping[str, Scalarish]) -> GaussianRational:
        """Evaluate at a full assignment of scalars to variables."""
        out = ZERO
        for exps, c in self.terms.items():
            val = c
            for v, e in zip(self.vars, exps):
                if e:
                    x = GaussianRational.promote(point[v])
                    for _ in range(e):
                        val = val * x
            out = out + val
        return out

    def conjugate(self) -> "Poly":
        return Poly(self.vars, {e: c.conjugate() for e, c in self.terms.items()})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.terms:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def used_vars(self) -> set[str]:
        out = set()
        for exps in self.terms:
            for v, e in zip(self.vars, exps):
                if e:
                    out.add(v)
        return out

    def leading(self) -> tuple[tuple[int, ...], GaussianRational]:
        """Term maximal in (degree, exponent) order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_term_key)
        return e, self.terms[e]

    # -- rendering / serialization ------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=_term_key):
            c = self.terms[exps]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps)
                if e
            )
            cs = str(c)
            if mono:
                if c == ONE:
                    bits.append(mono)
                elif c == -ONE:
                    bits.append(f"-{mono}")
                elif c.im == 0 or c.re == 0:
                    bits.append(f"{cs}*{mono}")
                else:
                    bits.append(f"({cs})*{mono}")
            else:
                bits.append(cs if (c.im == 0 or c.re == 0) else f"({cs})")
        out = bits[0]
        for b in bits[1:]:
            out += f" - {b[1:]}" if b.startswith("-") else f" + {b}"
        return out

    def __repr__(self):
        return f"Poly({self})"

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {
                    "exp": list(exps),
                    "re": [c.re.numerator, c.re.denominator],
                    "im": [c.im.numerator, c.im.denominator],
                }
                for exps in sorted(self.terms, key=_term_key)
                for c in [self.terms[exps]]
            ],
        }

    @staticmethod
    def from_json(obj) -> "Poly":
        vs = tuple(obj["vars"])
        terms = {}
        for t in obj["terms"]:
            c = GaussianRational(
                Fraction(t["re"][0], t["re"][1]), Fraction(t["im"][0], t["im"][1])
            )
            terms[tuple(t["exp"])] = c
        return Poly(vs, terms)


P_ONE = Poly.constant(1)


def exponent_vectors(nvars: int, max_total: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_total, in degree-then-lex order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    if nvars == 0:
        return [()]
    rec([], max_total, nvars)
    out.sort(key=lambda e: (sum(e), e))
    return out


class PolyRatio:
    """Exact ratio of two polynomials, normalized so the denominator's
    leading coefficient is 1.  Used for conformal factors, where the
    denominator is a determinant that need not divide the numerator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        _, lead = den.leading()
        object.__setattr__(self, "num", num * (ONE / lead))
        object.__setattr__(self, "den", den * (ONE / lead))

    def __setattr__(self, name, value):
        raise AttributeError("PolyRatio is immutable")

    def is_constant(self) -> bool:
        if self.num.is_zero():
            return True
        if self.den.is_constant():
            return self.num.is_constant()
        # num/den is the constant c iff num == c * den exactly
        try:
            c = self.constant_value()
        except ValueError:
            return False
        return self.num == self.den * c

    def constant_value(self) -> GaussianRational:
        if self.num.is_zero():
            return ZERO
        en, cn = self.num.leading()
        ed, cd = self.den.leading()
        c = cn / cd
        if self.num == self.den * c:
            return c
        raise ValueError(f"ratio is not constant: ({self.num})/({self.den})")

    def __mul__(self, other):
        if isinstance(other, PolyRatio):
            return PolyRatio(self.num * other.num, self.den * other.den)
        return PolyRatio(self.num * Poly.promote(other), self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.num == self.den * GaussianRational.promote(other)
        if not isinstance(other, PolyRatio):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
