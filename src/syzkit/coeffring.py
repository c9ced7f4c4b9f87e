"""Exact scalar arithmetic: Gaussian rationals and sparse multivariate polynomials.

Everything downstream (forms, operators, cohomology) stores its coefficients
here.  All values are immutable after construction; equality is exact
structural equality after normalization.  There is no floating point anywhere:
a Gaussian rational is three Python integers, and a `float` operand is a
`TypeError`.

Ring operations build their results already normalized (scalars in lowest
terms, polynomials without zero terms over a sorted universe) and wrap them
through the private constructors `_gr` and `_poly`, which check nothing.  The
public constructors keep every check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import add
from typing import Iterable, Mapping, Union

Rationalish = Union[int, Fraction]
Scalarish = Union[int, Fraction, "GaussianRational"]

_new = object.__new__


class GaussianRational:
    """An element of Q(i), stored as the integer triple (a + b*i)/d.

    The triple is normalized: d > 0 and gcd(a, b, d) == 1, so equal values
    have equal triples.  `re` and `im` are the `Fraction`s a/d and b/d.  As with
    `fractions.Fraction`, immutability is by convention: `re` and `im` are
    read-only, and the private slots are written only while an instance is
    built.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        rn, rd = _ratio(re)
        jn, jd = _ratio(im)
        # over the lcm of two reduced denominators the triple is in lowest terms
        d = rd // gcd(rd, jd) * jd
        self._a, self._b, self._d = rn * (d // rd), jn * (d // jd), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def promote(x: Scalarish) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if type(x) is int:
            return _gr(x, 0, 1)
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot promote {type(x).__name__} to GaussianRational")

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.promote(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.promote(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a - other._a, self._b - other._b, d1)
        return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other):
        return GaussianRational.promote(other) - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.promote(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.promote(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i)/n
        d2 = other._d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * n)

    def __rtruediv__(self, other):
        return GaussianRational.promote(other) / self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self) -> "GaussianRational":
        return _gr(self._a, -self._b, self._d)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value equals an int or Fraction (see __eq__), so it hashes as one
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        # hash(Fraction(n, 1)) == hash(n), so both branches hash (re, im)
        if d == 1:
            return hash((a, b))
        return hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return _imag_str(im)
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{_imag_str(abs(im))}"

    def to_json(self):
        re, im = self.re, self.im
        return {
            "re": [re.numerator, re.denominator],
            "im": [im.numerator, im.denominator],
        }

    @staticmethod
    def from_json(obj) -> "GaussianRational":
        return GaussianRational(_json_fraction(obj["re"]), _json_fraction(obj["im"]))


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple that is already normalized; nothing is checked."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d in lowest terms, for d > 0."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _gr(a, b, d)


def _ratio(x: Rationalish) -> tuple[int, int]:
    """Numerator and denominator, in lowest terms, of an exact rational."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, float):
        raise TypeError(f"GaussianRational takes exact rationals, not the float {x!r}")
    f = Fraction(x)
    return f.numerator, f.denominator


def _json_fraction(pair) -> Fraction:
    """The Fraction of a JSON [numerator, denominator] pair of integers."""
    if type(pair) is not list or len(pair) != 2:
        raise ValueError(f"a fraction must be a [numerator, denominator] list, got {pair!r}")
    for v in pair:
        if type(v) is not int:
            raise ValueError(f"numerator and denominator must be integers, got {v!r}")
    return Fraction(*pair)


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
    The public constructor checks the universe and the exponent lengths and
    drops zero terms; ring operations, whose results already satisfy this, go
    through `_poly`.  As with `GaussianRational`, immutability is by
    convention: `vars` and `terms` are written only when an instance is built.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple[int, ...], Scalarish] | None = None):
        vs = _universe(vars)
        clean: dict[tuple[int, ...], GaussianRational] = {}
        for exps, c in (terms or {}).items():
            c = GaussianRational.promote(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError("exponent vector length does not match universe")
            clean[exps] = c
        self.vars = vs
        self.terms = clean

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

    def _over(self, vars: tuple[str, ...]) -> "Poly":
        """Re-express over a sorted, unique universe containing self.vars."""
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
        return _poly(vars, terms)

    @staticmethod
    def _aligned(p: "Poly", q: "Poly") -> tuple["Poly", "Poly"]:
        if p.vars == q.vars:
            return p, q
        vs = tuple(sorted(set(p.vars) | set(q.vars)))
        return p._over(vs), q._over(vs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = Poly.promote(other, self.vars)
        a, b = Poly._aligned(self, other)
        terms = dict(a.terms)
        for exps, c in b.terms.items():
            _accumulate(terms, exps, c)
        return _poly(a.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Poly.promote(other, self.vars))

    def __rsub__(self, other):
        return Poly.promote(other, self.vars) - self

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction, GaussianRational)):
                # Q(i) is a field: a nonzero scalar keeps every term nonzero
                c = GaussianRational.promote(other)
                return _poly(self.vars, {e: v * c for e, v in self.terms.items()} if c else {})
            other = Poly.promote(other, self.vars)
        # a constant over the empty universe scales the other operand, whose
        # universe is the union
        if not other.vars:
            return _scaled(self, other)
        if not self.vars:
            return _scaled(other, self)
        a, b = Poly._aligned(self, other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                _accumulate(terms, tuple(map(add, e1, e2)), c1 * c2)
        return _poly(a.vars, terms)

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
        # a constant equals its scalar (see __eq__), so it hashes as one
        if self.is_constant():
            return hash(self.constant_value())
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
            return _poly(self.vars, {})
        i = self.vars.index(var)
        terms = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k:
                _accumulate(terms, exps[:i] + (k - 1,) + exps[i + 1:], c * k)
        return _poly(self.vars, terms)

    def partials(self) -> dict[str, "Poly"]:
        """Every nonzero partial derivative, by variable, in one pass over the
        terms; each equals `self.diff(var)`.  Lowering one exponent maps
        distinct terms to distinct terms, so each is stored, not summed."""
        vs = self.vars
        acc: list[dict] = [{} for _ in vs]
        for exps, c in self.terms.items():
            for i, k in enumerate(exps):
                if k:
                    acc[i][exps[:i] + (k - 1,) + exps[i + 1:]] = c if k == 1 else c * k
        return {v: _poly(vs, terms) for v, terms in zip(vs, acc) if terms}

    def subst(self, assignment: Mapping[str, "Poly | Scalarish"]) -> "Poly":
        """Ring-homomorphic substitution; unmapped variables stay themselves.

        Each image is raised to each power the terms use once, over the union
        of the universes of the images the terms use, and every term's
        product is added straight into the result over that universe.
        """
        vs = self.vars
        images = []
        for v in vs:
            img = assignment.get(v)
            if img is None:
                img = Poly.variable(v)
            elif not isinstance(img, Poly):
                img = Poly.promote(img)
            images.append(img)
        used: set[str] = set()
        top = [0] * len(vs)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.update(images[i].vars)
                    if e > top[i]:
                        top[i] = e
        universe = tuple(sorted(used))
        # powers[i][e] = images[i] ** e over the universe, for 1 <= e <= top[i]
        powers = []
        for img, k in zip(images, top):
            row = [None]
            if k:
                row.append(img._over(universe))
                for _ in range(k - 1):
                    row.append(row[-1] * row[1])
            powers.append(row)
        out: dict[tuple[int, ...], GaussianRational] = {}
        for exps, c in self.terms.items():
            term = None
            for i, e in enumerate(exps):
                if e:
                    p = powers[i][e]
                    term = p if term is None else term * p
            if term is None:
                _accumulate(out, (0,) * len(universe), c)
            else:
                for e, v in term.terms.items():
                    _accumulate(out, e, v * c)
        return _poly(universe, out)

    def conjugate(self) -> "Poly":
        return _poly(self.vars, {e: c.conjugate() for e, c in self.terms.items()})

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
                {"exp": list(exps), **self.terms[exps].to_json()}
                for exps in sorted(self.terms, key=_term_key)
            ],
        }

    @staticmethod
    def from_json(obj) -> "Poly":
        terms = {}
        for t in obj["terms"]:
            exps = tuple(t["exp"])
            if any(type(x) is not int or x < 0 for x in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {t['exp']!r}")
            if exps in terms:
                raise ValueError(f"exponent vector {t['exp']!r} appears twice")
            terms[exps] = GaussianRational.from_json(t)
        return Poly(obj["vars"], terms)


def _universe(vars: Iterable[str]) -> tuple[str, ...]:
    """`vars` as a tuple, which must be sorted and unique."""
    vs = tuple(vars)
    if list(vs) != sorted(set(vs)):
        raise ValueError(f"variables must be sorted and unique, got {vs}")
    return vs


def _poly(vars: tuple[str, ...], terms: dict[tuple[int, ...], GaussianRational]) -> Poly:
    """A Poly over the sorted universe `vars` from nonzero terms whose exponent
    tuples have the universe's length; nothing is checked or copied."""
    p = _new(Poly)
    p.vars = vars
    p.terms = terms
    return p


def _accumulate(terms: dict, key, value) -> None:
    """terms[key] += value for a nonzero `value`: a zero sum deletes the key,
    and a first value is stored as given.  Every sparse term map in the
    package (scalars, polynomials, forms, sparse vectors) is summed here."""
    s = terms.get(key)
    if s is None:
        terms[key] = value
    else:
        s = s + value
        if s:
            terms[key] = s
        else:
            del terms[key]


def _scaled(p: Poly, k: Poly) -> Poly:
    """p * k for a constant k over the empty universe: p itself when k is 1."""
    if not k.terms:
        return _poly(p.vars, {})
    c = k.terms[()]
    if c == ONE:
        return p
    return _poly(p.vars, {e: v * c for e, v in p.terms.items()})


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
