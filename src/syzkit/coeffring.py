"""Exact scalar arithmetic: Gaussian rationals and sparse multivariate polynomials.

Everything downstream (forms, operators, cohomology) stores its coefficients
here.  All values are immutable after construction; equality is exact
structural equality after normalization.  There is no floating point anywhere:
a Gaussian rational is three Python integers, and a `float` operand is a
`TypeError`.

A polynomial is only its terms: a map from monomials, each one int, to
nonzero scalars.  Variable names come back only at the JSON and rendering
boundary.  Ring operations build their results already normalized (scalars in
lowest terms, polynomials without zero terms) and wrap them through the
private constructors `_gr` and `_poly`, which check nothing.  The public
constructors keep every check.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import itemgetter, or_
from typing import Iterable, Mapping, Sequence, Union

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
        # a/d and b/d in lowest terms, as the Fractions `re` and `im` hold them
        a, b, d = self._a, self._b, self._d
        g, h = gcd(a, d), gcd(b, d)
        return {"re": [a // g, d // g], "im": [b // h, d // h]}

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


# -- monomials -----------------------------------------------------------------
#
# A monomial is one int.  Its low _WIDTH bits hold the total degree, and each
# variable owns the _WIDTH-bit field above them that the process-wide,
# append-only table _SHIFT gave it when the variable was first named.  Every
# stored monomial has total degree below DEGREE_BOUND, half the field's range,
# so the sum of two stored monomials never carries out of a field: a product
# of monomials is an int add, and a sum whose degree reaches the bound is
# refused.  No other module reads a field; variable names come back through
# `exponents`.

_WIDTH = 16
_FIELD = (1 << _WIDTH) - 1
DEGREE_BOUND = 1 << (_WIDTH - 1)
_SHIFT: dict[str, int] = {}
_BY_NAME: list[tuple[str, int]] = []  # (name, shift) for every variable, in name order


def variable_monomial(name: str) -> int:
    """The monomial of one variable, naming it in the table on first use."""
    s = _SHIFT.get(name)
    if s is None:
        s = _SHIFT[name] = _WIDTH * (len(_SHIFT) + 1)
        insort(_BY_NAME, (name, s))
    return (1 << s) | 1


def total_degree(m: int) -> int:
    return m & _FIELD


def exponents(m: int, vars: Iterable[str]) -> tuple[int, ...]:
    """The exponents of monomial `m` over `vars`, in their order."""
    return _exponents(m, [_SHIFT.get(v, 0) for v in vars])


def _exponents(m: int, shifts: list[int]) -> tuple[int, ...]:
    # shift 0 stands for a variable that no monomial uses
    return tuple([m >> s & _FIELD if s else 0 for s in shifts])


def monomials(vars: Sequence[str], max_total: int) -> list[int]:
    """Every monomial in `vars` of total degree <= max_total, ordered by
    degree and then by the exponents over `vars`."""
    if not 0 <= max_total < DEGREE_BOUND:
        raise ValueError(f"total degree {max_total} is outside 0..{DEGREE_BOUND - 1}")
    out = [0]
    for v in vars:
        unit = variable_monomial(v)
        out = [m + e * unit for m in out for e in range(max_total - (m & _FIELD) + 1)]
    shifts = [_SHIFT[v] for v in vars]
    return sorted(out, key=lambda m: (m & _FIELD, _exponents(m, shifts)))


class Poly:
    """Sparse multivariate polynomial over Q(i): `terms` maps monomials (see
    `variable_monomial`) to nonzero coefficients, and nothing else is stored,
    so `==` reads the terms alone.  Like `GaussianRational` and `Form`, a
    `Poly` is not hashable.

    Variable names come back only for rendering and JSON, where the terms
    are ordered by degree and then by their exponents over the sorted
    variables they use.  The public constructor takes exponent vectors over
    sorted, unique `vars`, checks them and drops zero terms; ring operations,
    whose results are already clean, go through `_poly`.  As with
    `GaussianRational`, immutability is by convention: `terms` is written only
    when an instance is built.
    """

    __slots__ = ("terms",)

    def __init__(self, vars: Iterable[str] = (), terms: Mapping[tuple[int, ...], Scalarish] | None = None):
        vs = _universe(vars)
        clean: dict[int, GaussianRational] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vs):
                raise ValueError("exponent vector length does not match the variables")
            if any(type(x) is not int or x < 0 for x in exps):
                raise ValueError(f"exponents must be nonnegative integers, got {list(exps)!r}")
            if sum(exps) >= DEGREE_BOUND:
                raise ValueError(f"exponents {list(exps)!r} reach the total degree bound {DEGREE_BOUND}")
            c = GaussianRational.promote(c)
            if c:
                # only the variables a term uses are named, so the table that
                # `_used` scans grows with the data, not with the listed names
                clean[sum(e * variable_monomial(v) for v, e in zip(vs, exps) if e)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(c: Scalarish) -> "Poly":
        c = GaussianRational.promote(c)
        return _poly({0: c} if c else {})

    @staticmethod
    def variable(name: str) -> "Poly":
        return _poly({variable_monomial(name): ONE})

    @staticmethod
    def promote(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Poly.constant(x)
        raise TypeError(f"cannot promote {type(x).__name__} to Poly")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Poly:
            other = Poly.promote(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(terms, m, c)
        return _poly(terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Poly.promote(other))

    def __rsub__(self, other):
        return Poly.promote(other) - self

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not Poly:
            other = Poly.promote(other)
        return _signed_product(self, other, 0)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = P_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus-facing operations ----------------------------------------

    def diff(self, var: str) -> "Poly":
        """Formal partial derivative with respect to `var`.  Lowering one
        exponent maps distinct terms to distinct terms, so each is stored,
        not summed."""
        s = _SHIFT.get(var)
        terms = {}
        if s is not None:
            unit = (1 << s) | 1
            for m, c in self.terms.items():
                k = m >> s & _FIELD
                if k:
                    terms[m - unit] = c if k == 1 else c * k
        return _poly(terms)

    def subst(self, assignment: Mapping[str, "Poly | Scalarish"]) -> "Poly":
        """Ring-homomorphic substitution; unmapped variables stay themselves.

        Each image is raised to each power the terms use once, and every
        term's product is added straight into the result.
        """
        used = self._used()
        shifts = [s for _, s in used]
        # powers[i][e] = (image of the i-th used variable) ** e, for 1 <= e <= the top exponent
        powers = []
        for v, s in used:
            img = assignment.get(v)
            img = Poly.variable(v) if img is None else Poly.promote(img)
            row = [None, img]
            for _ in range(max(m >> s & _FIELD for m in self.terms) - 1):
                row.append(row[-1] * img)
            powers.append(row)
        out: dict[int, GaussianRational] = {}
        for m, c in self.terms.items():
            term = None
            for row, s in zip(powers, shifts):
                e = m >> s & _FIELD
                if e:
                    term = row[e] if term is None else term * row[e]
            if term is None:
                _accumulate(out, 0, c)
            else:
                for k, v in term.terms.items():
                    _accumulate(out, k, v * c)
        return _poly(out)

    def conjugate(self) -> "Poly":
        return _poly({m: c.conjugate() for m, c in self.terms.items()})

    def below(self, d: int) -> "Poly":
        """The terms of total degree < d."""
        return _poly({m: c for m, c in self.terms.items() if m & _FIELD < d})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_term(self) -> GaussianRational:
        return self.terms.get(0, ZERO)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self.constant_term()

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(_FIELD.__and__, self.terms), default=-1)

    def _used(self) -> list[tuple[str, int]]:
        """(name, shift) of each variable the terms use, in name order."""
        acc = reduce(or_, self.terms, 0)
        return [(v, s) for v, s in _BY_NAME if acc >> s & _FIELD]

    def used_vars(self) -> set[str]:
        return {v for v, _ in self._used()}

    def leading_coefficient(self) -> GaussianRational:
        """The coefficient of the last term in the order of `str` and JSON."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self._rows([s for _, s in self._used()])[-1][2]

    # -- rendering / serialization ------------------------------------------

    def _rows(self, shifts: list[int]) -> list[tuple[int, tuple[int, ...], GaussianRational]]:
        """The terms as (degree, exponents over the fields at `shifts`,
        coefficient), ordered by degree and then by exponents; the fields are
        those of sorted variables, among them every used one."""
        rows = [(m & _FIELD, _exponents(m, shifts), c) for m, c in self.terms.items()]
        if len(rows) > 1:
            rows.sort(key=itemgetter(0, 1))
        return rows

    def __str__(self):
        if not self.terms:
            return "0"
        used = self._used()
        bits = []
        for _, exps, c in self._rows([s for _, s in used]):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for (v, _), e in zip(used, exps) if e)
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

    def to_json(self, vars: Iterable[str] | None = None):
        """Exponent vectors over `vars` (sorted and unique), or over the
        sorted used variables when it is None."""
        if vars is None:
            used = self._used()
            vs, shifts = [v for v, _ in used], [s for _, s in used]
        else:
            vs = _universe(vars)
            shifts = [_SHIFT.get(v, 0) for v in vs]
            fields = reduce(or_, (_FIELD << s for s in shifts), _FIELD)
            if reduce(or_, self.terms, 0) & ~fields:
                missing = self.used_vars().difference(vs)
                raise ValueError(f"variables {sorted(missing)} are used but not among {list(vs)}")
        return {
            "vars": list(vs),
            "terms": [{"exp": list(exps), **c.to_json()} for _, exps, c in self._rows(shifts)],
        }

    @staticmethod
    def from_json(obj) -> "Poly":
        terms = {}
        for t in obj["terms"]:
            exps = tuple(t["exp"])
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


def _poly(terms: dict[int, GaussianRational]) -> Poly:
    """A Poly from nonzero terms keyed by monomial; nothing is checked or copied."""
    p = _new(Poly)
    p.terms = terms
    return p


def group_terms(terms: Mapping[tuple, GaussianRational]) -> dict:
    """The nonzero scalar terms {(key, monomial): c} as {key: Poly}.  A
    monomial that is the sum of two stored ones may reach DEGREE_BOUND, which
    is an OverflowError, as it is for a product."""
    out: dict = {}
    for (key, m), c in terms.items():
        if m & DEGREE_BOUND:
            raise OverflowError(f"a product reaches the total degree bound {DEGREE_BOUND}")
        t = out.get(key)
        if t is None:
            t = out[key] = {}
        t[m] = c
    return {key: _poly(t) for key, t in out.items()}


def _mul_into(acc: dict, a: Mapping[int, GaussianRational], b: Mapping[int, GaussianRational], negate: int) -> None:
    """acc[m1 + m2] += a[m1] * b[m2] (minus it when `negate` is odd) for every
    pair of terms of the two polynomials' term dicts: the one multiply-add
    of every sparse product.  The accumulator holds unnormalized
    Gaussian-integer triples [re, im, den], summed over a common
    denominator with no gcd, and `_settle` normalizes each sum once."""
    for m1, x in a.items():
        xa, xb, xd = x._a, x._b, x._d
        if negate & 1:
            xa, xb = -xa, -xb
        for m2, y in b.items():
            ya, yb = y._a, y._b
            re = xa * ya - xb * yb
            im = xa * yb + xb * ya
            d = xd * y._d
            m = m1 + m2
            t = acc.get(m)
            if t is None:
                acc[m] = [re, im, d]
            elif t[2] == d:
                t[0] += re
                t[1] += im
            else:
                # over the lcm of the two denominators
                td = t[2]
                g = gcd(td, d)
                u, v = d // g, td // g
                t[0] = t[0] * u + re * v
                t[1] = t[1] * u + im * v
                t[2] = td * u


def _settle(acc: dict) -> "Poly":
    """The Poly of a `_mul_into` accumulator: one gcd per nonzero sum, and
    zero sums dropped.  The sum of two stored monomials never carries out of
    the degree field, so a surviving term past the degree bound shows in the
    field's top bit, and is an OverflowError."""
    terms: dict[int, GaussianRational] = {}
    for m, (a, b, d) in acc.items():
        if a or b:
            if m & DEGREE_BOUND:
                raise OverflowError(f"a product reaches the total degree bound {DEGREE_BOUND}")
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    a //= g
                    b //= g
                    d //= g
            terms[m] = _gr(a, b, d)
    return _poly(terms)


def _signed_product(p: "Poly", q: "Poly", negate: int) -> "Poly":
    """p * q, or -(p * q) when `negate` is odd: every product of two Polys.
    A constant operand scales the other one term by term (Q(i) is a field,
    so a nonzero scalar keeps every term nonzero, and 1 keeps the operand);
    any other pair runs the `_mul_into` kernel and is settled once."""
    a, b = p.terms, q.terms
    if not a or not b:
        return _poly({})
    if len(b) == 1 and 0 in b:
        c = b[0]
    elif len(a) == 1 and 0 in a:
        c, p = a[0], q
    else:
        acc: dict = {}
        _mul_into(acc, a, b, negate)
        return _settle(acc)
    if negate & 1:
        c = -c
    return p if c == ONE else _poly({m: v * c for m, v in p.terms.items()})


def _add_product(sums: dict, key, p: "Poly", q: "Poly", negate: int) -> None:
    """sums[key] += p * q (minus it when `negate` is odd).  A key's first
    product is kept as the pair, which needs no sum; a second one opens the
    key's `_mul_into` accumulator."""
    acc = sums.get(key)
    if acc is None:
        sums[key] = (p, q, negate)
        return
    if type(acc) is tuple:
        f, g, neg = acc
        acc = sums[key] = {}
        _mul_into(acc, f.terms, g.terms, neg)
    _mul_into(acc, p.terms, q.terms, negate)


def _settle_into(out: dict, sums: dict) -> dict:
    """out[key] += each sum of `_add_product`; returns out.  A lone pair is
    its `_signed_product`, an accumulator is settled, and a zero sum adds
    nothing."""
    for key, acc in sums.items():
        if type(acc) is tuple:
            _accumulate(out, key, _signed_product(*acc))
        else:
            p = _settle(acc)
            if p.terms:
                _accumulate(out, key, p)
    return out


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


P_ONE = Poly.constant(1)
