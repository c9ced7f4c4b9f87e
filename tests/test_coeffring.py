import json
import math
import operator
import random
from fractions import Fraction

import pytest

from syzkit.coeffring import (
    DEGREE_BOUND,
    GaussianRational,
    I,
    ONE,
    P_ONE,
    Poly,
    ZERO,
    exponents,
    monomials,
    total_degree,
)
from syzkit.randgen import random_poly, random_scalar


def r(name):
    return Poly.variable(name)


class FractionPair:
    """Oracle for `GaussianRational`: Q(i) as a pair of `Fraction`s, the scalar's
    earlier representation.  `repr` names `GaussianRational` on purpose, so the
    two render alike."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPair is immutable")

    @staticmethod
    def promote(x):
        if isinstance(x, FractionPair):
            return x
        if isinstance(x, (int, Fraction)):
            return FractionPair(x)
        raise TypeError(f"cannot promote {type(x).__name__} to FractionPair")

    def __add__(self, other):
        other = FractionPair.promote(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = FractionPair.promote(other)
        return FractionPair(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return FractionPair.promote(other) - self

    def __mul__(self, other):
        other = FractionPair.promote(other)
        return FractionPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = FractionPair.promote(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return FractionPair(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return FractionPair.promote(other) / self

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __pow__(self, k):
        if k < 0:
            return FractionPair(1) / self ** (-k)
        out = FractionPair(1)
        for _ in range(k):
            out = out * self
        return out

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionPair(other)
        if not isinstance(other, FractionPair):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return self.re != 0 or self.im != 0

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


def _imag_str(v):
    if v == 1:
        return "i"
    if v == -1:
        return "-i"
    return f"{v}i"


class TestGaussianRational:
    def test_i_squared(self):
        assert I * I == GaussianRational(-1)

    def test_field_ops(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
        b = GaussianRational(2, 5)
        assert a + b - b == a
        assert (a * b) / b == a
        assert a * a.conjugate() == GaussianRational(a.re * a.re + a.im * a.im)

    def test_normalized_equality(self):
        assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
        assert GaussianRational(1, 0) == GaussianRational(Fraction(2, 2))

    @pytest.mark.parametrize("x", [0, 3, -7, 2**70, Fraction(1, 2), Fraction(-5, 3), Fraction(2**65, 3)])
    def test_real_values_equal_their_int_or_fraction(self, x):
        z = GaussianRational(x)
        assert z == x and x == z and z == Fraction(x)
        assert z != x + 1 and z != x + I

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    def test_pow(self):
        assert I ** 2 == GaussianRational(-1)
        assert GaussianRational(2) ** 6 == GaussianRational(64)
        assert GaussianRational(2) ** -1 == GaussianRational(Fraction(1, 2))


class TestFloatRejected:
    @pytest.mark.parametrize("args", [(0.1,), (1, 0.5), (0.0, 0)])
    def test_constructor(self, args):
        with pytest.raises(TypeError, match="float"):
            GaussianRational(*args)

    def test_exact_operands_still_accepted(self):
        assert GaussianRational(True, Fraction(2, 4)) == GaussianRational(1, Fraction(1, 2))
        assert GaussianRational("3/6") == GaussianRational(Fraction(1, 2))

    @pytest.mark.parametrize("pair, shown", [
        ([0.5, 1], "0.5"), ([1, 2.0], "2.0"), ([True, 1], "True"), (["1", 2], "'1'"),
    ])
    def test_from_json_names_the_value(self, pair, shown):
        obj = {"re": [1, 1], "im": pair}
        with pytest.raises(ValueError, match=f"got {shown}"):
            GaussianRational.from_json(obj)
        term = {"exp": [1], "re": pair, "im": [0, 1]}
        with pytest.raises(ValueError, match=f"got {shown}"):
            Poly.from_json({"vars": ["r1"], "terms": [term]})

    def test_from_json_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational.from_json({"re": [1, 0], "im": [0, 1]})

    @pytest.mark.parametrize("pair", [[1, 2, 99], [1], [], "1/2", {"0": 1, "1": 2}])
    def test_from_json_needs_a_two_entry_list(self, pair):
        # [1, 2, 99] was once read as 1/2
        with pytest.raises(ValueError, match=r"a fraction must be a \[numerator, denominator\] list"):
            GaussianRational.from_json({"re": pair, "im": [0, 1]})

    def test_poly_from_json_rejects_a_repeated_exponent(self):
        # once read as 5*r1, the last term kept
        terms = [{"exp": [1], "re": [1, 1], "im": [0, 1]}, {"exp": [1], "re": [5, 1], "im": [0, 1]}]
        with pytest.raises(ValueError, match=r"exponent vector \[1\] appears twice"):
            Poly.from_json({"vars": ["r1"], "terms": terms})
        assert Poly.from_json({"vars": ["r1"], "terms": terms[1:]}) == Poly.variable("r1") * 5


def oracle_pair(rng, factors=1):
    """A random element of Q(i) as (GaussianRational, FractionPair): one randgen
    scalar, or a product of `factors` nonzero ones multiplied out by the oracle,
    handed to both classes as the same two Fractions."""
    o = FractionPair(1)
    for _ in range(factors):
        re = random_scalar(rng, complex_ok=False).re
        f = FractionPair(re, random_scalar(rng, complex_ok=False).re if rng.random() < 0.5 else 0)
        if f or factors == 1:
            o = o * f
    return GaussianRational(o.re, o.im), o


def operand(rng):
    """One operand as (value for GaussianRational, value for the oracle)."""
    kind = rng.choice(["scalar", "scalar", "big", "zero", "int", "fraction"])
    if kind == "scalar":
        return oracle_pair(rng)
    if kind == "big":
        return oracle_pair(rng, factors=20)
    if kind == "zero":
        return GaussianRational(0), FractionPair(0)
    x = rng.randint(-6, 6) if kind == "int" else random_scalar(rng, complex_ok=False).re
    return x, x


def assert_agrees(z, o):
    """`z` equals the oracle's `o` in every observable and stores a normalized triple."""
    assert type(z) is GaussianRational
    assert (z.re, z.im) == (o.re, o.im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert str(z) == str(o)
    assert repr(z) == repr(o)
    assert z.to_json() == o.to_json()
    assert bool(z) == bool(o)
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1


BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class TestScalarOracle:
    """Seeded campaign: every operation agrees with the Fraction-pair oracle."""

    @pytest.mark.parametrize("block", range(8))
    def test_agrees_with_fraction_pair(self, block):
        for trial in range(300 * block, 300 * (block + 1)):
            rng = random.Random(trial)
            (xz, xo), (yz, yo) = operand(rng), operand(rng)
            if not isinstance(xz, GaussianRational) and not isinstance(yz, GaussianRational):
                xz, xo = oracle_pair(rng)
            if rng.random() < 0.5:
                (xz, xo), (yz, yo) = (yz, yo), (xz, xo)
            z, o = (xz, xo) if isinstance(xz, GaussianRational) else (yz, yo)
            op = rng.choice(["+", "-", "*", "/", "neg", "conjugate", "**", "=="])
            where = f"trial {trial}: {op} on {xo!r}, {yo!r}"
            if op in BINARY:
                try:
                    want = BINARY[op](xo, yo)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        BINARY[op](xz, yz)
                    continue
                got = BINARY[op](xz, yz)
            elif op == "neg":
                got, want = -z, -o
            elif op == "conjugate":
                got, want = z.conjugate(), o.conjugate()
            elif op == "**":
                k = rng.randint(-3, 6) if o else rng.randint(0, 6)
                got, want = z ** k, o ** k
            else:
                assert (xz == yz) == (xo == yo), where
                assert (xz != yz) == (xo != yo), where
                twin = GaussianRational(o.re, o.im)
                assert z == twin, where
                continue
            try:
                assert_agrees(got, want)
            except AssertionError as e:
                raise AssertionError(f"{where}: got {got!r}, want {want!r}") from e

    def test_big_operands_have_large_parts(self):
        rng = random.Random(0)
        z, o = oracle_pair(rng, factors=20)
        assert max(abs(o.re.numerator), abs(o.im.numerator)) > 10**6
        assert o.re.denominator > 100
        assert_agrees(z, o)


class TestPolyBasics:
    def test_additive_inverse(self):
        assert (r("r1") + (-r("r1"))).is_zero()

    def test_doubling(self):
        p = r("r1") * r("r2")
        assert p + p == p * 2

    def test_cancellation(self):
        one = Poly.constant(1)
        assert one + r("r1") * r("r1") + (-(r("r1") ** 2)) == one

    def test_unit(self):
        assert r("r1") * Poly.constant(1) == r("r1")

    def test_iwasawa_determinant_identity(self):
        # det [[1+r1^2, -r1], [-r1, 1]] via cofactor expansion oracle
        a, b, c, d = Poly.constant(1) + r("r1") ** 2, -r("r1"), -r("r1"), Poly.constant(1)
        assert a * d - b * c == Poly.constant(1)

    def test_diff(self):
        assert (r("r1") ** 2).diff("r1") == r("r1") * 2
        assert (r("r1") * r("r2")).diff("r3").is_zero()
        assert (Poly.constant(1) + r("r1") ** 2).diff("r1") == r("r1") * 2

    def test_subst_shift(self):
        p = r("r1") ** 2
        q = p.subst({"r1": r("r1") + Poly.constant(1)})
        assert q == r("r1") ** 2 + r("r1") * 2 + Poly.constant(1)

    def test_subst_identity(self):
        p = random_poly(random.Random(1), ("r1", "r2"))
        assert p.subst({}) == p

    def test_subst_lattice_invariance_instance(self):
        # r13 - r12*r23 is fixed by r13 -> r13 + r23, r12 -> r12 + 1
        p = r("r13") - r("r12") * r("r23")
        q = p.subst({"r13": r("r13") + r("r23"), "r12": r("r12") + Poly.constant(1)})
        assert q == p

    def test_universe_merge(self):
        assert r("r2") + r("r1") == r("r1") + r("r2")
        p = (r("r1") + r("r3")) * r("r2")
        assert p.used_vars() == {"r1", "r2", "r3"}

    @pytest.mark.parametrize("x", [3, Fraction(1, 2), I, 0])
    def test_constant_equals_its_scalar(self, x):
        # x = 0 is the zero Poly()
        for p in (Poly.constant(x), Poly(("r1", "r2"), {(0, 0): x})):
            assert p == x and x == p
            assert p != x + 1

    def test_padded_universes_equal(self):
        # variables that no term uses leave no trace in the value
        p = r("r1") * r("r2") + Poly.constant(I)
        padded = Poly(("r0", "r1", "r2", "r3"), {(0, 1, 1, 0): 1, (0, 0, 0, 0): I})
        assert padded == p
        assert padded.to_json() == p.to_json() and str(padded) == str(p)
        assert Poly() == Poly(("r1",), {}) == 0

    @pytest.mark.parametrize("value", [GaussianRational(1), I, Poly(), Poly.constant(3), r("r1")],
                             ids=["real", "i", "zero-poly", "constant-poly", "r1"])
    def test_scalars_and_polynomials_are_unhashable(self, value):
        # nothing in the package hashes either, and a hash would have to agree
        # with the ints and Fractions they equal (3 == Poly.constant(3))
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


class TestPolyProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        vs = ("r1", "r2", "r3")
        p, q, s = (random_poly(rng, vs) for _ in range(3))
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * s == p * (q * s)
        assert p * (q + s) == p * q + p * s

    @pytest.mark.parametrize("seed", range(25))
    def test_diff_leibniz(self, seed):
        rng = random.Random(100 + seed)
        vs = ("r1", "r2")
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        v = rng.choice(vs)
        assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

    @pytest.mark.parametrize("seed", range(25))
    def test_subst_is_ring_hom(self, seed):
        rng = random.Random(200 + seed)
        vs = ("r1", "r2")
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        sub = {"r1": random_poly(rng, vs), "r2": random_poly(rng, vs)}
        assert (p * q).subst(sub) == p.subst(sub) * q.subst(sub)
        assert (p + q).subst(sub) == p.subst(sub) + q.subst(sub)


def named_terms(p):
    """`p`'s terms keyed by their (variable, exponent) pairs over its sorted
    used variables, zero exponents left out."""
    vs = sorted(p.used_vars())
    return {tuple((v, k) for v, k in zip(vs, exponents(m, vs)) if k): c for m, c in p.terms.items()}


def named_product(a, b):
    """The product of two named-term maps, monomials merged by variable."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = dict(m1)
            for v, k in m2:
                mono[v] = mono.get(v, 0) + k
            key = tuple(sorted(mono.items()))
            out[key] = out.get(key, ZERO) + c1 * c2
    return out


def public_poly(vars, named):
    """A Poly built by the public constructor from (monomial, coefficient) pairs,
    summing repeated monomials and leaving zero-dropping to the constructor."""
    slot = {v: i for i, v in enumerate(vars)}
    terms = {}
    for mono, c in named:
        e = [0] * len(vars)
        for v, k in mono:
            e[slot[v]] += k
        terms[tuple(e)] = terms.get(tuple(e), ZERO) + c
    return Poly(vars, terms)


def named_json(named, vars):
    """The JSON document of a named-term map over the sorted `vars`: terms in
    (degree, exponents) order, zero terms left out."""
    rows = []
    for mono, c in named.items():
        if c:
            e = tuple(dict(mono).get(v, 0) for v in vars)
            rows.append((sum(e), e, c))
    rows.sort(key=lambda row: row[:2])
    return {"vars": list(vars), "terms": [{"exp": list(e), **c.to_json()} for _, e, c in rows]}


def public_route(op, p, q, var, sub):
    """The same result as `op`, routed through named terms and the public
    constructor."""
    vs = sorted(p.used_vars() | q.used_vars())
    pn, qn = named_terms(p), named_terms(q)
    if op == "+":
        return public_poly(vs, [*pn.items(), *qn.items()])
    if op == "-":
        return public_poly(vs, [*pn.items(), *((m, -c) for m, c in qn.items())])
    if op == "*":
        return public_poly(vs, named_product(pn, qn).items())
    if op == "neg":
        return public_poly(vs, [(m, -c) for m, c in pn.items()])
    if op == "conjugate":
        return public_poly(vs, [(m, c.conjugate()) for m, c in pn.items()])
    if op == "diff":
        out = []
        for m, c in pn.items():
            k = dict(m).get(var, 0)
            if k:
                out.append((tuple((v, e - (v == var)) for v, e in m), c * k))
        return public_poly(vs, out)
    if op == "subst":
        # each term is its coefficient times every image multiplied in
        images = {v: named_terms(img) for v, img in sub.items()}
        out = []
        for m, c in pn.items():
            term = {(): c}
            for v, k in m:
                for _ in range(k):
                    term = named_product(term, images.get(v, {((v, 1),): ONE}))
            out += term.items()
        used = {v for mono, _ in out for v, _ in mono}
        return public_poly(sorted(used), out)
    raise ValueError(op)


class TestPolyFastConstructor:
    """Ring operations skip the public constructor's checks; their results still
    satisfy every invariant it enforces and equal the checked route."""

    UNIVERSES = [("r1",), ("r1", "r2"), ("r2", "r3"), ("r1", "r2", "r3"), ()]

    @pytest.mark.parametrize("seed", range(60))
    def test_results_are_clean_and_match_public_route(self, seed):
        rng = random.Random(5000 + seed)
        p = random_poly(rng, rng.choice(self.UNIVERSES), max_degree=3, max_terms=4)
        q = random_poly(rng, rng.choice(self.UNIVERSES), max_degree=3, max_terms=4)
        if rng.random() < 0.3:
            q = q - p  # cancellations in + and -
        elif len(p.terms) > 1 and rng.random() < 0.5:
            # q is p with its first term negated: (t + s)(s - t) cancels its cross terms
            m, c = next(iter(p.terms.items()))
            vs = sorted(p.used_vars())
            q = p - Poly(vs, {exponents(m, vs): 2 * c})
        var = rng.choice(["r1", "r2", "r3"])
        sub = {v: random_poly(rng, rng.choice(self.UNIVERSES), max_degree=2, max_terms=2)
               for v in rng.sample(["r1", "r2", "r3"], rng.randint(0, 3))}
        for op, got in [
            ("+", p + q), ("-", p - q), ("*", p * q), ("neg", -p),
            ("conjugate", p.conjugate()), ("diff", p.diff(var)), ("subst", p.subst(sub)),
        ]:
            for m, c in got.terms.items():
                assert type(m) is int and 0 <= total_degree(m) < DEGREE_BOUND, op
                assert type(c) is GaussianRational and c, op
            want = public_route(op, p, q, var, sub)
            assert got.terms == want.terms, op
        # JSON over the used variables, and over a padded universe
        padded = sorted(p.used_vars() | {"r1", "r4"})
        assert p.to_json() == named_json(named_terms(p), sorted(p.used_vars()))
        assert p.to_json(padded) == named_json(named_terms(p), padded)

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="sorted"):
            Poly(("r2", "r1"), {})
        with pytest.raises(ValueError, match="sorted"):
            Poly(("r1", "r1"), {})
        with pytest.raises(ValueError, match="length"):
            Poly(("r1",), {(1, 0): 1})
        p = Poly(["r1"], {(1,): 0, (2,): Fraction(1, 2)})
        assert [exponents(m, ["r1"]) for m in p.terms] == [(2,)]

    @pytest.mark.parametrize("exps", [(-1,), (1.5,), (True,), ("1",), (DEGREE_BOUND,), (40000,)])
    def test_public_constructor_refuses_exponents_out_of_range(self, exps):
        with pytest.raises(ValueError, match="exponents"):
            Poly(("r1",), {exps: 1})

    def test_total_degree_bound_spans_the_variables(self):
        # each exponent fits a field, but their total does not
        half = DEGREE_BOUND // 2
        assert Poly(("r1", "r2"), {(half, half - 1): 1}).degree() == DEGREE_BOUND - 1
        with pytest.raises(ValueError, match="total degree bound"):
            Poly(("r1", "r2"), {(half, half): 1})
        with pytest.raises(ValueError, match="exponents"):
            Poly.from_json({"vars": ["r1"], "terms": [{"exp": [40000], "re": [1, 1], "im": [0, 1]}]})


class TestDegreeBound:
    """A product whose total degree reaches the bound raises instead of
    carrying into the next variable's field."""

    def test_power_past_the_bound_raises(self):
        # cheap by squaring: r1^(2^15) is r1^(2^14) squared
        assert (r("r1") ** (DEGREE_BOUND - 1)).degree() == DEGREE_BOUND - 1
        with pytest.raises(OverflowError, match="total degree bound"):
            r("r1") ** DEGREE_BOUND
        # the bound is on the total degree, not on one variable's exponent
        half = r("r1") ** (DEGREE_BOUND // 2)
        with pytest.raises(OverflowError):
            half * (r("r2") ** (DEGREE_BOUND // 2) + 1)

    def test_no_carry_below_the_bound(self):
        # the largest admitted product in r1 leaves r2's field alone
        p = r("r1") ** (DEGREE_BOUND // 2) * r("r1") ** (DEGREE_BOUND // 2 - 1)
        assert p.used_vars() == {"r1"}
        assert p.diff("r2").is_zero()
        assert p.to_json()["terms"][0]["exp"] == [DEGREE_BOUND - 1]


def aligned_product(p, q):
    """Oracle for Poly.__mul__: both operands' terms keyed by variable name,
    aligned over the union of their used variables, multiplied term by term
    and built by the public constructor."""
    return public_route("*", p, q, None, None)


class TestConstantScaling:
    """Any constant operand scales the other operand; the product still
    equals the aligned product in value and JSON."""

    CONSTANTS = [
        P_ONE, -P_ONE, Poly(), Poly.constant(GaussianRational(Fraction(-2, 3), 1)), Poly.constant(I),
        Poly(("r1", "r2"), {(0, 0): 5}), Poly(("r3",), {(0,): 1}), Poly(("r1",), {}),
    ]

    @pytest.mark.parametrize("k", range(len(CONSTANTS)))
    def test_matches_aligned_route_in_both_orders(self, k):
        c = self.CONSTANTS[k]
        rng = random.Random(6000 + k)
        others = [r("r1") * r("r2") - I, *self.CONSTANTS]
        others += [random_poly(rng, rng.choice(TestPolyFastConstructor.UNIVERSES)) for _ in range(40)]
        for p in others:
            for got, want in ((c * p, aligned_product(c, p)), (p * c, aligned_product(p, c))):
                assert got == want
                assert got.to_json() == want.to_json()

    def test_one_returns_the_other_operand(self):
        p = r("r1") * r("r2") + I
        assert p * P_ONE is p and P_ONE * p is p


class TestSerialization:
    def test_json_roundtrip(self):
        p = r("r1") * Fraction(3, 7) + r("r2") ** 2 * I + Poly.constant(GaussianRational(1, -2))
        assert Poly.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_rendering_deterministic(self):
        p = r("r2") + r("r1") * r("r2") + Poly.constant(Fraction(1, 2))
        assert str(p) == str(Poly.from_json(p.to_json()))
        assert str(p) == "1/2 + r2 + r1*r2"


def test_exponent_vectors():
    vs = ("r1", "r2")
    out = [exponents(m, vs) for m in monomials(vs, 2)]
    assert out == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert [total_degree(m) for m in monomials(vs, 2)] == [0, 1, 1, 2, 2, 2]
    assert monomials((), 3) == [0]
    with pytest.raises(ValueError):
        monomials(vs, DEGREE_BOUND)


def subst_by_pow(p, assignment):
    """Oracle for Poly.subst: every term rebuilt as its coefficient times each
    image raised by `**`, summed with `+` from the empty polynomial, the route
    it once took."""
    vs = sorted(p.used_vars())
    images = {}
    for v in vs:
        img = assignment.get(v)
        if img is None:
            images[v] = Poly.variable(v)
        else:
            images[v] = Poly.promote(img) if not isinstance(img, Poly) else img
    out = Poly((), {})
    for m, c in p.terms.items():
        term = Poly.constant(c)
        for v, e in zip(vs, exponents(m, vs)):
            if e:
                term = term * images[v] ** e
        out = out + term
    return out


class TestKernelsMatchOracles:
    UNIVERSES = [(), ("r1",), ("r1", "r2"), ("r2", "r3"), ("r1", "r2", "r3"), ("s", "t")]

    def polys(self, rng):
        """Seeded polys of degree up to 4 over varied universes, with the zero
        poly, constants over an empty and a padded universe, and a constant
        term mixed into a nonconstant poly."""
        yield Poly()
        yield Poly(("r1", "r2"), {})
        yield Poly.constant(GaussianRational(Fraction(2, 3), -1))
        yield Poly(("r1", "r3"), {(0, 0): 5})
        yield r("r1") * r("r2") + 7
        for _ in range(40):
            yield random_poly(rng, rng.choice(self.UNIVERSES), max_degree=4, max_terms=4)

    def assignment(self, rng):
        """Images for a random part of r1, r2, r3, s: polys over their own
        universes (the zero poly among them), ints and scalars; the other
        variables stay unmapped."""
        out = {}
        for v in ("r1", "r2", "r3", "s"):
            pick = rng.random()
            if pick < 0.3:
                continue
            if pick < 0.4:
                out[v] = rng.choice([0, 3, GaussianRational(1, 2)])
            elif pick < 0.45:
                out[v] = Poly(("r2",), {})
            else:
                out[v] = random_poly(rng, rng.choice(self.UNIVERSES), max_degree=2, max_terms=3)
        return out

    @pytest.mark.parametrize("seed", range(12))
    def test_subst(self, seed):
        rng = random.Random(9100 + seed)
        for p in self.polys(rng):
            sub = self.assignment(rng)
            got, want = p.subst(sub), subst_by_pow(p, sub)
            assert got == want, (p, sub)
            assert got.to_json() == want.to_json(), (p, sub)

