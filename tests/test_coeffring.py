import json
import math
import operator
import random
from fractions import Fraction

import pytest

from syzkit.coeffring import (
    GaussianRational,
    I,
    ONE,
    Poly,
    ZERO,
    exponent_vectors,
)
from syzkit.randgen import random_poly, random_rational


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

    def __hash__(self):
        # equal to an int or Fraction when real, so it must hash as one
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

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

    def test_normalized_equality_and_hash(self):
        assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
        assert hash(GaussianRational(1, 0)) == hash(GaussianRational(Fraction(2, 2)))

    @pytest.mark.parametrize("x", [0, 3, -7, 2**70, Fraction(1, 2), Fraction(-5, 3), Fraction(2**65, 3)])
    def test_real_values_hash_as_int_or_fraction(self, x):
        # equal values must hash equal, so set and dict lookups cross the types
        z = GaussianRational(x)
        assert z == x and hash(z) == hash(x)
        assert x in {z} and z in {x}
        assert {z: "z"}[x] == "z" and {x: "x"}[z] == "x"
        assert len({z, x, Fraction(x)}) == 1

    def test_nonreal_values_keep_the_pair_hash(self):
        for z in (I, GaussianRational(Fraction(1, 2), Fraction(-3, 4)), GaussianRational(2, 5)):
            assert hash(z) == hash((z.re, z.im))
            assert z not in {z.re, z.im}

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


def oracle_pair(rng, factors=1):
    """A random element of Q(i) as (GaussianRational, FractionPair): one randgen
    scalar, or a product of `factors` nonzero ones multiplied out by the oracle,
    handed to both classes as the same two Fractions."""
    o = FractionPair(1)
    for _ in range(factors):
        f = FractionPair(random_rational(rng), random_rational(rng) if rng.random() < 0.5 else 0)
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
    x = rng.randint(-6, 6) if kind == "int" else random_rational(rng)
    return x, x


def assert_agrees(z, o):
    """`z` equals the oracle's `o` in every observable and stores a normalized triple."""
    assert type(z) is GaussianRational
    assert (z.re, z.im) == (o.re, o.im)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert str(z) == str(o)
    assert repr(z) == repr(o)
    assert z.to_json() == o.to_json()
    assert hash(z) == hash(o)
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
                assert z == twin and hash(z) == hash(twin), where
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
        assert set(p.vars) == {"r1", "r2", "r3"}

    @pytest.mark.parametrize("x", [3, Fraction(1, 2), I, 0])
    def test_constant_hashes_as_its_scalar(self, x):
        # a constant equals its scalar, so set and dict lookups cross the
        # types; x = 0 over () is the zero Poly()
        for vars in ((), ("r1", "r2")):
            p = Poly.constant(x, vars)
            assert p == x and hash(p) == hash(x)
            assert x in {p}

    def test_padded_universes_hash_equal(self):
        p = r("r1") * r("r2") + Poly.constant(I)
        padded = p._over(("r0", "r1", "r2", "r3"))
        assert padded.vars != p.vars
        assert padded == p and hash(padded) == hash(p)
        assert hash(Poly()) == hash(Poly(("r1",), {})) == hash(0)


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
    """`p`'s terms keyed by their (variable, exponent) pairs, zero exponents left out."""
    return {tuple((v, k) for v, k in zip(p.vars, e) if k): c for e, c in p.terms.items()}


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


def public_route(op, p, q, var, universe):
    """The same result as `op`, routed through the public constructor."""
    vs = tuple(sorted(set(p.vars) | set(q.vars)))
    pn, qn = named_terms(p), named_terms(q)
    if op == "+":
        return public_poly(vs, [*pn.items(), *qn.items()])
    if op == "-":
        return public_poly(vs, [*pn.items(), *((m, -c) for m, c in qn.items())])
    if op == "*":
        return public_poly(vs, [(m1 + m2, c1 * c2) for m1, c1 in pn.items() for m2, c2 in qn.items()])
    if op == "neg":
        return public_poly(p.vars, [(m, -c) for m, c in pn.items()])
    if op == "conjugate":
        return public_poly(p.vars, [(m, c.conjugate()) for m, c in pn.items()])
    if op == "diff":
        out = []
        for m, c in pn.items():
            k = dict(m).get(var, 0)
            if k:
                out.append((tuple((v, e - (v == var)) for v, e in m), c * k))
        return public_poly(p.vars, out)
    return public_poly(universe, list(pn.items()))


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
            e, c = next(iter(p.terms.items()))
            q = p - Poly(p.vars, {e: 2 * c})
        var = rng.choice(["r1", "r2", "r3"])
        universe = tuple(sorted(set(p.vars) | {"r1", "r4"}))
        for op, got in [
            ("+", p + q), ("-", p - q), ("*", p * q), ("neg", -p),
            ("conjugate", p.conjugate()), ("diff", p.diff(var)), ("_over", p._over(universe)),
        ]:
            assert list(got.vars) == sorted(set(got.vars)), op
            for e, c in got.terms.items():
                assert type(e) is tuple and len(e) == len(got.vars), op
                assert type(c) is GaussianRational and c, op
            want = public_route(op, p, q, var, universe)
            assert got.vars == want.vars and got.terms == want.terms, op

    def test_public_constructor_still_checks(self):
        with pytest.raises(ValueError, match="sorted"):
            Poly(("r2", "r1"), {})
        with pytest.raises(ValueError, match="sorted"):
            Poly(("r1", "r1"), {})
        with pytest.raises(ValueError, match="length"):
            Poly(("r1",), {(1, 0): 1})
        p = Poly(["r1"], {(1,): 0, (2,): Fraction(1, 2)})
        assert p.vars == ("r1",) and list(p.terms) == [(2,)]


class TestSerialization:
    def test_json_roundtrip(self):
        p = r("r1") * Fraction(3, 7) + r("r2") ** 2 * I + Poly.constant(GaussianRational(1, -2))
        assert Poly.from_json(json.loads(json.dumps(p.to_json()))) == p

    def test_rendering_deterministic(self):
        p = r("r2") + r("r1") * r("r2") + Poly.constant(Fraction(1, 2))
        assert str(p) == str(Poly.from_json(p.to_json()))
        assert str(p) == "1/2 + r2 + r1*r2"


def test_exponent_vectors():
    out = exponent_vectors(2, 2)
    assert out[0] == (0, 0)
    assert set(out) == {(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)}
    assert exponent_vectors(0, 3) == [()]
