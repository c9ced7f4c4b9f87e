import itertools
import random
from fractions import Fraction

import pytest

from syzkit.coeffring import Poly
from syzkit.exterior import Form
from syzkit.fourier import SemiflatPair
from syzkit.randgen import random_poly


def brute_perm_sign(perm):
    """Permutation sign by selection-sort swap counting (independent of the
    inversion-counting oracles inside the package)."""
    perm = list(perm)
    target = sorted(perm)
    swaps = 0
    for i in range(len(perm)):
        if perm[i] != target[i]:
            j = perm.index(target[i], i + 1)
            perm[i], perm[j] = perm[j], perm[i]
            swaps += 1
    return -1 if swaps % 2 else 1


def wedge_chain(frame, labels, coeff=1):
    """The named generators wedged on one at a time, in the given order,
    onto the scalar coeff: the route `Form.monomial` once took, kept as the
    oracle for its sign rule."""
    out = Form.scalar(frame, coeff)
    for lab in labels:
        out = out.wedge(Form.gen(frame, lab))
    return out


def series_exp(form):
    """Sum_k form^k / k! by repeated wedging until a power vanishes, with the
    input checks of `Form.exp_nilpotent`: the route it once took, kept as the
    oracle for its factored product."""
    for m in form.terms:
        k = m.bit_count()
        if k == 0 or k % 2:
            raise ValueError("exp requires even-degree terms of degree >= 2")
    out = Form.scalar(form.frame, 1)
    power = Form.scalar(form.frame, 1)
    k = 0
    fact = 1
    while True:
        k += 1
        fact *= k
        power = power.wedge(form)
        if power.is_zero():
            return out
        out = out + power * Fraction(1, fact)


def subsets(seq):
    out = []
    for k in range(len(seq) + 1):
        out.extend(itertools.combinations(seq, k))
    return out


@pytest.fixture(scope="session")
def pair3():
    return SemiflatPair(3)


@pytest.fixture(scope="session")
def pair2():
    return SemiflatPair(2)


@pytest.fixture(scope="session")
def pair1():
    return SemiflatPair(1)


@pytest.fixture
def rng():
    return random.Random(20240817)


def iwasawa_omega_check(pair3):
    """The Hermitian (1,1)-form of the three-dimensional example on the
    complex side, in the coordinate order r1, r2, r3: the coefficient matrix
    is [[1,0,0],[0,1+r1^2,-r1],[0,-r1,1]]."""
    f = pair3.frame_xc
    r1 = Poly.variable("r1")
    one = Poly.constant(1)
    w = Form.monomial(f, ["dtc1", "dr1"])
    w = w + Form.monomial(f, ["dtc2", "dr2"], one + r1 * r1)
    w = w + Form.monomial(f, ["dtc2", "dr3"], -r1)
    w = w + Form.monomial(f, ["dtc3", "dr2"], -r1)
    w = w + Form.monomial(f, ["dtc3", "dr3"])
    return w


def random_symmetric_mu(rng, n, vars, max_degree=1):
    """Random real symmetric coefficient matrix, identity plus a perturbation:
    the IIA tests draw their matrices from it."""
    vs = tuple(sorted(vars))
    mu = [[Poly.constant(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.6:
                p = random_poly(rng, vs, max_degree, 2, complex_ok=False)
                mu[i][j] = mu[i][j] + p
                if i != j:
                    mu[j][i] = mu[j][i] + p
    return mu
