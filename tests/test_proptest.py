"""The trial-major campaigns against the per-law loop they replaced.

The oracle suites below run each law on its own: every trial of every law
reseeds `trial_rng(seed, t)` and draws its inputs again, and every shared
subexpression is recomputed.  The campaigns must report the same items.
"""

import functools

import pytest

from syzkit import proptest
from syzkit.calculus import d_lambda, dolbeault, exterior_d, polarization_switch, polarization_unswitch
from syzkit.coeffring import GaussianRational
from syzkit.exterior import Form, GenClass, frame_expand
from syzkit.fourier import SemiflatPair
from syzkit.proptest import SUITES
from syzkit.randgen import random_complex_side_form, random_form, random_poly, trial_rng
from syzkit.reports import CheckReport


def oracle_law(rep, id, trials, seed, fn):
    for t in range(trials):
        rng = trial_rng(seed, t)
        if not fn(rng):
            rep.add(id, False, f"trial {t} (seed {seed})")
            return
    rep.add(id, True)


def oracle_ring_axioms(trials, seed):
    rep = CheckReport()
    vars = ("r1", "r2", "r3")

    def rand3(rng):
        return (
            random_poly(rng, vars),
            random_poly(rng, vars),
            random_poly(rng, vars),
        )

    oracle_law(rep, "add-commutes", trials, seed, lambda rng: (lambda p, q, _: p + q == q + p)(*rand3(rng)))
    oracle_law(rep, "mul-commutes", trials, seed, lambda rng: (lambda p, q, _: p * q == q * p)(*rand3(rng)))
    oracle_law(rep, "mul-associates", trials, seed,
               lambda rng: (lambda p, q, r: (p * q) * r == p * (q * r))(*rand3(rng)))
    oracle_law(rep, "distributes", trials, seed,
               lambda rng: (lambda p, q, r: p * (q + r) == p * q + p * r)(*rand3(rng)))

    def leibniz(rng):
        p, q, _ = rand3(rng)
        v = rng.choice(vars)
        return (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

    oracle_law(rep, "diff-leibniz", trials, seed, leibniz)

    def subst_hom(rng):
        p, q, r = rand3(rng)
        sub = {"r1": r, "r2": random_poly(rng, vars)}
        return (p * q).subst(sub) == p.subst(sub) * q.subst(sub)

    oracle_law(rep, "subst-ring-hom", trials, seed, subst_hom)
    return rep


def oracle_wedge(trials, seed):
    rep = CheckReport()
    pair = SemiflatPair(3)
    frame = pair.frame_corr

    def graded_comm(rng):
        ka = rng.randint(0, 3)
        kb = rng.randint(0, 3)
        a = random_form(rng, frame, degrees=[ka])
        b = random_form(rng, frame, degrees=[kb])
        ab = a.wedge(b)
        ba = b.wedge(a)
        return ab == (ba if (ka * kb) % 2 == 0 else -ba)

    oracle_law(rep, "graded-commutativity", trials, seed, graded_comm)

    def assoc(rng):
        a = random_form(rng, frame, max_terms=2)
        b = random_form(rng, frame, max_terms=2)
        c = random_form(rng, frame, max_terms=2)
        return a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    oracle_law(rep, "associativity", trials, seed, assoc)

    def exp_additive(rng):
        a = random_form(rng, frame, max_terms=2, degrees=[2])
        b = random_form(rng, frame, max_terms=2, degrees=[2])
        return (a + b).exp_nilpotent() == a.exp_nilpotent().wedge(b.exp_nilpotent())

    oracle_law(rep, "exp-of-sum", trials, seed, exp_additive)

    def projection_sum(rng):
        k = rng.randint(0, 4)
        a = random_form(rng, pair.frame_x, degrees=[k])
        total = Form.zero(pair.frame_x)
        for p in range(k + 1):
            total = total + a.bidegree_project(p, k - p, (GenClass.FIBER_X, GenClass.BASE))
        return total == a

    oracle_law(rep, "bidegree-projections-sum", trials, seed, projection_sum)

    def contraction_antiderivation(rng):
        ka = rng.randint(0, 2)
        a = random_form(rng, frame, degrees=[ka], max_terms=2)
        b = random_form(rng, frame, max_terms=2, degrees=[rng.randint(0, 2)])
        lab = rng.choice([g.label for g in frame.generators])
        lhs = a.wedge(b).contract(lab)
        rhs = a.contract(lab).wedge(b) + (a.wedge(b.contract(lab)) * ((-1) ** ka))
        return lhs == rhs

    oracle_law(rep, "contraction-antiderivation", trials, seed, contraction_antiderivation)

    def pushforward_projection(rng):
        a = random_form(rng, frame, max_terms=3)
        b = random_form(rng, pair.frame_x, max_terms=2)
        lifted = b.transport(frame)
        lhs = a.wedge(lifted).pushforward(GenClass.FIBER_MIRROR)
        rhs = a.pushforward(GenClass.FIBER_MIRROR).wedge(lifted)
        return lhs == rhs

    oracle_law(rep, "pushforward-projection-formula", trials, seed, pushforward_projection)
    return rep


def oracle_operator_algebra(trials, seed):
    rep = CheckReport()
    pair = SemiflatPair(3)
    symp = pair.darboux_x

    def dd(rng):
        a = random_form(rng, pair.frame_x)
        return exterior_d(exterior_d(a)).is_zero()

    oracle_law(rep, "d-squared-zero", trials, seed, dd)

    def leibniz(rng):
        ka = rng.randint(0, 2)
        a = random_form(rng, pair.frame_x, degrees=[ka], max_terms=2)
        b = random_form(rng, pair.frame_x, max_terms=2)
        lhs = exterior_d(a.wedge(b))
        rhs = exterior_d(a).wedge(b) + (a.wedge(exterior_d(b)) * ((-1) ** ka))
        return lhs == rhs

    oracle_law(rep, "d-leibniz", trials, seed, leibniz)

    def dl_squared(rng):
        a = random_form(rng, pair.frame_x)
        return d_lambda(d_lambda(a, symp), symp).is_zero()

    oracle_law(rep, "dlambda-squared-zero", trials, seed, dl_squared)

    def anticommute(rng):
        a = random_form(rng, pair.frame_x)
        return exterior_d(d_lambda(a, symp)) == -d_lambda(exterior_d(a), symp)

    oracle_law(rep, "d-dlambda-anticommute", trials, seed, anticommute)

    def del_dbar_sum(rng):
        a = random_complex_side_form(rng, pair)
        dl, db = dolbeault(a, pair.holo_frame)
        return frame_expand(dl + db, pair.frame_xc) == exterior_d(frame_expand(a, pair.frame_xc))

    oracle_law(rep, "del-plus-dbar-is-d", trials, seed, del_dbar_sum)

    def del_squared(rng):
        a = random_complex_side_form(rng, pair)
        dl, db = dolbeault(a, pair.holo_frame)
        dll, _ = dolbeault(dl, pair.holo_frame)
        _, dbb = dolbeault(db, pair.holo_frame)
        return dll.is_zero() and dbb.is_zero()

    oracle_law(rep, "del-squared-dbar-squared-zero", trials, seed, del_squared)

    def del_dbar_anti(rng):
        a = random_complex_side_form(rng, pair)
        dl, db = dolbeault(a, pair.holo_frame)
        a1, _ = dolbeault(db, pair.holo_frame)
        _, a2 = dolbeault(dl, pair.holo_frame)
        return a1 == -a2

    oracle_law(rep, "del-dbar-anticommute", trials, seed, del_dbar_anti)

    def switch_bijective(rng):
        a = random_complex_side_form(rng, pair)
        s = polarization_switch(a, pair.frame_xc)
        back = polarization_unswitch(s, pair.holo_frame)
        return back == a and s.degrees() == a.degrees()

    oracle_law(rep, "polarization-switch-bijective", trials, seed, switch_bijective)
    return rep


def oracle_ft_involution(trials, seed):
    rep = CheckReport()
    for n in range(1, 5):
        pair = SemiflatPair(n)
        sign = pair.fm_roundtrip_sign()

        def run(rng, pair=pair, sign=sign):
            a = random_complex_side_form(rng, pair)
            back = pair.fm_backward(pair.fm_forward(a))
            return back == a * GaussianRational(sign)

        oracle_law(rep, f"ft-involution-n{n}", max(1, trials // 4), seed + n, run)
    return rep


def oracle_ft_closed_form(trials, seed):
    rep = CheckReport()
    for n in range(1, 5):
        pair = SemiflatPair(n)
        ok = True
        witness = None
        for I_mask in range(1 << n):
            for J_mask in range(1 << n):
                I_set = [i + 1 for i in range(n) if I_mask >> i & 1]
                J_set = [j + 1 for j in range(n) if J_mask >> j & 1]
                if pair.fm_forward(pair.holo_monomial(I_set, J_set)) != pair.fm_monomial(I_set, J_set):
                    ok = False
                    witness = f"I={I_set} J={J_set}"
                    break
            if not ok:
                break
        rep.add(f"closed-form-agrees-n{n}", ok, witness)
    return rep


def oracle_intertwining(trials, seed):
    rep = CheckReport()
    for n in (1, 2, 3):
        pair = SemiflatPair(n)

        def run(rng, pair=pair):
            a = random_complex_side_form(rng, pair)
            return pair.check_intertwining(a).passed

        oracle_law(rep, f"intertwining-n{n}", max(1, trials // 3), seed + n, run)
    return rep


ORACLES = {
    "ring-axioms": oracle_ring_axioms,
    "wedge": oracle_wedge,
    "operator-algebra": oracle_operator_algebra,
    "ft-involution": oracle_ft_involution,
    "ft-closed-form": oracle_ft_closed_form,
    "intertwining": oracle_intertwining,
}


def items(rep):
    return [(c.id, c.status, c.witness) for c in rep.items]


@functools.cache
def oracle_items(suite, trials, seed):
    return items(ORACLES[suite](trials, seed))


def test_every_suite_has_an_oracle():
    assert list(SUITES) == list(ORACLES)


@pytest.mark.parametrize("seed", [0, 12345, 4242])
@pytest.mark.parametrize("trials", [1, 7, 300])
@pytest.mark.parametrize("suite", list(SUITES))
def test_campaign_reports_as_the_per_law_loop(suite, trials, seed):
    assert items(SUITES[suite](trials, seed)) == oracle_items(suite, trials, seed)


# one law of each group that shares a draw: p, q, r; the real form a; the
# complex-side form b
SHARED_GROUPS = [
    ("ring-axioms", "_RING_LAWS", "mul-associates"),
    ("operator-algebra", "_OPERATOR_LAWS", "dlambda-squared-zero"),
    ("operator-algebra", "_OPERATOR_LAWS", "del-squared-dbar-squared-zero"),
]


@pytest.mark.parametrize("fail_at", [0, 5, 299])
@pytest.mark.parametrize("suite, table, target", SHARED_GROUPS, ids=[g[2] for g in SHARED_GROUPS])
def test_failed_law_is_witnessed_and_not_evaluated_again(monkeypatch, suite, table, target, fail_at):
    seed, trials = 4242, 300
    calls = []

    def wrap(holds):
        def failing(trial):
            calls.append(trial.t)
            return holds(trial) and trial.t != fail_at
        return failing

    laws = getattr(proptest, table)
    monkeypatch.setattr(proptest, table, tuple((id, wrap(fn) if id == target else fn) for id, fn in laws))
    got = items(SUITES[suite](trials, seed))
    want = [
        (id, "fail", f"trial {fail_at} (seed {seed})") if id == target else (id, status, witness)
        for id, status, witness in oracle_items(suite, trials, seed)
    ]
    assert got == want
    assert calls == list(range(fail_at + 1))


def test_campaign_stops_when_every_law_has_failed():
    made = []

    def make(t):
        made.append(t)
        return proptest._Trial(0, t)

    rep = CheckReport()
    proptest._campaign(rep, 50, 0, [("a", lambda s: s.t < 2), ("b", lambda s: s.t < 4)], make)
    assert items(rep) == [("a", "fail", "trial 2 (seed 0)"), ("b", "fail", "trial 4 (seed 0)")]
    assert made == [0, 1, 2, 3, 4]


def test_shared_draws_start_where_each_law_once_drew():
    # the ring inputs come from the seeded state, and a law that draws more
    # continues from just after them, however often it is handed out
    s = proptest._RingTrial(9, 3)
    rng = trial_rng(9, 3)
    assert [s.p, s.q, s.r] == [random_poly(rng, ("r1", "r2", "r3")) for _ in range(3)]
    want = rng.getstate()
    for _ in range(3):
        more = s.more()
        assert more.getstate() == want
        more.random()
    # each form of the operator trial is the first draw of a seeded generator
    pair = SemiflatPair(3)
    o = proptest._OperatorTrial(9, 3, pair)
    assert o.b == random_complex_side_form(trial_rng(9, 3), pair)
    assert o.a == random_form(trial_rng(9, 3), pair.frame_x)
    assert o.split is o.split  # computed once per trial


@pytest.mark.parametrize("suite", [s for s in SUITES if s != "ft-closed-form"])
@pytest.mark.parametrize("trials", [0, -1])
def test_campaign_without_trials_is_refused(suite, trials):
    with pytest.raises(ValueError, match="at least one trial"):
        SUITES[suite](trials, 0)


def test_closed_form_is_exhaustive_and_ignores_trials():
    want = items(SUITES["ft-closed-form"](300, 0))
    assert items(SUITES["ft-closed-form"](0, 7)) == want
    assert [status for _, status, _ in want] == ["pass"] * 4

