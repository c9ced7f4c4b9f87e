"""Named randomized verification campaigns over the module invariants.

Each suite runs a fixed number of trials from a seed and reports one item per
law; a rerun with the same (suite, trials, seed) produces an identical report.

A campaign runs trial-major (`_campaign`): each trial is one `_Trial`, which
every live law of the suite reads.  An input that several laws share is drawn
once per trial, from the same seeded generator state each law once drew it
from, and a subexpression that several laws share (p*q, d a, d^Lambda a, the
Dolbeault split) is computed once per trial; so the reports are those of
running every law on its own.  A law that has failed is not evaluated again.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Callable, Sequence

from .calculus import d_lambda, dolbeault, exterior_d, polarization_switch, polarization_unswitch
from .coeffring import GaussianRational
from .exterior import Form, GenClass, frame_expand
from .fourier import SemiflatPair
from .randgen import random_complex_side_form, random_form, random_poly, trial_rng
from .reports import CheckReport


class _Trial:
    """Trial t of a campaign from `seed`.  Every independent draw starts from
    `rng()`, the trial's generator in its seeded state; a suite's subclass
    adds the inputs and values its laws share as cached properties, each made
    on the first read by a live law."""

    def __init__(self, seed: int, t: int):
        self.seed = seed
        self.t = t

    def rng(self) -> random.Random:
        return trial_rng(self.seed, self.t)


Law = tuple[str, Callable[[_Trial], bool]]


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"a campaign needs at least one trial, got {trials}")


def _campaign(rep: CheckReport, trials: int, seed: int, laws: Sequence[Law], make: Callable[[int], _Trial]) -> None:
    """One item per law, in order: its first failing trial t, witnessed as
    `trial t (seed s)`, or a pass.  Trial t is `make(t)`; a failed law is not
    evaluated again, and the run stops when every law has failed."""
    _check_trials(trials)
    failed: dict[str, str] = {}
    live = list(laws)
    for t in range(trials):
        trial = make(t)
        for law in tuple(live):
            id, holds = law
            if not holds(trial):
                failed[id] = f"trial {t} (seed {seed})"
                live.remove(law)
        if not live:
            break
    for id, _ in laws:
        rep.add(id, id not in failed, failed.get(id))


_RING_VARS = ("r1", "r2", "r3")


class _RingTrial(_Trial):
    """p, q and r drawn in turn from the seeded state; `more()` is the
    generator just after them, where a law that draws more starts."""

    def __init__(self, seed: int, t: int):
        super().__init__(seed, t)
        rng = self._rng = self.rng()
        self.p = random_poly(rng, _RING_VARS)
        self.q = random_poly(rng, _RING_VARS)
        self.r = random_poly(rng, _RING_VARS)
        self._after = rng.getstate()

    def more(self) -> random.Random:
        self._rng.setstate(self._after)
        return self._rng

    @cached_property
    def pq(self):
        return self.p * self.q


def _diff_leibniz(s: _RingTrial) -> bool:
    v = s.more().choice(_RING_VARS)
    p, q = s.p, s.q
    return s.pq.diff(v) == p.diff(v) * q + p * q.diff(v)


def _subst_ring_hom(s: _RingTrial) -> bool:
    sub = {"r1": s.r, "r2": random_poly(s.more(), _RING_VARS)}
    return s.pq.subst(sub) == s.p.subst(sub) * s.q.subst(sub)


_RING_LAWS: tuple[Law, ...] = (
    ("add-commutes", lambda s: s.p + s.q == s.q + s.p),
    ("mul-commutes", lambda s: s.pq == s.q * s.p),
    ("mul-associates", lambda s: s.pq * s.r == s.p * (s.q * s.r)),
    ("distributes", lambda s: s.p * (s.q + s.r) == s.pq + s.p * s.r),
    ("diff-leibniz", _diff_leibniz),
    ("subst-ring-hom", _subst_ring_hom),
)


def suite_ring_axioms(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    _campaign(rep, trials, seed, _RING_LAWS, lambda t: _RingTrial(seed, t))
    return rep


class _PairTrial(_Trial):
    """A trial whose laws act on the forms of one semi-flat pair."""

    def __init__(self, seed: int, t: int, pair: SemiflatPair):
        super().__init__(seed, t)
        self.pair = pair


def _graded_comm(s: _PairTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_corr
    ka = rng.randint(0, 3)
    kb = rng.randint(0, 3)
    a = random_form(rng, frame, degrees=[ka])
    b = random_form(rng, frame, degrees=[kb])
    ab = a.wedge(b)
    ba = b.wedge(a)
    return ab == (ba if (ka * kb) % 2 == 0 else -ba)


def _assoc(s: _PairTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_corr
    a = random_form(rng, frame, max_terms=2)
    b = random_form(rng, frame, max_terms=2)
    c = random_form(rng, frame, max_terms=2)
    return a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def _exp_additive(s: _PairTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_corr
    a = random_form(rng, frame, max_terms=2, degrees=[2])
    b = random_form(rng, frame, max_terms=2, degrees=[2])
    return (a + b).exp_nilpotent() == a.exp_nilpotent().wedge(b.exp_nilpotent())


def _projection_sum(s: _PairTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_x
    k = rng.randint(0, 4)
    a = random_form(rng, frame, degrees=[k])
    total = Form.zero(frame)
    for p in range(k + 1):
        total = total + a.bidegree_project(p, k - p, (GenClass.FIBER_X, GenClass.BASE))
    return total == a


def _contraction_antiderivation(s: _PairTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_corr
    ka = rng.randint(0, 2)
    a = random_form(rng, frame, degrees=[ka], max_terms=2)
    b = random_form(rng, frame, max_terms=2, degrees=[rng.randint(0, 2)])
    lab = rng.choice([g.label for g in frame.generators])
    lhs = a.wedge(b).contract(lab)
    rhs = a.contract(lab).wedge(b) + (a.wedge(b.contract(lab)) * ((-1) ** ka))
    return lhs == rhs


def _pushforward_projection(s: _PairTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_corr
    a = random_form(rng, frame, max_terms=3)
    b = random_form(rng, s.pair.frame_x, max_terms=2)
    lifted = b.transport(frame)
    lhs = a.wedge(lifted).pushforward(GenClass.FIBER_MIRROR)
    rhs = a.pushforward(GenClass.FIBER_MIRROR).wedge(lifted)
    return lhs == rhs


# each wedge law draws its own inputs
_WEDGE_LAWS: tuple[Law, ...] = (
    ("graded-commutativity", _graded_comm),
    ("associativity", _assoc),
    ("exp-of-sum", _exp_additive),
    ("bidegree-projections-sum", _projection_sum),
    ("contraction-antiderivation", _contraction_antiderivation),
    ("pushforward-projection-formula", _pushforward_projection),
)


def suite_wedge(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    pair = SemiflatPair(3)
    _campaign(rep, trials, seed, _WEDGE_LAWS, lambda t: _PairTrial(seed, t, pair))
    return rep


class _OperatorTrial(_PairTrial):
    """A real form a on frame_x and a complex-side form b, each drawn from the
    seeded state, and the operators of each that the laws share."""

    @cached_property
    def a(self) -> Form:
        return random_form(self.rng(), self.pair.frame_x)

    @cached_property
    def da(self) -> Form:
        return exterior_d(self.a)

    @cached_property
    def dla(self) -> Form:
        return d_lambda(self.a, self.pair.darboux_x)

    @cached_property
    def b(self) -> Form:
        return random_complex_side_form(self.rng(), self.pair)

    @cached_property
    def split(self) -> tuple[Form, Form]:
        """(del b, dbar b)."""
        return dolbeault(self.b, self.pair.holo_frame)

    @cached_property
    def split_del(self) -> tuple[Form, Form]:
        """(del del b, dbar del b)."""
        return dolbeault(self.split[0], self.pair.holo_frame)

    @cached_property
    def split_dbar(self) -> tuple[Form, Form]:
        """(del dbar b, dbar dbar b)."""
        return dolbeault(self.split[1], self.pair.holo_frame)


def _d_leibniz(s: _OperatorTrial) -> bool:
    rng, frame = s.rng(), s.pair.frame_x
    ka = rng.randint(0, 2)
    a = random_form(rng, frame, degrees=[ka], max_terms=2)
    b = random_form(rng, frame, max_terms=2)
    lhs = exterior_d(a.wedge(b))
    rhs = exterior_d(a).wedge(b) + (a.wedge(exterior_d(b)) * ((-1) ** ka))
    return lhs == rhs


def _del_plus_dbar(s: _OperatorTrial) -> bool:
    dl, db = s.split
    xc = s.pair.frame_xc
    return frame_expand(dl + db, xc) == exterior_d(frame_expand(s.b, xc))


def _switch_bijective(s: _OperatorTrial) -> bool:
    b = s.b
    switched = polarization_switch(b, s.pair.frame_xc)
    back = polarization_unswitch(switched, s.pair.holo_frame)
    return back == b and switched.degrees() == b.degrees()


# the first four laws but d-leibniz read a, the last four read b
_OPERATOR_LAWS: tuple[Law, ...] = (
    ("d-squared-zero", lambda s: exterior_d(s.da).is_zero()),
    ("d-leibniz", _d_leibniz),
    ("dlambda-squared-zero", lambda s: d_lambda(s.dla, s.pair.darboux_x).is_zero()),
    ("d-dlambda-anticommute", lambda s: exterior_d(s.dla) == -d_lambda(s.da, s.pair.darboux_x)),
    ("del-plus-dbar-is-d", _del_plus_dbar),
    ("del-squared-dbar-squared-zero", lambda s: s.split_del[0].is_zero() and s.split_dbar[1].is_zero()),
    ("del-dbar-anticommute", lambda s: s.split_dbar[0] == -s.split_del[1]),
    ("polarization-switch-bijective", _switch_bijective),
)


def suite_operator_algebra(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    pair = SemiflatPair(3)
    _campaign(rep, trials, seed, _OPERATOR_LAWS, lambda t: _OperatorTrial(seed, t, pair))
    return rep


def _share(trials: int, k: int) -> int:
    """The trials of each of k campaigns that split `trials`: at least one."""
    _check_trials(trials)
    return max(1, trials // k)


def _involution(s: _PairTrial) -> bool:
    pair = s.pair
    a = random_complex_side_form(s.rng(), pair)
    back = pair.fm_backward(pair.fm_forward(a))
    return back == a * GaussianRational(pair.fm_roundtrip_sign())


def suite_ft_involution(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    per_n = _share(trials, 4)
    for n in range(1, 5):
        pair = SemiflatPair(n)
        _campaign(rep, per_n, seed + n, ((f"ft-involution-n{n}", _involution),),
                  lambda t, n=n, pair=pair: _PairTrial(seed + n, t, pair))
    return rep


def suite_ft_closed_form(trials: int, seed: int) -> CheckReport:
    """Every dz_I ^ dzb_J monomial at n = 1..4 through both transforms.  The
    check is exhaustive, so it draws nothing and ignores `trials` and
    `seed`."""
    rep = CheckReport()
    for n in range(1, 5):
        pair = SemiflatPair(n)
        ok = True
        witness = None
        for I_mask in range(1 << n):
            for J_mask in range(1 << n):
                I_set = [i + 1 for i in range(n) if I_mask >> i & 1]
                J_set = [j + 1 for j in range(n) if J_mask >> j & 1]
                mono = pair.holo_monomial(I_set, J_set)
                via_integral = pair.fm_forward(mono)
                via_rule = pair.fm_monomial(I_set, J_set)
                if via_integral != via_rule:
                    ok = False
                    witness = f"I={I_set} J={J_set}"
                    break
            if not ok:
                break
        rep.add(f"closed-form-agrees-n{n}", ok, witness)
    return rep


def _intertwines(s: _PairTrial) -> bool:
    return s.pair.check_intertwining(random_complex_side_form(s.rng(), s.pair)).passed


def suite_intertwining(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    per_n = _share(trials, 3)
    for n in (1, 2, 3):
        pair = SemiflatPair(n)
        _campaign(rep, per_n, seed + n, ((f"intertwining-n{n}", _intertwines),),
                  lambda t, n=n, pair=pair: _PairTrial(seed + n, t, pair))
    return rep


SUITES: dict[str, Callable[[int, int], CheckReport]] = {
    "ring-axioms": suite_ring_axioms,
    "wedge": suite_wedge,
    "operator-algebra": suite_operator_algebra,
    "ft-involution": suite_ft_involution,
    "ft-closed-form": suite_ft_closed_form,
    "intertwining": suite_intertwining,
}
