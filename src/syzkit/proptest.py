"""Named randomized verification campaigns over the module invariants.

Each suite runs a fixed number of trials from a seed and reports one item per
law; a rerun with the same (suite, trials, seed) produces an identical report.
"""

from __future__ import annotations

import random
from typing import Callable

from .calculus import d_lambda, dolbeault, exterior_d, polarization_switch, polarization_unswitch
from .coeffring import GaussianRational
from .exterior import Form, GenClass, frame_expand
from .fourier import SemiflatPair
from .randgen import random_complex_side_form, random_form, random_poly, trial_rng
from .reports import CheckReport


def _law(rep: CheckReport, id: str, trials: int, seed: int, fn: Callable[[random.Random], bool]) -> None:
    for t in range(trials):
        rng = trial_rng(seed, t)
        if not fn(rng):
            rep.add(id, False, f"trial {t} (seed {seed})")
            return
    rep.add(id, True)


def suite_ring_axioms(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    vars = ("r1", "r2", "r3")

    def rand3(rng):
        return (
            random_poly(rng, vars),
            random_poly(rng, vars),
            random_poly(rng, vars),
        )

    _law(rep, "add-commutes", trials, seed, lambda rng: (lambda p, q, _: p + q == q + p)(*rand3(rng)))
    _law(rep, "mul-commutes", trials, seed, lambda rng: (lambda p, q, _: p * q == q * p)(*rand3(rng)))
    _law(rep, "mul-associates", trials, seed,
         lambda rng: (lambda p, q, r: (p * q) * r == p * (q * r))(*rand3(rng)))
    _law(rep, "distributes", trials, seed,
         lambda rng: (lambda p, q, r: p * (q + r) == p * q + p * r)(*rand3(rng)))

    def leibniz(rng):
        p, q, _ = rand3(rng)
        v = rng.choice(vars)
        return (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)

    _law(rep, "diff-leibniz", trials, seed, leibniz)

    def subst_hom(rng):
        p, q, r = rand3(rng)
        sub = {"r1": r, "r2": random_poly(rng, vars)}
        return (p * q).subst(sub) == p.subst(sub) * q.subst(sub)

    _law(rep, "subst-ring-hom", trials, seed, subst_hom)
    return rep


def suite_wedge(trials: int, seed: int) -> CheckReport:
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

    _law(rep, "graded-commutativity", trials, seed, graded_comm)

    def assoc(rng):
        a = random_form(rng, frame, max_terms=2)
        b = random_form(rng, frame, max_terms=2)
        c = random_form(rng, frame, max_terms=2)
        return a.wedge(b).wedge(c) == a.wedge(b.wedge(c))

    _law(rep, "associativity", trials, seed, assoc)

    def exp_additive(rng):
        a = random_form(rng, frame, max_terms=2, degrees=[2])
        b = random_form(rng, frame, max_terms=2, degrees=[2])
        return (a + b).exp_nilpotent() == a.exp_nilpotent().wedge(b.exp_nilpotent())

    _law(rep, "exp-of-sum", trials, seed, exp_additive)

    def projection_sum(rng):
        k = rng.randint(0, 4)
        a = random_form(rng, pair.frame_x, degrees=[k])
        total = Form.zero(pair.frame_x)
        for p in range(k + 1):
            total = total + a.bidegree_project(p, k - p, (GenClass.FIBER_X, GenClass.BASE))
        return total == a

    _law(rep, "bidegree-projections-sum", trials, seed, projection_sum)

    def contraction_antiderivation(rng):
        ka = rng.randint(0, 2)
        a = random_form(rng, frame, degrees=[ka], max_terms=2)
        b = random_form(rng, frame, max_terms=2, degrees=[rng.randint(0, 2)])
        lab = rng.choice([g.label for g in frame.generators])
        lhs = a.wedge(b).contract(lab)
        rhs = a.contract(lab).wedge(b) + (a.wedge(b.contract(lab)) * ((-1) ** ka))
        return lhs == rhs

    _law(rep, "contraction-antiderivation", trials, seed, contraction_antiderivation)

    def pushforward_projection(rng):
        a = random_form(rng, frame, max_terms=3)
        b = random_form(rng, pair.frame_x, max_terms=2)
        lifted = b.transport(frame)
        lhs = a.wedge(lifted).pushforward(GenClass.FIBER_MIRROR)
        rhs = a.pushforward(GenClass.FIBER_MIRROR).wedge(lifted)
        return lhs == rhs

    _law(rep, "pushforward-projection-formula", trials, seed, pushforward_projection)
    return rep


def suite_operator_algebra(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    pair = SemiflatPair(3)
    symp = pair.darboux_x

    def dd(rng):
        a = random_form(rng, pair.frame_x)
        return exterior_d(exterior_d(a)).is_zero()

    _law(rep, "d-squared-zero", trials, seed, dd)

    def leibniz(rng):
        ka = rng.randint(0, 2)
        a = random_form(rng, pair.frame_x, degrees=[ka], max_terms=2)
        b = random_form(rng, pair.frame_x, max_terms=2)
        lhs = exterior_d(a.wedge(b))
        rhs = exterior_d(a).wedge(b) + (a.wedge(exterior_d(b)) * ((-1) ** ka))
        return lhs == rhs

    _law(rep, "d-leibniz", trials, seed, leibniz)

    def dl_squared(rng):
        a = random_form(rng, pair.frame_x)
        return d_lambda(d_lambda(a, symp), symp).is_zero()

    _law(rep, "dlambda-squared-zero", trials, seed, dl_squared)

    def anticommute(rng):
        a = random_form(rng, pair.frame_x)
        return exterior_d(d_lambda(a, symp)) == -d_lambda(exterior_d(a), symp)

    _law(rep, "d-dlambda-anticommute", trials, seed, anticommute)

    def del_dbar_sum(rng):
        a = random_complex_side_form(rng, pair)
        dl, db = dolbeault(a, pair.holo_frame)
        return frame_expand(dl + db, pair.frame_xc) == exterior_d(frame_expand(a, pair.frame_xc))

    _law(rep, "del-plus-dbar-is-d", trials, seed, del_dbar_sum)

    def del_squared(rng):
        a = random_complex_side_form(rng, pair)
        dl, db = dolbeault(a, pair.holo_frame)
        dll, _ = dolbeault(dl, pair.holo_frame)
        _, dbb = dolbeault(db, pair.holo_frame)
        return dll.is_zero() and dbb.is_zero()

    _law(rep, "del-squared-dbar-squared-zero", trials, seed, del_squared)

    def del_dbar_anti(rng):
        a = random_complex_side_form(rng, pair)
        dl, db = dolbeault(a, pair.holo_frame)
        a1, _ = dolbeault(db, pair.holo_frame)
        _, a2 = dolbeault(dl, pair.holo_frame)
        return a1 == -a2

    _law(rep, "del-dbar-anticommute", trials, seed, del_dbar_anti)

    def switch_bijective(rng):
        a = random_complex_side_form(rng, pair)
        s = polarization_switch(a, pair.frame_xc)
        back = polarization_unswitch(s, pair.holo_frame)
        return back == a and s.degrees() == a.degrees()

    _law(rep, "polarization-switch-bijective", trials, seed, switch_bijective)
    return rep


def suite_ft_involution(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    for n in range(1, 5):
        pair = SemiflatPair(n)
        sign = pair.fm_roundtrip_sign()

        def run(rng, pair=pair, sign=sign):
            a = random_complex_side_form(rng, pair)
            back = pair.fm_backward(pair.fm_forward(a))
            return back == a * GaussianRational(sign)

        _law(rep, f"ft-involution-n{n}", max(1, trials // 4), seed + n, run)
    return rep


def suite_ft_closed_form(trials: int, seed: int) -> CheckReport:
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


def suite_intertwining(trials: int, seed: int) -> CheckReport:
    rep = CheckReport()
    for n in (1, 2, 3):
        pair = SemiflatPair(n)

        def run(rng, pair=pair):
            a = random_complex_side_form(rng, pair)
            return pair.check_intertwining(a).passed

        _law(rep, f"intertwining-n{n}", max(1, trials // 3), seed + n, run)
    return rep


SUITES: dict[str, Callable[[int, int], CheckReport]] = {
    "ring-axioms": suite_ring_axioms,
    "wedge": suite_wedge,
    "operator-algebra": suite_operator_algebra,
    "ft-involution": suite_ft_involution,
    "ft-closed-form": suite_ft_closed_form,
    "intertwining": suite_intertwining,
}
