"""Per-layer spans around syzkit's public functions, installed from outside.

`install(tracer)` wraps every entry of `SPANS` (and counts every
`GaussianRational` built) and returns a callable that puts the originals back.
A module-level function is replaced in every loaded `syzkit` module that binds
it, because `cli`, `nilmanifold`, `proptest` and others import names with
`from .x import f`; a method is replaced on its class, under every attribute
name that holds it (`__rmul__` is `__mul__`, `__xor__` is `wedge`).

Each call becomes a span with a start, an end and a parent (the innermost span
open when it began). Spans are reduced as they close: per name, the call
count, the summed duration (`total_s`) and the self time (`self_s`, the
duration minus the part covered by child spans). A name that calls itself
counts each nested call in `total_s`.
"""

from __future__ import annotations

import functools
import sys
import time


def _cells(args, out):
    m = args[0]
    return len(m) * (len(m[0]) if m else 0)


def _nnz(args, out):
    return sum(1 for row in args[0] for x in row if x)


def _terms_out(args, out):
    return len(out.terms)


MATRIX = (("cells", _cells), ("nnz", _nnz))
TERMS_OUT = (("terms_out", _terms_out),)

# (span name, module, attribute path, counters: (key, f(args, result)) pairs)
SPANS = (
    ("linalg.rref", "syzkit.linalg", "rref", MATRIX),
    ("linalg.rank", "syzkit.linalg", "rank", ()),
    ("linalg.nullspace", "syzkit.linalg", "nullspace", ()),
    ("linalg.column_space_pivots", "syzkit.linalg", "column_space_pivots", ()),
    ("linalg.poly_det", "syzkit.linalg", "poly_det", ()),
    ("linalg.poly_matrix_inverse_unit_det", "syzkit.linalg", "poly_matrix_inverse_unit_det", ()),
    ("cohomology.FiniteComplex.init", "syzkit.cohomology", "FiniteComplex.__init__", ()),
    ("cohomology.matrix_on_slot", "syzkit.cohomology", "FiniteComplex.matrix_on_slot", ()),
    ("cohomology.bott_chern", "syzkit.cohomology", "bott_chern", ()),
    ("cohomology.tseng_yau", "syzkit.cohomology", "tseng_yau", ()),
    ("cohomology.mirror_compare", "syzkit.cohomology", "mirror_compare", ()),
    ("calculus.exterior_d", "syzkit.calculus", "exterior_d", ()),
    ("calculus.d_lambda", "syzkit.calculus", "d_lambda", ()),
    ("calculus.dolbeault", "syzkit.calculus", "dolbeault", ()),
    ("calculus.ComplexBasis.init", "syzkit.calculus", "ComplexBasis.__init__", ()),
    ("exterior.Form.wedge", "syzkit.exterior", "Form.wedge", TERMS_OUT),
    ("exterior.Form.exp_nilpotent", "syzkit.exterior", "Form.exp_nilpotent", ()),
    ("exterior.substitute_generators", "syzkit.exterior", "substitute_generators", ()),
    ("sustruct.conformal_factor", "syzkit.sustruct", "conformal_factor", ()),
    ("sustruct.mirror_transform", "syzkit.sustruct", "mirror_transform", ()),
    ("sustruct.check_iib", "syzkit.sustruct", "check_iib", ()),
    ("sustruct.check_iia", "syzkit.sustruct", "check_iia", ()),
    ("sustruct.SUStructure.from_json", "syzkit.sustruct", "SUStructure.from_json", ()),
    ("nilmanifold.build", "syzkit.nilmanifold", "build", ()),
    ("nilmanifold.check_gamma_invariance", "syzkit.nilmanifold", "check_gamma_invariance", ()),
    ("nilmanifold.check_mirror_pair", "syzkit.nilmanifold", "check_mirror_pair", ()),
    ("fourier.fm_forward", "syzkit.fourier", "SemiflatPair.fm_forward", ()),
    ("fourier.fm_backward", "syzkit.fourier", "SemiflatPair.fm_backward", ()),
    ("fourier.fm_monomial", "syzkit.fourier", "SemiflatPair.fm_monomial", ()),
    ("coeffring.Poly.mul", "syzkit.coeffring", "Poly.__mul__", TERMS_OUT),
)

# CLI commands wrapped through their click callbacks, as `cli.<command>`.
CLI_COMMANDS = ("nil", "verify", "cohomology", "proptest")


class Tracer:
    """Span stack plus per-name aggregates; one per traced pass."""

    def __init__(self):
        self.stack: list[list[float]] = []  # open spans: [start, child-covered seconds]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, dict] = {}  # name -> counter totals
        self.created = 0  # GaussianRational instances built

    def register(self, name: str, counters=()):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        totals = self.counters.setdefault(name, {key: 0 for key, _ in counters})
        return stats, totals

    def span(self, name: str, fn, counters=()):
        stats, totals = self.register(name, counters)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            for key, count in counters:
                totals[key] += count(args, out)
            return out

        return wrapper

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {"coeffring.GaussianRational.created": self.created}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            for key, value in self.counters[name].items():
                out[f"{name}.{key}"] = value
        return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _raw(owner, attr):
    """The attribute as stored: a class's staticmethod object, not its function."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _unwrap(value):
    return value.__func__ if isinstance(value, (staticmethod, classmethod)) else value


def install(tracer: Tracer):
    """Wrap every traced function; return a callable that undoes it."""
    from syzkit.cli import main as cli_main
    from syzkit.coeffring import GaussianRational

    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, new):
        undo.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, new)

    modules = [m for n, m in sorted(sys.modules.items()) if n == "syzkit" or n.startswith("syzkit.")]
    for name, module, path, counters in SPANS:
        try:
            owner, attr = _resolve(module, path)
        except (KeyError, AttributeError):  # gone from syzkit: it reports zero calls
            tracer.register(name, counters)
            continue
        fn = _unwrap(_raw(owner, attr))
        wrapped = tracer.span(name, fn, counters)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if _unwrap(value) is fn:
                    replace(owner, key, type(value)(wrapped) if value is not fn else wrapped)
        else:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        replace(mod, key, wrapped)

    for command in CLI_COMMANDS:
        cmd = cli_main.commands.get(command)
        if cmd is None:
            tracer.register(f"cli.{command}")
        else:
            replace(cmd, "callback", tracer.span(f"cli.{command}", cmd.callback))

    init = GaussianRational.__init__

    def counting_init(self, *args, **kwargs):
        tracer.created += 1
        init(self, *args, **kwargs)

    replace(GaussianRational, "__init__", counting_init)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
