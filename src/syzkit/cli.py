"""Command-line driver: fixtures, verification campaigns, machine reports.

Human-readable lines (including wall-clock timings) go to stdout; report and
fixture files are canonical JSON with no timing data, so a rerun with the same
configuration and seed is byte-identical.  Exit code 0 means every check
passed.

Every `click.echo` names `sys.stdout` as its file: without one, click caches a
wrapper per stream that holds the stream alive, so each in-process `main` call
under a redirected stdout would keep its captured output.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import click

from . import cohomology as cohmod
from . import nilmanifold as nil
from .calculus import exterior_d
from .exterior import Form, FrameMismatch, GenClass
from .fourier import SemiflatPair
from .proptest import SUITES
from .reports import PASS, CheckReport
from .sustruct import SUStructure, check_iia, check_iib

FIXTURE_SCHEMA = "syzkit-fixture-v1"
REPORT_SCHEMA = "syzkit-report-v1"

DEFAULT_MAX_DEGREE = 4


def _max_degree() -> int:
    """The cohomology degree cap, read from SYZKIT_MAX_DEGREE when it is used."""
    raw = os.environ.get("SYZKIT_MAX_DEGREE")
    if raw is None:
        return DEFAULT_MAX_DEGREE
    try:
        return int(raw)
    except ValueError:
        raise click.UsageError(f"SYZKIT_MAX_DEGREE must be an integer, got {raw!r}") from None


# what a structurally malformed JSON document raises while it is parsed
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, ZeroDivisionError)


def _read_object(path: str) -> dict:
    """The JSON object in `path`; anything else is a usage error naming the file."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise click.UsageError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise click.UsageError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _malformed(path: str, what: str, e: Exception) -> click.UsageError:
    if isinstance(e, KeyError):
        cause = f"missing key {e.args[0]!r}"
    elif isinstance(e, ZeroDivisionError):
        cause = f"zero denominator ({e})"
    else:
        cause = f"{type(e).__name__}: {e}"
    return click.UsageError(f"{path}: malformed {what}: {cause}")


def _emit(report: CheckReport, out: str | None, command: str, t0: float, extra: dict | None = None) -> None:
    doc = {
        "schema": REPORT_SCHEMA,
        "command": command,
        "config": report.config,
        "checks": [i.to_json() for i in report.items],
        "passed": report.passed,
    }
    if extra:
        doc.update(extra)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        Path(out).write_text(text)
    for line in report.summary_lines():
        click.echo(line, file=sys.stdout)
    status = "ok" if report.passed else "FAILED"
    click.echo(f"{command}: {status} ({len(report.items)} checks, {time.time() - t0:.2f}s)", file=sys.stdout)
    if not report.passed:
        first = next(i for i in report.items if i.status != PASS)
        click.echo(f"first non-passing check: {first.id} ({first.status})", file=sys.stdout)
        sys.exit(1)


@click.group()
def main():
    """Exact verification engine for semi-flat torus-fibration dualities."""


@main.command("nil")
@click.option("--K", "k", type=int, required=True, help="matrix size (>= 2)")
@click.option("--out", type=click.Path(), default=None, help="output directory for fixtures + report")
def cmd_nil(k: int, out: str | None):
    """Build the size-K family and verify structure, invariance, balancedness,
    duality pairing, and the full mirror pipeline."""
    t0 = time.time()
    try:
        nd = nil.build(k)
    except ValueError as e:
        raise click.UsageError(str(e))
    rep = CheckReport("nil", config={"K": k, "n": nd.n})
    rep.extend(nil.structure_equations(nd))
    rep.extend(nil.check_gamma_invariance(nd))

    pairing = nil.dual_pairing_matrix(nd)
    ok = all(
        pairing[i][j] == (1 if i == j else 0)
        for i in range(nd.n)
        for j in range(nd.n)
    )
    rep.add("dual-pairing-identity", ok)

    mirror_rep, arts = nil.check_mirror_pair(nd)
    if nd.n >= 3:
        d_wk = exterior_d(arts.su_iib.omega_power(nd.n - 2))
        rep.add("d-omega-power-n-minus-2-nonzero", not d_wk.is_zero())
    rep.extend(mirror_rep)

    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, su in (("iib", arts.su_iib), ("iia", arts.su_mirror)):
            doc = {"schema": FIXTURE_SCHEMA, "kind": "su-structure", "K": k}
            doc.update(su.to_json())
            (outdir / f"{name}-K{k}.json").write_text(
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            )
        _emit(rep, str(outdir / f"nil-K{k}-report.json"), "nil", t0)
    else:
        _emit(rep, None, "nil", t0)


@main.command("fm")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--direction", type=click.Choice(["fwd", "back"]), required=True)
@click.option("--n", "n", type=click.IntRange(min=1), required=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_fm(input_path: str, direction: str, n: int, out: str | None):
    """Transform a form (JSON) across the standard rank-n pair."""
    t0 = time.time()
    pair = SemiflatPair(n)
    obj = _read_object(input_path)
    frames = {
        tuple(g.label for g in f.generators): f
        for f in (pair.holo_frame, pair.frame_xc, pair.frame_x)
    }
    try:
        key = tuple(obj.get("frame", ()))
        if key not in frames:
            raise click.UsageError(f"unknown frame labels {list(key)} for n={n}")
        form = Form.from_json(obj, frames[key])
    except MALFORMED as e:
        raise _malformed(input_path, "form", e) from None
    bad = form.used_coeff_vars() - set(pair.base_vars)
    if bad:
        raise click.UsageError(f"coefficients depend on non-base variables {sorted(bad)}")
    try:
        if direction == "fwd":
            result = pair.fm_forward(form)
        else:
            result = pair.fm_backward(form)
    except FrameMismatch as e:
        raise click.UsageError(f"form is on the wrong side for --direction {direction}: {e}")
    fibers = sorted(result.leg_count(GenClass.FIBER_X if direction == "fwd" else GenClass.FIBER_MIRROR))
    bases = sorted(result.leg_count(GenClass.BASE))
    click.echo(f"fiber legs {fibers}, base legs {bases}", file=sys.stdout)
    text = json.dumps(result.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False, file=sys.stdout)
    click.echo(f"fm: ok ({time.time() - t0:.2f}s)", file=sys.stdout)


@main.command("verify")
@click.option("--system", type=click.Choice(["iia", "iib"]), required=True)
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_verify(system: str, input_path: str, out: str | None):
    """Run the supersymmetry-system checks on a structure fixture."""
    t0 = time.time()
    obj = _read_object(input_path)
    if obj.get("schema") != FIXTURE_SCHEMA:
        raise click.UsageError(f"expected schema {FIXTURE_SCHEMA}")
    try:
        su = SUStructure.from_json(obj)
    except MALFORMED as e:
        raise _malformed(input_path, "fixture", e) from None
    if system == "iia" and su.polarization is None:
        raise click.UsageError(f"{input_path}: --system iia needs a fixture with a polarization")
    rep = check_iia(su) if system == "iia" else check_iib(su)
    rep.config = {"system": system, "n": su.n}
    _emit(rep, out, "verify", t0)


@main.command("cohomology")
@click.option("--K", "k", type=int, required=True)
@click.option("--which", type=click.Choice(["bc", "ty", "mirror"]), required=True,
              help="bc = complex side (xcheck), ty = symplectic side (x), mirror = both")
@click.option("--p", "p", type=int, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--degree", "degree", type=click.IntRange(min=0), default=1)
@click.option("--out", type=click.Path(), default=None)
def cmd_cohomology(k: int, which: str, p: int, q: int, degree: int, out: str | None):
    """Cohomology dimensions (and the mirror comparison) of the flat
    semi-flat pair, written with the size-K family's variable names, at
    coefficient degree <= degree.  This is not the nilmanifold's cohomology:
    the dimensions are per-degree data and grow with the degree."""
    t0 = time.time()
    cap = _max_degree()
    if degree > cap:
        raise click.UsageError(
            f"--degree {degree} exceeds cap {cap} (set SYZKIT_MAX_DEGREE to raise)"
        )
    try:
        pair = nil.semiflat_pair(k)
    except ValueError as e:
        raise click.UsageError(str(e))
    for name, v in (("--p", p), ("--q", q)):
        if not 0 <= v <= pair.n:
            raise click.UsageError(f"{name} {v} is outside 0..{pair.n} (n = {pair.n} at K={k})")
    rep = CheckReport("cohomology", config={
        "K": k, "side": {"bc": "xcheck", "ty": "x"}.get(which, "both"), "which": which,
        "p": p, "q": q, "D": degree,
    })
    extra: dict = {}
    try:
        if which == "bc":
            cpx = cohmod.bc_complex(pair.holo_frame, degree)
            r = cohmod.bott_chern(cpx, p, q)
            rep.add_status(f"bc-dim({p},{q})", "pass", str(r.dim))
            extra["cohomology"] = {"bc": r.to_json()}
        elif which == "ty":
            cpx = cohmod.ty_complex(pair.frame_x, degree)
            r = cohmod.tseng_yau(cpx, p, q)
            rep.add_status(f"ty-dim({p},{q})", "pass", str(r.dim))
            extra["cohomology"] = {"ty": r.to_json()}
        else:
            ty = cohmod.ty_complex(pair.frame_x, degree)
            bc = cohmod.bc_complex(pair.holo_frame, degree)
            mrep, bc_r, ty_r = cohmod.mirror_compare(ty, bc, p, q, pair.fm_forward)
            rep.extend(mrep)
            rep.add_status("dims", "pass", f"bc={bc_r.dim} ty={ty_r.dim}")
            extra["cohomology"] = {"bc": bc_r.to_json(), "ty": ty_r.to_json()}
    except cohmod.SpanEscape as e:
        raise click.UsageError(f"{e}; raise --degree")
    _emit(rep, out, "cohomology", t0, extra)


@main.command("proptest")
@click.option("--suite", type=click.Choice(sorted(SUITES)), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=100)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), default=None)
def cmd_proptest(suite: str, trials: int, seed: int, out: str | None):
    """Run a named randomized campaign with per-trial derived seeds."""
    t0 = time.time()
    rep = SUITES[suite](trials, seed)
    rep.config = {"suite": suite, "trials": trials, "seed": seed}
    _emit(rep, out, "proptest", t0)


if __name__ == "__main__":
    main()
