"""Command-line driver: fixtures, verification campaigns, machine reports.

Each command parses and bounds its input, calls the package for the checks
and writes the outputs; `nil` builds the nilmanifold of U_K and runs
`nilmanifold.check_family`, which makes every check it reports.

Human-readable lines go to stdout: the non-passing checks, at most MAX_SHOWN
of them, then a status line with a count per status and the elapsed time, read
on `time.perf_counter` so that a step of the system clock cannot skew it.
Report and fixture files are canonical JSON with every check and no timing
data, so a rerun with the same configuration and seed is byte-identical.  Exit
code 0 means every check passed.

Every `click.echo` names `sys.stdout` as its file: without one, click caches a
wrapper per stream that holds the stream alive, so each in-process `main` call
under a redirected stdout would keep its captured output.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import click

from . import cohomology as cohmod
from . import nilmanifold as nil
from .coeffring import DEGREE_BOUND
from .exterior import Form, FrameMismatch, GenClass
from .fourier import SemiflatPair
from .proptest import SUITES
from .reports import PASS, CheckReport
from .sustruct import SUStructure, check_iia, check_iib

FIXTURE_SCHEMA = "syzkit-fixture-v1"
REPORT_SCHEMA = "syzkit-report-v1"

# the largest `fm --n`: the exponentiated curvature has 2^n terms, and
# building the pair takes about 4x longer every two ranks (0.57 s at n = 16)
MAX_FM_RANK = 16

# the largest fixture `verify` reads: n = 10 on 20 generators, the size that
# `nil --K 5` writes, whose fixtures verify in 0.8-0.9 s (iib) and 1.2-1.3 s
# (iia) on a 2-vCPU machine; the algebra of 2n generators grows as 4^n
MAX_VERIFY_RANK = nil.MAX_K * (nil.MAX_K - 1) // 2

# the most non-passing checks printed; passing ones go to the report file only,
# so a run prints at most MAX_SHOWN + 3 lines however many checks it makes
MAX_SHOWN = 20


# what a structurally malformed JSON document raises while it is parsed
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError, ZeroDivisionError)


def _read_object(path: str) -> dict:
    """The JSON object in `path`; anything else is a usage error naming the file."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise click.UsageError(f"{path}: invalid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise click.UsageError(f"{path}: not UTF-8 text: {e}") from None
    if not isinstance(obj, dict):
        raise click.UsageError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _in_existing_directory(ctx, param, value: str | None) -> str | None:
    """A file `--out` whose directory exists, checked before any work."""
    if value is not None and not Path(value).parent.is_dir():
        raise click.BadParameter(f"{value!r}: directory {str(Path(value).parent)!r} does not exist")
    return value


def _makeable_directory(ctx, param, value: str | None) -> str | None:
    """A directory `--out` that exists or can be made: the nearest existing
    path on the way up to it is a directory, checked before any work."""
    path = Path(value or ".")
    while not path.exists():
        path = path.parent
    if not path.is_dir():
        raise click.BadParameter(f"{value!r}: {str(path)!r} is not a directory")
    return value


# the options that name an input file and an output file; click refuses a
# directory for either, and an input that does not exist, before any work
INPUT_FILE = click.Path(exists=True, dir_okay=False)
OUT_FILE = {"type": click.Path(dir_okay=False), "default": None, "callback": _in_existing_directory}


def _malformed(path: str, what: str, e: Exception) -> click.UsageError:
    if isinstance(e, KeyError):
        cause = f"missing key {e.args[0]!r}"
    elif isinstance(e, ZeroDivisionError):
        cause = f"zero denominator ({e})"
    else:
        cause = f"{type(e).__name__}: {e}"
    return click.UsageError(f"{path}: malformed {what}: {cause}")


def _emit(
    report: CheckReport,
    out: str | None,
    command: str,
    config: dict,
    t0: float,
    extra: Callable[[], dict] | None = None,
) -> None:
    """Write the report document to `out`, if given, and print the summary.
    `config` is the document's configuration object; `extra` gives the
    command's own top-level keys and, like the rest of the document, is built
    only when the document is written."""
    if out:
        doc = {
            "schema": REPORT_SCHEMA,
            "command": command,
            "config": config,
            "checks": [i.to_json() for i in report.items],
            "passed": report.passed,
        }
        if extra:
            doc.update(extra())
        Path(out).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    failing = [i for i in report.items if i.status != PASS]
    for i in failing[:MAX_SHOWN]:
        suffix = f"  [{i.witness}]" if i.witness else ""
        click.echo(f"{i.status.upper():>12}  {i.id}{suffix}", file=sys.stdout)
    if len(failing) > MAX_SHOWN:
        click.echo(f"... and {len(failing) - MAX_SHOWN} more non-passing checks", file=sys.stdout)
    status = "FAILED" if failing else "ok"
    tally = Counter(i.status for i in report.items)
    counts = ", ".join(f"{tally[name]} {name}" for name in sorted(tally))
    click.echo(
        f"{command}: {status} ({len(report.items)} checks: {counts}; {time.perf_counter() - t0:.2f}s)",
        file=sys.stdout,
    )
    if failing:
        first = failing[0]
        click.echo(f"first non-passing check: {first.id} ({first.status})", file=sys.stdout)
        sys.exit(1)


@click.group()
def main():
    """Exact verification engine for semi-flat torus-fibration dualities."""


@main.command("nil")
@click.option("--K", "k", type=click.IntRange(2, nil.MAX_K), required=True, help="matrix size")
@click.option("--out", default=None, callback=_makeable_directory,
              help="output directory for fixtures + report")
def cmd_nil(k: int, out: str | None):
    """Build the size-K family and verify structure, invariance, balancedness,
    duality pairing, and the full mirror pipeline."""
    t0 = time.perf_counter()
    nd = nil.build(nil.upper_triangular(k))
    rep, su_b, su_a = nil.check_family(nd)
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, su in (("iib", su_b), ("iia", su_a)):
            doc = {"schema": FIXTURE_SCHEMA, "kind": "su-structure", "K": k}
            doc.update(su.to_json())
            (outdir / f"{name}-K{k}.json").write_text(
                json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            )
        out = str(outdir / f"nil-K{k}-report.json")
    _emit(rep, out, "nil", {"K": k, "n": nd.n}, t0)


@main.command("fm")
@click.option("--input", "input_path", type=INPUT_FILE, required=True)
@click.option("--direction", type=click.Choice(["fwd", "back"]), required=True)
@click.option("--n", "n", type=click.IntRange(1, MAX_FM_RANK), required=True)
@click.option("--out", **OUT_FILE)
def cmd_fm(input_path: str, direction: str, n: int, out: str | None):
    """Transform a form (JSON) across the standard rank-n pair."""
    t0 = time.perf_counter()
    obj = _read_object(input_path)
    pair = SemiflatPair(n)
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
    try:
        form.check_invariant()
    except ValueError as e:
        raise click.UsageError(str(e)) from None
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
    click.echo(f"fm: ok ({time.perf_counter() - t0:.2f}s)", file=sys.stdout)


@main.command("verify")
@click.option("--system", type=click.Choice(["iia", "iib"]), required=True)
@click.option("--input", "input_path", type=INPUT_FILE, required=True)
@click.option("--out", **OUT_FILE)
def cmd_verify(system: str, input_path: str, out: str | None):
    """Run the supersymmetry-system checks on a structure fixture."""
    t0 = time.perf_counter()
    obj = _read_object(input_path)
    if obj.get("schema") != FIXTURE_SCHEMA:
        raise click.UsageError(f"expected schema {FIXTURE_SCHEMA}")
    try:
        su = SUStructure.from_json(obj)
    except MALFORMED as e:
        raise _malformed(input_path, "fixture", e) from None
    if su.n > MAX_VERIFY_RANK or len(su.frame) > 2 * MAX_VERIFY_RANK:
        raise click.UsageError(
            f"{input_path}: n = {su.n} on {len(su.frame)} generators is past the cap of "
            f"n <= {MAX_VERIFY_RANK} on at most {2 * MAX_VERIFY_RANK} generators"
        )
    if system == "iia" and su.polarization is None:
        raise click.UsageError(f"{input_path}: --system iia needs a fixture with a polarization")
    try:
        rep = check_iia(su) if system == "iia" else check_iib(su)
    except OverflowError as e:
        # a product of the fixture's coefficients past the monomial degree bound
        raise click.UsageError(f"{input_path}: {e}") from None
    _emit(rep, out, "verify", {"system": system, "n": su.n}, t0)


@main.command("cohomology")
@click.option("--K", "k", type=click.IntRange(2, nil.MAX_K), required=True, help="matrix size")
@click.option("--which", type=click.Choice(["bc", "ty", "mirror"]), required=True,
              help="bc = complex side (xcheck), ty = symplectic side (x), mirror = both")
@click.option("--p", "p", type=int, required=True)
@click.option("--q", "q", type=int, required=True)
@click.option("--degree", "degree", type=click.IntRange(0, DEGREE_BOUND - 1), default=1)
@click.option("--out", **OUT_FILE)
def cmd_cohomology(k: int, which: str, p: int, q: int, degree: int, out: str | None):
    """Cohomology dimensions (and the mirror comparison) of the flat
    semi-flat pair, written with the size-K family's variable names, at
    coefficient degree <= degree.  This is not the nilmanifold's cohomology:
    the dimensions are per-degree data and grow with the degree.  A complex
    has 4^n C(n + degree, degree) basis elements, and a query builds the
    columns of the few bidegree slots it reads; past 2^17 of them it is a
    usage error, as is a degree past 32767, the largest total degree of a
    monomial."""
    t0 = time.perf_counter()
    pair = nil.semiflat_pair(nil.upper_triangular(k))
    for name, v in (("--p", p), ("--q", q)):
        if not 0 <= v <= pair.n:
            raise click.UsageError(f"{name} {v} is outside 0..{pair.n} (n = {pair.n} at K={k})")
    config = {
        "K": k, "side": {"bc": "xcheck", "ty": "x"}.get(which, "both"), "which": which,
        "p": p, "q": q, "D": degree,
    }
    rep = CheckReport()
    try:
        if which == "bc":
            cpx = cohmod.bc_complex(pair.holo_frame, degree)
            r = cohmod.bott_chern(cpx, p, q)
            dims = rep.add_status(f"bc-dim({p},{q})", "pass", str(r.dim))
            quotients = {"bc": r}
        elif which == "ty":
            cpx = cohmod.ty_complex(pair.frame_x, degree)
            r = cohmod.tseng_yau(cpx, p, q)
            dims = rep.add_status(f"ty-dim({p},{q})", "pass", str(r.dim))
            quotients = {"ty": r}
        else:
            ty = cohmod.ty_complex(pair.frame_x, degree)
            bc = cohmod.bc_complex(pair.holo_frame, degree)
            mrep, bc_r, ty_r = cohmod.mirror_compare(ty, bc, p, q, pair.fm_forward)
            rep.extend(mrep)
            dims = rep.add_status("dims", "pass", f"bc={bc_r.dim} ty={ty_r.dim}")
            quotients = {"bc": bc_r, "ty": ty_r}
    except cohmod.SpanEscape as e:
        raise click.UsageError(f"{e}; raise --degree")
    except cohmod.ComplexTooLarge as e:
        raise click.UsageError(f"{e}; lower --degree or --K, or choose another --p and --q")
    click.echo(f"{dims.id}: {dims.witness}", file=sys.stdout)
    _emit(rep, out, "cohomology", config, t0,
          lambda: {"cohomology": {k: r.to_json() for k, r in quotients.items()}})


@main.command("proptest")
@click.option("--suite", type=click.Choice(sorted(SUITES)), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=100)
@click.option("--seed", type=int, default=0)
@click.option("--out", **OUT_FILE)
def cmd_proptest(suite: str, trials: int, seed: int, out: str | None):
    """Run a named randomized campaign with per-trial derived seeds."""
    t0 = time.perf_counter()
    rep = SUITES[suite](trials, seed)
    _emit(rep, out, "proptest", {"suite": suite, "trials": trials, "seed": seed}, t0)


if __name__ == "__main__":
    main()
