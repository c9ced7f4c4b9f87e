"""syzkit benchmark: one workload's fixed job list, run in-process through
`syzkit.cli.main` in a single-threaded process, one job after another.

    python3 perfbench/run.py --workload nil-mirror --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn

Run from the repository root; syzkit is imported from `src/`. With `--trace 0`
the run repeats the job list as many times as fill `--seconds` (rounded, at
least once) and reports the end-to-end metrics of `BENCHMARK.json` (medians
over passes; `setup_s` is the median over fresh processes). With `--trace 1` it runs one
untraced pass, then one pass with spans around every layer (`spans.py`),
checks that both passes wrote the same bytes, and reports the per-layer
metrics. Every job's outputs go through the correctness gate in
`workloads.py`; a job fails if it raises, exits non-zero, writes output that
fails the gate, or overruns its budget. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SETUP_PROBES = 11
RUN_DEADLINE_S = 170.0  # every job ends by then, so a run exits within 180 s
TRACED_BUDGET_FACTOR = 4.0  # spans slow a job down; its budget grows to match


class JobTimeout(BaseException):
    """Raised from SIGALRM when a job overruns its budget (not an Exception,
    so no handler inside syzkit can swallow it)."""


def _alarm(signum, frame):
    raise JobTimeout


def setup(workload: str, seed: int):
    """Import syzkit from the checkout and build the job list: everything a
    run does before its first job."""
    src = ROOT / "src"
    if not (src / "syzkit" / "__init__.py").is_file():
        raise SystemExit(f"syzkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import syzkit.cli

    if Path(syzkit.cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported syzkit from {syzkit.cli.__file__}, not from {src}")
    return syzkit.cli.main, workloads.jobs(workload, seed)


def measure_setup(workload: str, seed: int) -> float:
    """Median seconds from spawning a fresh interpreter until it is ready to
    run the first job. The probe prints `time.perf_counter()`, a clock that
    Linux shares between processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(probe.stdout.split()[-1]) - t0)
    return statistics.median(times)


@dataclass
class JobResult:
    name: str
    seconds: float
    error: str | None


@dataclass
class Pass:
    directory: Path
    wall_s: float = 0.0
    cpu_s: float = 0.0
    jobs: list[JobResult] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.error)


def run_job(main, workload: str, job: workloads.Job, directory: Path, budget: float) -> JobResult:
    if budget <= 0:
        return JobResult(job.name, 0.0, "run deadline reached before it started")
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            with contextlib.redirect_stdout(out):
                code = main(job.args(directory), standalone_mode=False)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code:
            error = f"exit code {code}"
    except JobTimeout:
        error = f"over its {budget:.1f} s budget"
    except SystemExit as e:
        if e.code:
            lines = out.getvalue().splitlines()
            error = f"exit code {e.code}: {lines[-1] if lines else ''}"
    except Exception as e:  # a job that raises is a counted failure, not a crash
        error = f"raised {type(e).__name__}: {e}"
    seconds = time.perf_counter() - t0
    return JobResult(job.name, seconds, error or workloads.check(workload, job, directory))


def run_pass(main, workload: str, jobs, directory: Path, deadline: float, budget_factor: float = 1.0) -> Pass:
    directory.mkdir()
    p = Pass(directory)
    t0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        budget = min(job.budget_s * budget_factor, deadline - time.perf_counter())
        p.jobs.append(run_job(main, workload, job, directory, budget))
    p.wall_s, p.cpu_s = time.perf_counter() - t0, time.process_time() - c0
    return p


def report_bytes(directory: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def measure(workload: str, seed: int, seconds: int, traced: bool, work: Path, start: float) -> tuple[list[Pass], dict, bool]:
    """Run the passes; return them, the metric values and whether the
    traced outputs matched the untraced ones (always True untraced)."""
    main, jobs = setup(workload, seed)
    deadline = start + RUN_DEADLINE_S
    if not traced:
        setup_s = measure_setup(workload, seed)
        passes = [run_pass(main, workload, jobs, work / "pass0", deadline)]
        wanted = max(1, round(seconds / passes[0].wall_s))
        while len(passes) < wanted and time.perf_counter() + passes[0].wall_s < deadline:
            passes.append(run_pass(main, workload, jobs, work / f"pass{len(passes)}", deadline))
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return passes, values, True

    plain = run_pass(main, workload, jobs, work / "untraced", deadline)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        spanned = run_pass(main, workload, jobs, work / "traced", deadline, TRACED_BUDGET_FACTOR)
    finally:
        uninstall()
    values = tracer.metrics()
    values["reports.bytes_written"] = sum(len(b) for b in report_bytes(spanned.directory).values())
    values["trace_overhead_ratio"] = spanned.wall_s / plain.wall_s
    same = report_bytes(plain.directory) == report_bytes(spanned.directory)
    return [plain, spanned], values, same


def run_workload(args) -> int:
    start = time.perf_counter()
    signal.signal(signal.SIGALRM, _alarm)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        passes, values, same = measure(args.workload, args.seed, args.seconds, bool(args.trace), work, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()

    for i, p in enumerate(passes):
        label = ("untraced", "traced")[i] if args.trace else f"pass {i}"
        for j in p.jobs:
            print(f"{label:>9}  {j.seconds:8.3f} s  {j.name}" + (f"  FAILED: {j.error}" if j.error else ""))
        print(f"{label:>9}  {p.wall_s:8.3f} s  wall, {p.cpu_s:.3f} s cpu")
    if not same:
        print("traced pass wrote different report bytes than the untraced pass")

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    specs = BENCH["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")
    result = {"correct": failed == 0 and same, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; the metrics of
    the combined result are named `<workload>.<metric>`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=200,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            sys.stderr.write(child.stderr)
            raise SystemExit(f"workload {name} exited with code {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.perf_counter())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
