"""The benchmark's workloads: fixed job lists for `syzkit.cli.main` and the
correctness gate each job's output files must pass.

A job is one CLI invocation. `{dir}` in its arguments is the pass directory
that receives its reports and fixtures. Budgets are roughly four times the
job's time at the first measured commit (`baseline.json`), and never under
5 s, so a blow-up fails fast as a counted failure instead of hanging the run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

PROPTEST_TRIALS = 300
COHOMOLOGY_JOBS = [(p, q, d) for d in (0, 1, 2) for p, q in ((1, 1), (2, 2), (2, 1))]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # CLI arguments, `{dir}` standing for the pass directory
    outputs: tuple[str, ...]  # files the job writes into the pass directory
    budget_s: float

    def args(self, pass_dir: Path) -> list[str]:
        return [a.replace("{dir}", str(pass_dir)) for a in self.argv]


def jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of `workload`; only `property-campaign` uses `seed`."""
    if workload == "nil-mirror":
        return [
            Job("nil --K 3", ("nil", "--K", "3", "--out", "{dir}"),
                ("nil-K3-report.json", "iib-K3.json", "iia-K3.json"), 5.0),
            Job("nil --K 4", ("nil", "--K", "4", "--out", "{dir}"),
                ("nil-K4-report.json", "iib-K4.json", "iia-K4.json"), 45.0),
            Job("verify --system iib", ("verify", "--system", "iib", "--input", "{dir}/iib-K4.json",
                                        "--out", "{dir}/verify-iib-K4.json"),
                ("verify-iib-K4.json",), 5.0),
            Job("verify --system iia", ("verify", "--system", "iia", "--input", "{dir}/iia-K4.json",
                                        "--out", "{dir}/verify-iia-K4.json"),
                ("verify-iia-K4.json",), 40.0),
        ]
    if workload == "cohomology-mirror":
        return [
            Job(f"cohomology ({p},{q}) D={d}",
                ("cohomology", "--K", "3", "--which", "mirror", "--p", str(p), "--q", str(q),
                 "--degree", str(d), "--out", f"{{dir}}/cohomology-{p}{q}-D{d}.json"),
                (f"cohomology-{p}{q}-D{d}.json",), 15.0 if d == 2 else 5.0)
            for p, q, d in COHOMOLOGY_JOBS
        ]
    if workload == "property-campaign":
        return [
            Job(f"proptest {suite}",
                ("proptest", "--suite", suite, "--trials", str(PROPTEST_TRIALS), "--seed", str(seed),
                 "--out", f"{{dir}}/proptest-{suite}.json"),
                (f"proptest-{suite}.json",), 15.0 if suite == "operator-algebra" else 5.0)
            for suite in sorted(EXPECTED["proptest_laws"])
        ]
    raise ValueError(f"unknown workload {workload!r}")


def check(workload: str, job: Job, pass_dir: Path) -> str | None:
    """None when every output of `job` is correct, else the first reason it is not."""
    for name in job.outputs:
        path = pass_dir / name
        if not path.is_file():
            return f"{name} was not written"
        data = path.read_bytes()
        if workload in ("nil-mirror", "cohomology-mirror"):
            digest = hashlib.sha256(data).hexdigest()
            if digest != EXPECTED["sha256"][name]:
                return f"{name} sha256 {digest[:16]} differs from the recorded digest"
        if name.startswith(("iia-", "iib-")):
            continue  # a fixture: its digest is its whole check
        doc = json.loads(data)
        if doc.get("passed") is not True:
            return f"{name} does not pass"
        if workload == "cohomology-mirror":
            dims = doc["cohomology"]["bc"]["dim"], doc["cohomology"]["ty"]["dim"]
            want = EXPECTED["cohomology_dims"][name]
            if dims != (want, want):
                return f"{name} dims bc={dims[0]} ty={dims[1]}, expected {want}"
        if workload == "property-campaign":
            suite = doc["config"]["suite"]
            ids = [c["id"] for c in doc["checks"] if c["status"] == "pass"]
            if doc["config"]["trials"] != PROPTEST_TRIALS or ids != EXPECTED["proptest_laws"][suite]:
                return f"{name} does not pass every law of {suite} at {PROPTEST_TRIALS} trials"
    return None
