"""No output depends on the order in which a process first names its
variables: the variable table decides only which field of a monomial int a
variable owns, and every rendering and JSON document goes back to names.

Each run is a fresh process, since the table is process-wide and append-only.
One names the K = 3 family's variables (and those of a few seeded
polynomials) in reverse order before anything else; the other names them as
the package meets them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import syzkit

FAMILY = ["r12", "r13", "r23"]
RING = ["r1", "r2", "r3", "s"]

SCRIPT = """
import json, sys
from syzkit import cli
from syzkit.coeffring import variable_monomial
from syzkit.randgen import random_poly, trial_rng

order, out = sys.argv[1], sys.argv[2]
if order == "reverse":
    names = sys.argv[3:]
    for v in reversed(names):
        variable_monomial(v)
    fields = [variable_monomial(v) for v in names]
    assert fields == sorted(fields, reverse=True), fields
cli.main(["nil", "--K", "3", "--out", out], standalone_mode=False)
cli.main(["cohomology", "--K", "3", "--which", "mirror", "--p", "1", "--q", "1", "--degree", "1",
          "--out", out + "/cohomology.json"], standalone_mode=False)
polys = [random_poly(trial_rng(7, k), sys.argv[-4:], max_degree=4, max_terms=5) for k in range(20)]
polys += [p * q - q for p, q in zip(polys, polys[1:])]
with open(out + "/polys.txt", "w") as f:
    for p in polys:
        f.write(str(p) + "\\n" + json.dumps(p.to_json(), sort_keys=True) + "\\n")
"""


def run(order, out):
    src = str(Path(syzkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-c", SCRIPT, order, str(out), *FAMILY, *RING],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_outputs_do_not_depend_on_the_naming_order(tmp_path):
    normal = run("normal", tmp_path / "normal")
    reverse = run("reverse", tmp_path / "reverse")
    assert sorted(normal) == [
        "cohomology.json", "iia-K3.json", "iib-K3.json", "nil-K3-report.json", "polys.txt",
    ]
    for name, data in normal.items():
        assert reverse[name] == data, name
    # the polynomials are not all constants, and the cohomology report
    # writes representatives
    assert "r1" in normal["polys.txt"].decode()
    assert json.loads(normal["cohomology.json"])["cohomology"]["bc"]["representatives"]
