import contextlib
import gc
import hashlib
import io
import json
import re
import sys
import time
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from syzkit import calculus, cli
from syzkit import cohomology as cohmod
from syzkit.cli import main
from syzkit.coeffring import I, Poly
from syzkit.exterior import Form
from syzkit.fourier import SemiflatPair
from syzkit.reports import UNDETERMINED, CheckReport
from syzkit.sustruct import SUStructure


@pytest.fixture
def runner():
    return CliRunner()


class TestNilCommand:
    def test_k3_passes_and_writes_fixtures(self, runner, tmp_path):
        out = tmp_path / "nil"
        res = runner.invoke(main, ["nil", "--K", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "nil-K3-report.json").read_text())
        assert report["schema"] == "syzkit-report-v1"
        assert report["passed"] is True
        for name in ("iib-K3.json", "iia-K3.json"):
            doc = json.loads((out / name).read_text())
            assert doc["schema"] == "syzkit-fixture-v1"

    def test_k2_trivial(self, runner):
        res = runner.invoke(main, ["nil", "--K", "2"])
        assert res.exit_code == 0, res.output

    def test_k1_usage_error(self, runner):
        res = runner.invoke(main, ["nil", "--K", "1"])
        assert res.exit_code == 2
        assert "2<=x<=5" in res.output

    def test_k_above_cap_usage_error(self, runner, monkeypatch):
        def no_build(k):
            raise AssertionError("nil built a size past the cap")

        monkeypatch.setattr(cli.nil, "build", no_build)
        res = runner.invoke(main, ["nil", "--K", "6"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "2<=x<=5" in res.output
        assert "Traceback" not in res.output

    def test_reports_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["nil", "--K", "3", "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, ["nil", "--K", "3", "--out", str(b)]).exit_code == 0
        for name in ("nil-K3-report.json", "iib-K3.json", "iia-K3.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_outputs_match_the_benchmark_digests(self, runner, tmp_path):
        # the `nil-mirror` benchmark jobs; a change in the order or content
        # of any check changes a digest
        digests = json.loads((Path(__file__).parents[1] / "perfbench" / "expected.json").read_text())["sha256"]
        for k in ("3", "4"):
            assert runner.invoke(main, ["nil", "--K", k, "--out", str(tmp_path)]).exit_code == 0
        for system in ("iib", "iia"):
            argv = ["verify", "--system", system, "--input", str(tmp_path / f"{system}-K4.json"),
                    "--out", str(tmp_path / f"verify-{system}-K4.json")]
            assert runner.invoke(main, argv).exit_code == 0
        for name in ("nil-K3-report.json", "iib-K3.json", "iia-K3.json", "nil-K4-report.json",
                     "iib-K4.json", "iia-K4.json", "verify-iib-K4.json", "verify-iia-K4.json"):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digests[name], name


    def test_k2_outputs_match_the_pinned_digests(self, runner, tmp_path):
        # nil-digests.sha256 (sha256sum format) pins the K = 2 and K = 5
        # outputs, which the benchmark does not run; CI checks the K = 5 ones
        # on the installed package, since K = 5 takes seconds
        lines = (Path(__file__).parent / "nil-digests.sha256").read_text().splitlines()
        digests = dict(reversed(line.split()) for line in lines)
        outputs = {k: (f"nil-K{k}-report.json", f"iib-K{k}.json", f"iia-K{k}.json") for k in (2, 5)}
        assert sorted(digests) == sorted(outputs[2] + outputs[5])
        assert runner.invoke(main, ["nil", "--K", "2", "--out", str(tmp_path)]).exit_code == 0
        for name in outputs[2]:
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digests[name], name


class TestVerifyCommand:
    @pytest.fixture
    def fixtures(self, runner, tmp_path):
        out = tmp_path / "nil"
        assert runner.invoke(main, ["nil", "--K", "3", "--out", str(out)]).exit_code == 0
        return out

    def test_iib_fixture_passes(self, runner, fixtures):
        res = runner.invoke(
            main, ["verify", "--system", "iib", "--input", str(fixtures / "iib-K3.json")]
        )
        assert res.exit_code == 0, res.output

    def test_iia_fixture_passes(self, runner, fixtures):
        res = runner.invoke(
            main, ["verify", "--system", "iia", "--input", str(fixtures / "iia-K3.json")]
        )
        assert res.exit_code == 0, res.output

    def test_iia_builds_no_complex_basis(self, runner, fixtures, monkeypatch):
        built = []
        builder = calculus.holo_coframe

        def counting_builder(*args, **kwargs):
            built.append(1)
            return builder(*args, **kwargs)

        # every syzkit module that binds the builder calls the counting one
        patched = []
        for name, module in list(sys.modules.items()):
            if name.startswith("syzkit") and getattr(module, "holo_coframe", None) is builder:
                monkeypatch.setattr(module, "holo_coframe", counting_builder)
                patched.append(name)
        assert "syzkit.sustruct" in patched
        res = runner.invoke(
            main, ["verify", "--system", "iia", "--input", str(fixtures / "iia-K3.json")]
        )
        assert res.exit_code == 0, res.output
        assert built == []

    def test_broken_fixture_fails_with_witness(self, runner, fixtures, tmp_path):
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        # corrupt one volume-form factor so the volume form is no longer closed
        factor = doc["Omega_factors"][0]
        for term in factor["terms"]:
            term["coeff"]["vars"] = ["r12", "r13", "r23"]
            for t in term["coeff"]["terms"]:
                t["exp"] = [1, 0, 0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(bad)])
        assert res.exit_code == 1
        assert "d-Omega-vanishes" in res.output

    def test_undetermined_check_reported_without_traceback(self, runner, tmp_path):
        # a valid fixture whose conformal factor is not constant: once an
        # IndexError traceback after "verify: FAILED"
        pair = SemiflatPair(2)
        f = pair.frame_xc
        r1 = Poly.variable("r1")
        omega = Form.monomial(f, ["dtc1", "dr1"], 1 + r1 * r1) + Form.monomial(f, ["dtc2", "dr2"])
        factors = [Form.gen(f, f"dtc{k}") + Form.gen(f, f"dr{k}") * I for k in (1, 2)]
        doc = SUStructure(2, f, omega, Omega_factors=factors).to_json()
        path = tmp_path / "nonconstant.json"
        path.write_text(json.dumps({"schema": "syzkit-fixture-v1", **doc}))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(path)])
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "first non-passing check: conformal-factor-nonvanishing (undetermined)" in res.output
        assert "Traceback" not in res.output

    def test_wrong_schema_rejected(self, runner, tmp_path):
        f = tmp_path / "x.json"
        f.write_text(json.dumps({"schema": "other"}))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code != 0

    def test_unfactored_volume_form_usage_error(self, runner, fixtures, tmp_path):
        # a volume form is read only as its factors
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["Omega"] = doc.pop("Omega_factors")
        f = tmp_path / "omega.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert "missing key 'Omega_factors'" in res.output

    def test_nonpositive_n_usage_error(self, runner, fixtures, tmp_path):
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["n"] = 0
        f = tmp_path / "n0.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert "n must be at least 1" in res.output

    @pytest.mark.parametrize("n", [1.5, 1.0, True], ids=["half", "float-one", "true"])
    def test_non_integer_n_usage_error(self, runner, fixtures, tmp_path, n):
        # 1.5 and 1.0 once ended in a TypeError traceback from factorial in
        # omega_power, and true was read as 1
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["n"] = n
        f = tmp_path / "n.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"n.json: malformed fixture: ValueError: n must be at least 1 and an integer, got {n!r}" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("exp", [[1.5], [-1], [True]], ids=["half", "negative", "true"])
    def test_bad_exponent_usage_error(self, runner, fixtures, tmp_path, exp):
        # each once ran every check on a coefficient r12^exp
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["omega"]["terms"][0]["coeff"] = {
            "vars": ["r12"], "terms": [{"exp": exp, "re": [1, 1], "im": [0, 1]}]
        }
        f = tmp_path / "exp.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"exp.json: malformed fixture: ValueError: exponents must be nonnegative integers, got {exp!r}" in res.output
        assert "Traceback" not in res.output

    def test_exponent_past_the_bound_usage_error(self, runner, fixtures, tmp_path):
        # a monomial's total degree must stay below 2^15, so that the sum of
        # two never carries out of its exponent field
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["omega"]["terms"][0]["coeff"] = {
            "vars": ["r12"], "terms": [{"exp": [40000], "re": [1, 1], "im": [0, 1]}]
        }
        f = tmp_path / "bigexp.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "bigexp.json: malformed fixture: ValueError: exponents [40000] reach the total degree bound 32768" in res.output
        assert "Traceback" not in res.output

    def test_product_past_the_bound_usage_error(self, runner, fixtures, tmp_path):
        # each exponent is admitted, but omega^3 multiplies three of them
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        for t in doc["omega"]["terms"]:
            fiber, base = t["gens"]
            if base == "dr" + fiber[3:]:
                t["coeff"] = {"vars": ["r12"], "terms": [{"exp": [12000], "re": [1, 1], "im": [0, 1]}]}
        f = tmp_path / "deg.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "deg.json: a product reaches the total degree bound 32768" in res.output
        assert "Traceback" not in res.output

    def test_iia_without_polarization_usage_error(self, runner, fixtures):
        # once a ValueError traceback from check_iia
        res = runner.invoke(
            main, ["verify", "--system", "iia", "--input", str(fixtures / "iib-K3.json")]
        )
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "iib-K3.json" in res.output
        assert "polarization" in res.output

    @pytest.mark.parametrize("pair, shown", [([0.5, 1], "0.5"), ([True, 1], "True")])
    def test_non_integer_coefficient_usage_error(self, runner, fixtures, tmp_path, pair, shown):
        # once a bare "both arguments should be Rational instances" for 0.5,
        # and silently read as 1 for true
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["Omega_factors"][0]["terms"][0]["coeff"]["terms"][0]["re"] = pair
        f = tmp_path / "coeff.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert "coeff.json" in res.output
        assert f"got {shown}" in res.output

    @pytest.mark.parametrize("case, message", [
        ("long-fraction", "a fraction must be a [numerator, denominator] list, got [1, 2, 99]"),
        ("repeated-exponent", "exponent vector [1] appears twice"),
        ("extra-class", "frame lists 'labels', 'classes' and 'paired' differ in length: 6, 7, 6"),
        ("short-paired", "frame lists 'labels', 'classes' and 'paired' differ in length: 6, 6, 5"),
    ])
    def test_dropped_fixture_entries_usage_error(self, runner, fixtures, tmp_path, case, message):
        # each was once read with the extra or earlier entry silently dropped
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        if case == "long-fraction":
            doc["omega"]["terms"][0]["coeff"]["terms"][0]["re"] = [1, 2, 99]
        elif case == "repeated-exponent":
            doc["omega"]["terms"][0]["coeff"] = {"vars": ["r12"], "terms": [
                {"exp": [1], "re": [1, 1], "im": [0, 1]}, {"exp": [1], "re": [5, 1], "im": [0, 1]},
            ]}
        elif case == "extra-class":
            doc["frame"]["classes"].append(doc["frame"]["classes"][0])
        else:
            doc["frame"]["paired"].pop()
        f = tmp_path / "dropped.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"dropped.json: malformed fixture: ValueError: {message}" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("key, value, message", [
        ("phase_quarter", 2.0, "phase_quarter must be null or an integer in 0..3, got 2.0"),
        ("phase_quarter", "2", "phase_quarter must be null or an integer in 0..3, got '2'"),
        ("phase_quarter", "x", "phase_quarter must be null or an integer in 0..3, got 'x'"),
        ("phase_quarter", 7, "phase_quarter must be null or an integer in 0..3, got 7"),
        ("phase_quarter", -1, "phase_quarter must be null or an integer in 0..3, got -1"),
        ("phase_quarter", True, "phase_quarter must be null or an integer in 0..3, got True"),
        ("fiber_class", "base", "fiber_class must be 'fiber-x' or 'fiber-mirror', got 'base'"),
        ("fiber_class", "fiber-mirror", "fiber_class 'fiber-mirror' names no generator of the frame"),
    ], ids=["float", "digit-string", "letter", "seven", "negative", "true", "base", "absent-class"])
    def test_malformed_polarization_usage_error(self, runner, fixtures, tmp_path, key, value, message):
        # each was once read as a check result: 2.0 passed every check, "2"
        # failed special-phase with "declared 2, computed 2", and the others
        # failed a check too (exit 1)
        doc = json.loads((fixtures / "iia-K3.json").read_text())
        assert doc["polarization"] == {"fiber_class": "fiber-x", "phase_quarter": 2}
        doc["polarization"][key] = value
        f = tmp_path / "pol.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iia", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"pol.json: malformed fixture: ValueError: polarization {message}" in res.output
        assert "Traceback" not in res.output

    @staticmethod
    def failing_flat_fixture():
        """A flat rank-3 IIB fixture that fails d-omega-power-n-minus-1-vanishes:
        omega = sum mu_ab dtc_a ^ dr_b with mu = A^T A for the unitriangular A
        with one entry r2 (so det mu = 1), factors dtc_k + i dr_k."""
        pair = SemiflatPair(3)
        x = pair.frame_xc
        r2 = Poly.variable("r2")
        mu = {(1, 1): 1, (2, 2): 1, (2, 3): r2, (3, 2): r2, (3, 3): 1 + r2 * r2}
        omega = Form.zero(x)
        for (a, b), c in mu.items():
            omega = omega + Form.monomial(x, [f"dtc{a}", f"dr{b}"], c)
        factors = [Form.gen(x, f"dtc{k}") + Form.gen(x, f"dr{k}") * I for k in (1, 2, 3)]
        return {"schema": "syzkit-fixture-v1", "kind": "su-structure", **SUStructure(3, x, omega, factors).to_json()}

    # the message each malformed frame of `failing_flat_fixture` is refused with
    MALFORMED_FRAMES = {
        "base-vars-without-r2": "paired variables ['r1', 'r2', 'r3'] must be distinct base variables of ['r1', 'r3']",
        "base-vars-string": "base variables must be unique strings, got ['r', '1', 'r', '2', 'r', '3']",
        "r2-renamed-in-omega": "coefficients depend on non-base variables ['s']",
        "r2-listed-twice": "base variables must be unique strings, got ['r1', 'r2', 'r2', 'r3']",
        "paired-zz": "paired variables ['r1', 'zz', 'r3'] must be distinct base variables",
        "paired-r1-twice": "paired variables ['r1', 'r1', 'r3'] must be distinct base variables",
        "base-var-5": "base variables must be unique strings, got [5, 'r2', 'r3']",
        "base-var-null": "base variables must be unique strings, got [None, 'r2', 'r3']",
        "label-5": "generator labels must be unique strings, got [5, 'dtc2'",
        "unpaired-r4": "base variables ['r4'] are paired with no generator",
    }

    @pytest.mark.parametrize("case", list(MALFORMED_FRAMES))
    def test_malformed_frame_usage_error(self, runner, tmp_path, case):
        # the first four and unpaired-r4 were once read as a verdict (ok, or
        # a witness in which d counted r2 twice), the others were tracebacks
        message = self.MALFORMED_FRAMES[case]
        doc = self.failing_flat_fixture()
        fr = doc["frame"]
        if case == "base-vars-without-r2":
            fr["base_vars"] = ["r1", "r3"]
        elif case == "base-vars-string":
            fr["base_vars"] = "r1r2r3"
        elif case == "r2-renamed-in-omega":
            for t in doc["omega"]["terms"]:
                t["coeff"]["vars"] = ["s" if v == "r2" else v for v in t["coeff"]["vars"]]
        elif case == "r2-listed-twice":
            fr["base_vars"] = ["r1", "r2", "r2", "r3"]
        elif case.startswith("paired-"):
            fr["paired"] = [("zz" if case == "paired-zz" else "r1") if v == "r2" else v for v in fr["paired"]]
        elif case.startswith("base-var-"):
            fr["base_vars"][0] = 5 if case == "base-var-5" else None
        elif case == "label-5":
            doc = json.loads(json.dumps(doc).replace('"dtc1"', "5"))
        else:
            fr["base_vars"].append("r4")
        f = tmp_path / "frame.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"frame.json: malformed fixture: ValueError: {message}" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("case", ["last-factor-dropped", "two-form-term"])
    def test_omega_factors_not_n_one_forms_usage_error(self, runner, tmp_path, case):
        # both once ran every check and exited 1 with a verdict
        doc = self.failing_flat_fixture()
        factors = doc["Omega_factors"]
        if case == "last-factor-dropped":
            factors.pop()
        else:
            factors[1]["terms"].append({"gens": ["dtc1", "dr2"], "coeff": factors[1]["terms"][0]["coeff"]})
        f = tmp_path / "factors.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "factors.json: malformed fixture: ValueError: Omega needs exactly n = 3 factors, each a one-form" in res.output
        assert "Traceback" not in res.output

    def test_failing_flat_fixture_fails(self, runner, tmp_path):
        # the well-formed fixture behind test_malformed_frame_usage_error
        f = tmp_path / "flat.json"
        f.write_text(json.dumps(self.failing_flat_fixture()))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 1, res.output
        assert "first non-passing check: d-omega-power-n-minus-1-vanishes (fail)" in res.output

    def test_fixture_missing_key_usage_error(self, runner, tmp_path):
        # once a KeyError traceback
        f = tmp_path / "nofr.json"
        f.write_text(json.dumps({"schema": "syzkit-fixture-v1"}))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert "nofr.json" in res.output
        assert "missing key 'frame'" in res.output

    @pytest.mark.parametrize("gens", [["dth12"], []])
    def test_omega_not_two_form_usage_error(self, runner, fixtures, tmp_path, gens):
        # an extra degree-1 or degree-0 term in omega once ran every check
        # and failed some (exit 1)
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["omega"]["terms"].append({"gens": gens, "coeff": doc["omega"]["terms"][0]["coeff"]})
        f = tmp_path / "mixed.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "mixed.json: malformed fixture: ValueError: omega must be a two-form" in res.output
        assert "Traceback" not in res.output

    def test_unknown_generator_label_usage_error(self, runner, fixtures, tmp_path):
        # once read "missing key 'bogus'", as if the fixture lacked a field
        doc = json.loads((fixtures / "iib-K3.json").read_text())
        doc["omega"]["terms"][0]["gens"] = ["bogus"]
        f = tmp_path / "label.json"
        f.write_text(json.dumps(doc))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "label.json" in res.output
        assert "unknown generator 'bogus'" in res.output
        assert "missing key" not in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("case, size", [("rank", "n = 11 on 2 generators"),
                                            ("generators", "n = 1 on 22 generators")])
    def test_size_past_the_cap_usage_error(self, runner, tmp_path, monkeypatch, case, size):
        # past the size that `nil --K 5` writes, a fixture is refused before
        # any work on it
        assert runner.invoke(main, ["nil", "--K", "2", "--out", str(tmp_path)]).exit_code == 0
        doc = json.loads((tmp_path / "iib-K2.json").read_text())
        if case == "rank":
            # n factors, so only the size is wrong with the fixture
            doc["n"] = 11
            doc["Omega_factors"] *= 11
        else:
            fr = doc["frame"]
            fr["labels"] += [f"dx{k}" for k in range(20)]
            fr["classes"] += ["base"] * 20
            fr["paired"] += [None] * 20
            for form in [doc["omega"], *doc["Omega_factors"]]:
                form["frame"] = fr["labels"]
        f = tmp_path / "big.json"
        f.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "check_iib", lambda su: pytest.fail("a check ran"))
        # nor is the volume form wedged from its factors, which alone took
        # 2.7 s on a dense fixture at n = 13
        monkeypatch.setattr(Form, "wedge", lambda a, b: pytest.fail("a wedge ran"))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"big.json: {size} is past the cap of n <= 10 on at most 20 generators" in res.output
        assert "Traceback" not in res.output


class TestFmCommand:
    def test_forward_constant(self, runner, tmp_path):
        pair = SemiflatPair(3)
        src = tmp_path / "one.json"
        src.write_text(json.dumps(Form.scalar(pair.holo_frame, 1).to_json()))
        out = tmp_path / "out.json"
        res = runner.invoke(
            main,
            ["fm", "--input", str(src), "--direction", "fwd", "--n", "3", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        got = Form.from_json(json.loads(out.read_text()), pair.frame_x)
        assert got == Form.monomial(pair.frame_x, ["dth1", "dth2", "dth3"], -1)
        assert "fiber legs [3]" in res.output

    def test_round_trip_sign(self, runner, tmp_path):
        # forward then back on a dz/dzb form of mixed degree with a polynomial
        # coefficient: (-1)^(n(n-1)/2) = -1 times the input at n = 2
        pair = SemiflatPair(2)
        f = pair.holo_frame
        m = Form.monomial(f, ["dz1", "dz2b"], Poly.variable("r1")) + Form.monomial(f, ["dz2"], 3)
        assert not m.is_zero()
        src = tmp_path / "m.json"
        src.write_text(json.dumps(m.to_json()))
        mid = tmp_path / "mid.json"
        assert runner.invoke(
            main, ["fm", "--input", str(src), "--direction", "fwd", "--n", "2", "--out", str(mid)]
        ).exit_code == 0
        back = tmp_path / "back.json"
        assert runner.invoke(
            main, ["fm", "--input", str(mid), "--direction", "back", "--n", "2", "--out", str(back)]
        ).exit_code == 0
        got = Form.from_json(json.loads(back.read_text()), pair.holo_frame)
        assert got == -m

    def test_fiber_dependent_input_rejected(self, runner, tmp_path):
        pair = SemiflatPair(2)
        bad = Form.scalar(pair.holo_frame, 1).to_json()
        bad["terms"] = [
            {
                "gens": [],
                "coeff": {"vars": ["th1"], "terms": [{"exp": [1], "re": [1, 1], "im": [0, 1]}]},
            }
        ]
        src = tmp_path / "bad.json"
        src.write_text(json.dumps(bad))
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", "2"])
        assert res.exit_code != 0
        assert "non-base" in res.output

    @pytest.mark.parametrize("case, cause", [
        pytest.param("zero-denominator", "zero denominator", id="zero-denominator"),
        pytest.param("missing-coeff", "missing key 'coeff'", id="missing-coeff"),
        pytest.param("top-level-list", "expected a JSON object", id="top-level-list"),
        pytest.param("invalid-json", "invalid JSON", id="invalid-json"),
    ])
    def test_malformed_input_usage_error(self, runner, tmp_path, case, cause):
        # each case once gave a traceback (ZeroDivisionError, KeyError,
        # AttributeError, JSONDecodeError)
        doc = Form.gen(SemiflatPair(2).holo_frame, "dz1").to_json()
        if case == "zero-denominator":
            doc["terms"][0]["coeff"]["terms"][0]["re"] = [1, 0]
        elif case == "missing-coeff":
            del doc["terms"][0]["coeff"]
        text = {"top-level-list": json.dumps([doc]), "invalid-json": '{"frame": ['}.get(case, json.dumps(doc))
        src = tmp_path / f"{case}.json"
        src.write_text(text)
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", "2"])
        assert res.exit_code == 2, res.output
        assert f"{case}.json" in res.output
        assert cause in res.output

    def test_unknown_generator_label_usage_error(self, runner, tmp_path):
        # once read "missing key 'dz9'"
        doc = Form.gen(SemiflatPair(2).holo_frame, "dz1").to_json()
        doc["terms"][0]["gens"] = ["dz9"]
        src = tmp_path / "label.json"
        src.write_text(json.dumps(doc))
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", "2"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "unknown generator 'dz9'" in res.output
        assert "['dz1', 'dz2', 'dz1b', 'dz2b']" in res.output
        assert "missing key" not in res.output

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_rank_usage_error(self, runner, tmp_path, n):
        # once a ValueError traceback from SemiflatPair
        src = tmp_path / "one.json"
        src.write_text(json.dumps(Form.scalar(SemiflatPair(1).holo_frame, 1).to_json()))
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", n])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "--n" in res.output

    def test_rank_past_the_cap_rejected_before_any_pair_is_built(self, runner, tmp_path, monkeypatch):
        # the exponentiated curvature has 2^n terms: --n 30 could not finish
        src = tmp_path / "one.json"
        src.write_text(json.dumps(Form.scalar(SemiflatPair(1).holo_frame, 1).to_json()))
        built = []
        monkeypatch.setattr(cli, "SemiflatPair", lambda n: built.append(n))
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", "17"])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "--n" in res.output and "1<=x<=16" in res.output
        assert "Traceback" not in res.output
        assert built == []

    def test_wrong_side_rejected(self, runner, tmp_path):
        pair = SemiflatPair(2)
        src = tmp_path / "x.json"
        src.write_text(json.dumps(Form.gen(pair.frame_x, "dth1").to_json()))
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", "2"])
        assert res.exit_code != 0


class TestCohomologyCommand:
    def test_mirror_k3(self, runner):
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "mirror", "--p", "1", "--q", "1", "--degree", "1"],
        )
        assert res.exit_code == 0, res.output
        assert "bc=19 ty=19" in res.output

    def test_representative_bytes_pinned(self, runner, tmp_path):
        # the digest the benchmark records for cohomology-21-D1.json: a change
        # to any representative changes it
        out = tmp_path / "cohomology-21-D1.json"
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "mirror", "--p", "2", "--q", "1", "--degree", "1",
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "76b361c9592527e83188cd2809bbd614f4fca2774b62399cea242b2fd784ac30"
        )

    def test_degree_cap(self, runner):
        # the (1,1), (0,0) and (0,1) slots, 13 masks times C(3 + 99, 3)
        # monomials: refused before any monomial is listed
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "99"],
        )
        assert res.exit_code == 2
        assert "would build the columns of 2232100 basis elements" in res.output
        assert "past the bound 131072" in res.output

    def test_k5_refused_by_its_basis_size(self, runner, monkeypatch):
        # K = 5 at D = 0: the (5,5) query reads the columns of more basis
        # elements than the bound (the (1,1) one is admitted), and is refused
        # before it builds one
        for columns in (cohmod.PrimitiveColumns, cohmod.RowsOfD, cohmod.ProductColumns):
            monkeypatch.setattr(columns, "__missing__", lambda self, idx: pytest.fail("a column was built"))
        res = runner.invoke(
            main,
            ["cohomology", "--K", "5", "--which", "mirror", "--p", "5", "--q", "5", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "would build the columns of 340704 basis elements" in res.output
        assert "past the bound 131072" in res.output
        assert "Traceback" not in res.output

    def test_report_document_built_only_when_written(self, runner, tmp_path, monkeypatch):
        # without --out no representative is serialized, and stdout is the
        # same; with it the report bytes are the pinned ones
        calls = []
        to_json = cohmod.CohomologyReport.to_json
        monkeypatch.setattr(cohmod.CohomologyReport, "to_json", lambda r: calls.append(r) or to_json(r))
        argv = ["cohomology", "--K", "3", "--which", "mirror", "--p", "2", "--q", "1", "--degree", "1"]
        bare = runner.invoke(main, argv)
        assert bare.exit_code == 0, bare.output
        assert calls == []
        out = tmp_path / "cohomology-21-D1.json"
        written = runner.invoke(main, argv + ["--out", str(out)])
        assert written.exit_code == 0, written.output
        assert len(calls) == 2
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "76b361c9592527e83188cd2809bbd614f4fca2774b62399cea242b2fd784ac30"
        )
        untimed = [re.sub(r"[0-9.]+s\)$", "s)", line) for line in bare.output.splitlines()]
        assert untimed == [re.sub(r"[0-9.]+s\)$", "s)", line) for line in written.output.splitlines()]

    def test_degree_past_the_old_cap_admitted(self, runner):
        # 2^6 masks times C(8, 3) monomials: inside the basis bound
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "mirror", "--p", "2", "--q", "2", "--degree", "5"],
        )
        assert res.exit_code == 0, res.output

    def test_side_option_removed(self, runner, tmp_path):
        # --side only validated or mislabelled; the side follows from --which
        res = runner.invoke(
            main,
            ["cohomology", "--K", "2", "--side", "x", "--which", "mirror", "--p", "1", "--q", "1",
             "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "--side" in res.output
        out = tmp_path / "bc.json"
        res = runner.invoke(
            main,
            ["cohomology", "--K", "2", "--which", "bc", "--p", "1", "--q", "1", "--degree", "0",
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["config"]["side"] == "xcheck"

    def test_negative_degree_usage_error(self, runner):
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "-1"],
        )
        assert res.exit_code == 2
        assert "--degree" in res.output

    @pytest.mark.parametrize("degree", ["32768", "40000"])
    def test_degree_past_the_monomial_bound_usage_error(self, runner, monkeypatch, degree):
        # a K = 2 query reads few slots, so its size admitted these degrees,
        # and listing the monomials once ended in a ValueError traceback;
        # they are refused before the pair is built
        from syzkit import nilmanifold

        monkeypatch.setattr(nilmanifold, "semiflat_pair", lambda k: pytest.fail("the pair was built"))
        res = runner.invoke(
            main,
            ["cohomology", "--K", "2", "--which", "bc", "--p", "0", "--q", "0", "--degree", degree],
        )
        assert res.exit_code == 2, res.output
        assert "0<=x<=32767" in res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("p, q", [(9, 9), (4, 0), (1, -1)])
    def test_bidegree_out_of_range_usage_error(self, runner, p, q):
        # K=3 has n=3: (9, 9) once reported PASS with dim 0
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", str(p), "--q", str(q), "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "outside 0..3" in res.output

    def test_k1_usage_error(self, runner):
        res = runner.invoke(
            main,
            ["cohomology", "--K", "1", "--which", "bc", "--p", "0", "--q", "0", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "2<=x<=5" in res.output
        assert "Traceback" not in res.output

    def test_k_above_cap_usage_error(self, runner):
        res = runner.invoke(
            main,
            ["cohomology", "--K", "6", "--which", "bc", "--p", "1", "--q", "1", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "2<=x<=5" in res.output

    def test_builds_no_nilmanifold(self, runner, monkeypatch):
        # the flat pair needs only the family's labels, not its frames
        from syzkit import nilmanifold

        def no_build(k):
            raise AssertionError("cohomology built the nilmanifold")

        monkeypatch.setattr(nilmanifold, "build", no_build)
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "mirror", "--p", "1", "--q", "1", "--degree", "0"],
        )
        assert res.exit_code == 0, res.output
        assert "bc=9 ty=9" in res.output

    def test_passing_run_prints_constant_lines(self, runner):
        # 59 passing checks: they stay in the report, stdout has the
        # dimensions and the status line
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "mirror", "--p", "1", "--q", "1", "--degree", "2"],
        )
        assert res.exit_code == 0, res.output
        lines = res.output.splitlines()
        assert len(lines) == 2
        assert lines[0] == "dims: bc=28 ty=28"
        assert re.fullmatch(r"cohomology: ok \(59 checks: 59 pass; [0-9.]+s\)", lines[1])


class TestReportConfig:
    """The exact `config` object of each command's report: one per command,
    built from its own arguments."""

    def write(self, runner, tmp_path, argv):
        out = tmp_path / "report.json"
        res = runner.invoke(main, argv + ["--out", str(out)])
        assert res.exit_code == 0, res.output
        return json.loads(out.read_text())["config"]

    def test_nil(self, runner, tmp_path):
        res = runner.invoke(main, ["nil", "--K", "2", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert json.loads((tmp_path / "nil-K2-report.json").read_text())["config"] == {"K": 2, "n": 1}

    @pytest.mark.parametrize("system", ["iib", "iia"])
    def test_verify(self, runner, tmp_path, system):
        res = runner.invoke(main, ["nil", "--K", "3", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        argv = ["verify", "--system", system, "--input", str(tmp_path / f"{system}-K3.json")]
        assert self.write(runner, tmp_path, argv) == {"system": system, "n": 3}

    @pytest.mark.parametrize("which, side", [("bc", "xcheck"), ("ty", "x"), ("mirror", "both")])
    def test_cohomology(self, runner, tmp_path, which, side):
        argv = ["cohomology", "--K", "2", "--which", which, "--p", "1", "--q", "0", "--degree", "0"]
        assert self.write(runner, tmp_path, argv) == {
            "K": 2, "side": side, "which": which, "p": 1, "q": 0, "D": 0,
        }

    def test_proptest(self, runner, tmp_path):
        argv = ["proptest", "--suite", "ring-axioms", "--trials", "3", "--seed", "7"]
        assert self.write(runner, tmp_path, argv) == {"suite": "ring-axioms", "trials": 3, "seed": 7}


class TestEmit:
    def test_elapsed_time_survives_a_backward_clock_step(self, runner, monkeypatch):
        # the system clock steps back an hour at every read; an elapsed time
        # read on it printed about -3600 s
        clock = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(time, "time", lambda: float(next(clock)))
        res = runner.invoke(main, ["nil", "--K", "2"])
        assert res.exit_code == 0, res.output
        assert re.fullmatch(r"nil: ok \(26 checks: 26 pass; [0-9]+\.[0-9]{2}s\)", res.output.splitlines()[-1])

    def test_non_passing_checks_capped(self, capsys):
        rep = CheckReport()
        for k in range(cli.MAX_SHOWN + 5):
            rep.add(f"bad[{k}]", False, k)
        rep.add("good", True)
        rep.add_status("open", UNDETERMINED)
        with pytest.raises(SystemExit) as err:
            cli._emit(rep, None, "many", {}, time.perf_counter())
        assert err.value.code == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == cli.MAX_SHOWN + 3
        assert lines[0] == "        FAIL  bad[0]  [0]"
        assert lines[cli.MAX_SHOWN - 1] == f"        FAIL  bad[{cli.MAX_SHOWN - 1}]  [{cli.MAX_SHOWN - 1}]"
        assert lines[cli.MAX_SHOWN] == "... and 6 more non-passing checks"
        assert re.fullmatch(
            rf"many: FAILED \({cli.MAX_SHOWN + 7} checks: {cli.MAX_SHOWN + 5} fail, 1 pass, "
            r"1 undetermined; [0-9.]+s\)",
            lines[-2],
        )
        assert lines[-1] == "first non-passing check: bad[0] (fail)"


class TestEmbeddedCalls:
    # click caches a wrapper per default stream, and for a StringIO that
    # wrapper is the stream itself, held as the value of a weak-keyed entry;
    # every echo names its file, so in-process calls release their captures
    @pytest.mark.parametrize("command", ["cohomology", "fm"])
    def test_redirected_output_is_released(self, tmp_path, command):
        if command == "cohomology":
            argv = ["cohomology", "--K", "2", "--which", "mirror", "--p", "1", "--q", "1"]
        else:
            src = tmp_path / "one.json"
            src.write_text(json.dumps(Form.scalar(SemiflatPair(1).holo_frame, 1).to_json()))
            argv = ["fm", "--input", str(src), "--direction", "fwd", "--n", "1"]
        refs = []
        for _ in range(3):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(argv, standalone_mode=False)
            assert f"{command}: ok" in buf.getvalue()
            refs.append(weakref.ref(buf))
            del buf
        gc.collect()
        assert [r for r in refs if r() is not None] == []


class TestProptestCommand:
    def test_suite_runs(self, runner):
        res = runner.invoke(main, ["proptest", "--suite", "ring-axioms", "--trials", "20", "--seed", "3"])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_trials_usage_error(self, runner, trials):
        # a zero-trial campaign once reported ok
        res = runner.invoke(main, ["proptest", "--suite", "wedge", "--trials", trials])
        assert res.exit_code == 2
        assert "--trials" in res.output
        assert "proptest: ok" not in res.output

    def test_reports_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            res = runner.invoke(
                main,
                ["proptest", "--suite", "wedge", "--trials", "15", "--seed", "11", "--out", str(path)],
            )
            assert res.exit_code == 0, res.output
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_report_config(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        runner.invoke(main, ["proptest", "--suite", "wedge", "--trials", "15", "--seed", "1", "--out", str(a)])
        runner.invoke(main, ["proptest", "--suite", "wedge", "--trials", "15", "--seed", "2", "--out", str(b)])
        assert json.loads(a.read_text())["config"]["seed"] == 1
        assert json.loads(b.read_text())["config"]["seed"] == 2


class TestPathErrors:
    """Unusable input and output paths are usage errors (exit 2, no
    traceback), found before any work: each once exited 1 with a traceback,
    `nil --out` on a file only after every check had run."""

    @staticmethod
    def no_work(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("build", "semiflat_pair"):
            monkeypatch.setattr(cli.nil, name, fail)
        monkeypatch.setattr(cli, "SemiflatPair", fail)
        monkeypatch.setattr(cli.SUStructure, "from_json", fail)
        monkeypatch.setitem(cli.SUITES, "wedge", fail)

    @staticmethod
    def assert_usage_error(res, *phrases):
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        for phrase in phrases:
            assert phrase in res.output

    @pytest.mark.parametrize("command", [
        ["verify", "--system", "iib"], ["fm", "--direction", "fwd", "--n", "2"],
    ], ids=["verify", "fm"])
    def test_input_directory(self, runner, tmp_path, monkeypatch, command):
        self.no_work(monkeypatch)
        res = runner.invoke(main, [*command, "--input", str(tmp_path)])
        self.assert_usage_error(res, "--input", "is a directory")

    @pytest.mark.parametrize("command", [
        ["verify", "--system", "iib"], ["fm", "--direction", "fwd", "--n", "2"],
    ], ids=["verify", "fm"])
    def test_input_not_utf8(self, runner, tmp_path, monkeypatch, command):
        self.no_work(monkeypatch)
        f = tmp_path / "latin1.json"
        f.write_bytes(b'{"schema": "caf\xe9"}')
        res = runner.invoke(main, [*command, "--input", str(f)])
        self.assert_usage_error(res, "latin1.json: not UTF-8 text")

    REPORTS = {
        "verify": ["verify", "--system", "iib", "--input", __file__],
        "cohomology": ["cohomology", "--K", "2", "--which", "bc", "--p", "0", "--q", "0"],
        "proptest": ["proptest", "--suite", "wedge", "--trials", "1"],
        "fm": ["fm", "--direction", "fwd", "--n", "2", "--input", __file__],
    }

    @pytest.mark.parametrize("command", sorted(REPORTS))
    def test_out_directory(self, runner, tmp_path, monkeypatch, command):
        self.no_work(monkeypatch)
        res = runner.invoke(main, [*self.REPORTS[command], "--out", str(tmp_path)])
        self.assert_usage_error(res, "--out", "is a directory")

    @pytest.mark.parametrize("command", sorted(REPORTS))
    def test_out_in_missing_directory(self, runner, tmp_path, monkeypatch, command):
        self.no_work(monkeypatch)
        out = tmp_path / "missing" / "report.json"
        res = runner.invoke(main, [*self.REPORTS[command], "--out", str(out)])
        self.assert_usage_error(res, "--out", "does not exist")
        assert not out.parent.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_nil_out_existing_file(self, runner, tmp_path, monkeypatch, below):
        self.no_work(monkeypatch)
        f = tmp_path / "taken"
        f.write_text("keep")
        res = runner.invoke(main, ["nil", "--K", "2", "--out", str(f / below)])
        self.assert_usage_error(res, "--out", f"{str(f)!r} is not a directory")
        assert f.read_text() == "keep"
