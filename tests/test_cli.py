import contextlib
import gc
import hashlib
import io
import json
import sys
import weakref

import pytest
from click.testing import CliRunner

from syzkit import calculus
from syzkit.cli import main
from syzkit.coeffring import I, Poly
from syzkit.exterior import Form
from syzkit.fourier import SemiflatPair
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
        assert res.exit_code != 0
        assert "at least 2" in res.output

    def test_bad_k_cap_names_variable(self, runner, monkeypatch):
        monkeypatch.setenv("SYZKIT_MAX_K", "five")
        res = runner.invoke(main, ["nil", "--K", "3"])
        assert res.exit_code == 2
        assert "SYZKIT_MAX_K" in res.output

    def test_reports_byte_identical(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["nil", "--K", "3", "--out", str(a)]).exit_code == 0
        assert runner.invoke(main, ["nil", "--K", "3", "--out", str(b)]).exit_code == 0
        for name in ("nil-K3-report.json", "iib-K3.json", "iia-K3.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


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

    def test_fixture_missing_key_usage_error(self, runner, tmp_path):
        # once a KeyError traceback
        f = tmp_path / "nofr.json"
        f.write_text(json.dumps({"schema": "syzkit-fixture-v1"}))
        res = runner.invoke(main, ["verify", "--system", "iib", "--input", str(f)])
        assert res.exit_code == 2, res.output
        assert "nofr.json" in res.output
        assert "missing key 'frame'" in res.output


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
        pair = SemiflatPair(2)
        m = pair.holo_monomial([1], [2])
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
        assert got == m * pair.fm_roundtrip_sign()

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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_rank_usage_error(self, runner, tmp_path, n):
        # once a ValueError traceback from SemiflatPair
        src = tmp_path / "one.json"
        src.write_text(json.dumps(Form.scalar(SemiflatPair(1).holo_frame, 1).to_json()))
        res = runner.invoke(main, ["fm", "--input", str(src), "--direction", "fwd", "--n", n])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "--n" in res.output

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
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "99"],
        )
        assert res.exit_code != 0
        assert "cap" in res.output


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

    @pytest.mark.parametrize("p, q", [(9, 9), (4, 0), (1, -1)])
    def test_bidegree_out_of_range_usage_error(self, runner, p, q):
        # K=3 has n=3: (9, 9) once reported PASS with dim 0
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", str(p), "--q", str(q), "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "outside 0..3" in res.output

    def test_bad_degree_cap_names_variable(self, runner, monkeypatch):
        monkeypatch.setenv("SYZKIT_MAX_DEGREE", "abc")
        assert runner.invoke(main, ["--help"]).exit_code == 0
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "SYZKIT_MAX_DEGREE" in res.output

    def test_degree_cap_read_at_use(self, runner, monkeypatch):
        monkeypatch.setenv("SYZKIT_MAX_DEGREE", "0")
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "1"],
        )
        assert res.exit_code == 2
        assert "exceeds cap 0" in res.output

    def test_k1_usage_error(self, runner):
        res = runner.invoke(
            main,
            ["cohomology", "--K", "1", "--which", "bc", "--p", "0", "--q", "0", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "at least 2" in res.output

    def test_k_above_cap_usage_error(self, runner, monkeypatch):
        monkeypatch.setenv("SYZKIT_MAX_K", "2")
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "exceeds the configured cap 2" in res.output

    def test_bad_k_cap_names_variable(self, runner, monkeypatch):
        monkeypatch.setenv("SYZKIT_MAX_K", "five")
        res = runner.invoke(
            main,
            ["cohomology", "--K", "3", "--which", "bc", "--p", "1", "--q", "1", "--degree", "0"],
        )
        assert res.exit_code == 2
        assert "SYZKIT_MAX_K" in res.output

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
