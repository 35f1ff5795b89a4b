"""Command-line behavior: formats, exit codes, determinism, round-trips."""

import csv
import io
import json
from random import Random

import pytest

from smr_axioms import sensitivity
from smr_axioms.cli import main
from smr_axioms.core import EXACT_TOL
from smr_axioms.csvio import emit_hospitals, emit_standard, ingest, load_hospitals
from smr_axioms.errors import ParseError, ValidationError
from smr_axioms.report import cohort_payload, inputs_digest, standard_payload

from worlds import random_cohort, random_standard

TWO_STRATA_CSV = """hospital_id,stratum_id,patients,mortality_rate
H1,1,20,0.05
H1,2,40,0.15
"""

FLAT_STANDARD_CSV = """stratum_id,expected_rate
1,0.1
2,0.1
"""

TWO_HOSPITAL_CSV = """hospital_id,stratum_id,patients,mortality_rate
H1,1,40,0.1
H1,2,10,0.3
H2,1,25,0.1
H2,2,10,0.1
"""

COMMA_ID_CSV = """hospital_id,stratum_id,patients,mortality_rate
"H,1",1,10,0.2
"H,1",2,10,0.8
H2,1,10,0.1
H2,2,10,0.5
"""

DOMINANT_SHARE_CSV = """hospital_id,stratum_id,patients,mortality_rate
H1,1,80,0.5
H1,2,50,0.4
H2,1,20,0.1
H2,2,50,0.1
H3,1,0,
H3,2,40,0.3
"""


@pytest.fixture
def table2(tmp_path):
    hospitals = tmp_path / "hospitals.csv"
    hospitals.write_text(TWO_STRATA_CSV)
    standard = tmp_path / "standard.csv"
    standard.write_text(FLAT_STANDARD_CSV)
    return hospitals, standard


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCompute:
    def test_external_values(self, table2, capsys):
        hospitals, standard = table2
        code, payload = run_json(
            capsys,
            ["compute", "--hospitals", str(hospitals), "--standard", str(standard),
             "--scheme", "external"],
        )
        assert code == 0
        assert payload["schema_version"] == "1"
        row = payload["results"]["rows"][0]
        assert abs(row["smr"] - 7.0 / 6.0) <= 1e-12
        assert abs(row["actual_rate"] - 7.0 / 60.0) <= 1e-12

    def test_internal_values(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_HOSPITAL_CSV)
        code, payload = run_json(
            capsys, ["compute", "--hospitals", str(hospitals), "--scheme", "internal"]
        )
        assert code == 0
        rows = {r["hospital_id"]: r["smr"] for r in payload["results"]["rows"]}
        assert abs(rows["H1"] - 7.0 / 6.0) <= 1e-12
        assert abs(rows["H2"] - 3.5 / 4.5) <= 1e-12

    def test_single_hospital_internal_is_unity(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_STRATA_CSV)
        code, payload = run_json(
            capsys, ["compute", "--hospitals", str(hospitals), "--scheme", "internal"]
        )
        assert code == 0
        assert abs(payload["results"]["rows"][0]["smr"] - 1.0) <= 1e-12

    def test_csv_format(self, table2, capsys):
        hospitals, standard = table2
        code = main(
            ["compute", "--hospitals", str(hospitals), "--standard", str(standard),
             "--scheme", "external", "--format", "csv"],
        )
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "hospital_id,actual_rate,expected_rate,smr"
        assert row.startswith("H1,")

    def test_csv_quotes_an_id_holding_a_comma(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(COMMA_ID_CSV)
        code = main(["compute", "--hospitals", str(hospitals), "--scheme", "internal", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [4, 4, 4]
        assert [row[0] for row in rows] == ["hospital_id", "H,1", "H2"]
        assert out.splitlines()[1].startswith('"H,1",0.5,')

    def test_external_needs_standard(self, table2):
        hospitals, _ = table2
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--hospitals", str(hospitals), "--scheme", "external"])
        assert exc.value.code == 2

    def test_missing_standard_rate_is_data_error(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_STRATA_CSV)
        standard = tmp_path / "s.csv"
        standard.write_text("stratum_id,expected_rate\n1,0.1\n")
        code = main(
            ["compute", "--hospitals", str(hospitals), "--standard", str(standard),
             "--scheme", "external"],
        )
        assert code == 1
        assert "stratum" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme, rows",
        [("internal", "H1,1,1e308,0.2\nH2,1,1e308,0.1\n"), ("external", "H1,1,1e308,0.2\nH1,2,1e308,0.1\n")],
    )
    def test_patient_total_beyond_the_float_range_is_data_error(self, scheme, rows, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text("hospital_id,stratum_id,patients,mortality_rate\n" + rows)
        standard = tmp_path / "s.csv"
        standard.write_text(FLAT_STANDARD_CSV)
        argv = ["compute", "--hospitals", str(hospitals), "--scheme", scheme]
        code = main(argv + (["--standard", str(standard)] if scheme == "external" else []))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflow a float" in err and err.count("\n") == 1

    @pytest.mark.parametrize("scheme", ["internal", "external"])
    def test_scaled_count_beyond_the_float_range_is_data_error(self, scheme, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_HOSPITAL_CSV)
        standard = tmp_path / "s.csv"
        standard.write_text(FLAT_STANDARD_CSV)
        argv = ["sensitivity", "--hospitals", str(hospitals), "--scheme", scheme,
                "--analysis", "scale", "--hospital", "H1", "--lambda", "1e308"]
        assert main(argv + (["--standard", str(standard)] if scheme == "external" else [])) == 1
        assert capsys.readouterr().err == "error: patient count must be finite and >= 0, got inf\n"


class TestIngestValidation:
    def test_populated_row_without_rate(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("hospital_id,stratum_id,patients,mortality_rate\nH1,1,5,\n")
        code = main(["compute", "--hospitals", str(bad), "--scheme", "internal"])
        assert code == 1
        assert "row 2" in capsys.readouterr().err

    def test_duplicate_key(self, tmp_path):
        bad = tmp_path / "h.csv"
        bad.write_text(
            "hospital_id,stratum_id,patients,mortality_rate\nH1,1,5,0.1\nH1,1,3,0.2\n"
        )
        with pytest.raises(ValidationError):
            load_hospitals(bad)

    def test_out_of_range_rate(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("hospital_id,stratum_id,patients,mortality_rate\nH1,1,5,1.7\n")
        assert main(["compute", "--hospitals", str(bad), "--scheme", "internal"]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_bad_number_names_row_and_column(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("hospital_id,stratum_id,patients,mortality_rate\nH1,1,many,0.1\n")
        assert main(["compute", "--hospitals", str(bad), "--scheme", "internal"]) == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "patients" in err

    def test_wrong_header(self, tmp_path, capsys):
        bad = tmp_path / "h.csv"
        bad.write_text("a,b,c,d\nH1,1,5,0.1\n")
        assert main(["compute", "--hospitals", str(bad), "--scheme", "internal"]) == 1

    @pytest.mark.parametrize(
        "hospital_rows, standard_rows, row, error",
        [
            ("H1,1,5,0.1\nH1,2,inf,0.1\n", None, 3, ParseError),
            ("H1,1,5\n", None, 2, ParseError),
            ("H1,1,5,0.1\n", "1,0.1,0.2\n", 2, ParseError),
            ("H1,1,5,0.1\n,2,5,0.1\n", None, 3, ValidationError),
            ("H1,1,-5,0.1\n", None, 2, ValidationError),
            ("", None, 1, ValidationError),
            ("H1,1,5,0.1\n", "1,0.1\n,0.2\n", 3, ValidationError),
            ("H1,1,5,0.1\n", "1,0.1\n1,0.2\n", 3, ValidationError),
            ("H1,1,5,0.1\n", "1,1.5\n", 2, ValidationError),
        ],
        ids=["non-finite", "hospitals-field-count", "standard-field-count", "empty-id", "negative-patients",
             "no-rows", "empty-standard-stratum", "duplicate-standard-stratum", "standard-rate-above-one"],
    )
    def test_refusal_names_its_row(self, hospital_rows, standard_rows, row, error, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text("hospital_id,stratum_id,patients,mortality_rate\n" + hospital_rows)
        argv = ["compute", "--hospitals", str(hospitals), "--scheme", "internal"]
        standard = None
        if standard_rows is not None:
            standard = tmp_path / "s.csv"
            standard.write_text("stratum_id,expected_rate\n" + standard_rows)
            argv = ["compute", "--hospitals", str(hospitals), "--standard", str(standard), "--scheme", "external"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: row {row}" in captured.err
        with pytest.raises(error) as exc:
            ingest(hospitals, standard)
        assert exc.value.row == row


class TestSensitivityCommand:
    def test_scale_external_zero(self, table2, capsys):
        hospitals, standard = table2
        code, payload = run_json(
            capsys,
            ["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
             "--scheme", "external", "--analysis", "scale", "--hospital", "H1",
             "--lambda", "4"],
        )
        assert code == 0
        rep = payload["results"]["report"]
        assert rep["value"] == 0.0
        assert rep["sign"] == "zero"

    def test_me_actual_internal_paradox(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(DOMINANT_SHARE_CSV)
        code, payload = run_json(
            capsys,
            ["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
             "--analysis", "me-actual", "--hospital", "H1", "--stratum", "1"],
        )
        assert code == 0
        rep = payload["results"]["report"]
        assert rep["value"] < 0.0
        assert rep["condition"] == "SMR > n_k/n_hk"
        assert rep["details"]["threshold"] == 1.25

    def test_shift_eta_zero_identity(self, table2, capsys):
        hospitals, standard = table2
        code, payload = run_json(
            capsys,
            ["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
             "--scheme", "external", "--analysis", "shift", "--hospital", "H1",
             "--from-stratum", "1", "--to-stratum", "2", "--eta", "0"],
        )
        assert code == 0
        rep = payload["results"]["report"]
        assert rep["value"] == 0.0 and rep["sign"] == "zero"

    def test_internal_alpha_diagnostics(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(
            "hospital_id,stratum_id,patients,mortality_rate\n"
            "H1,1,50,0.1\nH1,2,0,0.3\nH2,1,25,0.1\nH2,2,10,0.1\n"
        )
        code, payload = run_json(
            capsys,
            ["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
             "--analysis", "shift", "--hospital", "H1", "--from-stratum", "1",
             "--to-stratum", "2", "--eta", "10"],
        )
        assert code == 0
        details = payload["results"]["report"]["details"]
        assert details["alpha_k"] == 0.5
        assert details["ptilde_k"] == 0.2

    def test_cross_requires_internal(self, table2):
        hospitals, standard = table2
        with pytest.raises(SystemExit) as exc:
            main(
                ["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
                 "--scheme", "external", "--analysis", "cross", "--hospital", "H1",
                 "--other-hospital", "H2", "--stratum", "1"],
            )
        assert exc.value.code == 2

    def test_missing_magnitude_is_usage_error(self, table2):
        hospitals, standard = table2
        with pytest.raises(SystemExit) as exc:
            main(
                ["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
                 "--scheme", "external", "--analysis", "shift", "--hospital", "H1",
                 "--from-stratum", "1", "--to-stratum", "2"],
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "scheme, options, message",
        [
            ("external", ["--analysis", "scale", "--lambda", "0"], "scale factor must be > 0"),
            ("external", ["--analysis", "shift", "--from-stratum", "1", "--to-stratum", "2", "--eta", "-1"],
             "eta must be >= 0"),
            ("external", ["--analysis", "shift", "--from-stratum", "1", "--to-stratum", "1", "--eta", "1"],
             "shift needs two distinct strata"),
            ("internal", ["--analysis", "me-actual", "--stratum", "NOPE"], "has no patients cohort-wide"),
            ("internal", ["--analysis", "cross", "--other-hospital", "H2", "--stratum", "NOPE"],
             "has no patients cohort-wide"),
            ("internal", ["--analysis", "add-patients", "--stratum", "NOPE", "--eta", "2"],
             "has no patients cohort-wide"),
        ],
        ids=["lambda-zero", "eta-negative", "same-strata", "me-actual-unknown-stratum",
             "cross-unknown-stratum", "add-patients-unknown-stratum"],
    )
    def test_refused_parameter_is_data_error(self, scheme, options, message, tmp_path, capsys):
        hospitals, standard = tmp_path / "h.csv", tmp_path / "s.csv"
        hospitals.write_text(TWO_HOSPITAL_CSV)
        standard.write_text(FLAT_STANDARD_CSV)
        code = main(["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
                     "--scheme", scheme, "--hospital", "H1", *options])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and captured.err.startswith("error: ") and message in captured.err

    def test_internal_shift_into_a_stratum_nobody_treats_is_data_error(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text("hospital_id,stratum_id,patients,mortality_rate\n"
                             "H1,1,10,0.2\nH1,2,0,0.3\nH2,1,10,0.1\n")
        code = main(["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
                     "--analysis", "shift", "--hospital", "H1", "--from-stratum", "1",
                     "--to-stratum", "2", "--eta", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: stratum '2' has no patients cohort-wide\n"

    def test_overdraw_is_data_error(self, table2, capsys):
        hospitals, standard = table2
        code = main(
            ["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
             "--scheme", "external", "--analysis", "shift", "--hospital", "H1",
             "--from-stratum", "1", "--to-stratum", "2", "--eta", "100"],
        )
        assert code == 1

    def test_tolerance_widens_zero_band(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(DOMINANT_SHARE_CSV)
        argv = ["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
                "--analysis", "me-actual", "--hospital", "H1", "--stratum", "1"]
        _, strict = run_json(capsys, argv)
        assert strict["results"]["report"]["sign"] == "decrease"
        _, loose = run_json(capsys, argv + ["--tolerance", "1.0"])
        assert loose["results"]["report"]["sign"] == "zero"

    def test_tolerance_is_in_inputs_digest(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_HOSPITAL_CSV)
        argv = ["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
                "--analysis", "me-actual", "--hospital", "H1", "--stratum", "1"]
        _, default = run_json(capsys, argv)
        _, strict = run_json(capsys, argv + ["--tolerance", "1e-12"])
        _, loose = run_json(capsys, argv + ["--tolerance", "10"])
        assert strict["results"]["report"]["sign"] == "increase"
        assert loose["results"]["report"]["sign"] == "zero"
        assert strict["inputs_digest"] != loose["inputs_digest"]
        assert default["inputs_digest"] == strict["inputs_digest"]

    def test_add_patients(self, tmp_path, capsys):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_HOSPITAL_CSV)
        code, payload = run_json(
            capsys,
            ["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
             "--analysis", "add-patients", "--hospital", "H1", "--stratum", "2",
             "--eta", "5"],
        )
        assert code == 0
        assert payload["results"]["report"]["value"] > 0.0


CLAMPED_CSV = """hospital_id,stratum_id,patients,mortality_rate
H1,1,10,0.2
H1,2,10,0.8
H2,1,10,0.1
H2,2,10,0.5
"""

CLAMPED_STANDARD_CSV = """stratum_id,expected_rate
1,0.15
2,0.6
"""

LARGE_SMR_CSV = """hospital_id,stratum_id,patients,mortality_rate
H1,1,37,0.31
H1,2,53,0.47
H2,1,20,0.2
H2,2,20,0.3
"""

LARGE_SMR_STANDARD_CSV = """stratum_id,expected_rate
1,0.00013
2,0.00007
"""


class TestCrossCheckAtRunTime:
    """A report whose closed form and cross-check disagree beyond their bound exits 1."""

    @staticmethod
    def _argv(tmp_path, hospitals_csv, standard_csv, *options):
        hospitals, standard = tmp_path / "h.csv", tmp_path / "s.csv"
        hospitals.write_text(hospitals_csv)
        standard.write_text(standard_csv)
        return ["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard),
                "--scheme", "external", "--hospital", "H1", *options]

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_clamped_uniform_actual_exits_1(self, tmp_path, capsys, fmt):
        argv = self._argv(tmp_path, CLAMPED_CSV, CLAMPED_STANDARD_CSV,
                          "--analysis", "uniform-actual", "--dp", "0.5", "--format", fmt)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        warning = "cross-check residual 0.4 exceeds its derivative bound 1.33e-05"
        if fmt == "json":
            payload = json.loads(out)
            assert payload["warnings"] == [warning]
            assert payload["results"]["report"]["value"] == pytest.approx(4.0 / 3.0)
            assert payload["results"]["report"]["fd_check"] == pytest.approx(0.9333333333333333)
            assert err == ""
        else:
            assert "1.3333333333333333" in out and "0.93333333333333335" in out
            assert err == f"sensitivity: {warning}\n"

    def test_large_ratio_shift_exits_0(self, tmp_path, capsys):
        argv = self._argv(tmp_path, LARGE_SMR_CSV, LARGE_SMR_STANDARD_CSV, "--analysis", "shift",
                          "--from-stratum", "2", "--to-stratum", "1", "--eta", "7")
        code, payload = run_json(capsys, argv)
        rep = payload["results"]["report"]
        assert code == 0 and payload["warnings"] == []
        assert rep["details"]["smr_before"] == pytest.approx(4270.0, rel=1e-3)
        assert abs(rep["value"] - rep["fd_check"]) > EXACT_TOL

    def test_wrong_add_patients_value_exits_1(self, tmp_path, capsys, monkeypatch):
        hospitals = tmp_path / "h.csv"
        hospitals.write_text(TWO_HOSPITAL_CSV)
        argv = ["sensitivity", "--hospitals", str(hospitals), "--scheme", "internal",
                "--analysis", "add-patients", "--hospital", "H1", "--stratum", "2", "--eta", "5"]
        code, payload = run_json(capsys, argv)
        rep = payload["results"]["report"]
        assert code == 0 and payload["warnings"] == []
        assert abs(rep["value"] - rep["fd_check"]) <= EXACT_TOL
        original = sensitivity.standard_shift_add_patients
        monkeypatch.setattr(sensitivity, "standard_shift_add_patients", lambda *a: original(*a) + 1e-3)
        code, payload = run_json(capsys, argv)
        assert code == 1
        assert payload["warnings"] == ["cross-check residual 0.001 exceeds its exact bound 1e-12"]


class TestAuditCommand:
    def test_expected_matrix_passes(self, capsys):
        code, payload = run_json(capsys, ["audit", "--expect-paper", "--trials", "60"])
        assert code == 0
        assert payload["results"]["expected_matrix_ok"] is True
        matrix = {row["measure"]: row for row in payload["results"]["matrix"]}
        statuses = [v["status"] for v in matrix["smr-external"]["verdicts"]]
        assert statuses == ["holds", "violated", "holds", "violated", "violated"]
        for row in payload["results"]["matrix"]:
            for verdict in row["verdicts"]:
                if verdict["status"] == "violated":
                    assert verdict["witness"] is not None
                else:
                    assert verdict["message"].startswith("no violation found in")

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["audit", "--seed", "7", "--trials", "40"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_constant_measure_row(self, capsys):
        code, payload = run_json(
            capsys, ["audit", "--trials", "40", "--measure", "constant"]
        )
        assert code == 0
        row = [r for r in payload["results"]["matrix"] if r["measure"] == "constant"][0]
        verdicts = {v["axiom"]: v["status"] for v in row["verdicts"]}
        assert verdicts["strict_monotonicity"] == "violated"
        assert verdicts["case_mix_insensitivity"] == "holds"

    def test_negative_trials_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--trials", "-5"])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err

    def test_zero_trials_runs_mandatory_probes_only(self, capsys):
        code, payload = run_json(capsys, ["audit", "--trials", "0"])
        assert code == 0
        assert all(v["trials"] >= 1 for row in payload["results"]["matrix"] for v in row["verdicts"])

    def test_expect_paper_is_in_inputs_digest(self, capsys):
        _, plain = run_json(capsys, ["audit", "--trials", "0"])
        _, expecting = run_json(capsys, ["audit", "--trials", "0", "--expect-paper"])
        inputs = {"seed": 0, "trials": 0, "measures": []}
        assert plain["inputs_digest"] == inputs_digest(inputs)
        assert expecting["inputs_digest"] == inputs_digest({**inputs, "expect_paper": True})

    def test_unexpected_matrix_exits_1(self, capsys, monkeypatch):
        from smr_axioms import audit

        monkeypatch.setattr(audit, "matches_expected_matrix", lambda matrix: False)
        code = main(["audit", "--trials", "0", "--expect-paper"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["results"]["expected_matrix_ok"] is False
        assert err == "audit: built-in matrix differs from the expected pattern\n"

    def test_csv_format(self, capsys):
        code = main(["audit", "--trials", "30", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "measure,axiom,status,trials"
        assert len(out.strip().splitlines()) == 11


class TestScenarioCommand:
    def test_csv_series_shape(self, capsys):
        code = main(["scenario", "--name", "scale-ext", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,H1"
        assert len(lines) == 42  # header + [1, 5] step 0.1
        first = float(lines[1].split(",")[1])
        assert abs(first - 7.0 / 6.0) <= 1e-12

    def test_check_claims_pass(self, capsys):
        code, payload = run_json(
            capsys, ["scenario", "--name", "expected-ext", "--check-claims"]
        )
        assert code == 0
        claims = {c["name"]: c for c in payload["results"]["claims"]}
        assert claims["crossing-at-0.14"]["passed"] is True

    def test_failed_claim_exits_1(self, capsys):
        code = main(["scenario", "--name", "expected-ext", "--check-claims", "--min", "0.2", "--max", "0.3",
                     "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("p1e,H1,H2\n")
        assert captured.err == "claim crossing-at-0.14: FAILED\n"

    def test_override_changes_regime(self, capsys):
        code, payload = run_json(
            capsys,
            ["scenario", "--name", "actual-int", "--override", "w11=0.6",
             "--min", "0.4", "--max", "1.0", "--step", "0.05"],
        )
        assert code == 0
        h1 = payload["results"]["series"]["H1"]
        assert all(b > a for a, b in zip(h1, h1[1:]))

    @pytest.mark.parametrize(
        "name, override",
        [("actual-int", "W11=0.6"), ("casemix-ext", "w11=0.5")],
        ids=["misspelt-key", "key-of-another-scenario"],
    )
    def test_override_the_scenario_does_not_take(self, name, override, capsys):
        code = main(["scenario", "--name", name, "--override", override, "--check-claims"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"takes no override {override.split('=')[0]!r}" in captured.err

    def test_bad_override_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "actual-int", "--override", "w11"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--step", "0"], "--step must be > 0"),
            (["--min", "3", "--max", "2"], "--max must be >= --min"),
            (["--override", "w11=abc"], "--override value must be numeric, got 'w11=abc'"),
        ],
        ids=["step-zero", "max-below-min", "override-not-numeric"],
    )
    def test_refused_grid_or_override_is_usage_error(self, options, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "actual-int", *options])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_scenario_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "imaginary"])
        assert exc.value.code == 2

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        argv = ["scenario", "--name", "scale-ext", "--format", "csv"]
        main(argv)
        stdout = capsys.readouterr().out
        target = tmp_path / "series.csv"
        main(argv + ["--out", str(target)])
        assert target.read_text() == stdout


class TestNonFiniteOptions:
    """``nan`` and ``inf`` in a float option are usage errors naming the option."""

    @pytest.mark.parametrize(
        "option, value, argv",
        [
            ("--min", "nan", ["scenario", "--name", "scale-ext"]),
            ("--max", "inf", ["scenario", "--name", "scale-ext"]),
            ("--step", "inf", ["scenario", "--name", "scale-ext"]),
            ("--eta", "inf", ["sensitivity", "--scheme", "internal", "--analysis", "shift",
                              "--from-stratum", "1", "--to-stratum", "2"]),
            ("--lambda", "inf", ["sensitivity", "--scheme", "internal", "--analysis", "scale"]),
            ("--dp", "nan", ["sensitivity", "--scheme", "external", "--analysis", "uniform-actual"]),
            ("--dp", "inf", ["sensitivity", "--scheme", "external", "--analysis", "uniform-actual"]),
            ("--tolerance", "nan", ["sensitivity", "--scheme", "internal", "--analysis", "me-actual",
                                    "--stratum", "1"]),
        ],
        ids=["min-nan", "max-inf", "step-inf", "eta-inf", "lambda-inf", "dp-nan", "dp-inf",
             "tolerance-nan"],
    )
    def test_non_finite_value_is_usage_error(self, option, value, argv, table2, capsys):
        hospitals, standard = table2
        if argv[0] == "sensitivity":
            argv = argv + ["--hospitals", str(hospitals), "--standard", str(standard), "--hospital", "H1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value])
        assert exc.value.code == 2
        assert f"argument {option}: must be a finite number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, message",
        [("-1", "must be >= 0, got -1.0"), ("-1e-300", "must be >= 0, got -1e-300"),
         ("-inf", "must be a finite number, got '-inf'")],
    )
    def test_negative_tolerance_is_usage_error(self, value, message, table2, capsys):
        hospitals, standard = table2
        with pytest.raises(SystemExit) as exc:
            main(["sensitivity", "--hospitals", str(hospitals), "--standard", str(standard), "--scheme", "external",
                  "--analysis", "uniform-actual", "--hospital", "H1", "--dp", "0", f"--tolerance={value}"])
        assert exc.value.code == 2
        assert f"argument --tolerance: {message}" in capsys.readouterr().err

    def test_unparsable_value_keeps_its_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "scale-ext", "--min", "abc"])
        assert exc.value.code == 2
        assert "argument --min: invalid float value: 'abc'" in capsys.readouterr().err


class TestPrettyMode:
    def test_color_by_default(self, table2, capsys, monkeypatch):
        monkeypatch.delenv("SMR_AXIOMS_NO_COLOR", raising=False)
        hospitals, standard = table2
        main(["compute", "--hospitals", str(hospitals), "--standard", str(standard),
              "--scheme", "external", "--format", "pretty"])
        assert "\x1b[" in capsys.readouterr().out

    def test_no_color_env(self, table2, capsys, monkeypatch):
        monkeypatch.setenv("SMR_AXIOMS_NO_COLOR", "1")
        hospitals, standard = table2
        main(["compute", "--hospitals", str(hospitals), "--standard", str(standard),
              "--scheme", "external", "--format", "pretty"])
        out = capsys.readouterr().out
        assert "\x1b[" not in out
        assert "1.17" in out


class TestRoundTrip:
    def test_emit_ingest_identity(self, tmp_path):
        rng = Random(2024)
        for i in range(25):
            cohort, strata = random_cohort(rng)
            path = tmp_path / f"cohort_{i}.csv"
            path.write_text(emit_hospitals(cohort), encoding="utf-8")
            loaded, _ = ingest(path)
            assert loaded == cohort
            standard = random_standard(rng, strata)
            spath = tmp_path / f"standard_{i}.csv"
            spath.write_text(emit_standard(standard), encoding="utf-8")
            _, loaded_std = ingest(path, spath)
            assert loaded_std == standard

    def test_round_trip_preserves_empty_rates(self, tmp_path):
        from smr_axioms import Cohort

        cohort = Cohort.build({"H": {"1": (5.0, 0.25), "void": (0.0, None)}})
        path = tmp_path / "c.csv"
        path.write_text(emit_hospitals(cohort), encoding="utf-8")
        loaded, _ = ingest(path)
        assert loaded == cohort


class TestOptionScope:
    """``--seed`` belongs to ``audit`` and ``--tolerance`` to ``sensitivity`` only."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--hospitals", "h.csv", "--scheme", "internal", "--seed", "3"],
            ["compute", "--hospitals", "h.csv", "--scheme", "internal", "--tolerance", "1"],
            ["sensitivity", "--hospitals", "h.csv", "--scheme", "internal", "--analysis", "me-actual",
             "--hospital", "H1", "--stratum", "1", "--seed", "3"],
            ["audit", "--trials", "0", "--tolerance", "1"],
            ["scenario", "--name", "expected-ext", "--seed", "3"],
            ["scenario", "--name", "expected-ext", "--tolerance", "1"],
        ],
        ids=["compute-seed", "compute-tolerance", "sensitivity-seed", "audit-tolerance",
             "scenario-seed", "scenario-tolerance"],
    )
    def test_option_outside_its_command_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


THREE_STRATA_CSV = """hospital_id,stratum_id,patients,mortality_rate
H1,1,40,0.1
H1,2,10,0.3
H1,3,15,0.2
H2,1,25,0.1
H2,2,10,0.1
H2,3,30,0.25
H3,1,5,0.2
H3,2,20,0.15
H3,3,10,0.3
"""
THREE_STANDARD_CSV = "stratum_id,expected_rate\n1,0.1\n2,0.2\n3,0.25\n"

#: Ids that need quoting or escaping, a fractional count and empty cells with and without a rate.
QUOTED_IDS_CSV = '''hospital_id,stratum_id,patients,mortality_rate
"H,1",1,10,0.2
"H,1",2,0,
"say ""q""",1,2.5,1
"say ""q""",2,0,0.3
Hôpital,1,40,0
Hôpital,2,1e-7,0.5
'''


def _sensitivity(*options, scheme="internal"):
    return ["sensitivity", "--hospitals", "{hospitals}", "--standard", "{standard}", "--scheme", scheme,
            "--hospital", "H1", *options]


_SHIFT = ("--analysis", "shift", "--from-stratum", "1", "--to-stratum", "2", "--eta", "1")

#: One base run per command; the digest must not move with the input paths or ``--out``.
_DIGEST_BASES = {
    "compute": ["compute", "--hospitals", "{hospitals}", "--standard", "{standard}", "--scheme", "external"],
    "sensitivity": _sensitivity("--analysis", "me-actual", "--stratum", "1", scheme="external"),
    "audit": ["audit", "--seed", "0", "--trials", "3"],
    "scenario": ["scenario", "--name", "actual-int"],
}

#: One (base, changed) pair per result-affecting option of each command.
_DIGEST_CHANGES = {
    "compute-hospitals": (_DIGEST_BASES["compute"], ["compute", "--hospitals", "{other_hospitals}",
                                                     "--standard", "{standard}", "--scheme", "external"]),
    "compute-standard": (_DIGEST_BASES["compute"], ["compute", "--hospitals", "{hospitals}",
                                                    "--standard", "{other_standard}", "--scheme", "external"]),
    "compute-scheme": (_DIGEST_BASES["compute"], ["compute", "--hospitals", "{hospitals}",
                                                  "--standard", "{standard}", "--scheme", "internal"]),
    "sensitivity-hospitals": (_sensitivity("--analysis", "me-actual", "--stratum", "1"),
                              [arg.replace("{hospitals}", "{other_hospitals}")
                               for arg in _sensitivity("--analysis", "me-actual", "--stratum", "1")]),
    "sensitivity-standard": (_DIGEST_BASES["sensitivity"],
                             [arg.replace("{standard}", "{other_standard}") for arg in _DIGEST_BASES["sensitivity"]]),
    "sensitivity-scheme": (_sensitivity("--analysis", "me-actual", "--stratum", "1"), _DIGEST_BASES["sensitivity"]),
    "sensitivity-analysis": (_DIGEST_BASES["sensitivity"],
                             _sensitivity("--analysis", "me-expected", "--stratum", "1", scheme="external")),
    "sensitivity-hospital": (_sensitivity(*_SHIFT),
                             [("H2" if arg == "H1" else arg) for arg in _sensitivity(*_SHIFT)]),
    "sensitivity-stratum": (_sensitivity("--analysis", "me-actual", "--stratum", "1"),
                            _sensitivity("--analysis", "me-actual", "--stratum", "2")),
    "sensitivity-from-stratum": (_sensitivity(*_SHIFT),
                                 _sensitivity("--analysis", "shift", "--from-stratum", "3",
                                              "--to-stratum", "2", "--eta", "1")),
    "sensitivity-to-stratum": (_sensitivity(*_SHIFT),
                               _sensitivity("--analysis", "shift", "--from-stratum", "1",
                                            "--to-stratum", "3", "--eta", "1")),
    "sensitivity-eta": (_sensitivity(*_SHIFT), _sensitivity(*_SHIFT[:-1], "2")),
    "sensitivity-other-hospital": (
        _sensitivity("--analysis", "cross", "--stratum", "1", "--other-hospital", "H2"),
        _sensitivity("--analysis", "cross", "--stratum", "1", "--other-hospital", "H3"),
    ),
    "sensitivity-lambda": (_sensitivity("--analysis", "scale", "--lambda", "2"),
                           _sensitivity("--analysis", "scale", "--lambda", "3")),
    "sensitivity-dp": (_sensitivity("--analysis", "uniform-actual", "--dp", "0.01"),
                       _sensitivity("--analysis", "uniform-actual", "--dp", "0.02")),
    "sensitivity-tolerance": (_DIGEST_BASES["sensitivity"], [*_DIGEST_BASES["sensitivity"], "--tolerance", "0.5"]),
    "audit-seed": (_DIGEST_BASES["audit"], ["audit", "--seed", "1", "--trials", "3"]),
    "audit-trials": (_DIGEST_BASES["audit"], ["audit", "--seed", "0", "--trials", "4"]),
    "audit-measure": (_DIGEST_BASES["audit"], [*_DIGEST_BASES["audit"], "--measure", "constant"]),
    "audit-expect-paper": (_DIGEST_BASES["audit"], [*_DIGEST_BASES["audit"], "--expect-paper"]),
    "scenario-name": (_DIGEST_BASES["scenario"], ["scenario", "--name", "actual-ext"]),
    "scenario-override": (_DIGEST_BASES["scenario"], [*_DIGEST_BASES["scenario"], "--override", "w11=0.6"]),
    "scenario-min": (_DIGEST_BASES["scenario"], [*_DIGEST_BASES["scenario"], "--min", "0.5"]),
    "scenario-max": (_DIGEST_BASES["scenario"], [*_DIGEST_BASES["scenario"], "--max", "0.5"]),
    "scenario-step": (_DIGEST_BASES["scenario"], [*_DIGEST_BASES["scenario"], "--step", "0.25"]),
    "scenario-check-claims": (_DIGEST_BASES["scenario"], [*_DIGEST_BASES["scenario"], "--check-claims"]),
}


class TestInputsDigest:
    """``inputs_digest`` moves with every option that can change a result, and with nothing else."""

    @staticmethod
    def _write_inputs(directory):
        directory.mkdir(parents=True)
        files = {
            "hospitals": THREE_STRATA_CSV,
            "standard": THREE_STANDARD_CSV,
            "other_hospitals": THREE_STRATA_CSV.replace("H3,3,10,0.3", "H3,3,11,0.3"),
            "other_standard": THREE_STANDARD_CSV.replace("3,0.25", "3,0.26"),
        }
        for name, text in files.items():
            (directory / f"{name}.csv").write_text(text, encoding="utf-8")
        return {name: str(directory / f"{name}.csv") for name in files}

    @staticmethod
    def _digest(argv, paths, capsys, out=None):
        argv = [arg.format(**paths) for arg in argv] + ([] if out is None else ["--out", str(out)])
        assert main(argv) in (0, 1)
        text = capsys.readouterr().out if out is None else out.read_text(encoding="utf-8")
        return json.loads(text)["inputs_digest"]

    @pytest.mark.parametrize("command", sorted(_DIGEST_BASES))
    def test_paths_and_out_leave_the_digest(self, command, tmp_path, capsys):
        argv = _DIGEST_BASES[command]
        here = self._write_inputs(tmp_path / "here")
        there = self._write_inputs(tmp_path / "elsewhere" / "copy")
        digest = self._digest(argv, here, capsys)
        assert self._digest(argv, there, capsys) == digest
        assert self._digest(argv, here, capsys, out=tmp_path / "report.json") == digest

    @pytest.mark.parametrize("command", ["compute-external", "compute-internal", "sensitivity-external"])
    def test_digest_is_that_of_the_payload_form(self, command, tmp_path, capsys):
        # the commands digest the Cohort itself; the bytes are those of its cohort_payload dicts
        hospitals, standard = tmp_path / "h.csv", tmp_path / "s.csv"
        hospitals.write_text(QUOTED_IDS_CSV, encoding="utf-8")
        standard.write_text("stratum_id,expected_rate\n1,0.1\n2,0.25\n", encoding="utf-8")
        name, scheme = command.split("-")
        argv = [name, "--hospitals", str(hospitals), "--standard", str(standard), "--scheme", scheme]
        cohort, rates = ingest(hospitals, standard)
        inputs = {"hospitals": cohort_payload(cohort), "standard": standard_payload(rates), "scheme": scheme}
        if name == "sensitivity":
            argv += ["--analysis", "me-actual", "--hospital", "H,1", "--stratum", "1"]
            inputs.update(analysis="me-actual", parameters={"hospital_id": "H,1", "stratum_id": "1"},
                          tolerance=sensitivity.SIGN_ZERO_TOL)
        _, payload = run_json(capsys, argv)
        assert payload["inputs_digest"] == inputs_digest(inputs)

    @pytest.mark.parametrize("case", sorted(_DIGEST_CHANGES))
    def test_each_result_option_moves_the_digest(self, case, tmp_path, capsys):
        base, changed = _DIGEST_CHANGES[case]
        paths = self._write_inputs(tmp_path / "inputs")
        assert self._digest(base, paths, capsys) != self._digest(changed, paths, capsys)
