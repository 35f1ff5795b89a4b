"""Command-line behavior: formats, exit codes, determinism, round-trips."""

import json
from random import Random

import pytest

from smr_axioms.cli import main
from smr_axioms.csvio import emit_hospitals, emit_standard, ingest, load_hospitals
from smr_axioms.errors import ValidationError

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

    def test_override_changes_regime(self, capsys):
        code, payload = run_json(
            capsys,
            ["scenario", "--name", "actual-int", "--override", "w11=0.6",
             "--min", "0.4", "--max", "1.0", "--step", "0.05"],
        )
        assert code == 0
        h1 = payload["results"]["series"]["H1"]
        assert all(b > a for a, b in zip(h1, h1[1:]))

    def test_bad_override_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "--name", "actual-int", "--override", "w11"])
        assert exc.value.code == 2

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
