"""Byte-for-byte regression against committed CLI outputs.

Each file in ``tests/golden/`` is the JSON, CSV or pretty (``.txt``,
without ANSI styling) stdout of one CLI run on seeded inputs. A
refactor that claims "same outputs" must leave every file unchanged. To
regenerate them after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and review the diff.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path
from random import Random
from unittest import mock

import pytest

from smr_axioms.cli import main
from smr_axioms.csvio import emit_hospitals, emit_standard

from worlds import random_cohort, random_standard

GOLDEN = Path(__file__).parent / "golden"
COHORT_SEED = 2020
HOSPITALS = 12
STRATA = 5

CASES = {
    "compute_internal.json": ["compute", "--hospitals", "{hospitals}", "--scheme", "internal"],
    "compute_external.json": [
        "compute", "--hospitals", "{hospitals}", "--standard", "{standard}", "--scheme", "external",
    ],
    "audit_seed0.json": [
        "audit", "--seed", "0", "--trials", "10000", "--measure", "constant", "--measure", "actual-rate",
    ],
    **{
        f"scenario_{name.replace('-', '_')}.json": ["scenario", "--name", name, "--check-claims"]
        for name in (
            "casemix-ext", "scale-ext", "actual-ext", "expected-ext",
            "casemix-int", "scale-int", "actual-int",
        )
    },
    "scenario_actual_int_w11_0.6.json": [
        "scenario", "--name", "actual-int", "--override", "w11=0.6", "--check-claims",
    ],
    "scenario_actual_int_w11_1.0.json": [
        "scenario", "--name", "actual-int", "--override", "w11=1.0", "--check-claims",
    ],
    "audit_seed0_trials200.txt": ["audit", "--seed", "0", "--trials", "200", "--format", "pretty"],
    "audit_seed0_trials200.csv": ["audit", "--seed", "0", "--trials", "200", "--format", "csv"],
    "scenario_expected_ext.csv": ["scenario", "--name", "expected-ext", "--check-claims", "--format", "csv"],
    "scenario_expected_ext.txt": ["scenario", "--name", "expected-ext", "--check-claims", "--format", "pretty"],
}
for fmt, suffix in (("csv", "csv"), ("pretty", "txt")):
    for scheme in ("internal", "external"):
        CASES[f"compute_{scheme}.{suffix}"] = [*CASES[f"compute_{scheme}.json"], "--format", fmt]

#: The 13 valid (analysis, scheme) pairs of ``sensitivity`` and their options on the golden cohort.
SENSITIVITY_RUNS = {
    ("shift", "external"): ["--from-stratum", "S3", "--to-stratum", "S2", "--eta", "2"],
    ("shift", "internal"): ["--from-stratum", "S3", "--to-stratum", "S2", "--eta", "2"],
    ("scale", "external"): ["--lambda", "2"],
    ("scale", "internal"): ["--lambda", "2"],
    ("me-actual", "external"): ["--stratum", "S2"],
    ("me-actual", "internal"): ["--stratum", "S2"],
    ("me-expected", "external"): ["--stratum", "S2"],
    ("me-expected", "internal"): ["--stratum", "S2", "--dp", "0.01"],
    ("uniform-actual", "external"): ["--dp", "0.01"],
    ("uniform-actual", "internal"): ["--dp", "0.01"],
    ("uniform-expected", "external"): ["--dp", "0.01"],
    ("cross", "internal"): ["--other-hospital", "H3", "--stratum", "S2"],
    ("add-patients", "internal"): ["--stratum", "S2", "--eta", "5"],
}
for (analysis, scheme), options in SENSITIVITY_RUNS.items():
    for fmt, suffix in (("json", "json"), ("csv", "csv"), ("pretty", "txt")):
        standard = ["--standard", "{standard}"] if scheme == "external" else []
        CASES[f"sensitivity_{analysis.replace('-', '_')}_{scheme[:3]}.{suffix}"] = [
            "sensitivity", "--hospitals", "{hospitals}", *standard, "--scheme", scheme,
            "--analysis", analysis, "--hospital", "H1", *options, "--format", fmt,
        ]


def write_inputs(directory: Path) -> dict[str, str]:
    """Seeded cohort (12 hospitals x 5 strata) and standard, written as CSV."""
    rng = Random(COHORT_SEED)
    cohort, strata = random_cohort(rng, hospitals=HOSPITALS, strata_count=STRATA)
    standard = random_standard(rng, strata)
    hospitals_path = directory / "hospitals.csv"
    standard_path = directory / "standard.csv"
    hospitals_path.write_text(emit_hospitals(cohort), encoding="utf-8")
    standard_path.write_text(emit_standard(standard), encoding="utf-8")
    return {"hospitals": str(hospitals_path), "standard": str(standard_path)}


def run_case(name: str, paths: dict[str, str]) -> str:
    argv = [arg.format(**paths) for arg in CASES[name]]
    buffer = io.StringIO()
    with redirect_stdout(buffer), mock.patch.dict(os.environ, {"SMR_AXIOMS_NO_COLOR": "1"}):
        code = main(argv)
    assert code == 0, f"{name}: exit {code}"
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_case(name, write_inputs(tmp_path)) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_inputs(Path(scratch))
        for case in sorted(CASES):
            (GOLDEN / case).write_text(run_case(case, paths), encoding="utf-8")
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
