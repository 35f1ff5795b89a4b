"""Byte-for-byte regression against committed CLI outputs.

Each file in ``tests/golden/`` is the JSON stdout of one CLI run on
seeded inputs. A refactor that claims "same outputs" must leave every
file unchanged. To regenerate them after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root
and review the diff.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

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
}


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
    with redirect_stdout(buffer):
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
