"""Pinned stderr, stdout and exit code of ``sensitivity`` usage errors.

Each case in ``sensitivity_usage.json`` is one CLI run on the golden
cohort of ``test_golden``: every required option of every (analysis,
scheme) run left out in turn, the wrong-scheme runs, a missing
``--standard`` or ``--hospital``, an unknown hospital and ``--help``.
To regenerate the pins after an intended change, run
``PYTHONPATH=src python tests/test_sensitivity_usage.py`` from the
repository root and review the diff.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from smr_axioms.cli import main

from test_golden import SENSITIVITY_RUNS, write_inputs

PINS = Path(__file__).parent / "sensitivity_usage.json"


def _argv(analysis: str, scheme: str, options: list[str], hospital: str = "H1") -> list[str]:
    standard = ["--standard", "{standard}"] if scheme == "external" else []
    return ["sensitivity", "--hospitals", "{hospitals}", *standard, "--scheme", scheme,
            "--analysis", analysis, "--hospital", hospital, *options]


def _without(argv: list[str], option: str) -> list[str]:
    i = argv.index(option)
    return argv[:i] + argv[i + 2:]


CASES: dict[str, list[str]] = {}
for (analysis, scheme), options in SENSITIVITY_RUNS.items():
    for option in options[::2]:
        name = f"{analysis}_{scheme[:3]}_no_{option.lstrip('-')}".replace("-", "_")
        CASES[name] = _argv(analysis, scheme, _without(options, option))
CASES.update({
    "cross_ext": _argv("cross", "external", SENSITIVITY_RUNS["cross", "internal"]),
    "add_patients_ext": _argv("add-patients", "external", SENSITIVITY_RUNS["add-patients", "internal"]),
    "uniform_expected_int": _argv("uniform-expected", "internal", SENSITIVITY_RUNS["uniform-expected", "external"]),
    "no_standard": _without(_argv("me-actual", "external", ["--stratum", "S2"]), "--standard"),
    "no_hospital": _without(_argv("me-actual", "internal", ["--stratum", "S2"]), "--hospital"),
    "unknown_hospital": _argv("me-actual", "internal", ["--stratum", "S2"], hospital="H99"),
    "help": ["sensitivity", "--help"],
})


def run_case(name: str, paths: dict[str, str]) -> dict:
    """Exit code, stdout and stderr of one case, at a fixed 80-column help width."""
    argv = [arg.format(**paths) for arg in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def test_every_case_is_pinned(pins):
    assert sorted(pins) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_usage_matches_pin(name, pins, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_case(name, write_inputs(tmp_path)) == pins[name]


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        paths = write_inputs(Path(scratch))
        results = {name: run_case(name, paths) for name in sorted(CASES)}
    PINS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n", encoding="utf-8")
