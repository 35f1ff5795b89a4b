"""What a fresh interpreter loads: the lazy package exports and per-command imports.

The golden tests call ``cli.main`` in process, where earlier tests have
already imported every layer. Here each run is a new ``python -m
smr_axioms`` process: it must print the golden bytes, and its verbose
import log (``python -v``) pins the ``smr_axioms`` modules it loaded.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smr_axioms

from test_golden import CASES, GOLDEN, write_inputs

SRC = Path(smr_axioms.__file__).resolve().parent.parent
FRONT_END = {"smr_axioms", "smr_axioms.errors", "smr_axioms.cli", "smr_axioms.core",
             "smr_axioms.csvio", "smr_axioms.report"}

#: One golden run per command -> the package modules that run may load.
LOADED = {
    "compute_internal.json": FRONT_END,
    "sensitivity_shift_int.json": FRONT_END | {"smr_axioms.sensitivity"},
    "scenario_casemix_ext.json": FRONT_END | {"smr_axioms.scenarios"},
    "audit_seed0.json": FRONT_END | {"smr_axioms.audit", "smr_axioms.scenarios",
                                     "smr_axioms.sensitivity"},
}

#: The public names of the package and the layer each comes from.
EXPORTS = {
    "core": """Cohort DERIVED_TOL EXACT_TOL ExternalStandard SmrResult StratumCell StratumTable
        World actual_rate expected_rate expected_rate_external expected_rate_internal
        internal_standard smr smr_all smr_external smr_internal with_cell with_rate""",
    "sensitivity": """CaseMixShift ScaleChange SensitivityReport classify_sign
        concentrated_smr_external delta_smr_scale_internal dsmr_expected_internal
        dsmr_uniform_actual_external dsmr_uniform_actual_internal dsmr_uniform_expected_external
        me_actual_external me_actual_internal me_cross_hospital_internal me_expected_external
        omega_external omega_internal scale_hospital scale_invariance_external shift_case_mix
        smr_internal_scale_limit standard_shift_add_patients""",
    "audit": """AXIOMS AuditMatrix AxiomVerdict Measure Witness built_in_measures
        matches_expected_matrix replay run_audit""",
    "scenarios": """SCENARIO_NAMES ClaimResult ScenarioSpec SweepSeries build_scenario
        check_claims find_crossing run_sweep""",
}


def fresh(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("name", sorted(LOADED))
def test_fresh_run_prints_golden_bytes_and_loads_only_its_layers(name, tmp_path):
    argv = [arg.format(**write_inputs(tmp_path)) for arg in CASES[name]]
    done = fresh(["-v", "-m", "smr_axioms", *argv], tmp_path)
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert done.stdout == (GOLDEN / name).read_bytes()
    loaded = set(re.findall(r"^import '(smr_axioms[\w.]*)'", done.stderr.decode(), re.MULTILINE))
    assert loaded == LOADED[name]


def test_bare_import_loads_errors_only_and_layers_on_first_use(tmp_path):
    code = ("import sys, smr_axioms\n"
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('smr_axioms'))\n"
            "print(loaded())\n"
            "smr_axioms.Cohort\n"
            "print(loaded())\n"
            "smr_axioms.audit.run_audit\n"
            "print(loaded())\n")
    done = fresh(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().splitlines() == [
        "['smr_axioms', 'smr_axioms.errors']",
        "['smr_axioms', 'smr_axioms.core', 'smr_axioms.errors']",
        "['smr_axioms', 'smr_axioms.audit', 'smr_axioms.core', 'smr_axioms.errors', "
        "'smr_axioms.scenarios', 'smr_axioms.sensitivity']",
    ]


def test_every_export_is_its_layers_object():
    expected = {name: layer for layer, names in EXPORTS.items() for name in names.split()}
    assert sorted(smr_axioms.__all__) == sorted(expected)
    for name, layer in expected.items():
        assert getattr(smr_axioms, name) is getattr(importlib.import_module(f"smr_axioms.{layer}"), name)
    for layer in EXPORTS:
        assert getattr(smr_axioms, layer) is importlib.import_module(f"smr_axioms.{layer}")
    assert smr_axioms.errors is importlib.import_module("smr_axioms.errors")
    assert smr_axioms.__version__ == "0.1.0"


def test_star_import_and_dir_list_the_exports():
    namespace: dict = {}
    exec("from smr_axioms import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(smr_axioms.__all__)
    assert set(smr_axioms.__all__) | set(EXPORTS) | {"errors", "__version__"} <= set(dir(smr_axioms))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'smr_axioms' has no attribute 'smr_everything'"):
        smr_axioms.smr_everything
    assert not hasattr(smr_axioms, "csvio_reader")
