"""Standardized mortality ratios: computation, sensitivities, axiomatic audit.

The package has four layers:

* :mod:`smr_axioms.core` — domain types and the exact ratio computation,
  one :func:`~smr_axioms.core.smr` against benchmark rates that come from
  an external standard or, once per cohort, from the cohort itself;
* :mod:`smr_axioms.sensitivity` — closed-form effects of case-mix
  shifts, hospital rescaling and rate changes, each cross-checked
  against direct recomputation or finite differences;
* :mod:`smr_axioms.audit` — falsification harness testing any measure
  against five requirements (strict monotonicity, case-mix
  insensitivity, scale insensitivity, equivalence, dominance);
* :mod:`smr_axioms.scenarios` — built-in worked examples with parameter
  sweeps and qualitative claim checks.

CSV/JSON interchange lives in :mod:`smr_axioms.csvio` and
:mod:`smr_axioms.report`; the command-line front end in
:mod:`smr_axioms.cli`.
"""

from .core import (
    Cohort,
    DERIVED_TOL,
    EXACT_TOL,
    ExternalStandard,
    SmrResult,
    StratumCell,
    StratumTable,
    World,
    actual_rate,
    expected_rate,
    expected_rate_external,
    expected_rate_internal,
    internal_standard,
    smr,
    smr_all,
    smr_external,
    smr_internal,
    with_cell,
    with_rate,
)
from .sensitivity import (
    CaseMixShift,
    ScaleChange,
    SensitivityReport,
    classify_sign,
    concentrated_smr_external,
    delta_smr_scale_internal,
    dsmr_expected_internal,
    dsmr_uniform_actual_external,
    dsmr_uniform_actual_internal,
    dsmr_uniform_expected_external,
    me_actual_external,
    me_actual_internal,
    me_cross_hospital_internal,
    me_expected_external,
    omega_external,
    omega_internal,
    scale_hospital,
    scale_invariance_external,
    shift_case_mix,
    smr_internal_scale_limit,
    standard_shift_add_patients,
)
from .audit import (
    AXIOMS,
    AuditMatrix,
    AxiomVerdict,
    Measure,
    Witness,
    built_in_measures,
    matches_expected_matrix,
    replay,
    run_audit,
)
from .scenarios import (
    SCENARIO_NAMES,
    ClaimResult,
    ScenarioSpec,
    SweepSeries,
    build_scenario,
    check_claims,
    find_crossing,
    run_sweep,
)
from . import errors

__version__ = "0.1.0"
