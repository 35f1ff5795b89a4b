"""Closed-form sensitivities of the standardized mortality ratio.

Every operation returns a :class:`SensitivityReport` that pairs the
closed-form value with

* a sign classification (``increase`` / ``zero`` / ``decrease``),
* the textual condition of the trichotomy branch that produced the sign,
* an independent cross-check (``fd_check``): direct recomputation for
  the discrete-change operations, a central finite difference for the
  derivative-style operations,
* diagnostic details (shares, thresholds, endogenous benchmark weights).

Reports are built by one skeleton, ``_report``: it classifies the sign
of the value and fills the ``{}`` of the condition with the relation of
that sign (``>``, ``==``, ``<``, or reversed for conditions that put the
SMR below a threshold). ``dsmr_uniform_actual_internal`` and
``dsmr_expected_internal`` pass their conditions filled in, since those
follow the sign of ``1 - SMR * overlap`` and of ``dpe``, not of the
value. A run that does not touch the hospital (``eta == 0``,
``n_hk == 0``, ``n_ik == 0``) gets the exact-zero report of
``_unexposed``. Both schemes' case-mix shifts share one closed form;
only the benchmark-side rate difference differs.

Discrete changes (case-mix shifts, hospital scaling, added patients)
obey exact algebraic identities: the closed form and the recomputation
agree to rounding noise, ``|value - fd_check| <= 1e-12 * max(1, |SMR
before|, |SMR after|)``, which is 1e-12 absolute for ratios at most 1.
Derivative-style operations (marginal effects, differentials) agree
with central finite differences (absolute step ``FD_STEP``, one-sided
at the [0, 1] boundary) to ``1e-5 * max(1, |value|, |fd_check|)``.

:data:`ANALYSES` holds the command line's 13 analyses, one row per
(analysis, scheme): the report function, the parameters it needs and
its cross-check kind. :func:`cross_check` gives a report's residual and
bound; the ``sensitivity`` command exits 1 when the residual is larger.

Every cross-check recomputes the ratio through one harness, ``_ratio``,
against the benchmark that follows the perturbed ``core.World``: an
external analysis perturbs the one-hospital world of its table and
standard, so the check costs O(strata), and an internal one re-sums only
the totals that the swapped table changes. The internal benchmark is
endogenous, so each internal closed form is the external one times the
hospital's feedback through that benchmark. That endogeneity produces
the paradoxical branches: a marginal effect of a hospital's own
mortality rate can be negative once the ratio exceeds ``n_k / n_hk``,
and growing a hospital drags its ratio toward 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum
from typing import Any, Callable, Literal, Mapping

from . import core
from .core import (
    Cohort,
    ExternalStandard,
    HospitalId,
    Rates,
    StratumId,
    StratumTable,
    World,
    with_cell,
    with_rate,
)
from .errors import (
    EmptyHospitalError,
    InvalidParameterError,
    SameHospitalError,
    ShiftExceedsStratumError,
    NotConcentratedError,
    UndefinedRateError,
    UnknownStratumError,
    ZeroExpectedRateError,
)

Sign = Literal["increase", "zero", "decrease"]

#: |value| at or below this classifies as "zero".
SIGN_ZERO_TOL = 1e-12
#: Absolute step of the central finite differences.
FD_STEP = 1e-6
#: Relative agreement bound of a finite-difference cross-check.
FD_REL_TOL = 1e-5
#: Relation filled into a condition for each sign; ``_FLIPPED`` for conditions
#: where an increase puts the SMR below a threshold.
_REL = {"increase": ">", "zero": "==", "decrease": "<"}
_FLIPPED = {"increase": "<", "zero": "==", "decrease": ">"}


@dataclass(frozen=True)
class CaseMixShift:
    """Move ``eta`` patients from one stratum to another, size held fixed.

    ``eta == 0`` is accepted at the API boundary and treated as the
    identity; use :meth:`integral` to insist on whole patients.
    """

    from_stratum: StratumId
    to_stratum: StratumId
    eta: float

    def __post_init__(self) -> None:
        eta = float(self.eta)
        if not eta >= 0.0:
            raise InvalidParameterError(f"eta must be >= 0, got {self.eta!r}")
        if self.from_stratum == self.to_stratum:
            raise InvalidParameterError("shift needs two distinct strata")
        object.__setattr__(self, "eta", eta)

    @classmethod
    def integral(cls, from_stratum: StratumId, to_stratum: StratumId, eta: float) -> "CaseMixShift":
        """Strict mode: ``eta`` must be a whole number of patients."""
        if float(eta) != int(eta):
            raise InvalidParameterError(f"integral shift requires whole eta, got {eta!r}")
        return cls(from_stratum, to_stratum, eta)


@dataclass(frozen=True)
class ScaleChange:
    """Multiply every stratum count of a hospital by ``factor`` > 0."""

    factor: float

    def __post_init__(self) -> None:
        factor = float(self.factor)
        if not factor > 0.0:
            raise InvalidParameterError(f"scale factor must be > 0, got {self.factor!r}")
        object.__setattr__(self, "factor", factor)


@dataclass(frozen=True)
class SensitivityReport:
    """Closed-form value, sign classification and independent cross-check."""

    value: float
    sign: Sign
    condition: str
    fd_check: float
    details: Mapping[str, object] = field(default_factory=dict)
    flags: tuple[str, ...] = ()


def classify_sign(value: float, zero_tol: float = SIGN_ZERO_TOL) -> Sign:
    if abs(value) <= zero_tol:
        return "zero"
    return "increase" if value > 0.0 else "decrease"


def _report(
    value: float,
    zero_tol: float,
    condition: str,
    fd: float,
    details: Mapping[str, object],
    rel: Mapping[Sign, str] = _REL,
    flags: tuple[str, ...] = (),
) -> SensitivityReport:
    """Report ``value``, with the relation of its sign in the ``{}`` of ``condition``."""
    sign = classify_sign(value, zero_tol)
    return SensitivityReport(value, sign, condition.format(rel[sign]), fd, details, flags)


def _unexposed(condition: str, **details: object) -> SensitivityReport:
    """The exact-zero report of a change that does not reach the hospital's ratio."""
    return SensitivityReport(0.0, "zero", condition, 0.0, details)


def cross_check(report: SensitivityReport, kind: str) -> tuple[float, float]:
    """``(residual, bound)`` of the report's cross-check of ``kind``; see the module docstring."""
    residual = abs(report.value - report.fd_check)
    if kind == "derivative":
        return residual, FD_REL_TOL * max(abs(report.value), abs(report.fd_check), 1.0)
    ratios = [abs(report.details[key]) for key in ("smr", "smr_before", "smr_after") if key in report.details]
    return residual, core.EXACT_TOL * max([1.0, *ratios])


# ---------------------------------------------------------------------------
# table transformations
# ---------------------------------------------------------------------------


def shift_case_mix(table: StratumTable, shift: CaseMixShift) -> StratumTable:
    """Apply a case-mix shift; counts move, rates and total size stay put."""
    src = table.cell(shift.from_stratum)
    dst = table.cell(shift.to_stratum)
    if shift.eta > src.count:
        raise ShiftExceedsStratumError(
            f"cannot move {shift.eta} patients out of stratum {shift.from_stratum!r}"
            f" holding {src.count}"
        )
    if shift.eta == 0.0:
        return table
    if dst.rate is None:
        raise UndefinedRateError(
            f"stratum {shift.to_stratum!r} has no mortality rate to receive patients under"
        )
    out = with_cell(table, shift.from_stratum, src.count - shift.eta, src.rate)
    return with_cell(out, shift.to_stratum, dst.count + shift.eta, dst.rate)


def scale_hospital(table: StratumTable, change: ScaleChange) -> StratumTable:
    """Scale every count by the factor; rates and shares are untouched."""
    cells = {sid: core.StratumCell(c.count * change.factor, c.rate) for sid, c in table.cells.items()}
    return StratumTable(table.hospital, cells)


def _shift_all_rates(table: StratumTable, dp: float) -> StratumTable:
    """Add ``dp`` to every defined rate, clamped to [0, 1]."""
    cells = {
        sid: core.StratumCell(c.count, c.rate if c.rate is None else min(1.0, max(0.0, c.rate + dp)))
        for sid, c in table.cells.items()
    }
    return StratumTable(table.hospital, cells)


def _central_slope(f: Callable[[float], float], x: float, step: float = FD_STEP) -> float:
    """Derivative in a rate argument; one-sided secant at the [0, 1] boundary."""
    hi = min(x + step, 1.0)
    lo = max(x - step, 0.0)
    if hi == lo:
        return 0.0
    return (f(hi) - f(lo)) / (hi - lo)


def _offset_slope(f: Callable[[float], float], step: float = FD_STEP) -> float:
    """Derivative in an unconstrained offset argument around zero."""
    return (f(step) - f(-step)) / (2.0 * step)


def _ratio(
    world: World, hospital: HospitalId, table: StratumTable | None = None, rates: Rates | None = None
) -> float:
    """``hospital``'s SMR with ``table`` swapped in, against ``rates`` or else the benchmark that follows."""
    world = world if table is None else world.with_table(table)
    return core.smr(world.cohort.table(hospital), world.rates() if rates is None else rates, world.scheme).smr


def _populated(cohort: Cohort, stratum: StratumId) -> float:
    """Cohort-wide patients of ``stratum``, refused when there are none."""
    n_k = cohort.stratum_count(stratum)
    if n_k <= 0.0:
        raise UnknownStratumError(f"stratum {stratum!r} has no patients cohort-wide")
    return n_k


def _exposure(table: StratumTable, before: core.SmrResult, stratum: StratumId) -> tuple[float, float, float]:
    """``share = n_hk / n_h`` and the effects, against a fixed benchmark, of p_hk and of p_ek on the SMR."""
    share = table.count(stratum) / table.total_count
    return share, share / before.expected_rate, -before.smr * share / before.expected_rate


def _shift_report(
    table: StratumTable,
    shift: CaseMixShift,
    before: core.SmrResult,
    after: float,
    benchmark: str,
    benchmark_diff: float,
    zero_tol: float,
    details: Mapping[str, object],
    flags: tuple[str, ...] = (),
) -> SensitivityReport:
    """The case-mix shift of either scheme; ``benchmark`` names its benchmark-side rate difference.

        value = [(p_hk - p_hl) - benchmark_diff * SMR]
                / [n_h * pbar_e / eta + benchmark_diff]
    """
    actual_diff = table.cell(shift.to_stratum).rate - table.cell(shift.from_stratum).rate
    numerator = actual_diff - benchmark_diff * before.smr
    denominator = table.total_count * before.expected_rate / shift.eta + benchmark_diff
    value = numerator / denominator
    fd = after - before.smr
    details = {**details, "actual_diff": actual_diff, "smr_before": before.smr, "smr_after": after}
    return _report(value, zero_tol, f"(p_hk - p_hl) {{}} ({benchmark}) * SMR", fd, details, flags=flags)


# ---------------------------------------------------------------------------
# external standardization
# ---------------------------------------------------------------------------


def omega_external(
    table: StratumTable,
    standard: ExternalStandard,
    shift: CaseMixShift,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Exact change of the external SMR under a case-mix shift.

    With k the receiving and l the donating stratum,

        value = [(p_hk - p_hl) - (p_ek - p_el) * SMR]
                / [n_h * pbar_e / eta + (p_ek - p_el)]

    which equals SMR(shifted) - SMR(original) identically. The sign is
    decided by comparing the actual-rate difference with the SMR-weighted
    standard-rate difference.
    """
    before = core.smr_external(table, standard)
    if shift.eta == 0.0:
        return _unexposed("eta == 0")
    after = _ratio(World(Cohort((table,)), standard), table.hospital, shift_case_mix(table, shift))

    k, l = shift.to_stratum, shift.from_stratum
    e_k, e_l = standard.rate(k), standard.rate(l)
    standard_diff = e_k - e_l
    return _shift_report(
        table, shift, before, after, "p_ek - p_el", standard_diff, zero_tol, {"standard_diff": standard_diff}
    )


def concentrated_smr_external(
    table: StratumTable, standard: ExternalStandard, stratum: StratumId
) -> float:
    """SMR when every patient sits in one stratum: just p_hk / p_ek."""
    cell = table.cell(stratum)
    others = fsum(c.count for sid, c in table.cells.items() if sid != stratum)
    if others > 0.0:
        raise NotConcentratedError(f"strata besides {stratum!r} are populated")
    if cell.count <= 0.0:
        raise EmptyHospitalError(f"hospital {table.hospital!r} has no patients")
    expected = standard.rate(stratum)
    if expected <= 0.0:
        raise ZeroExpectedRateError(f"standard rate of stratum {stratum!r} is zero")
    return cell.rate / expected


def scale_invariance_external(
    table: StratumTable,
    standard: ExternalStandard,
    change: ScaleChange,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Change of the external SMR under scaling: zero by construction.

    The factor cancels from numerator and denominator, so the recomputed
    difference is zero up to rounding; the report records it verbatim.
    """
    before = core.smr_external(table, standard)
    value = _ratio(World(Cohort((table,)), standard), table.hospital, scale_hospital(table, change)) - before.smr
    return _report(value, zero_tol, "scale factor cancels", value, {"factor": change.factor, "smr": before.smr})


def me_actual_external(
    table: StratumTable,
    standard: ExternalStandard,
    stratum: StratumId,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Marginal effect of one stratum's actual rate on the external SMR.

        value = (n_hk / n_h) / pbar_e

    Strictly positive whenever the stratum is populated; the external
    ratio can never fall when mortality rises.
    """
    cell = table.cell(stratum)
    before = core.smr_external(table, standard)
    if cell.count <= 0.0:
        return _unexposed("n_hk == 0", share=0.0)
    share, value, _ = _exposure(table, before, stratum)
    world = World(Cohort((table,)), standard)
    fd = _central_slope(lambda x: _ratio(world, table.hospital, with_rate(table, stratum, x)), cell.rate)
    return _report(value, zero_tol, "n_hk > 0", fd, {"share": share, "expected_rate": before.expected_rate})


def me_expected_external(
    table: StratumTable,
    standard: ExternalStandard,
    stratum: StratumId,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Marginal effect of one stratum's standard rate on the external SMR.

        value = -SMR * (n_hk / n_h) / pbar_e

    Negative whenever the stratum is populated: raising the benchmark of
    a stratum a hospital treats always flatters its ratio, and by more
    for hospitals with higher ratios or lower expected rates.
    """
    cell = table.cell(stratum)
    before = core.smr_external(table, standard)
    if cell.count <= 0.0:
        return _unexposed("n_hk == 0", share=0.0)
    share, _, value = _exposure(table, before, stratum)
    world = World(Cohort((table,)), standard)
    p_ek = standard.rate(stratum)
    fd = _central_slope(lambda x: _ratio(world, table.hospital, rates={**standard.rates, stratum: x}), p_ek)
    details = {"share": share, "smr": before.smr, "expected_rate": before.expected_rate}
    return _report(value, zero_tol, "n_hk > 0", fd, details)


def dsmr_uniform_actual_external(
    table: StratumTable,
    standard: ExternalStandard,
    dp: float,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Change of the external SMR when every actual rate moves by ``dp``.

        value = dp / pbar_e

    The external SMR is linear in a uniform rate shift, so the direct
    recomputation (rates shifted and clamped) is exact away from the
    clamping boundary.
    """
    before = core.smr_external(table, standard)
    value = dp / before.expected_rate
    fd = _ratio(World(Cohort((table,)), standard), table.hospital, _shift_all_rates(table, dp)) - before.smr
    return _report(value, zero_tol, "dp / pbar_e", fd, {"dp": dp, "expected_rate": before.expected_rate})


def dsmr_uniform_expected_external(
    table: StratumTable,
    standard: ExternalStandard,
    dp: float,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Change of the external SMR when every standard rate moves by ``dp``.

        value = -SMR * dp / pbar_e
    """
    before = core.smr_external(table, standard)
    value = -before.smr * dp / before.expected_rate

    def g(eps: float) -> float:
        shifted = {sid: min(1.0, max(0.0, r + eps)) for sid, r in standard.rates.items()}
        return _ratio(World(Cohort((table,)), standard), table.hospital, rates=shifted)

    fd = _offset_slope(g) * dp
    details = {"dp": dp, "smr": before.smr, "expected_rate": before.expected_rate}
    return _report(value, zero_tol, "-SMR * dp / pbar_e", fd, details)


# ---------------------------------------------------------------------------
# internal standardization
# ---------------------------------------------------------------------------


def omega_internal(
    cohort: Cohort,
    hospital: HospitalId,
    shift: CaseMixShift,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Exact change of the internal SMR under a case-mix shift.

    Identical in shape to the external formula, but the standard-rate
    difference is replaced by a difference of endogenous threshold rates

        ptilde_k = alpha_k * p_hk + (1 - alpha_k) * mean_k,
        alpha_k  = (n_hk + eta) / (n_k + eta),

    and symmetrically for the donating stratum with ``- eta``. The
    weights say how much of each stratum the hospital itself owns, which
    is exactly how strongly it drags the benchmark along when it moves
    patients. When the shift empties the donating stratum cohort-wide
    its weight is 0/0; the unshifted share ``n_hl / n_l`` is used and
    the report is flagged (any convention gives the same threshold rate
    there, so the identity with the recomputation survives).
    """
    table = cohort.table(hospital)
    standard = core.internal_standard(cohort)
    before = core.smr(table, standard, core.INTERNAL)
    if shift.eta == 0.0:
        return _unexposed("eta == 0")
    _populated(cohort, shift.to_stratum)
    after = _ratio(World(cohort), hospital, shift_case_mix(table, shift))

    k, l = shift.to_stratum, shift.from_stratum
    p_hk, p_hl = table.cell(k).rate, table.cell(l).rate
    mean_k, mean_l = standard[k], standard[l]
    n_k, n_l = cohort.stratum_count(k), cohort.stratum_count(l)
    n_hk, n_hl = table.count(k), table.count(l)

    flags: tuple[str, ...] = ()
    alpha_k = (n_hk + shift.eta) / (n_k + shift.eta)
    if n_l - shift.eta > 0.0:
        alpha_l = (n_hl - shift.eta) / (n_l - shift.eta)
    else:
        alpha_l = n_hl / n_l
        flags = ("degenerate-donor-weight",)
    ptilde_k = alpha_k * p_hk + (1.0 - alpha_k) * mean_k
    ptilde_l = alpha_l * p_hl + (1.0 - alpha_l) * mean_l

    threshold_diff = ptilde_k - ptilde_l
    details = {
        "alpha_k": alpha_k,
        "alpha_l": alpha_l,
        "ptilde_k": ptilde_k,
        "ptilde_l": ptilde_l,
        "mean_k": mean_k,
        "mean_l": mean_l,
        "threshold_diff": threshold_diff,
    }
    return _shift_report(
        table, shift, before, after, "ptilde_k - ptilde_l", threshold_diff, zero_tol, details, flags
    )


def delta_smr_scale_internal(
    cohort: Cohort,
    hospital: HospitalId,
    change: ScaleChange,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Exact change of the internal SMR when one hospital is rescaled.

        value = SMR * [pbar_e(before) / pbar_e(after) - 1]

    Rescaling moves the benchmark because the hospital's weight in every
    stratum mean changes. Per stratum, the benchmark falls back toward
    the rest of the cohort when the hospital shrinks and toward the
    hospital's own rate when it grows; the expected rate therefore drops
    exactly where the hospital is better than the stratum mean. The
    details record that per-stratum direction.
    """
    table = cohort.table(hospital)
    standard_before = core.internal_standard(cohort)
    before = core.smr(table, standard_before, core.INTERNAL)

    scaled_table = scale_hospital(table, change)
    standard_after = World(cohort).with_table(scaled_table).rates()
    after = core.smr(scaled_table, standard_after, core.INTERNAL)

    value = before.smr * (before.expected_rate / after.expected_rate - 1.0)
    fd = after.smr - before.smr

    directions: dict[StratumId, str] = {}
    versus_mean: dict[StratumId, str] = {}
    for sid in table.populated():
        d = standard_before[sid] - standard_after[sid]
        directions[sid] = classify_sign(d, zero_tol)
        own = table.cell(sid).rate
        gap = own - standard_before[sid]
        versus_mean[sid] = {
            "increase": "above mean",
            "zero": "at mean",
            "decrease": "below mean",
        }[classify_sign(gap, zero_tol)]

    details = {
        "factor": change.factor,
        "expected_before": before.expected_rate,
        "expected_after": after.expected_rate,
        "smr_before": before.smr,
        "smr_after": after.smr,
        "standard_shift_sign": directions,
        "hospital_vs_mean": versus_mean,
    }
    return _report(value, zero_tol, "pbar_e(before) {} pbar_e(after)", fd, details)


def smr_internal_scale_limit(cohort: Cohort, hospital: HospitalId) -> float:
    """Limit of the internal SMR as the hospital's scale grows without bound.

    Each populated stratum's benchmark converges to the hospital's own
    rate, so the ratio converges to (and never crosses) 1. Returns the
    analytic limit; numeric approach checks live with the callers.
    """
    result = core.smr_internal(cohort, hospital)
    if result.actual_rate <= 0.0:
        raise ZeroExpectedRateError(
            f"hospital {hospital!r} has zero actual mortality; the limiting ratio is undefined"
        )
    return 1.0


def me_actual_internal(
    cohort: Cohort,
    hospital: HospitalId,
    stratum: StratumId,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Marginal effect of one stratum's actual rate on the internal SMR.

        value = (n_hk / n_h) * (1 / pbar_e) * (1 - SMR * n_hk / n_k)

    The direct term matches the external case; the correction comes from
    the hospital's own weight in the benchmark. The sign flips at
    SMR = n_k / n_hk, so a hospital that owns a large share of a stratum
    and runs a high ratio sees its ratio fall when mortality rises.
    """
    table = cohort.table(hospital)
    n_k = _populated(cohort, stratum)
    n_hk = table.count(stratum)
    if n_hk <= 0.0:
        return _unexposed("n_hk == 0", share=0.0)

    before = core.smr_internal(cohort, hospital)
    share, direct, _ = _exposure(table, before, stratum)
    own_share = n_hk / n_k
    value = direct * (1.0 - before.smr * own_share)
    threshold = n_k / n_hk
    world = World(cohort)
    fd = _central_slope(lambda x: _ratio(world, hospital, with_rate(table, stratum, x)), table.rate(stratum))
    details = {
        "share": share,
        "own_share": own_share,
        "threshold": threshold,
        "smr": before.smr,
        "expected_rate": before.expected_rate,
    }
    return _report(value, zero_tol, "SMR {} n_k/n_hk", fd, details, rel=_FLIPPED)


def dsmr_uniform_actual_internal(
    cohort: Cohort,
    hospital: HospitalId,
    dp: float,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Change of the internal SMR when all of a hospital's rates move by ``dp``.

        value = (dp / pbar_e) * (1 - SMR * overlap),
        overlap = sum_s (n_hs / n_h) * (n_hs / n_s)

    Summed from the per-stratum marginal effects, so the inner
    denominator is each stratum's cohort-wide count n_s; the finite
    difference confirms that reading. The effect is smaller than the
    external ``dp / pbar_e`` and turns negative once SMR exceeds
    1 / overlap, which is most easily reached by specialized hospitals
    that dominate their strata.
    """
    table = cohort.table(hospital)
    before = core.smr_internal(cohort, hospital)
    n_h = table.total_count
    overlap = fsum(
        (c.count / n_h) * (c.count / cohort.stratum_count(sid))
        for sid, c in table.cells.items()
        if c.count > 0.0
    )
    value = dp / before.expected_rate * (1.0 - before.smr * overlap)
    threshold = 1.0 / overlap if overlap > 0.0 else float("inf")

    fd = _offset_slope(lambda eps: _ratio(World(cohort), hospital, _shift_all_rates(table, eps))) * dp
    details = {
        "dp": dp,
        "overlap": overlap,
        "threshold": threshold,
        "inner_denominator": "n_s",
        "smr": before.smr,
        "expected_rate": before.expected_rate,
    }
    branch = classify_sign(1.0 - before.smr * overlap, zero_tol)
    return _report(value, zero_tol, f"SMR {_FLIPPED[branch]} 1/overlap", fd, details)


def dsmr_expected_internal(
    cohort: Cohort,
    hospital: HospitalId,
    stratum: StratumId,
    dpe: float,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Change of the internal SMR for an exogenous benchmark shift ``dpe``.

        value = -SMR * (n_hk / n_h) * (1 / pbar_e) * dpe

    The factor multiplying the shift is the hospital's patient share
    n_hk / n_h (named in the details); the finite-difference check,
    which offsets the stratum's benchmark rate directly, arbitrates that
    choice over the stratum-ownership share n_hk / n_k.
    """
    table = cohort.table(hospital)
    standard = core.internal_standard(cohort)
    before = core.smr(table, standard, core.INTERNAL)
    if table.count(stratum) <= 0.0:
        return _unexposed("n_hk == 0", share=0.0)
    share, _, effect = _exposure(table, before, stratum)
    value = effect * dpe
    world = World(cohort)
    p_ek = standard[stratum]
    fd = _offset_slope(lambda eps: _ratio(world, hospital, rates={**standard, stratum: p_ek + eps})) * dpe
    details = {
        "dpe": dpe,
        "share_factor": "n_hk/n_h",
        "share": share,
        "smr": before.smr,
        "expected_rate": before.expected_rate,
    }
    # The condition is the exact relation of dpe to 0; only the sign sees zero_tol.
    condition = "dpe == 0" if dpe == 0.0 else f"dpe {_REL[classify_sign(dpe, 0.0)]} 0 with n_hk > 0"
    return _report(value, zero_tol, condition, fd, details)


def me_cross_hospital_internal(
    cohort: Cohort,
    hospital: HospitalId,
    other: HospitalId,
    stratum: StratumId,
    zero_tol: float = SIGN_ZERO_TOL,
) -> SensitivityReport:
    """Marginal effect of another hospital's stratum rate on this hospital's SMR.

    The other hospital moves the benchmark by its ownership share
    (d p_ek / d p_ik = n_ik / n_k); chaining through the benchmark gives

        value = -SMR_h * (n_hk / n_h) * (1 / pbar_e_h) * (n_ik / n_k)

    which is negative exactly when both hospitals treat the stratum: a
    competitor's worsening mortality flatters this hospital's ratio.
    """
    if hospital == other:
        raise SameHospitalError("cross-hospital effect needs two distinct hospitals")
    table = cohort.table(hospital)
    other_table = cohort.table(other)
    n_k = _populated(cohort, stratum)
    n_hk = table.count(stratum)
    n_ik = other_table.count(stratum)
    standard_derivative = n_ik / n_k

    if n_ik <= 0.0 or n_hk <= 0.0:
        which = "n_ik == 0" if n_ik <= 0.0 else "n_hk == 0"
        return _unexposed(which, standard_derivative=standard_derivative)

    before = core.smr_internal(cohort, hospital)
    share, _, effect = _exposure(table, before, stratum)
    value = effect * standard_derivative
    world = World(cohort)
    p_ik = other_table.rate(stratum)
    fd = _central_slope(lambda x: _ratio(world, hospital, with_rate(other_table, stratum, x)), p_ik)
    details = {
        "standard_derivative": standard_derivative,
        "share": share,
        "smr": before.smr,
        "expected_rate": before.expected_rate,
    }
    return _report(value, zero_tol, "n_ik > 0 and n_hk > 0", fd, details)


def standard_shift_add_patients(
    cohort: Cohort, hospital: HospitalId, stratum: StratumId, eta: float
) -> float:
    """Exact benchmark move when a hospital adds ``eta`` patients to a stratum.

        p_ek(n_ik + eta) - p_ek(n_ik) = (p_ik - mean_k) / (1 + n_k / eta)

    Positive exactly when the growing hospital is worse than the stratum
    mean; with ``eta`` large the benchmark moves the full distance to
    the hospital's own rate.
    """
    if not eta > 0.0:
        raise InvalidParameterError(f"eta must be > 0, got {eta!r}")
    table = cohort.table(hospital)
    n_k = _populated(cohort, stratum)
    rate = table.rate(stratum)
    if rate is None:
        raise UndefinedRateError(
            f"hospital {hospital!r} defines no rate for stratum {stratum!r}"
        )
    mean_k = core.internal_standard(cohort)[stratum]
    return (rate - mean_k) / (1.0 + n_k / eta)


# ---------------------------------------------------------------------------
# the command line's analyses, one row per (analysis, scheme)
# ---------------------------------------------------------------------------


def _add_patients(
    cohort: Cohort, hospital: HospitalId, stratum: StratumId, eta: float, zero_tol: float
) -> SensitivityReport:
    """The benchmark move, cross-checked on a cohort whose stratum holds ``eta`` more patients."""
    value = standard_shift_add_patients(cohort, hospital, stratum, eta)
    table = cohort.table(hospital)
    grown = with_cell(table, stratum, table.count(stratum) + eta, table.rate(stratum))
    fd = World(cohort).with_table(grown).rates()[stratum] - core.internal_standard(cohort)[stratum]
    return _report(value, zero_tol, "p_ik vs stratum mean", fd, {"eta": eta})


@dataclass(frozen=True)
class Analysis:
    """A row of :data:`ANALYSES`, with the ``check`` kind passed to :func:`cross_check`.

    ``needs`` holds the ``parameters`` keys the run requires besides
    ``hospital_id``, in the order their absence is reported. Their values
    follow the leading arguments, built into one argument by ``wrap``.
    """

    function: Callable[..., SensitivityReport]
    needs: tuple[str, ...]
    check: Literal["exact", "derivative"]
    wrap: Callable[..., object] | None = None

    def run(self, world: core.World, parameters: Mapping[str, Any], tol: float) -> SensitivityReport:
        """Report on ``world``: external with its standard, internal when it has none."""
        hospital = parameters["hospital_id"]
        if world.standard is None:
            lead: tuple = (world.cohort, hospital)
        else:
            lead = (world.cohort.table(hospital), world.standard)
        values = [parameters[key] for key in self.needs]
        return self.function(*lead, *([self.wrap(*values)] if self.wrap else values), tol)


#: (analysis, scheme) -> row: the 13 analyses of the ``sensitivity`` command.
ANALYSES: dict[tuple[str, core.Scheme], Analysis] = {
    ("shift", "external"): Analysis(omega_external, ("from_stratum", "to_stratum", "eta"), "exact", CaseMixShift),
    ("shift", "internal"): Analysis(omega_internal, ("from_stratum", "to_stratum", "eta"), "exact", CaseMixShift),
    ("scale", "external"): Analysis(scale_invariance_external, ("lambda",), "exact", ScaleChange),
    ("scale", "internal"): Analysis(delta_smr_scale_internal, ("lambda",), "exact", ScaleChange),
    ("me-actual", "external"): Analysis(me_actual_external, ("stratum_id",), "derivative"),
    ("me-actual", "internal"): Analysis(me_actual_internal, ("stratum_id",), "derivative"),
    ("me-expected", "external"): Analysis(me_expected_external, ("stratum_id",), "derivative"),
    ("me-expected", "internal"): Analysis(dsmr_expected_internal, ("stratum_id", "dp"), "derivative"),
    ("uniform-actual", "external"): Analysis(dsmr_uniform_actual_external, ("dp",), "derivative"),
    ("uniform-actual", "internal"): Analysis(dsmr_uniform_actual_internal, ("dp",), "derivative"),
    ("uniform-expected", "external"): Analysis(dsmr_uniform_expected_external, ("dp",), "derivative"),
    ("cross", "internal"): Analysis(me_cross_hospital_internal, ("other_hospital", "stratum_id"), "derivative"),
    ("add-patients", "internal"): Analysis(_add_patients, ("stratum_id", "eta"), "exact"),
}
