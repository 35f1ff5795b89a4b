"""Closed-form sensitivities against independent recomputation oracles."""

from itertools import islice
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from smr_axioms import (
    CaseMixShift,
    Cohort,
    EXACT_TOL,
    ExternalStandard,
    ScaleChange,
    SensitivityReport,
    StratumTable,
    concentrated_smr_external,
    delta_smr_scale_internal,
    dsmr_expected_internal,
    dsmr_uniform_actual_external,
    dsmr_uniform_actual_internal,
    dsmr_uniform_expected_external,
    internal_standard,
    me_actual_external,
    me_actual_internal,
    me_cross_hospital_internal,
    me_expected_external,
    omega_external,
    omega_internal,
    scale_hospital,
    scale_invariance_external,
    shift_case_mix,
    smr_external,
    smr_internal,
    smr_internal_scale_limit,
    standard_shift_add_patients,
)
from smr_axioms.audit import ProbeGenerator
from smr_axioms.core import World
from smr_axioms.errors import (
    EmptyHospitalError,
    InvalidParameterError,
    NotConcentratedError,
    SameHospitalError,
    ShiftExceedsStratumError,
    UndefinedRateError,
    UnknownStratumError,
    ZeroExpectedRateError,
)
from smr_axioms.scenarios import ScenarioSpec, build_scenario
from smr_axioms.sensitivity import ANALYSES, SIGN_ZERO_TOL, classify_sign, cross_check

from test_golden import SENSITIVITY_RUNS
from worlds import populated_strata, random_cohort, random_standard


#: The report of a change that cannot reach the hospital, which treats no patient in the stratum.
UNEXPOSED = SensitivityReport(0.0, "zero", "n_hk == 0", 0.0, {"share": 0.0})


def agrees(report):
    residual, bound = cross_check(report, "derivative")
    return residual <= bound


def casemix_ext_world(eta=0.0):
    spec = ScenarioSpec("casemix-ext", (eta,))
    return build_scenario(spec, eta)


def casemix_int_world(eta=0.0):
    spec = ScenarioSpec("casemix-int", (eta,))
    return build_scenario(spec, eta)


def actual_int_world(p11, w11):
    spec = ScenarioSpec("actual-int", (p11,), {"w11": w11})
    return build_scenario(spec, p11)


class TestClassifySign:
    @pytest.mark.parametrize(
        "value, zero_tol, sign",
        [(1e-12, SIGN_ZERO_TOL, "zero"), (-1e-12, SIGN_ZERO_TOL, "zero"), (0.0, 0.0, "zero"), (-0.0, 0.0, "zero"),
         (2e-12, SIGN_ZERO_TOL, "increase"), (-2e-12, SIGN_ZERO_TOL, "decrease"), (5e-324, 0.0, "increase")],
    )
    def test_the_zero_band_includes_its_edge(self, value, zero_tol, sign):
        assert classify_sign(value, zero_tol) == sign


class TestShiftCaseMix:
    def test_counts_move_total_fixed(self):
        table = casemix_ext_world(0.0).cohort.table("H1")
        shifted = shift_case_mix(table, CaseMixShift("1", "2", 5.0))
        assert shifted.count("1") == 15.0
        assert shifted.count("2") == 5.0
        assert shifted.count("3") == 5.0
        assert shifted.total_count == table.total_count
        assert shifted.rate("2") == 0.1

    def test_zero_eta_is_identity(self):
        table = casemix_ext_world(0.0).cohort.table("H1")
        assert shift_case_mix(table, CaseMixShift("1", "2", 0.0)) == table

    def test_emptying_the_donor(self):
        table = casemix_ext_world(0.0).cohort.table("H1")
        shifted = shift_case_mix(table, CaseMixShift("1", "2", 20.0))
        assert shifted.count("1") == 0.0
        assert shifted.rate("1") == 0.2

    def test_overdraw_rejected(self):
        table = casemix_ext_world(0.0).cohort.table("H1")
        with pytest.raises(ShiftExceedsStratumError):
            shift_case_mix(table, CaseMixShift("1", "2", 21.0))

    def test_destination_without_rate_rejected(self):
        table = StratumTable.build("H", {"a": (5.0, 0.2), "b": (0.0, None)})
        with pytest.raises(UndefinedRateError):
            shift_case_mix(table, CaseMixShift("a", "b", 2.0))

    def test_closed_forms_refuse_a_destination_without_rate(self):
        cohort = Cohort.build({"H": {"a": (5.0, 0.2), "b": (0.0, None)}, "G": {"b": (10.0, 0.1)}})
        shift = CaseMixShift("a", "b", 2.0)
        with pytest.raises(UndefinedRateError):
            omega_external(cohort.table("H"), ExternalStandard({"a": 0.1, "b": 0.2}), shift)
        with pytest.raises(UndefinedRateError):
            omega_internal(cohort, "H", shift)

    def test_integral_mode(self):
        with pytest.raises(InvalidParameterError):
            CaseMixShift.integral("a", "b", 2.5)
        assert CaseMixShift.integral("a", "b", 3).eta == 3.0


class TestOmegaExternal:
    def test_worked_example(self):
        world = casemix_ext_world(0.0)
        report = omega_external(world.cohort.table("H1"), world.standard, CaseMixShift("1", "2", 5.0))
        expected = 4.5 / 4.25 - 5.0 / 4.75
        assert report.value == pytest.approx(expected, abs=EXACT_TOL)
        assert report.fd_check == pytest.approx(report.value, abs=EXACT_TOL)
        assert report.sign == "increase"

    def test_identical_strata_no_effect(self):
        table = StratumTable.build("H", {"a": (10.0, 0.2), "b": (5.0, 0.2)})
        standard = ExternalStandard({"a": 0.15, "b": 0.15})
        report = omega_external(table, standard, CaseMixShift("a", "b", 3.0))
        assert report.sign == "zero"
        assert abs(report.value) <= EXACT_TOL

    def test_opposite_directions_for_the_two_hospitals(self):
        world = casemix_ext_world(0.0)
        shift = CaseMixShift("1", "2", 5.0)
        up = omega_external(world.cohort.table("H1"), world.standard, shift)
        down = omega_external(world.cohort.table("H2"), world.standard, shift)
        # same case mix, both at the standard in the shifted strata; the
        # ratio's initial level alone decides the direction
        assert up.sign == "increase" and down.sign == "decrease"
        assert up.details["actual_diff"] < 0.0

    def test_eta_zero_identity_report(self):
        world = casemix_ext_world(0.0)
        report = omega_external(world.cohort.table("H1"), world.standard, CaseMixShift("1", "2", 0.0))
        assert report.value == 0.0 and report.fd_check == 0.0 and report.sign == "zero"


class TestConcentration:
    def test_quotient(self):
        table = StratumTable.build("H", {"a": (0.0, None), "b": (10.0, 0.3), "c": (0.0, None)})
        standard = ExternalStandard({"a": 0.2, "b": 0.15, "c": 0.4})
        assert concentrated_smr_external(table, standard, "b") == pytest.approx(2.0, abs=EXACT_TOL)

    def test_matches_full_computation(self):
        table = StratumTable.build("H", {"a": (0.0, None), "b": (10.0, 0.3)})
        standard = ExternalStandard({"a": 0.2, "b": 0.15})
        assert concentrated_smr_external(table, standard, "b") == pytest.approx(
            smr_external(table, standard).smr, abs=EXACT_TOL
        )

    def test_at_standard(self):
        table = StratumTable.build("H", {"b": (10.0, 0.15)})
        standard = ExternalStandard({"b": 0.15})
        assert concentrated_smr_external(table, standard, "b") == 1.0

    @pytest.mark.parametrize("rate", [0.3, None], ids=["rate-supplied", "no-rate"])
    def test_rejects_empty_hospital(self, rate):
        table = StratumTable.build("H", {"a": (0.0, None), "b": (0.0, rate)})
        with pytest.raises(EmptyHospitalError, match="no patients"):
            concentrated_smr_external(table, ExternalStandard({"a": 0.1, "b": 0.1}), "b")

    def test_rejects_zero_standard_rate_as_typed_error(self):
        # a typed refusal, not the bare ZeroDivisionError of p_hk / 0
        table = StratumTable.build("H", {"a": (0.0, None), "b": (10.0, 0.3)})
        with pytest.raises(ZeroExpectedRateError, match="'b' is zero"):
            concentrated_smr_external(table, ExternalStandard({"a": 0.1, "b": 0.0}), "b")

    def test_rejects_spread_patients(self):
        table = StratumTable.build("H", {"a": (1.0, 0.1), "b": (10.0, 0.3)})
        with pytest.raises(NotConcentratedError):
            concentrated_smr_external(table, ExternalStandard({"a": 0.1, "b": 0.1}), "b")


class TestScaleExternal:
    def test_table_scaling(self):
        table = StratumTable.build("H", {"1": (20.0, 0.05), "2": (40.0, 0.15)})
        scaled = scale_hospital(table, ScaleChange(2.0))
        assert scaled.count("1") == 40.0 and scaled.count("2") == 80.0
        assert scale_hospital(table, ScaleChange(1.0)) == table

    def test_shares_invariant(self):
        table = StratumTable.build("H", {"1": (20.0, 0.05), "2": (40.0, 0.15)})
        scaled = scale_hospital(table, ScaleChange(3.7))
        assert scaled.count("1") / scaled.total_count == pytest.approx(
            table.count("1") / table.total_count, abs=EXACT_TOL
        )

    @pytest.mark.parametrize("factor", [2.0, 3.0, 4.0, 5.0, 3.7])
    def test_ratio_untouched(self, factor):
        table = StratumTable.build("H", {"1": (20.0, 0.05), "2": (40.0, 0.15)})
        standard = ExternalStandard({"1": 0.1, "2": 0.1})
        report = scale_invariance_external(table, standard, ScaleChange(factor))
        assert report.sign == "zero"
        assert abs(report.value) <= EXACT_TOL


class TestMarginalEffectsExternal:
    def test_me_actual_value(self):
        world = build_scenario(ScenarioSpec("actual-ext", (0.1,)), 0.1)
        report = me_actual_external(world.cohort.table("H1"), world.standard, "1")
        assert report.value == pytest.approx(4.0, abs=EXACT_TOL)
        assert agrees(report)

    def test_me_actual_empty_stratum(self):
        table = StratumTable.build("H", {"a": (10.0, 0.2), "b": (0.0, 0.1)})
        standard = ExternalStandard({"a": 0.2, "b": 0.1})
        assert me_actual_external(table, standard, "b").value == 0.0

    @pytest.mark.parametrize("analysis", [me_actual_external, me_expected_external])
    @pytest.mark.parametrize("rate", [0.1, None])
    def test_empty_stratum_is_the_unexposed_report(self, analysis, rate):
        table = StratumTable.build("H", {"a": (10.0, 0.2), "b": (0.0, rate)})
        standard = ExternalStandard({"a": 0.2, "b": 0.1})
        assert analysis(table, standard, "b") == UNEXPOSED

    def test_lower_expected_rate_reacts_harder(self):
        world = build_scenario(ScenarioSpec("actual-ext", (0.1,)), 0.1)
        h1 = me_actual_external(world.cohort.table("H1"), world.standard, "1")
        h2 = me_actual_external(world.cohort.table("H2"), world.standard, "1")
        assert h1.value > h2.value

    def test_uniform_actual_shift(self):
        table = StratumTable.build("H", {"1": (20.0, 0.05), "2": (40.0, 0.15)})
        standard = ExternalStandard({"1": 0.1, "2": 0.1})
        report = dsmr_uniform_actual_external(table, standard, 0.01)
        assert report.value == pytest.approx(0.1, abs=EXACT_TOL)
        assert dsmr_uniform_actual_external(table, standard, 0.0).value == 0.0

    def test_uniform_equals_summed_marginals(self):
        rng = Random(5)
        cohort, strata = random_cohort(rng, hospitals=1, allow_empty=False)
        table = cohort.hospitals[0]
        standard = random_standard(rng, strata)
        dp = 0.01
        total = dsmr_uniform_actual_external(table, standard, dp).value
        summed = sum(me_actual_external(table, standard, s).value * dp for s in strata)
        assert total == pytest.approx(summed, abs=EXACT_TOL)

    def test_me_expected_value(self):
        world = build_scenario(ScenarioSpec("expected-ext", (0.1,)), 0.1)
        report = me_expected_external(world.cohort.table("H1"), world.standard, "1")
        assert report.value == pytest.approx(-7.5, abs=EXACT_TOL)
        assert agrees(report)

    def test_me_expected_is_negative_smr_times_me_actual(self):
        rng = Random(7)
        cohort, strata = random_cohort(rng, hospitals=1, allow_empty=False)
        table = cohort.hospitals[0]
        standard = random_standard(rng, strata)
        smr = smr_external(table, standard).smr
        for s in strata:
            ratio_lhs = me_expected_external(table, standard, s).value
            ratio_rhs = -smr * me_actual_external(table, standard, s).value
            assert ratio_lhs == pytest.approx(ratio_rhs, abs=EXACT_TOL)

    def test_uniform_expected_shift(self):
        table = StratumTable.build("H", {"1": (20.0, 0.05), "2": (40.0, 0.15)})
        standard = ExternalStandard({"1": 0.1, "2": 0.1})
        report = dsmr_uniform_expected_external(table, standard, 0.01)
        assert report.value == pytest.approx(-(7.0 / 6.0) * 0.1, abs=EXACT_TOL)
        assert agrees(report)
        assert dsmr_uniform_expected_external(table, standard, 0.0).value == 0.0

    def test_uniform_shifts_mirror_at_unity(self):
        table = StratumTable.build("H", {"1": (10.0, 0.2)})
        standard = ExternalStandard({"1": 0.2})
        up = dsmr_uniform_actual_external(table, standard, 0.01)
        down = dsmr_uniform_expected_external(table, standard, 0.01)
        assert up.value == pytest.approx(-down.value, abs=EXACT_TOL)


class TestOmegaInternal:
    def test_exact_identity_on_worked_cohort(self):
        world = casemix_int_world(0.0)
        for eta in (1.0, 5.0, 10.0, 25.0, 50.0):
            report = omega_internal(world.cohort, "H1", CaseMixShift("1", "2", eta))
            assert report.fd_check == pytest.approx(report.value, abs=EXACT_TOL)

    def test_threshold_rates_exposed(self):
        world = casemix_int_world(0.0)
        report = omega_internal(world.cohort, "H1", CaseMixShift("1", "2", 10.0))
        assert report.details["alpha_k"] == pytest.approx(0.5, abs=EXACT_TOL)
        assert report.details["ptilde_k"] == pytest.approx(0.2, abs=EXACT_TOL)
        assert report.details["ptilde_l"] == pytest.approx(0.1, abs=EXACT_TOL)
        assert report.value == pytest.approx(1.0 / 6.0, abs=EXACT_TOL)

    def test_own_reference_regime_signs(self):
        # the hospital owns both shifted strata outright, so its own rates
        # are the thresholds and the initial ratio level decides direction
        high = Cohort.build(
            {
                "H1": {"k": (100.0, 0.3), "l": (100.0, 0.1), "shared": (50.0, 0.4)},
                "H2": {"shared": (50.0, 0.1)},
            }
        )
        report = omega_internal(high, "H1", CaseMixShift("l", "k", 10.0))
        assert smr_internal(high, "H1").smr > 1.0
        assert report.sign == "decrease"
        assert report.fd_check == pytest.approx(report.value, abs=EXACT_TOL)

        low = Cohort.build(
            {
                "H1": {"k": (100.0, 0.3), "l": (100.0, 0.1), "shared": (50.0, 0.05)},
                "H2": {"shared": (50.0, 0.4)},
            }
        )
        report = omega_internal(low, "H1", CaseMixShift("l", "k", 10.0))
        assert smr_internal(low, "H1").smr < 1.0
        assert report.sign == "increase"

    def test_negligible_share_matches_external_classification(self):
        rng = Random(11)
        for _ in range(10):
            cohort, strata = random_cohort(rng, hospitals=2, allow_empty=False)
            h = cohort.hospitals[0]
            rest = cohort.hospitals[1]
            big = Cohort(
                (h, scale_hospital(rest, ScaleChange(1e6)))
            )
            pops = populated_strata(h)
            l, k = pops[0], pops[1]
            eta = h.count(l) * 0.5
            limit_standard = ExternalStandard(internal_standard(big))
            inner = omega_internal(big, h.hospital, CaseMixShift(l, k, eta))
            outer = omega_external(h, limit_standard, CaseMixShift(l, k, eta))
            if abs(outer.value) <= 1e-9:
                continue
            assert inner.sign == outer.sign
            assert inner.value == pytest.approx(outer.value, rel=1e-3)

    def test_degenerate_donor_weight_flagged_and_exact(self):
        cohort = Cohort.build(
            {
                "H1": {"solo": (10.0, 0.3), "other": (5.0, 0.2)},
                "H2": {"other": (20.0, 0.1)},
            }
        )
        report = omega_internal(cohort, "H1", CaseMixShift("solo", "other", 10.0))
        assert "degenerate-donor-weight" in report.flags
        assert report.fd_check == pytest.approx(report.value, abs=EXACT_TOL)

    def test_receiving_stratum_without_patients_cohort_wide_is_refused(self):
        cohort = Cohort.build({"H1": {"1": (10.0, 0.2), "2": (0.0, 0.3)}, "H2": {"1": (10.0, 0.1)}})
        with pytest.raises(UnknownStratumError, match="stratum '2' has no patients cohort-wide"):
            omega_internal(cohort, "H1", CaseMixShift("1", "2", 5.0))


class TestScaleInternal:
    def test_worked_cohort_decline(self):
        spec = ScenarioSpec("scale-int", (1.0,))
        world = build_scenario(spec, 1.0)
        before = smr_internal(world.cohort, "H1").smr
        assert before == pytest.approx(1.4678899082568808, abs=1e-9)
        report = delta_smr_scale_internal(world.cohort, "H1", ScaleChange(2.0))
        after = before + report.value
        assert after == pytest.approx(1.2883435582822086, abs=1e-9)
        assert report.fd_check == pytest.approx(report.value, abs=EXACT_TOL)
        assert report.sign == "decrease"
        assert report.details["hospital_vs_mean"]["1"] == "above mean"

    def test_average_hospital_unmoved(self):
        cohort = Cohort.build(
            {
                "A": {"1": (30.0, 0.25), "2": (10.0, 0.05)},
                "B": {"1": (10.0, 0.25), "2": (30.0, 0.05)},
            }
        )
        for factor in (0.5, 2.0, 7.5):
            report = delta_smr_scale_internal(cohort, "A", ScaleChange(factor))
            assert report.sign == "zero"
            assert abs(report.value) <= EXACT_TOL

    def test_growth_overtakes_peer(self):
        spec = ScenarioSpec("scale-int", (1.0,))
        world3 = build_scenario(spec, 3.0)
        assert (
            smr_internal(world3.cohort, "H1").smr < smr_internal(world3.cohort, "H3").smr
        )

    def test_limit_is_unity(self):
        world = build_scenario(ScenarioSpec("scale-int", (1.0,)), 1.0)
        assert smr_internal_scale_limit(world.cohort, "H1") == 1.0
        far = build_scenario(ScenarioSpec("scale-int", (1.0,)), 1e6)
        assert abs(smr_internal(far.cohort, "H1").smr - 1.0) < 1e-3

    def test_single_hospital_pinned_at_unity(self):
        cohort = Cohort.build({"A": {"1": (10.0, 0.2), "2": (30.0, 0.4)}})
        for factor in (0.25, 1.0, 4.0, 1e6):
            scaled = cohort.with_table(scale_hospital(cohort.hospitals[0], ScaleChange(factor)))
            assert smr_internal(scaled, "A").smr == pytest.approx(1.0, abs=EXACT_TOL)

    def test_limit_rejects_zero_mortality(self):
        cohort = Cohort.build({"A": {"1": (10.0, 0.0)}, "B": {"1": (10.0, 0.5)}})
        with pytest.raises(ZeroExpectedRateError):
            smr_internal_scale_limit(cohort, "A")


class TestMarginalEffectsInternal:
    def test_dominant_share_turns_negative(self):
        world = actual_int_world(0.5, 0.8)
        report = me_actual_internal(world.cohort, "H1", "1")
        assert report.value < 0.0
        assert report.condition == "SMR > n_k/n_hk"
        assert report.details["threshold"] == pytest.approx(1.25, abs=EXACT_TOL)
        assert agrees(report)

    def test_empty_stratum_no_effect(self):
        world = actual_int_world(0.5, 1.0)
        report = me_actual_internal(world.cohort, "H2", "1")
        assert report.value == 0.0 and report.sign == "zero"

    def test_negligible_share_approaches_external_form(self):
        cohort = Cohort.build(
            {
                "H1": {"k": (5.0, 0.3), "m": (5.0, 0.2)},
                "H2": {"k": (5e6, 0.1), "m": (5e6, 0.1)},
            }
        )
        report = me_actual_internal(cohort, "H1", "k")
        result = smr_internal(cohort, "H1")
        direct = (5.0 / 10.0) / result.expected_rate
        assert report.value == pytest.approx(direct, rel=1e-5)

    def test_own_reference_neutrality(self):
        cohort = Cohort.build({"A": {"1": (3.0, 0.21), "2": (7.0, 0.37)}})
        assert smr_internal(cohort, "A").smr == pytest.approx(1.0, abs=EXACT_TOL)
        for stratum in ("1", "2"):
            report = me_actual_internal(cohort, "A", stratum)
            assert report.sign == "zero"
            assert abs(report.value) <= EXACT_TOL

    def test_uniform_internal_smaller_than_external_form(self):
        world = actual_int_world(0.5, 1.0)
        dp = 0.01
        report = dsmr_uniform_actual_internal(world.cohort, "H1", dp)
        result = smr_internal(world.cohort, "H1")
        assert report.value < dp / result.expected_rate
        assert report.details["inner_denominator"] == "n_s"
        assert agrees(report)

    def test_uniform_internal_negligible_hospital(self):
        cohort = Cohort.build(
            {
                "H1": {"k": (5.0, 0.3), "m": (5.0, 0.2)},
                "H2": {"k": (5e6, 0.1), "m": (5e6, 0.1)},
            }
        )
        dp = 0.01
        report = dsmr_uniform_actual_internal(cohort, "H1", dp)
        result = smr_internal(cohort, "H1")
        assert report.value == pytest.approx(dp / result.expected_rate, rel=1e-5)

    def test_uniform_internal_zero_for_sole_hospital(self):
        cohort = Cohort.build({"A": {"1": (3.0, 0.21), "2": (7.0, 0.37)}})
        report = dsmr_uniform_actual_internal(cohort, "A", 0.01)
        assert report.sign == "zero"
        assert abs(report.value) <= EXACT_TOL

    def test_uniform_internal_skips_a_stratum_empty_cohort_wide(self):
        cohort = Cohort.build({"H1": {"1": (10.0, 0.2), "2": (0.0, None)},
                               "H2": {"1": (5.0, 0.1), "2": (0.0, 0.4)}})
        report = dsmr_uniform_actual_internal(cohort, "H1", 0.01)
        assert report.details["overlap"] == 10.0 / 15.0 and agrees(report)

    def test_uniform_internal_overlap_that_underflows_has_no_threshold(self):
        # (n_hs / n_h) * (n_hs / n_s) = 1 * 1e-400 rounds to 0.0: the benchmark cannot feel the hospital
        cohort = Cohort.build({"H1": {"1": (1e-200, 0.3)}, "H2": {"1": (1e200, 0.1)}})
        report = dsmr_uniform_actual_internal(cohort, "H1", 0.01)
        assert report.details["overlap"] == 0.0 and report.details["threshold"] == float("inf")
        assert report.value == 0.01 / report.details["expected_rate"] and agrees(report)


class TestExpectedAndCrossInternal:
    def test_zero_shift(self):
        world = actual_int_world(0.5, 0.8)
        assert dsmr_expected_internal(world.cohort, "H1", "1", 0.0).value == 0.0

    @pytest.mark.parametrize("rate", [0.4, None])
    def test_shift_of_a_stratum_the_hospital_leaves_empty(self, rate):
        cohort = Cohort.build(
            {"H1": {"1": (10.0, 0.2), "2": (5.0, 0.3)}, "H2": {"1": (0.0, rate), "2": (8.0, 0.1)}}
        )
        assert dsmr_expected_internal(cohort, "H2", "1", 0.01) == UNEXPOSED

    def test_positive_shift_lowers_ratio(self):
        world = actual_int_world(0.5, 0.8)
        report = dsmr_expected_internal(world.cohort, "H1", "1", 0.01)
        assert report.sign == "decrease"
        assert report.details["share_factor"] == "n_hk/n_h"
        assert agrees(report)

    @pytest.mark.parametrize("dpe, condition", [(0.01, "dpe > 0 with n_hk > 0"),
                                                (-0.01, "dpe < 0 with n_hk > 0"), (0.0, "dpe == 0")])
    def test_condition_follows_dpe_not_the_zero_band(self, dpe, condition):
        world = actual_int_world(0.5, 0.8)
        report = dsmr_expected_internal(world.cohort, "H1", "1", dpe, zero_tol=10.0)
        assert report.sign == "zero" and report.condition == condition

    def test_chains_to_cross_hospital_effect(self):
        world = actual_int_world(0.5, 0.8)
        cohort = world.cohort
        n_k = cohort.stratum_count("1")
        n_2k = cohort.table("H2").count("1")
        dp_other = 0.05
        dpe = (n_2k / n_k) * dp_other
        chained = dsmr_expected_internal(cohort, "H1", "1", dpe)
        cross = me_cross_hospital_internal(cohort, "H1", "H2", "1")
        assert chained.value == pytest.approx(cross.value * dp_other, abs=EXACT_TOL)

    def test_cross_effect_is_negative_and_fd_checked(self):
        world = actual_int_world(0.5, 0.6)
        report = me_cross_hospital_internal(world.cohort, "H2", "H1", "1")
        assert report.sign == "decrease"
        assert agrees(report)

    def test_cross_effect_zero_without_exposure(self):
        world = actual_int_world(0.5, 0.6)
        untouched = me_cross_hospital_internal(world.cohort, "H3", "H1", "1")
        assert untouched.value == 0.0 and untouched.condition == "n_hk == 0"
        world_w1 = actual_int_world(0.5, 1.0)
        no_donor = me_cross_hospital_internal(world_w1.cohort, "H1", "H2", "1")
        assert no_donor.value == 0.0 and no_donor.condition == "n_ik == 0"

    def test_same_hospital_rejected(self):
        world = actual_int_world(0.5, 0.8)
        with pytest.raises(SameHospitalError):
            me_cross_hospital_internal(world.cohort, "H1", "H1", "1")


class TestAddPatients:
    def test_at_the_mean_nothing_moves(self):
        cohort = Cohort.build(
            {"A": {"k": (10.0, 0.2)}, "B": {"k": (30.0, 0.2)}}
        )
        assert standard_shift_add_patients(cohort, "A", "k", 5.0) == pytest.approx(0.0, abs=EXACT_TOL)

    def test_worse_than_average_raises_benchmark(self):
        world = casemix_int_world(10.0)
        move = standard_shift_add_patients(world.cohort, "H1", "2", 5.0)
        assert move > 0.0
        # adding those patients must lower the peer's ratio
        table = world.cohort.table("H1")
        grown = world.cohort.with_table(
            StratumTable.build(
                "H1", {"1": (40.0, 0.1), "2": (15.0, 0.3)}
            )
        )
        assert smr_internal(grown, "H2").smr < smr_internal(world.cohort, "H2").smr
        del table

    def test_matches_direct_recomputation(self):
        world = casemix_int_world(10.0)
        eta = 7.0
        predicted = standard_shift_add_patients(world.cohort, "H1", "2", eta)
        before = internal_standard(world.cohort)["2"]
        grown = world.cohort.with_table(
            StratumTable.build("H1", {"1": (40.0, 0.1), "2": (10.0 + eta, 0.3)})
        )
        after = internal_standard(grown)["2"]
        assert predicted == pytest.approx(after - before, abs=EXACT_TOL)

    def test_large_eta_limit(self):
        world = casemix_int_world(10.0)
        move = standard_shift_add_patients(world.cohort, "H1", "2", 1e9)
        mean = internal_standard(world.cohort)["2"]
        assert move == pytest.approx(0.3 - mean, rel=1e-6)

    def test_eta_must_be_positive(self):
        world = casemix_int_world(10.0)
        with pytest.raises(InvalidParameterError):
            standard_shift_add_patients(world.cohort, "H1", "2", 0.0)


# ---------------------------------------------------------------------------
# randomized identity and derivative agreement suites
# ---------------------------------------------------------------------------


def _identity_config(rng: Random):
    cohort, strata = random_cohort(rng, allow_empty=False)
    standard = random_standard(rng, strata)
    table = cohort.hospitals[0]
    pops = populated_strata(table)
    l, k = rng.sample(pops, 2)
    eta = table.count(l) * rng.uniform(0.2, 1.0)
    factor = 10.0 ** rng.uniform(-0.7, 0.7)
    return cohort, standard, table, l, k, eta, factor


N_QUICK = 150


class TestRandomizedIdentities:
    def test_discrete_changes_are_exact(self):
        rng = Random(1234)
        for _ in range(N_QUICK):
            cohort, standard, table, l, k, eta, factor = _identity_config(rng)
            h = table.hospital
            shift = CaseMixShift(l, k, eta)
            ext = omega_external(table, standard, shift)
            assert abs(ext.value - ext.fd_check) <= EXACT_TOL
            inner = omega_internal(cohort, h, shift)
            assert abs(inner.value - inner.fd_check) <= EXACT_TOL
            flat = scale_invariance_external(table, standard, ScaleChange(factor))
            assert abs(flat.value) <= EXACT_TOL
            scale = delta_smr_scale_internal(cohort, h, ScaleChange(factor))
            assert abs(scale.value - scale.fd_check) <= EXACT_TOL

    def test_derivatives_match_finite_differences(self):
        rng = Random(4321)
        for _ in range(N_QUICK):
            cohort, standard, table, l, k, eta, factor = _identity_config(rng)
            h = table.hospital
            other = cohort.hospitals[1].hospital
            dp = rng.uniform(0.001, 0.02)
            for report in (
                me_actual_external(table, standard, k),
                me_expected_external(table, standard, k),
                dsmr_uniform_actual_external(table, standard, dp),
                dsmr_uniform_expected_external(table, standard, dp),
                me_actual_internal(cohort, h, k),
                dsmr_uniform_actual_internal(cohort, h, dp),
                dsmr_expected_internal(cohort, h, k, dp),
                me_cross_hospital_internal(cohort, h, other, k),
            ):
                assert agrees(report), report

    def test_sign_always_matches_recomputation(self):
        rng = Random(999)
        for _ in range(N_QUICK):
            cohort, standard, table, l, k, eta, factor = _identity_config(rng)
            for report in (
                omega_external(table, standard, CaseMixShift(l, k, eta)),
                omega_internal(cohort, table.hospital, CaseMixShift(l, k, eta)),
                delta_smr_scale_internal(cohort, table.hospital, ScaleChange(factor)),
            ):
                recomputed = report.fd_check
                if abs(recomputed) <= EXACT_TOL:
                    assert report.sign == "zero"
                elif recomputed > 0.0:
                    assert report.sign == "increase"
                else:
                    assert report.sign == "decrease"


class TestCrossCheckBound:
    def test_every_row_has_a_golden_run(self):
        assert sorted(ANALYSES) == sorted(SENSITIVITY_RUNS)

    def test_exact_bound_scales_with_the_ratios_subtracted(self):
        table = StratumTable.build("H1", {"1": (37.0, 0.31), "2": (53.0, 0.47)})
        standard = ExternalStandard({"1": 0.00013, "2": 0.00007})
        report = omega_external(table, standard, CaseMixShift("2", "1", 7.0))
        residual, bound = cross_check(report, "exact")
        assert report.details["smr_before"] == pytest.approx(4270.0, rel=1e-3)
        assert bound == EXACT_TOL * report.details["smr_before"]
        assert EXACT_TOL < residual <= bound

    def test_exact_bound_is_absolute_for_ratios_at_most_one(self):
        report = omega_external(
            StratumTable.build("H1", {"1": (10.0, 0.1), "2": (10.0, 0.1)}),
            ExternalStandard({"1": 0.2, "2": 0.2}),
            CaseMixShift("1", "2", 5.0),
        )
        assert cross_check(report, "exact")[1] == EXACT_TOL

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 4.0))
    @settings(max_examples=300, deadline=None)
    def test_exact_rows_stay_in_bound_far_from_unity(self, seed, u):
        # standard rates down to 5e-6 put the ratio near 1e5, where a flat EXACT_TOL rejects correct reports
        rng = Random(seed)
        cohort, strata = random_cohort(rng)
        standard = ExternalStandard({s: r * 10.0 ** -u for s, r in random_standard(rng, strata).rates.items()})
        table = cohort.hospitals[0]
        l = rng.choice(populated_strata(table))
        receivers = [s for s in strata if s != l and table.rate(s) is not None]
        assume(receivers)
        parameters = {
            "hospital_id": table.hospital, "from_stratum": l, "to_stratum": rng.choice(receivers),
            "eta": table.count(l) * rng.uniform(0.2, 1.0), "lambda": 10.0 ** rng.uniform(-0.7, 0.7),
        }
        for analysis in ("shift", "scale"):
            row = ANALYSES[analysis, "external"]
            report = row.run(World(cohort, standard), parameters, SIGN_ZERO_TOL)
            residual, bound = cross_check(report, row.check)
            assert residual <= bound, (analysis, report)

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.floats(-0.009, 0.009))
    @settings(max_examples=300, deadline=None)
    def test_no_false_warning_on_well_conditioned_input(self, seed, allow_empty, dp):
        # rates are at least 0.01 and standard rates at least 0.05, so |dp| < 0.01 never clamps
        rng = Random(seed)
        cohort, strata = random_cohort(rng, allow_empty=allow_empty)
        standard = random_standard(rng, strata)
        table = cohort.hospitals[0]
        l = rng.choice(populated_strata(table))
        receivers = [s for s in strata if s != l and table.rate(s) is not None and cohort.stratum_count(s) > 0.0]
        assume(receivers)
        k = rng.choice(receivers)
        parameters = {
            "hospital_id": table.hospital, "stratum_id": k, "from_stratum": l, "to_stratum": k,
            "other_hospital": cohort.hospitals[1].hospital, "eta": table.count(l) * rng.uniform(0.2, 1.0),
            "lambda": 10.0 ** rng.uniform(-0.7, 0.7), "dp": dp,
        }
        for (analysis, scheme), row in ANALYSES.items():
            world = World(cohort, standard if scheme == "external" else None)
            report = row.run(world, parameters, SIGN_ZERO_TOL)
            residual, bound = cross_check(report, row.check)
            assert residual <= bound, (analysis, scheme, report)


#: Audit stream -> the sensitivity row it perturbs by, and that row's parameters from a probe.
AUDIT_STREAMS = {
    "case_mix_insensitivity": ("shift", lambda p: {
        "from_stratum": p.shift.from_stratum, "to_stratum": p.shift.to_stratum, "eta": p.shift.eta}),
    "scale_insensitivity": ("scale", lambda p: {"lambda": p.factor}),
    "strict_monotonicity": ("me-actual", lambda p: {"stratum_id": p.stratum}),
}


class TestAuditProbes:
    @pytest.mark.parametrize("scheme", ["external", "internal"])
    @pytest.mark.parametrize("axiom", sorted(AUDIT_STREAMS))
    def test_closed_forms_agree_with_recomputation_on_the_audit_probes(self, axiom, scheme):
        analysis, parameters_of = AUDIT_STREAMS[axiom]
        row = ANALYSES[analysis, scheme]
        for probe in islice(ProbeGenerator(17).stream(axiom, scheme), 300):
            parameters = {"hospital_id": probe.hospital, **parameters_of(probe)}
            report = row.run(probe.world, parameters, SIGN_ZERO_TOL)
            residual, bound = cross_check(report, row.check)
            assert residual <= bound, (probe, report)
