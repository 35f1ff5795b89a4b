"""Core model: rates, standards and the two ratio variants."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from smr_axioms import core
from smr_axioms import (
    Cohort,
    EXACT_TOL,
    ExternalStandard,
    StratumCell,
    StratumTable,
    actual_rate,
    expected_rate_external,
    expected_rate_internal,
    internal_standard,
    smr_all,
    smr_external,
    smr_internal,
)
from smr_axioms.errors import (
    EmptyHospitalError,
    InvalidParameterError,
    MissingStandardRateError,
    UnknownHospitalError,
    ZeroExpectedRateError,
)

from worlds import random_cohort, random_standard

TWO_STRATA_TABLE = StratumTable.build("H", {"1": (20.0, 0.05), "2": (40.0, 0.15)})
FLAT_STANDARD = ExternalStandard({"1": 0.1, "2": 0.1})


def three_strata_table(eta: float = 0.0) -> StratumTable:
    return StratumTable.build(
        "H1", {"1": (20.0 - eta, 0.2), "2": (eta, 0.1), "3": (5.0, 0.2)}
    )


THREE_STANDARD = ExternalStandard({"1": 0.2, "2": 0.1, "3": 0.15})


class TestActualRate:
    def test_two_strata_weighted_mean(self):
        assert actual_rate(TWO_STRATA_TABLE) == pytest.approx(7.0 / 60.0, abs=EXACT_TOL)

    def test_single_stratum(self):
        table = StratumTable.build("H", {"only": (10.0, 0.3)})
        assert actual_rate(table) == 0.3

    def test_all_zero_rates(self):
        table = StratumTable.build("H", {"1": (5.0, 0.0), "2": (5.0, 0.0)})
        assert actual_rate(table) == 0.0

    def test_empty_hospital_rejected(self):
        table = StratumTable.build("H", {"1": (0.0, None)})
        with pytest.raises(EmptyHospitalError):
            actual_rate(table)

    def test_zero_count_rate_ignored(self):
        with_noise = StratumTable.build("H", {"1": (10.0, 0.3), "2": (0.0, 0.9)})
        without = StratumTable.build("H", {"1": (10.0, 0.3)})
        assert actual_rate(with_noise) == actual_rate(without)


class TestExpectedRateExternal:
    def test_flat_standard(self):
        assert expected_rate_external(TWO_STRATA_TABLE, FLAT_STANDARD) == pytest.approx(0.1, abs=EXACT_TOL)

    def test_three_strata(self):
        assert expected_rate_external(three_strata_table(), THREE_STANDARD) == pytest.approx(
            4.75 / 25.0, abs=EXACT_TOL
        )

    def test_standard_equal_to_rates(self):
        table = StratumTable.build("H", {"1": (3.0, 0.2), "2": (7.0, 0.4)})
        standard = ExternalStandard({"1": 0.2, "2": 0.4})
        assert expected_rate_external(table, standard) == actual_rate(table)

    def test_missing_rate_is_typed_error(self):
        standard = ExternalStandard({"1": 0.1})
        with pytest.raises(MissingStandardRateError) as exc:
            expected_rate_external(TWO_STRATA_TABLE, standard)
        assert exc.value.stratum == "2"

    def test_missing_rate_on_empty_stratum_ok(self):
        table = StratumTable.build("H", {"1": (10.0, 0.3), "ghost": (0.0, None)})
        standard = ExternalStandard({"1": 0.25})
        assert expected_rate_external(table, standard) == 0.25


class TestSmrExternal:
    def test_headline_ratio(self):
        result = smr_external(TWO_STRATA_TABLE, FLAT_STANDARD)
        assert result.smr == pytest.approx(7.0 / 6.0, abs=EXACT_TOL)
        assert result.scheme == "external"
        assert result.smr == result.actual_rate / result.expected_rate

    def test_three_strata_pair(self):
        h1 = smr_external(three_strata_table(), THREE_STANDARD)
        assert h1.smr == pytest.approx(5.0 / 4.75, abs=EXACT_TOL)
        h2 = StratumTable.build("H2", {"1": (20.0, 0.2), "2": (0.0, 0.1), "3": (5.0, 0.1)})
        assert smr_external(h2, THREE_STANDARD).smr == pytest.approx(4.5 / 4.75, abs=EXACT_TOL)

    def test_matching_rates_give_unity(self):
        table = StratumTable.build("H", {"1": (3.0, 0.2), "2": (9.0, 0.05)})
        standard = ExternalStandard({"1": 0.2, "2": 0.05})
        assert smr_external(table, standard).smr == pytest.approx(1.0, abs=EXACT_TOL)

    def test_zero_expected_rate_refused(self):
        standard = ExternalStandard({"1": 0.0, "2": 0.0})
        with pytest.raises(ZeroExpectedRateError):
            smr_external(TWO_STRATA_TABLE, standard)

    def test_zero_standard_rate_on_one_stratum_allowed(self):
        standard = ExternalStandard({"1": 0.0, "2": 0.2})
        result = smr_external(TWO_STRATA_TABLE, standard)
        assert result.expected_rate == pytest.approx(8.0 / 60.0, abs=EXACT_TOL)


class TestInternalStandard:
    def test_two_hospital_cohort(self):
        cohort = Cohort.build(
            {
                "H1": {"1": (50.0, 0.1), "2": (0.0, 0.3)},
                "H2": {"1": (25.0, 0.1), "2": (10.0, 0.1)},
            }
        )
        standard = internal_standard(cohort)
        assert standard["1"] == pytest.approx(0.1, abs=EXACT_TOL)
        assert standard["2"] == pytest.approx(0.1, abs=EXACT_TOL)

    def test_single_hospital_is_its_own_reference(self):
        cohort = Cohort.build({"H": {"1": (3.0, 0.12), "2": (8.0, 0.4)}})
        standard = internal_standard(cohort)
        assert standard["1"] == pytest.approx(0.12, abs=EXACT_TOL)
        assert standard["2"] == pytest.approx(0.4, abs=EXACT_TOL)

    def test_share_weighted_mix(self):
        cohort = Cohort.build(
            {
                "H1": {"1": (80.0, 0.5), "2": (50.0, 0.4)},
                "H2": {"1": (20.0, 0.1), "2": (50.0, 0.1)},
                "H3": {"1": (0.0, None), "2": (40.0, 0.3)},
            }
        )
        standard = internal_standard(cohort)
        assert standard["1"] == pytest.approx(0.42, abs=EXACT_TOL)
        assert standard["2"] == pytest.approx(37.0 / 140.0, abs=EXACT_TOL)

    def test_empty_stratum_omitted(self):
        cohort = Cohort.build({"H": {"1": (5.0, 0.2), "void": (0.0, None)}})
        assert "void" not in internal_standard(cohort)


class TestSmrInternal:
    def test_two_hospital_values(self):
        cohort = Cohort.build(
            {
                "H1": {"1": (40.0, 0.1), "2": (10.0, 0.3)},
                "H2": {"1": (25.0, 0.1), "2": (10.0, 0.1)},
            }
        )
        assert smr_internal(cohort, "H1").smr == pytest.approx(7.0 / 6.0, abs=EXACT_TOL)
        assert smr_internal(cohort, "H2").smr == pytest.approx(3.5 / 4.5, abs=EXACT_TOL)

    def test_average_hospital_scores_unity(self):
        cohort = Cohort.build(
            {
                "A": {"1": (30.0, 0.25), "2": (10.0, 0.05)},
                "B": {"1": (10.0, 0.25), "2": (30.0, 0.05)},
            }
        )
        # identical stratum rates across the cohort pin the benchmark there
        assert smr_internal(cohort, "A").smr == pytest.approx(1.0, abs=EXACT_TOL)
        assert smr_internal(cohort, "B").smr == pytest.approx(1.0, abs=EXACT_TOL)

    def test_identical_hospitals_all_unity(self):
        cells = {"1": (12.0, 0.2), "2": (4.0, 0.35)}
        cohort = Cohort.build({"A": cells, "B": cells, "C": cells})
        for h in ("A", "B", "C"):
            assert smr_internal(cohort, h).smr == pytest.approx(1.0, abs=EXACT_TOL)

    def test_unknown_hospital(self):
        cohort = Cohort.build({"A": {"1": (1.0, 0.2)}})
        with pytest.raises(UnknownHospitalError):
            smr_internal(cohort, "missing")

    def test_zero_expected_refused(self):
        cohort = Cohort.build({"A": {"1": (5.0, 0.0)}, "B": {"1": (5.0, 0.0)}})
        with pytest.raises(ZeroExpectedRateError):
            smr_internal(cohort, "A")


class TestValidation:
    def test_populated_cell_needs_rate(self):
        with pytest.raises(InvalidParameterError):
            StratumCell(3.0, None)

    def test_rate_range(self):
        with pytest.raises(InvalidParameterError):
            StratumCell(3.0, 1.5)

    def test_negative_count(self):
        with pytest.raises(InvalidParameterError):
            StratumCell(-1.0, 0.2)

    def test_duplicate_hospital_ids(self):
        t = StratumTable.build("A", {"1": (1.0, 0.1)})
        with pytest.raises(InvalidParameterError):
            Cohort((t, t))

    def test_standard_rate_range(self):
        with pytest.raises(InvalidParameterError):
            ExternalStandard({"1": -0.2})

    # Writers stringify ids, so 1 and "1" would serialize to one key.
    def test_hospital_ids_colliding_as_strings(self):
        with pytest.raises(InvalidParameterError, match="collide"):
            Cohort.build({1: {"1": (5.0, 0.1)}, "1": {"1": (5.0, 0.2)}})

    def test_stratum_ids_colliding_as_strings(self):
        with pytest.raises(InvalidParameterError, match="collide"):
            StratumTable.build("H", {1: (5.0, 0.1), "1": (5.0, 0.2)})

    def test_standard_ids_colliding_as_strings(self):
        with pytest.raises(InvalidParameterError, match="collide"):
            ExternalStandard({1: 0.1, "1": 0.2})


class TestSmrAll:
    def test_internal_builds_the_benchmark_once(self, monkeypatch):
        calls = []
        original = core.internal_standard

        def counted(cohort):
            calls.append(cohort)
            return original(cohort)

        monkeypatch.setattr(core, "internal_standard", counted)
        cohort, _ = random_cohort(Random(5), hospitals=12)
        assert len(smr_all(cohort, "internal")) == 12
        assert len(calls) == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_internal_matches_per_hospital_results_exactly(self, seed):
        cohort, _ = random_cohort(Random(seed))
        assert smr_all(cohort, "internal") == [
            smr_internal(cohort, h) for h in cohort.ids()
        ]

    def test_external_needs_a_standard(self):
        cohort, _ = random_cohort(Random(1))
        with pytest.raises(InvalidParameterError):
            smr_all(cohort, "external")


class TestInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_smr_nonnegative_and_zero_iff_dead_quiet(self, seed):
        rng = Random(seed)
        cohort, strata = random_cohort(rng)
        standard = random_standard(rng, strata)
        for table in cohort.hospitals:
            result = smr_external(table, standard)
            assert result.smr >= 0.0
            assert (result.smr == 0.0) == (result.actual_rate == 0.0)
            internal = smr_internal(cohort, table.hospital)
            assert internal.smr >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_grand_mean_consistency(self, seed):
        # patient-weighted mean of expected rates == weighted mean of actual
        # rates: both are the cohort-wide mortality rate.
        rng = Random(seed)
        cohort, _ = random_cohort(rng)
        total = sum(t.total_count for t in cohort.hospitals)
        expected = math.fsum(
            expected_rate_internal(cohort, t.hospital) * t.total_count for t in cohort.hospitals
        )
        actual = math.fsum(actual_rate(t) * t.total_count for t in cohort.hospitals)
        assert expected / total == pytest.approx(actual / total, abs=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.1, 1.9))
    @settings(max_examples=60, deadline=None)
    def test_external_smr_homogeneous_in_common_rate_factor(self, seed, factor):
        rng = Random(seed)
        cohort, strata = random_cohort(rng, hospitals=1)
        table = cohort.hospitals[0]
        standard = random_standard(rng, strata)
        scaled_cells = {
            sid: (c.count, None if c.rate is None else min(1.0, c.rate * factor))
            for sid, c in table.cells.items()
        }
        if any(
            c.rate is not None and c.rate * factor > 1.0 for c in table.cells.values()
        ):
            return
        scaled_table = StratumTable.build(table.hospital, scaled_cells)
        scaled_standard = ExternalStandard(
            {sid: r * factor for sid, r in standard.rates.items()}
        )
        if any(r * factor > 1.0 for r in standard.rates.values()):
            return
        original = smr_external(table, standard).smr
        scaled = smr_external(scaled_table, scaled_standard).smr
        assert scaled == pytest.approx(original, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_is_exact(self, seed):
        rng = Random(seed)
        cohort, strata = random_cohort(rng)
        standard = random_standard(rng, strata)
        reversed_cohort = Cohort(tuple(reversed(cohort.hospitals)))
        shuffled = Cohort(
            tuple(
                StratumTable(t.hospital, dict(reversed(list(t.cells.items()))))
                for t in cohort.hospitals
            )
        )
        for variant in (reversed_cohort, shuffled):
            for table in cohort.hospitals:
                assert (
                    smr_internal(variant, table.hospital).smr
                    == smr_internal(cohort, table.hospital).smr
                )
        table = cohort.hospitals[0]
        twisted = StratumTable(table.hospital, dict(reversed(list(table.cells.items()))))
        assert smr_external(twisted, standard).smr == smr_external(table, standard).smr
