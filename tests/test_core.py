"""Core model: rates, standards and the two ratio variants."""

import copy
import dataclasses
import math
import pickle
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from smr_axioms import core
from smr_axioms import (
    CaseMixShift,
    Cohort,
    EXACT_TOL,
    ExternalStandard,
    ScaleChange,
    StratumCell,
    StratumTable,
    actual_rate,
    expected_rate_external,
    expected_rate_internal,
    internal_standard,
    scale_hospital,
    shift_case_mix,
    smr_all,
    smr_external,
    smr_internal,
    with_cell,
    with_rate,
)
from smr_axioms.errors import (
    EmptyHospitalError,
    InvalidParameterError,
    MissingStandardRateError,
    SmrError,
    TotalOverflowError,
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
        with pytest.raises(ZeroExpectedRateError, match="zero expected mortality under the standard$"):
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


def _reference_strata(cohort):
    out = {}
    for t in cohort.hospitals:
        for sid in t.strata:
            out.setdefault(sid)
    return tuple(out)


def _reference_stratum_count(cohort, stratum):
    """The two-pass ``Cohort.stratum_count`` that walked every hospital per call."""
    return math.fsum(t.count(stratum) for t in cohort.hospitals)


def _reference_internal_standard(cohort):
    """The two-pass ``internal_standard``: per stratum, one walk for patients and one for deaths."""
    out = {}
    for sid in _reference_strata(cohort):
        total = _reference_stratum_count(cohort, sid)
        if total > 0.0:
            deaths = math.fsum(
                t.cells[sid].count * t.cells[sid].rate
                for t in cohort.hospitals
                if sid in t.cells and t.cells[sid].count > 0.0
            )
            out[sid] = deaths / total
    return out


def _ragged_cohort(rng):
    """A ``worlds`` cohort whose hospitals drop, reorder and zero (as -0.0) some of their strata."""
    cohort, strata = random_cohort(rng)
    tables = []
    for t in cohort.hospitals:
        cells = {}
        for sid in rng.sample(list(t.cells), rng.randint(0, len(t.cells))):
            cell = t.cells[sid]
            cells[sid] = StratumCell(-0.0, cell.rate) if rng.random() < 0.1 else cell
        tables.append(StratumTable(t.hospital, cells))
    return Cohort(tuple(tables)), strata


def _hexes(values):
    return [v.hex() for v in values]


class TestStratumSums:
    """Cohort-wide stratum totals are summed once per cohort object, with the two-pass values."""

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_two_pass_reference(self, seed, ragged):
        rng = Random(seed)
        cohort, strata = _ragged_cohort(rng) if ragged else random_cohort(rng)
        expected = _reference_internal_standard(cohort)
        got = internal_standard(cohort)
        assert list(got.items()) == list(expected.items())
        assert _hexes(got.values()) == _hexes(expected.values())
        assert cohort.strata() == _reference_strata(cohort)
        for sid in [*strata, "unknown", 7]:
            assert cohort.stratum_count(sid).hex() == _reference_stratum_count(cohort, sid).hex()

    def test_stratum_empty_cohort_wide(self):
        cohort = Cohort.build({"H1": {"1": (5.0, 0.2), "void": (0.0, None)}, "H2": {"void": (0.0, 0.4)}})
        assert list(internal_standard(cohort)) == ["1"]
        assert cohort.stratum_count("void") == 0.0
        assert cohort.strata() == ("1", "void")

    def test_negative_zero_counts(self):
        everywhere = Cohort.build({"H1": {"1": (2.0, 0.5), "z": (-0.0, None)}, "H2": {"z": (-0.0, 0.3)}})
        in_one = Cohort.build({"H1": {"1": (2.0, 0.5), "z": (-0.0, None)}, "H2": {"1": (1.0, 0.2)}})
        for cohort in (everywhere, in_one):
            assert cohort.stratum_count("z").hex() == _reference_stratum_count(cohort, "z").hex()
            assert "z" not in internal_standard(cohort)

    def test_stratum_in_some_hospitals_only(self):
        cohort = Cohort.build(
            {"H1": {"a": (10.0, 0.1)}, "H2": {"b": (30.0, 0.2), "a": (30.0, 0.3)}, "H3": {"c": (5.0, 0.4)}}
        )
        assert cohort.strata() == ("a", "b", "c")
        assert cohort.stratum_count("a") == 40.0
        assert internal_standard(cohort) == {"a": 10.0 / 40.0, "b": 0.2, "c": 0.4}

    def test_with_table_copy_sums_its_own_cells(self):
        cohort = Cohort.build({"H1": {"1": (10.0, 0.1)}, "H2": {"1": (10.0, 0.3)}})
        assert internal_standard(cohort) == {"1": 0.2}
        copy = cohort.with_table(StratumTable.build("H2", {"1": (30.0, 0.3), "2": (4.0, 0.5)}))
        assert internal_standard(copy) == _reference_internal_standard(copy) == {"1": 0.25, "2": 0.5}
        assert copy.stratum_count("1") == 40.0
        assert internal_standard(cohort) == {"1": 0.2}

    def test_returned_dict_is_fresh(self):
        cohort = Cohort.build({"H1": {"1": (10.0, 0.1)}, "H2": {"1": (10.0, 0.3)}})
        first = internal_standard(cohort)
        first["1"] = 0.9
        first["extra"] = 0.5
        assert internal_standard(cohort) == {"1": 0.2}
        assert internal_standard(cohort) is not internal_standard(cohort)

    def test_summed_on_first_use_only(self, monkeypatch):
        calls = []

        def counted(terms):
            calls.append(None)
            return math.fsum(terms)

        monkeypatch.setattr(core, "fsum", counted)
        cohort, strata = random_cohort(Random(3), hospitals=6, strata_count=4)
        assert calls == []  # building the cohort sums nothing
        first = internal_standard(cohort)
        assert calls
        calls.clear()
        assert internal_standard(cohort) == first
        assert [cohort.stratum_count(sid) for sid in strata] == [
            _reference_stratum_count(cohort, sid) for sid in strata
        ]
        assert calls == []
        table = cohort.table("H1")
        ratio = core.smr(table, first, "internal")
        ratio_calls = len(calls)
        calls.clear()
        assert smr_internal(cohort, "H1") == ratio
        assert len(calls) == ratio_calls  # only the hospital's own sums, none over the cohort


def _perturb(rng, table):
    """``table`` after one random change of the kinds that sensitivity analyses and probes make."""
    cells = list(table.cells)
    kinds = ["rate", "count", "zero", "add", "reorder", "scale", "shift"] if cells else ["add"]
    kind, sid = rng.choice(kinds), rng.choice(cells) if cells else None
    rate = table.rate(sid)
    if kind == "rate":
        return with_rate(table, sid, rng.choice([rng.uniform(0.0, 1.0), 0.0, -0.0]))
    if kind == "count":  # from 0 or not, to a positive count
        rate = rng.uniform(0.01, 0.5) if rate is None else rate
        return with_cell(table, sid, 10.0 ** rng.uniform(-1.0, 3.0), rate)
    if kind == "zero":
        return with_cell(table, sid, rng.choice([0.0, -0.0]), rng.choice([rate, None, -0.0]))
    if kind == "add":
        sid = rng.choice(["S1", "S2", "new"])  # new to the table, or replaced
        return with_cell(table, sid, 10.0 ** rng.uniform(0.0, 3.0), rng.uniform(0.01, 0.5))
    if kind == "reorder":
        return StratumTable(table.hospital, dict(reversed(table.cells.items())))
    if kind == "scale":
        return scale_hospital(table, ScaleChange(10.0 ** rng.uniform(-1.0, 1.0)))
    donors = [s for s in cells if table.count(s) > 0.0]
    src = rng.choice(donors) if donors else sid
    takers = [s for s in cells if s != src and table.rate(s) is not None]
    if not donors or not takers:
        return with_rate(table, sid, 0.5)
    eta = table.count(src) * rng.choice([rng.random(), 1.0])
    return shift_case_mix(table, CaseMixShift(src, rng.choice(takers), eta))


def _assert_totals_of_a_fresh_cohort(cohort):
    fresh = Cohort(cohort.hospitals)
    assert cohort.strata() == fresh.strata()
    got, want = internal_standard(cohort), internal_standard(fresh)
    assert list(got) == list(want)
    assert _hexes(got.values()) == _hexes(want.values())
    for sid in [*fresh.strata(), "unknown"]:
        assert cohort.stratum_count(sid).hex() == fresh.stratum_count(sid).hex()


class _Tripwire(Mapping):
    """Cells that fail the test when anything reads them."""

    def _trip(self, *args):
        raise AssertionError("read the cells of a hospital the copy did not replace")

    __getitem__ = __iter__ = __len__ = _trip


class TestWithTableTotals:
    """A copy's stratum totals, derived from its parent's or summed, equal those of a fresh cohort."""

    @given(st.integers(0, 10_000), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_copies_match_a_fresh_cohort(self, seed, ragged, parent_summed):
        rng = Random(seed)
        cohort, _ = _ragged_cohort(rng) if ragged else random_cohort(rng)
        if parent_summed:
            internal_standard(cohort)
        copy = cohort.with_table(_perturb(rng, rng.choice(cohort.hospitals)))
        if rng.random() < 0.5:
            _assert_totals_of_a_fresh_cohort(copy)
        copy_of_copy = copy.with_table(_perturb(rng, rng.choice(copy.hospitals)))
        _assert_totals_of_a_fresh_cohort(copy)
        _assert_totals_of_a_fresh_cohort(copy_of_copy)

    @pytest.mark.parametrize(
        "perturb",
        [
            lambda t: with_rate(t, "S2", 0.45),
            lambda t: with_cell(t, "S1", 0.0, None),
            lambda t: scale_hospital(t, ScaleChange(3.0)),
            lambda t: shift_case_mix(t, CaseMixShift("S1", "S2", t.count("S1") / 2)),
        ],
        ids=["rate", "emptied", "scaled", "shifted"],
    )
    def test_copy_never_reads_the_other_hospitals_cells(self, perturb):
        cohort, _ = random_cohort(Random(11), hospitals=40, strata_count=5, allow_empty=False)
        internal_standard(cohort)
        table = cohort.table("H7")
        new = perturb(table)
        fresh = Cohort(tuple(new if t is table else t for t in cohort.hospitals))
        strata, rates, ratio = fresh.strata(), internal_standard(fresh), smr_internal(fresh, "H7")
        for t in cohort.hospitals:
            if t is not table:
                object.__setattr__(t, "cells", _Tripwire())
        copy = cohort.with_table(new)
        assert copy.strata() == strata
        assert list(internal_standard(copy)) == list(rates)
        assert _hexes(internal_standard(copy).values()) == _hexes(rates.values())
        assert smr_internal(copy, "H7") == ratio


    def test_copy_re_sums_only_the_terms_it_changes(self, monkeypatch):
        cohort, _ = random_cohort(Random(5), hospitals=30, strata_count=6, allow_empty=False)
        internal_standard(cohort)
        calls = []
        monkeypatch.setattr(core, "fsum", lambda terms: calls.append(None) or math.fsum(terms))
        table = cohort.table("H3")
        same = cohort.with_table(StratumTable(table.hospital, table.cells))
        assert internal_standard(same) == internal_standard(cohort)
        assert calls == []
        internal_standard(cohort.with_table(with_rate(table, "S2", 0.33)))
        assert len(calls) == 1  # the deaths of S2: no count moved
        calls.clear()
        internal_standard(cohort.with_table(scale_hospital(table, ScaleChange(2.0))))
        assert len(calls) == 12  # patients and deaths of every stratum


def _exact_sums(cohort):
    """Per stratum in first-seen order, the exact sum of its terms rounded once: the ``count`` of
    every cell and the ``count * rate`` of every populated one. Every float is a ``Fraction``."""
    terms = {}
    for t in cohort.hospitals:
        for sid, c in t.cells.items():
            patients, deaths = terms.setdefault(sid, ([], []))
            patients.append(c.count)
            if c.count > 0.0:
                deaths.append(c.count * c.rate)
    return {sid: tuple(float(sum(Fraction(x) for x in col)) for col in cols) for sid, cols in terms.items()}


def _assert_exact_totals(cohort):
    exact = _exact_sums(cohort)
    sums = cohort._stratum_sums()
    assert list(sums) == list(exact) == list(cohort.strata())
    for sid, (patients, deaths) in exact.items():
        assert _hexes(sums[sid]) == _hexes((patients, deaths))  # an exact zero is +0.0
        assert cohort.stratum_count(sid).hex() == patients.hex()
    got = internal_standard(cohort)
    assert _hexes(got.values()) == _hexes(d / p for p, d in exact.values() if p > 0.0)


class TestExactTotals:
    """Every stratum total, summed or derived by a copy, is its terms' exact sum rounded once."""

    @given(st.integers(0, 10_000), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_cohorts_and_copies(self, seed, ragged, parent_summed, copy_summed):
        rng = Random(seed)
        cohort, _ = _ragged_cohort(rng) if ragged else random_cohort(rng, hospitals=rng.choice([None, 12]))
        if parent_summed:
            _assert_exact_totals(cohort)
        copy = cohort.with_table(_perturb(rng, rng.choice(cohort.hospitals)))
        if copy_summed:
            _assert_exact_totals(copy)
        copy_of_copy = copy.with_table(_perturb(rng, rng.choice(copy.hospitals)))
        for c in (copy_of_copy, copy, cohort):
            _assert_exact_totals(c)

    def test_a_copy_recovers_a_term_its_parent_rounded_away(self):
        # 1e16 + 1 rounds to 1e16, so a running total minus 1e16 would give 0
        cohort = Cohort.build({"H1": {"1": (1e16, 0.5)}, "H2": {"1": (1.0, 0.25)}})
        assert cohort.stratum_count("1") == 1e16
        copy = cohort.with_table(with_cell(cohort.table("H1"), "1", 0.0, None))
        assert copy.stratum_count("1") == 1.0
        assert internal_standard(copy) == {"1": 0.25}
        _assert_exact_totals(copy)


class TestStratumSumsMemory:
    """Summing a cohort holds O(cells) bytes, however its stratum ids are spread over hospitals."""

    @pytest.mark.parametrize("hospitals", [400, 1_600])
    def test_hospital_specific_ids_peak_at_1_kib_per_cell(self, hospitals):
        cohort = Cohort.build(
            {f"H{h}": {f"H{h}-S{s}": (10.0 + s, 0.1 * s) for s in range(5)} for h in range(hospitals)}
        )
        tracemalloc.start()
        try:
            internal_standard(cohort)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * hospitals * 5


class TestTotalOverflow:
    """A patient total beyond the float range is a typed error, not an ``OverflowError``."""

    def test_hospital_total(self):
        table = StratumTable.build("H", {"1": (1e308, 0.2), "2": (1e308, 0.1)})
        with pytest.raises(TotalOverflowError, match="hospital 'H'"):
            table.total_count
        with pytest.raises(TotalOverflowError):
            smr_external(table, ExternalStandard({"1": 0.1, "2": 0.1}))

    def test_stratum_total(self):
        cohort = Cohort.build({"H1": {"1": (1e308, 0.2)}, "H2": {"1": (1e308, 0.1)}})
        for _ in range(2):  # nothing is kept from a failed sum
            with pytest.raises(TotalOverflowError, match="stratum"):
                internal_standard(cohort)
        with pytest.raises(TotalOverflowError):
            smr_all(cohort, "internal")

    def test_derived_copy_raises_as_a_fresh_cohort(self):
        cohort = Cohort.build(
            {"H1": {"1": (1e308, 0.2), "2": (1.0, 0.1)}, "H2": {"1": (1.0, 0.1), "2": (1.0, 0.3)}}
        )
        internal_standard(cohort)
        copy = cohort.with_table(StratumTable.build("H2", {"1": (1e308, 0.1), "2": (1.0, 0.3)}))
        with pytest.raises(TotalOverflowError) as fresh:
            internal_standard(Cohort(copy.hospitals))
        object.__setattr__(cohort.table("H1"), "cells", _Tripwire())  # the copy must derive its totals
        with pytest.raises(TotalOverflowError) as derived:
            internal_standard(copy)
        assert str(derived.value) == str(fresh.value)


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
        with pytest.raises(ZeroExpectedRateError, match="zero expected mortality under the internal benchmark$"):
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
        a, b = (StratumTable.build(h, {"1": (1.0, 0.1)}) for h in ("A", "B"))
        with pytest.raises(InvalidParameterError, match="^duplicate hospital id 'B'$"):
            Cohort((a, b, b))

    def test_one_element_cell_leaves_the_rate_undefined(self):
        assert StratumTable.build("H", {"1": (0.0,)}).cells == {"1": StratumCell(0.0, None)}
        with pytest.raises(InvalidParameterError, match="populated stratum needs a mortality rate"):
            StratumTable.build("H", {"1": (5.0,)})

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

    def test_with_cell_checks_an_added_stratum_id_and_every_cell(self):
        table = StratumTable.build("H", {1: (5.0, 0.1)})
        with pytest.raises(InvalidParameterError, match="collide"):
            with_cell(table, "1", 5.0, 0.2)
        with pytest.raises(InvalidParameterError, match="patient count"):
            with_cell(table, 1, -1.0, 0.2)
        assert with_cell(table, 1, 6.0, 0.2) == StratumTable.build("H", {1: (6.0, 0.2)})

    # errors.py promises typed errors: none of these may escape as ValueError/TypeError.
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: StratumCell("abc", 0.5), id="count-not-a-number"),
            pytest.param(lambda: StratumCell(None, 0.5), id="count-none"),
            pytest.param(lambda: StratumCell(3.0, "abc"), id="rate-not-a-number"),
            pytest.param(lambda: ExternalStandard({"1": None}), id="standard-rate-none"),
            pytest.param(lambda: Cohort.build({"H": {"1": (1.0, 0.2, 3)}}), id="cell-of-three"),
            pytest.param(lambda: Cohort.build({"H": {"1": 5.0}}), id="cell-not-a-tuple"),
        ],
    )
    def test_unconvertible_input_is_a_typed_error(self, build):
        with pytest.raises(InvalidParameterError):
            build()


# Validation as it stood before exact floats took a short path; the
# property below holds the current code to it, input for input.
def _reference_rate(rate, what):
    rate = float(rate)
    if not (math.isfinite(rate) and 0.0 <= rate <= 1.0):
        raise InvalidParameterError(f"{what} must lie in [0, 1], got {rate!r}")
    return rate


def _reference_cell(count, rate):
    converted = float(count)
    if not (math.isfinite(converted) and converted >= 0.0):
        raise InvalidParameterError(f"patient count must be finite and >= 0, got {count!r}")
    if rate is None:
        if converted > 0.0:
            raise InvalidParameterError("populated stratum needs a mortality rate")
        return converted, None
    return converted, _reference_rate(rate, "mortality rate")


def _reference_standard(rates):
    return {sid: _reference_rate(r, f"standard rate of stratum {sid!r}") for sid, r in rates.items()}


def _new_cell(count, rate):
    cell = StratumCell(count, rate)
    return cell.count, cell.rate


def _new_standard(rates):
    return ExternalStandard(rates).rates


def _bits(value):
    return value if value is None else (type(value), value.hex())


def _outcome(build, *args):
    """What a constructor did: its stored floats (type and bits), its SmrError, or an untyped error."""
    try:
        values = build(*args)
    except SmrError as err:
        return type(err), str(err)
    except (TypeError, ValueError, OverflowError):
        return "untyped"
    if isinstance(values, dict):
        return tuple((sid, _bits(v)) for sid, v in values.items())
    return tuple(map(_bits, values))


class _Float(float):
    pass


_EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan,
]
_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-5, 2_000),
    st.sampled_from([10**400, -(10**400)]),
    st.booleans(),
    st.floats(allow_nan=True).map(_Float),
    st.sampled_from(_EDGE_FLOATS).map(_Float),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["abc", "", " 0.25 ", "1e400", "-0", "0x1p-1"]),
    st.none(),
)


class TestValidationMatchesReference:
    @staticmethod
    def _same(new, reference):
        if reference == "untyped":
            assert new[0] is InvalidParameterError
        else:
            assert new == reference

    @given(_VALUES, _VALUES)
    @settings(max_examples=600, deadline=None)
    def test_stratum_cell(self, count, rate):
        self._same(_outcome(_new_cell, count, rate), _outcome(_reference_cell, count, rate))

    @given(st.dictionaries(st.sampled_from(["1", "2", 3]), _VALUES, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_external_standard(self, rates):
        self._same(_outcome(_new_standard, rates), _outcome(_reference_standard, rates))

    def test_negative_zero_keeps_its_sign(self):
        cell = StratumCell(-0.0, -0.0)
        assert math.copysign(1.0, cell.count) == -1.0
        assert math.copysign(1.0, cell.rate) == -1.0
        assert math.copysign(1.0, ExternalStandard({"1": -0.0}).rates["1"]) == -1.0

    def test_subclass_and_int_are_stored_as_exact_floats(self):
        cell = StratumCell(_Float(2.0), True)
        assert type(cell.count) is float and type(cell.rate) is float
        assert type(ExternalStandard({"1": 1}).rates["1"]) is float


class TestCellContract:
    """What callers may rely on in a ``StratumCell``, however it is laid out."""

    CELL = StratumCell(12.0, 0.25)

    def test_slotted_without_a_dict(self):
        # a registry holds tens of thousands of cells, and a per-cell __dict__ nearly doubles the size of each
        assert StratumCell.__slots__ == ("count", "rate")
        assert not hasattr(self.CELL, "__dict__")

    def test_assignment_is_refused(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.CELL.count = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.CELL.rate = None

    def test_equality_and_hash_follow_the_fields(self):
        assert self.CELL == StratumCell(12, 0.25) and self.CELL != StratumCell(12.0, 0.5)
        assert hash(self.CELL) == hash(StratumCell(12.0, 0.25)) == hash((12.0, 0.25))
        assert StratumCell(0.0) == StratumCell(0.0, None) and hash(StratumCell(0.0)) == hash((0.0, None))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda cell: pickle.loads(pickle.dumps(cell)), dataclasses.replace],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_copies_are_equal_cells(self, clone):
        for cell in (self.CELL, StratumCell(0.0), StratumCell(-0.0, -0.0)):
            twin = clone(cell)
            assert type(twin) is StratumCell and twin == cell
            assert (_bits(twin.count), _bits(twin.rate)) == (_bits(cell.count), _bits(cell.rate))

    def test_replace_validates(self):
        assert dataclasses.replace(self.CELL, rate=0.5) == StratumCell(12.0, 0.5)
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(self.CELL, rate=None)


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

    @pytest.mark.parametrize("scheme", ["External", "INTERNAL", "", None])
    def test_unknown_scheme_refused(self, scheme):
        # a near-miss such as "External" must not get the internal ratios under its own label
        cohort, strata = random_cohort(Random(1))
        with pytest.raises(InvalidParameterError, match="^unknown scheme"):
            smr_all(cohort, scheme, random_standard(Random(2), strata))


class TestSmr:
    """``core.smr`` sums the patient total once; it must agree with the rate functions."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_rates_equal_the_public_functions(self, seed):
        rng = Random(seed)
        cohort, strata = random_cohort(rng)
        standard = random_standard(rng, strata)
        for rates in (standard.rates, internal_standard(cohort)):
            for table in cohort.hospitals:
                result = core.smr(table, rates, "external")
                assert result.actual_rate == actual_rate(table)
                assert result.expected_rate == core.expected_rate(table, rates)
                assert result.smr == result.actual_rate / result.expected_rate

    def test_empty_hospital_is_refused_first(self):
        table = StratumTable.build("H", {"1": (0.0, None), "2": (0.0, 0.0)})
        with pytest.raises(EmptyHospitalError):
            core.smr(table, {}, "external")

    def test_missing_rate_is_refused_before_a_zero_expected_rate(self):
        table = StratumTable.build("H", {"1": (5.0, 0.1), "2": (5.0, 0.2)})
        with pytest.raises(MissingStandardRateError):
            core.smr(table, {"1": 0.0}, "external")
        with pytest.raises(ZeroExpectedRateError):
            core.smr(table, {"1": 0.0, "2": 0.0}, "external")

    @pytest.mark.parametrize("scheme, label", [("external", "the standard"), ("internal", "the internal benchmark")])
    def test_a_ratio_that_overflows_is_refused(self, scheme, label):
        table = StratumTable.build("H", {"1": (10.0, 0.5)})
        with pytest.raises(ZeroExpectedRateError, match=rf"'H' has near-zero \(5e-324\) expected mortality under {label}$"):
            core.smr(table, {"1": 5e-324}, scheme)
        assert core.smr(table, {"1": 1e-300}, scheme).smr == 0.5 / 1e-300


class TestWorldWithTable:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_the_benchmark_follows_the_swapped_table_only_when_internal(self, seed):
        rng = Random(seed)
        cohort, strata = random_cohort(rng)
        standard = random_standard(rng, strata)
        table = scale_hospital(rng.choice(cohort.hospitals), ScaleChange(10.0 ** rng.uniform(-1.0, 1.0)))
        swapped = cohort.with_table(table)
        inner = core.World(cohort).with_table(table)
        assert inner.standard is None and inner.cohort.hospitals == swapped.hospitals
        assert inner.rates() == internal_standard(Cohort(swapped.hospitals))
        outer = core.World(cohort, standard).with_table(table)
        assert outer.standard is standard and outer.rates() is standard.rates
        assert outer.cohort.table(table.hospital) is table


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
