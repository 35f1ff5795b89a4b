"""Falsification harness: verdicts, witnesses, determinism."""

import hashlib
import json
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

from smr_axioms import (
    AXIOMS,
    EXACT_TOL,
    Cohort,
    ExternalStandard,
    ScaleChange,
    StratumTable,
    built_in_measures,
    matches_expected_matrix,
    replay,
    run_audit,
    scale_hospital,
    with_rate,
)
from smr_axioms.audit import (
    _ROWS,
    EXPECTED_BUILTIN_STATUS,
    _cell_seed,
    Measure,
    PairProbe,
    PerturbationProbe,
    ProbeGenerator,
    World,
    check_case_mix_insensitivity,
    check_dominance,
    check_equivalence,
    check_scale_insensitivity,
    check_strict_monotonicity,
    mandatory_probes,
)
from smr_axioms.errors import EmptyProbeSetError, IncomparableProbeError, InvalidParameterError
from smr_axioms.report import (
    dumps,
    matrix_payload,
    witness_from_payload,
    witness_payload,
    world_payload,
)
from smr_axioms.sensitivity import RateRaise

REGISTRY = built_in_measures()
SMALL_TRIALS = 300


def witness_of(axiom, probe):
    """What the audit records of ``probe``: its witness against a measure that violates every requirement.

    Each evaluation is 1 below the last, so every move is a fall and every pair is unequal and misordered.
    """
    values = count()
    falling = Measure("falling", "external", lambda world, hospital: -float(next(values)))
    return _ROWS[axiom].check(falling, [probe]).witness


@pytest.fixture(scope="module")
def matrix():
    return run_audit(seed=0, trials=SMALL_TRIALS)


class TestBuiltinMatrix:
    def test_expected_pattern(self, matrix):
        assert matrix.row("smr-external").statuses() == (
            "holds", "violated", "holds", "violated", "violated",
        )
        assert matrix.row("smr-internal").statuses() == ("violated",) * 5
        assert matches_expected_matrix(matrix)

    def test_five_verdicts_in_canonical_order(self, matrix):
        for row in matrix.rows:
            assert tuple(v.axiom for v in row.verdicts) == AXIOMS

    def test_every_violation_carries_a_witness(self, matrix):
        for row in matrix.rows:
            for verdict in row.verdicts:
                if verdict.status == "violated":
                    assert verdict.witness is not None
                else:
                    assert verdict.witness is None
                    assert verdict.trials >= SMALL_TRIALS

    def test_witnesses_replay_exactly(self, matrix):
        for row in matrix.rows:
            measure = REGISTRY[row.measure]
            for verdict in row.verdicts:
                if verdict.witness is None:
                    continue
                before, after = replay(measure, verdict.witness)
                assert before == verdict.witness.value_before
                assert after == verdict.witness.value_after

    def test_witnesses_replay_through_json(self, matrix):
        for row in matrix.rows:
            measure = REGISTRY[row.measure]
            for verdict in row.verdicts:
                if verdict.witness is None:
                    continue
                payload = json.loads(dumps(witness_payload(verdict.witness)))
                rebuilt = witness_from_payload(payload)
                before, after = replay(measure, rebuilt)
                assert before == verdict.witness.value_before
                assert after == verdict.witness.value_after

    def test_known_witness_values(self, matrix):
        dominance = matrix.row("smr-external").verdicts[4].witness
        assert dominance.value_before == pytest.approx(1.1, abs=1e-12)
        assert dominance.value_after == pytest.approx(1.0, abs=1e-12)
        equivalence = matrix.row("smr-external").verdicts[3].witness
        assert equivalence.value_before == pytest.approx(0.8, abs=1e-12)
        assert equivalence.value_after == pytest.approx(0.875, abs=1e-12)
        internal_dom = matrix.row("smr-internal").verdicts[4].witness
        assert internal_dom.value_before == pytest.approx(1.135135135135135, abs=1e-9)
        assert internal_dom.value_after == pytest.approx(1.05993690851735, abs=1e-9)

    def test_internal_monotonicity_witness_decreases(self, matrix):
        witness = matrix.row("smr-internal").verdicts[0].witness
        assert witness.value_after < witness.value_before
        assert witness.perturbation["delta"] > 0.0


class TestWitnessRoundTrip:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8))
    @settings(max_examples=25, deadline=None)
    def test_every_witness_replays_through_json(self, seed, trials):
        matrix = run_audit([REGISTRY["constant"], REGISTRY["actual-rate"]], seed=seed, trials=trials)
        for row in matrix.rows:
            for verdict in row.verdicts:
                if verdict.witness is None:
                    continue
                text = dumps(witness_payload(verdict.witness))
                rebuilt = witness_from_payload(json.loads(text))
                assert dumps(witness_payload(rebuilt)) == text
                before, after = replay(REGISTRY[row.measure], rebuilt)
                assert (before, after) == (verdict.witness.value_before, verdict.witness.value_after)


class TestRescaledMeasures:
    """The requirements concern only the order and equality of a measure's values, so a
    positive multiple ``c * m`` of a measure must get its verdicts on the same probes."""

    CHECKS = (check_strict_monotonicity, check_case_mix_insensitivity, check_scale_insensitivity,
              check_equivalence, check_dominance)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_a_positive_multiple_gets_the_same_verdicts(self, name):
        measure = REGISTRY[name]
        patterns = {c: [] for c in (1.0, 1e-9, 1e-3, 1e3, 1e4, 1e9)}
        for axiom, check in zip(AXIOMS, self.CHECKS):
            stream = ProbeGenerator(0).stream(axiom, measure.scheme)
            probes = [*mandatory_probes(axiom, measure.scheme), *islice(stream, 300)]
            for c, pattern in patterns.items():
                scaled = Measure(measure.name, measure.scheme, lambda world, h, c=c: c * measure.evaluate(world, h))
                pattern.append(check(scaled, probes).status)
        assert {c: p for c, p in patterns.items() if p != patterns[1.0]} == {}


class TestDeterminism:
    def test_same_seed_same_matrix(self):
        a = run_audit(seed=7, trials=50)
        b = run_audit(seed=7, trials=50)
        assert dumps(matrix_payload(a)) == dumps(matrix_payload(b))

    def test_pattern_stable_across_seeds(self):
        for seed in (1, 2, 3):
            assert matches_expected_matrix(run_audit(seed=seed, trials=50))


class TestDegenerateMeasures:
    def test_constant_measure(self):
        matrix = run_audit([REGISTRY["constant"]], seed=0, trials=SMALL_TRIALS)
        row = matrix.row("constant")
        # insensitive to everything, so only monotonicity and dominance
        # (which needs a strictly better rank) can fail
        assert row.statuses() == ("violated", "holds", "holds", "holds", "violated")

    def test_a_measure_stuck_at_zero_gets_the_constant_verdicts(self):
        # a zero tolerance band is still a band: 0 == 0 is no move, no gap and no rise
        zero = Measure("zero", "external", lambda world, hospital: 0.0 * world.cohort.table(hospital).total_count)
        matrix = run_audit([zero], seed=0, trials=20)
        assert matrix.row("zero").statuses() == ("violated", "holds", "holds", "holds", "violated")

    def test_actual_rate_measure(self):
        matrix = run_audit([REGISTRY["actual-rate"]], seed=0, trials=SMALL_TRIALS)
        row = matrix.row("actual-rate")
        statuses = dict(zip(AXIOMS, row.statuses()))
        assert statuses["strict_monotonicity"] == "holds"
        assert statuses["case_mix_insensitivity"] == "violated"
        assert statuses["scale_insensitivity"] == "holds"

    def test_user_measures_appended_after_builtins(self):
        matrix = run_audit([REGISTRY["constant"]], seed=0, trials=20)
        assert [r.measure for r in matrix.rows] == ["smr-external", "smr-internal", "constant"]


class TestChecks:
    def test_empty_probe_set(self):
        with pytest.raises(EmptyProbeSetError):
            check_strict_monotonicity(REGISTRY["smr-external"], [])
        with pytest.raises(EmptyProbeSetError):
            check_dominance(REGISTRY["smr-external"], [])

    def test_incomparable_dominance_probe(self):
        world = World(
            Cohort.build({"A": {"1": (5.0, 0.1)}, "B": {"2": (5.0, 0.2)}}),
            ExternalStandard({"1": 0.1, "2": 0.1}),
        )
        probe = PairProbe(world, "A", "B", "dominates")
        with pytest.raises(IncomparableProbeError):
            check_dominance(REGISTRY["smr-external"], [probe])

    def test_misdeclared_equivalence_probe(self):
        world = World(
            Cohort.build({"A": {"1": (5.0, 0.1)}, "B": {"1": (5.0, 0.4)}}),
            ExternalStandard({"1": 0.1}),
        )
        probe = PairProbe(world, "A", "B", "identical-rates")
        with pytest.raises(IncomparableProbeError):
            check_equivalence(REGISTRY["smr-external"], [probe])

    def test_identical_deviations_ignore_the_rate_of_an_empty_cell(self):
        # B treats nobody in stratum 2, so its rate there is no deviation; A's is 0 there
        world = World(
            Cohort.build({"A": {"1": (5.0, 0.2), "2": (5.0, 0.1)}, "B": {"1": (9.0, 0.2), "2": (0.0, 0.4)}}),
            ExternalStandard({"1": 0.1, "2": 0.1}),
        )
        verdict = check_equivalence(REGISTRY["smr-external"], [PairProbe(world, "A", "B", "identical-deviations")])
        assert verdict.status == "violated"
        assert (verdict.witness.value_before, verdict.witness.value_after) == pytest.approx((1.5, 2.0))

    def test_identical_deviations_admit_a_gap_of_exactly_the_tolerance(self):
        # A deviates by 1e-12 in stratum 2, which B leaves empty: the band includes its edge
        world = World(
            Cohort.build({"A": {"1": (5.0, 0.2), "2": (5.0, EXACT_TOL)}, "B": {"1": (9.0, 0.2), "2": (0.0, None)}}),
            ExternalStandard({"1": 0.1, "2": 0.0}),
        )
        verdict = check_equivalence(REGISTRY["smr-external"], [PairProbe(world, "A", "B", "identical-deviations")])
        assert verdict.status == "holds"

    @pytest.mark.parametrize("gap, status", [(1e-8, "violated"), (1e-11, "holds")])
    def test_an_equivalence_gap_counts_past_derived_tol(self, gap, status):
        # DERIVED_TOL is 1e-9 relative: 1,000 times looser misses the 1e-8 gap, 1,000 times tighter flags 1e-11
        constant = REGISTRY["constant"].evaluate
        planted = Measure("planted", "external",
                          lambda world, h: constant(world, h) * (1.0 + gap if h == "B" else 1.0))
        world = World(Cohort.build({"A": {"1": (5.0, 0.2)}, "B": {"1": (9.0, 0.2)}}), ExternalStandard({"1": 0.1}))
        assert check_equivalence(planted, [PairProbe(world, "A", "B", "identical-rates")]).status == status

    @pytest.mark.parametrize("empty", [{}, {"2": (0.0, 0.1)}, {"2": (0.0, None)}],
                             ids=["same-strata", "empty-stratum-rates-differ", "empty-stratum-no-rate"])
    def test_dominance_pair_with_identical_rates_is_refused(self, empty):
        # equal rates in every populated stratum: no stratum where A is strictly better
        world = World(
            Cohort.build({"A": {"1": (5.0, 0.2), "2": (0.0, 0.05)}, "B": {"1": (9.0, 0.2), **empty}}),
            ExternalStandard({"1": 0.1, "2": 0.1}),
        )
        probe = PairProbe(world, "A", "B", "dominates")
        with pytest.raises(IncomparableProbeError, match="does not satisfy dominance"):
            check_dominance(REGISTRY["smr-external"], [probe])

    def test_non_dominant_pair_rejected(self):
        world = World(
            Cohort.build({"A": {"1": (5.0, 0.3)}, "B": {"1": (5.0, 0.2)}}),
            ExternalStandard({"1": 0.1}),
        )
        probe = PairProbe(world, "A", "B", "dominates")
        with pytest.raises(IncomparableProbeError):
            check_dominance(REGISTRY["smr-external"], [probe])

    @pytest.mark.parametrize(
        "rate, delta",
        [(1.0, 1e-3), (0.2, 0.0), (0.2, -1e-3)],
        ids=["rate-already-one", "zero-delta", "negative-delta"],
    )
    def test_monotonicity_probe_that_cannot_raise_the_rate(self, rate, delta):
        world = World(Cohort.build({"A": {"1": (5.0, rate)}}), ExternalStandard({"1": 0.1}))
        probe = PerturbationProbe(world, "A", RateRaise("1", delta))
        with pytest.raises(IncomparableProbeError):
            check_strict_monotonicity(REGISTRY["smr-external"], [probe])

    @pytest.mark.parametrize("delta", [float("nan"), "x", None], ids=["nan", "text", "none"])
    def test_a_rate_raise_it_cannot_judge_is_refused_when_built(self, delta):
        # min(1, rate + nan) is 1, which a nan delta would have judged as a raise
        with pytest.raises(InvalidParameterError, match="rate raise must be a number"):
            RateRaise("1", delta)

    def test_monotonicity_probe_on_an_empty_stratum_with_a_rate(self):
        world = World(
            Cohort.build({"A": {"1": (0.0, 0.2), "2": (5.0, 0.3)}}), ExternalStandard({"1": 0.1, "2": 0.1})
        )
        probe = PerturbationProbe(world, "A", RateRaise("1", 1e-3))
        with pytest.raises(InvalidParameterError, match="populated stratum"):
            probe.change.apply(world.cohort.table("A"))

    def test_case_mix_check_finds_nothing_for_constant(self):
        probes = mandatory_probes("case_mix_insensitivity", "external")
        verdict = check_case_mix_insensitivity(REGISTRY["constant"], probes)
        assert verdict.status == "holds"
        assert verdict.trials == len(probes)

    def test_scale_check_respects_tolerance(self):
        probes = mandatory_probes("scale_insensitivity", "external")
        verdict = check_scale_insensitivity(REGISTRY["smr-external"], probes)
        assert verdict.status == "holds"


class TestMandatoryProbes:
    def test_external_case_mix_witness_is_the_known_world(self, matrix):
        witness = matrix.row("smr-external").verdicts[1].witness
        table = witness.world.cohort.table("H1")
        assert table.count("1") == 20.0 and table.count("2") == 0.0 and table.count("3") == 5.0
        assert witness.perturbation == {"from_stratum": "1", "to_stratum": "2", "eta": 5.0}

    def test_internal_scale_witness_factor_two(self, matrix):
        witness = matrix.row("smr-internal").verdicts[2].witness
        assert witness.perturbation == {"factor": 2.0}
        assert witness.value_before == pytest.approx(1.4678899082568808, abs=1e-9)
        assert witness.value_after == pytest.approx(1.2883435582822086, abs=1e-9)

    def test_internal_dominance_pair_is_comparable(self, matrix):
        # the supplied empty-stratum rate makes the internal pair comparable
        witness = matrix.row("smr-internal").verdicts[4].witness
        dominant = witness.world.cohort.table(witness.hospital)
        assert dominant.count("1") == 0.0
        assert dominant.rate("1") == 1.0

    @pytest.mark.parametrize("axiom, scheme", [("dominance", "bogus"), ("dominance", "Internal"),
                                               ("monotonicity", "external")])
    def test_unknown_axiom_or_scheme_is_refused(self, axiom, scheme):
        with pytest.raises(InvalidParameterError, match=f"{axiom!r} under scheme {scheme!r}"):
            mandatory_probes(axiom, scheme)

    def test_measure_with_unknown_scheme_is_refused_not_audited_as_external(self):
        typo = Measure("typo", "Internal", REGISTRY["smr-internal"].evaluate)
        with pytest.raises(InvalidParameterError, match="'Internal'"):
            run_audit([typo], trials=5)


class TestProbeGenerator:
    def test_streams_are_reproducible(self):
        def take(seed, axiom, scheme, n=5):
            gen = ProbeGenerator(seed)
            stream = gen.stream(axiom, scheme)
            return [next(stream) for _ in range(n)]

        for axiom in AXIOMS:
            for scheme in ("external", "internal"):
                a = take(42, axiom, scheme)
                b = take(42, axiom, scheme)
                assert a == b

    @pytest.mark.parametrize("scheme, pinned", [
        ("external", "76fa61058bfde6da2efd2e66db7a3a93f550f381fa7a509271ce7b0f99072143"),
        ("internal", "3fe758314cb3386c99fe760b27fbc9c2d4b205ed02bec9e99ceb97fde60a75bf"),
    ], ids=["external", "internal"])
    def test_draw_order_is_pinned(self, scheme, pinned):
        # sha256 over the first 40 probes of each axiom's stream for seed 2024, as their witnesses
        # record them: a change in the order or number of Random draws moves it, the probe's layout does not
        digest = hashlib.sha256()
        for axiom in AXIOMS:
            for probe in islice(ProbeGenerator(2024).stream(axiom, scheme), 40):
                witness = witness_of(axiom, probe)
                digest.update(dumps({"world": world_payload(witness.world),
                                     "hospitals": [witness.hospital, witness.hospital_b],
                                     "perturbation": dict(witness.perturbation)}).encode())
        assert digest.hexdigest() == pinned

    @pytest.mark.parametrize("seed", range(10))
    def test_random_probes_alone_find_every_known_violation(self, seed):
        # the hand-built probes skipped: each violated built-in cell within 200 random probes
        missed = []
        for name, expected in EXPECTED_BUILTIN_STATUS.items():
            measure = REGISTRY[name]
            for axiom, status in zip(AXIOMS, expected):
                if status != "violated":
                    continue
                stream = ProbeGenerator(_cell_seed(seed, name, axiom)).stream(axiom, measure.scheme)
                if _ROWS[axiom].check(measure, islice(stream, 200)).status != "violated":
                    missed.append((name, axiom))
        assert missed == []

    @pytest.mark.parametrize("axiom, scheme", [("strict_monotonicity", "Internal"), ("dominance", "bogus"),
                                               ("monotonicity", "external")])
    def test_unknown_axiom_or_scheme_is_refused(self, axiom, scheme):
        # refused at the call, before any probe is drawn, as mandatory_probes refuses it
        with pytest.raises(InvalidParameterError, match=f"{axiom!r} under scheme {scheme!r}"):
            ProbeGenerator(1).stream(axiom, scheme)

    def test_generated_probes_are_valid(self):
        gen = ProbeGenerator(3)
        measure = REGISTRY["smr-external"]
        verdict = check_strict_monotonicity(
            measure, (next(gen.stream("strict_monotonicity", "external")) for _ in range(200))
        )
        assert verdict.status == "holds"

    @pytest.mark.parametrize("scheme", ["external", "internal"])
    @pytest.mark.parametrize("axiom", AXIOMS)
    def test_trusted_probes_equal_their_validated_rebuilds(self, axiom, scheme):
        # probes and the perturbed copies of their tables must equal what the public constructors build
        def assert_validated(table):
            assert table == StratumTable(table.hospital, dict(table.cells))

        stream = ProbeGenerator(11).stream(axiom, scheme)
        for _ in range(300):
            probe = next(stream)
            cohort, standard = probe.world.cohort, probe.world.standard
            rebuilt = Cohort(cohort.hospitals)
            assert cohort == rebuilt and cohort._index == rebuilt._index
            assert standard is None or standard == ExternalStandard(standard.rates)
            for table in cohort.hospitals:
                assert_validated(table)
                assert_validated(scale_hospital(table, ScaleChange(2.5)))
                assert_validated(with_rate(table, table.strata[-1], 0.75))
            perturbed = witness_of(axiom, probe).perturbed_world
            assert (perturbed is None) == (axiom in ("equivalence", "dominance"))
            if perturbed is not None:
                assert_validated(perturbed.cohort.table(probe.hospital))
