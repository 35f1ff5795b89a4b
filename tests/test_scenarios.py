"""Built-in scenarios: fidelity, sweeps, crossings and claims."""

from dataclasses import replace

import pytest

from smr_axioms import ScenarioSpec, build_scenario, check_claims, find_crossing, run_sweep, scenarios
from smr_axioms.errors import (
    InvalidParameterError,
    ParameterOutOfRangeError,
    UnknownHospitalError,
)
from smr_axioms.scenarios import SCENARIO_NAMES, slope_sign_changes


def spec_at(name, at, overrides=None):
    return ScenarioSpec(name, (at,), overrides or {})


class TestFidelity:
    def test_casemix_ext_at_zero(self):
        world = build_scenario(ScenarioSpec.default("casemix-ext"), 0.0)
        h1 = world.cohort.table("H1")
        assert [h1.count(s) for s in ("1", "2", "3")] == [20.0, 0.0, 5.0]
        assert [h1.rate(s) for s in ("1", "2", "3")] == [0.2, 0.1, 0.2]
        h2 = world.cohort.table("H2")
        assert h2.rate("3") == 0.1
        assert world.standard.rates == {"1": 0.2, "2": 0.1, "3": 0.15}

    def test_casemix_ext_shifted(self):
        world = build_scenario(ScenarioSpec.default("casemix-ext"), 5.0)
        h1 = world.cohort.table("H1")
        assert [h1.count(s) for s in ("1", "2", "3")] == [15.0, 5.0, 5.0]

    def test_scale_ext(self):
        world = build_scenario(ScenarioSpec.default("scale-ext"), 2.0)
        h1 = world.cohort.table("H1")
        assert h1.count("1") == 40.0 and h1.count("2") == 80.0
        assert h1.rate("1") == 0.05 and h1.rate("2") == 0.15
        assert world.standard.rates == {"1": 0.1, "2": 0.1}

    def test_actual_ext(self):
        world = build_scenario(spec_at("actual-ext", 0.07), 0.07)
        assert world.cohort.table("H1").rate("1") == 0.07
        assert world.cohort.table("H2").rate("1") == 0.07
        assert world.cohort.table("H2").count("3") == 5.0
        assert world.standard.rates == {"1": 0.1, "2": 0.15, "3": 0.3}

    def test_expected_ext(self):
        world = build_scenario(spec_at("expected-ext", 0.2), 0.2)
        assert world.standard.rates == {"1": 0.2, "2": 0.1}
        assert world.cohort.table("H2").count("2") == 15.0
        assert world.cohort.table("H2").rate("2") == 0.15

    def test_casemix_int(self):
        world = build_scenario(spec_at("casemix-int", 10.0), 10.0)
        h1 = world.cohort.table("H1")
        assert h1.count("1") == 40.0 and h1.count("2") == 10.0
        assert h1.rate("2") == 0.3
        h2 = world.cohort.table("H2")
        assert h2.count("1") == 25.0 and h2.count("2") == 10.0
        assert world.standard is None

    def test_scale_int(self):
        world = build_scenario(spec_at("scale-int", 1.0), 1.0)
        rows = {
            h: [world.cohort.table(h).count(s) for s in ("1", "2", "3")]
            for h in ("H1", "H2", "H3")
        }
        assert rows == {
            "H1": [50.0, 50.0, 0.0],
            "H2": [50.0, 100.0, 0.0],
            "H3": [0.0, 10.0, 10.0],
        }
        assert world.cohort.table("H3").rate("2") == 0.25

    def test_actual_int_full_ownership(self):
        world = build_scenario(spec_at("actual-int", 0.4, {"w11": 1.0}), 0.4)
        assert world.cohort.table("H1").count("1") == 100.0
        assert world.cohort.table("H2").count("1") == 0.0
        assert world.cohort.table("H2").rate("1") == 0.1
        assert world.cohort.table("H3").count("2") == 40.0


class TestSpecValidation:
    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec("mystery", (1.0,))

    def test_empty_grid(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec("scale-ext", ())

    def test_out_of_range_grid_point(self):
        with pytest.raises(ParameterOutOfRangeError):
            ScenarioSpec("casemix-ext", (25.0,))

    def test_out_of_range_at(self):
        with pytest.raises(ParameterOutOfRangeError):
            build_scenario(ScenarioSpec.default("casemix-int"), 60.0)

    def test_scale_zero_rejected(self):
        with pytest.raises(ParameterOutOfRangeError):
            build_scenario(ScenarioSpec.default("scale-ext"), 0.0)
        with pytest.raises(ParameterOutOfRangeError):
            build_scenario(ScenarioSpec.default("scale-int"), 0.0)

    def test_w11_range(self):
        with pytest.raises(ParameterOutOfRangeError):
            build_scenario(spec_at("actual-int", 0.5, {"w11": 1.5}), 0.5)

    def test_non_numeric_grid_point(self):
        with pytest.raises(InvalidParameterError, match="grid value must be a number"):
            ScenarioSpec("scale-ext", ("x",))

    def test_non_numeric_override_refused_before_the_sweep(self):
        with pytest.raises(InvalidParameterError, match="override w11 must be a number"):
            ScenarioSpec("actual-int", (0.5,), {"w11": "abc"})
        assert ScenarioSpec("actual-int", (0.5,), {"w11": "0.6"}).overrides == {"w11": 0.6}

    def test_default_grid_bounds(self):
        spec = ScenarioSpec.default("expected-ext")
        assert spec.grid[0] == pytest.approx(0.01)
        assert spec.grid[-1] == pytest.approx(0.3)
        assert spec.parameter == "p1e"
        assert spec.scheme == "external"

    def test_grid_override(self):
        spec = ScenarioSpec.default("scale-ext", lo=1.0, hi=3.0, step=0.5)
        assert spec.grid == (1.0, 1.5, 2.0, 2.5, 3.0)

    @pytest.mark.parametrize(
        "bounds",
        [{"lo": float("nan")}, {"hi": float("inf")}, {"step": float("inf")},
         {"lo": -float("inf")}, {"step": float("nan")}],
        ids=["lo-nan", "hi-inf", "step-inf", "lo-minus-inf", "step-nan"],
    )
    def test_non_finite_grid_bounds_rejected(self, bounds):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            ScenarioSpec.default("scale-ext", **bounds)

    @pytest.mark.parametrize("bounds", [{"step": 0.0}, {"step": -0.1}, {"lo": 3.0, "hi": 2.0}],
                             ids=["step-zero", "step-negative", "max-below-min"])
    def test_empty_or_backward_grid_rejected(self, bounds):
        with pytest.raises(InvalidParameterError, match="grid needs step > 0 and max >= min"):
            ScenarioSpec.default("scale-ext", **bounds)

    @pytest.mark.parametrize("bounds, what", [({"lo": "x"}, "grid min"), ({"hi": [1.0]}, "grid max"),
                                              ({"step": object()}, "grid step")])
    def test_non_numeric_grid_bounds_rejected(self, bounds, what):
        with pytest.raises(InvalidParameterError, match=f"{what} must be a number"):
            ScenarioSpec.default("scale-ext", **bounds)

    def test_non_numeric_parameter_value_rejected(self):
        with pytest.raises(InvalidParameterError, match="lambda must be a number, got 'x'"):
            build_scenario(ScenarioSpec.default("scale-ext"), "x")
        spec = ScenarioSpec.default("scale-ext")
        assert build_scenario(spec, "2") == build_scenario(spec, 2.0)


class TestSweeps:
    def test_deterministic(self):
        spec = ScenarioSpec.default("casemix-ext")
        assert run_sweep(spec) == run_sweep(spec)

    def test_each_grid_world_is_built_once(self, monkeypatch):
        from smr_axioms import scenarios
        built = []
        build = scenarios.build_scenario
        monkeypatch.setattr(scenarios, "build_scenario", lambda spec, at: built.append(at) or build(spec, at))
        spec = ScenarioSpec.default("casemix-int")
        run_sweep(spec)
        assert built == list(spec.grid)

    def test_casemix_ext_directions(self):
        series = run_sweep(ScenarioSpec.default("casemix-ext"))
        h1, h2 = series.hospital("H1"), series.hospital("H2")
        assert all(b > a for a, b in zip(h1, h1[1:]))
        assert all(b < a for a, b in zip(h2, h2[1:]))
        assert min(h1) > 1.0 > max(h2)

    def test_scale_ext_flat(self):
        series = run_sweep(ScenarioSpec.default("scale-ext"))
        h1 = series.hospital("H1")
        assert max(h1) - min(h1) <= 1e-12

    def test_actual_ext_equality_point(self):
        world = build_scenario(ScenarioSpec.default("actual-ext"), 0.1)
        from smr_axioms import smr_external

        assert smr_external(world.cohort.table("H1"), world.standard).smr == 1.0
        assert smr_external(world.cohort.table("H2"), world.standard).smr == 1.0

    def test_casemix_int_stationary_point(self):
        series = run_sweep(ScenarioSpec.default("casemix-int"))
        h1 = series.hospital("H1")
        assert slope_sign_changes(h1) == 1
        assert h1[0] == pytest.approx(1.0, abs=1e-12)
        peak = h1.index(max(h1))
        assert 0 < peak < len(h1) - 1

    def test_actual_int_regimes(self):
        decreasing = run_sweep(
            ScenarioSpec.default("actual-int", {"w11": 0.8}, lo=0.4, hi=1.0, step=0.05)
        )
        h1 = decreasing.hospital("H1")
        assert all(b < a for a, b in zip(h1, h1[1:]))
        increasing = run_sweep(
            ScenarioSpec.default("actual-int", {"w11": 0.6}, lo=0.0, hi=1.0, step=0.05)
        )
        h1 = increasing.hospital("H1")
        assert all(b > a for a, b in zip(h1, h1[1:]))

    def test_unknown_hospital(self):
        series = run_sweep(ScenarioSpec.default("scale-ext"))
        with pytest.raises(UnknownHospitalError):
            series.hospital("nope")


class TestCrossings:
    def test_expected_ext_crossing(self):
        series = run_sweep(ScenarioSpec.default("expected-ext"))
        x = find_crossing(series, "H1", "H2")
        assert x is not None
        assert abs(x - 0.14) <= 1e-6

    def test_crossing_symmetric_in_arguments(self):
        series = run_sweep(ScenarioSpec.default("expected-ext"))
        a = find_crossing(series, "H1", "H2")
        b = find_crossing(series, "H2", "H1")
        assert abs(a - b) <= 1e-6

    def test_scale_int_crossing_window(self):
        series = run_sweep(ScenarioSpec.default("scale-int"))
        x = find_crossing(series, "H1", "H3")
        assert x is not None and 2.0 < x < 3.0

    def test_no_crossing_returns_none(self):
        series = run_sweep(ScenarioSpec.default("casemix-ext"))
        assert find_crossing(series, "H1", "H2") is None

    def test_grid_point_zero_counts_as_crossing(self):
        series = run_sweep(ScenarioSpec.default("actual-ext", lo=0.0, hi=0.2, step=0.005))
        x = find_crossing(series, "H1", "H2")
        assert x == pytest.approx(0.1, abs=1e-6)

    @staticmethod
    def crafted(gaps, spec=ScenarioSpec("casemix-ext", tuple(map(float, range(8))))):
        """A series whose H1 - H2 gaps are ``gaps``, on the first grid values of ``spec``."""
        grid = spec.grid[: len(gaps)]
        return scenarios.SweepSeries(spec, grid, {"H1": tuple(map(float, gaps)), "H2": (0.0,) * len(gaps)})

    @pytest.mark.parametrize(
        "gaps, at",
        [
            ([0, 1, 2], 0),
            ([-1, 0, 1], 1),
            ([-1, 0, 0, 1], 1),
            ([2, 0, 0, 0, -1], 1),
            ([1, 0], 1),
            ([-1, 0, 0], 1),
            ([1, 0, 1], None),
            ([1, 0, 0, 1], None),
            ([-1, 0, 0, -2], None),
            ([1, 2, 3], None),
            ([0], None),
        ],
        ids=["zero-first", "zero-between-signs", "run-between-signs", "long-run-between-signs", "zero-last",
             "run-to-the-end", "zero-touch", "run-touch", "negative-run-touch", "one-sign", "one-point"],
    )
    def test_exact_zeros_cross_only_between_opposite_signs_or_at_an_end(self, gaps, at):
        series = self.crafted(gaps)
        assert find_crossing(series, "H1", "H2") == (None if at is None else series.values[at])

    def test_a_sign_change_is_refined_on_the_model(self):
        spec = ScenarioSpec("expected-ext", (0.1, 0.2))
        x = find_crossing(self.crafted([1, -1], spec), "H1", "H2")
        world = build_scenario(spec, x)
        assert abs(scenarios.evaluate(world, "H1") - scenarios.evaluate(world, "H2")) <= scenarios.CROSSING_TOL
        assert x == pytest.approx(0.14, abs=1e-6)

    def test_a_sign_change_the_model_does_not_bear_out_stops_after_200_halvings(self):
        # casemix-ext's H1 - H2 gap is positive everywhere, so each halving keeps the low half
        assert find_crossing(self.crafted([-1, 1]), "H1", "H2") == 2.0**-201

    @pytest.mark.parametrize("gaps", [[1e-170, -1e-170], [-1e-170, 0, 1e-170]], ids=["sign-change", "zero-between"])
    def test_gaps_whose_product_underflows_still_cross(self, gaps):
        assert find_crossing(self.crafted(gaps), "H1", "H2") is not None


class TestClaims:
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_default_claims_pass(self, name):
        results = check_claims(run_sweep(ScenarioSpec.default(name)))
        assert results, name
        failed = [c for c in results if not c.passed]
        assert not failed, failed

    @pytest.mark.parametrize("w11", [0.6, 0.8, 1.0])
    def test_actual_int_claims_per_share(self, w11):
        results = check_claims(run_sweep(ScenarioSpec.default("actual-int", {"w11": w11})))
        assert all(c.passed for c in results), results
        names = {c.name for c in results}
        if w11 == 0.6:
            assert "h1-strictly-increasing" in names
        else:
            assert "h1-strictly-decreasing-on-[0.4,1]" in names


def _flat(h):
    return lambda series: {**series, h: (series[h][0],) * len(series[h])}


def _bumped(h):
    return lambda series: {**series, h: (series[h][0] + 1.0, *series[h][1:])}


def _above(h, other):
    """``h`` one above ``other`` everywhere, so the two never meet."""
    return lambda series: {**series, h: tuple(v + 1.0 for v in series[other])}


#: (scenario, claim) -> (overrides, change of the swept series) on which the claim must fail.
FAILING_SERIES = {
    ("casemix-ext", "h1-strictly-increasing"): ({}, _flat("H1")),
    ("casemix-ext", "h2-strictly-decreasing"): ({}, _flat("H2")),
    ("casemix-ext", "no-crossing"): ({}, lambda series: {**series, "H2": series["H1"]}),
    ("scale-ext", "series-constant"): ({}, _bumped("H1")),
    ("actual-ext", "ranking-flips-at-standard"): ({}, lambda series: {"H1": series["H2"], "H2": series["H1"]}),
    ("expected-ext", "crossing-at-0.14"): ({}, _above("H2", "H1")),
    ("casemix-int", "h1-single-interior-maximum"): ({}, lambda series: {**series, "H1": tuple(sorted(series["H1"]))}),
    ("casemix-int", "h2-strictly-decreasing"): ({}, _flat("H2")),
    ("scale-int", "h1-h3-crossing-between-2-and-3"): ({}, _above("H3", "H1")),
    ("actual-int", "h1-strictly-increasing"): ({"w11": 0.6}, _flat("H1")),
    ("actual-int", "h1-strictly-decreasing-on-[0.4,1]"): ({}, _flat("H1")),
    ("actual-int", "h3-unaffected"): ({}, _bumped("H3")),
    ("actual-int", "h2-strictly-decreasing"): ({}, _flat("H2")),
    ("actual-int", "h2-unaffected"): ({"w11": 1.0}, _bumped("H2")),
}

#: (scenario, claim) -> change of the scenario's world builder on which the claim must fail; these
#: claims evaluate the model at fixed points and never read the swept series.
FAILING_BUILDS = {
    # p11 read 0.05 high, so neither ratio is 1 at the standard's p11 = 0.1
    ("actual-ext", "equal-ratios-at-standard"): lambda build: lambda p11, o: build(p11 + 0.05, o),
    # growth stops at lambda = 5, far from the limit
    ("scale-int", "h1-approaches-unity"): lambda build: lambda lam, o: build(min(lam, 5.0), o),
    # lambda = 4 built as 1, so the gap to 1 widens again after lambda = 2
    ("scale-int", "h1-monotone-approach"): lambda build: lambda lam, o: build(1.0 if lam == 4.0 else lam, o),
}


class TestClaimsCanFail:
    """Each claim reports a failure on a series, or a model, crafted to break it."""

    def test_every_claim_has_a_failing_control(self):
        runs = [(name, {}) for name in SCENARIO_NAMES] + [("actual-int", {"w11": w11}) for w11 in (0.6, 1.0)]
        claims = {(name, c.name) for name, overrides in runs
                  for c in check_claims(run_sweep(ScenarioSpec.default(name, overrides)))}
        assert claims == set(FAILING_SERIES) | set(FAILING_BUILDS)

    @pytest.mark.parametrize("key", sorted(FAILING_SERIES), ids="/".join)
    def test_claim_fails_on_the_crafted_series(self, key):
        (name, claim), (overrides, change) = key, FAILING_SERIES[key]
        series = run_sweep(ScenarioSpec.default(name, overrides))
        crafted = replace(series, series=change(dict(series.series)))
        assert {c.name: c.passed for c in check_claims(series)}[claim] is True
        assert {c.name: c.passed for c in check_claims(crafted)}[claim] is False

    @pytest.mark.parametrize("key", sorted(FAILING_BUILDS), ids="/".join)
    def test_model_claim_fails_on_the_crafted_model(self, key, monkeypatch):
        (name, claim), change = key, FAILING_BUILDS[key]
        series = run_sweep(ScenarioSpec.default(name))
        assert {c.name: c.passed for c in check_claims(series)}[claim] is True
        row = scenarios._SCENARIOS[name]
        monkeypatch.setitem(scenarios._SCENARIOS, name, replace(row, build=change(row.build)))
        assert {c.name: c.passed for c in check_claims(series)}[claim] is False
