"""Built-in worked examples and their parameter sweeps.

Seven parameterized configurations illustrate how the two ratio
variants react to case mix, hospital size, actual rates and benchmark
rates. Each scenario fixes a small cohort (and, for the external ones,
a standard), exposes a single sweep parameter, and knows the
qualitative claims its figure-style series should exhibit:

======================  ========  =========  ==============================
name                    scheme    parameter  headline behavior
======================  ========  =========  ==============================
casemix-ext             external  eta        the two ratios drift apart as
                                             patients move between strata
scale-ext               external  lambda     ratio is flat in hospital size
actual-ext              external  p11        equal deviations, unequal
                                             ratios away from the standard
expected-ext            external  p1e        ranking flips at p1e = 0.14
casemix-int             internal  eta        interior stationary point of
                                             hospital 1's ratio
scale-int               internal  lambda     growth drags the ratio to 1;
                                             hospital 1 undercuts 3
actual-int              internal  p11        higher mortality can lower
                                             the ratio (share-dependent)
======================  ========  =========  ==============================

Each scenario is one :class:`Scenario` row of that table: its
parameter, the parameter's valid range (scale factors exclude 0), its
default grid, the builder of its world, its claims and the override
keys it accepts (actual-int alone takes one, ``w11``, hospital 1's share
of stratum 1). ``SCENARIO_NAMES`` lists the rows in table order.

Default grids: integer steps for patient shifts, 0.1 for scale factors
over [1, 5], 0.005 for rate sweeps. The grids are a presentation choice
(recorded in the sweep metadata), not part of the configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite
from typing import Callable, Mapping

from . import core
from .core import Cohort, ExternalStandard, HospitalId, Scheme, World
from .errors import ParameterOutOfRangeError, UnknownHospitalError, InvalidParameterError

#: Refinement target for crossing detection: |SMR_a - SMR_b| at the result.
CROSSING_TOL = 1e-9


@dataclass(frozen=True)
class Scenario:
    """One built-in example: a row of the scenario table."""

    name: str
    parameter: str
    #: valid parameter range, closed unless ``open_low`` excludes its lower end
    valid: tuple[float, float]
    #: (min, max, step) of the default sweep
    default_grid: tuple[float, float, float]
    build: Callable[[float, Mapping[str, float]], World]
    claims: Callable[[SweepSeries], list[ClaimResult]]
    open_low: bool = False
    overrides: tuple[str, ...] = ()

    def check_range(self, at: float) -> None:
        lo, hi = self.valid
        if not ((at > lo if self.open_low else at >= lo) and at <= hi):
            raise ParameterOutOfRangeError(
                f"{self.parameter} = {at!r} outside the valid range of {self.name}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named scenario plus the parameter grid to sweep.

    ``grid`` holds explicit parameter values; :meth:`default` builds the
    standard grid, optionally overridden by min/max/step. ``overrides``
    carries scenario constants such as ``w11`` for actual-int; a key the
    scenario does not accept is an error.
    """

    name: str
    grid: tuple[float, ...]
    overrides: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in _SCENARIOS:
            raise InvalidParameterError(f"unknown scenario {self.name!r}")
        if not self.grid:
            raise InvalidParameterError("parameter grid must be non-empty")
        object.__setattr__(self, "grid", tuple(core._as_float(x, "grid value") for x in self.grid))
        scenario = _SCENARIOS[self.name]
        for key in self.overrides:
            if key not in scenario.overrides:
                raise InvalidParameterError(
                    f"scenario {self.name!r} takes no override {key!r}"
                    f" (accepted: {', '.join(scenario.overrides) or 'none'})"
                )
        overrides = {key: core._as_float(value, f"override {key}") for key, value in self.overrides.items()}
        object.__setattr__(self, "overrides", overrides)
        for x in self.grid:
            scenario.check_range(x)

    @property
    def parameter(self) -> str:
        return _SCENARIOS[self.name].parameter

    @property
    def scheme(self) -> Scheme:
        return "external" if self.name.endswith("-ext") else "internal"

    @classmethod
    def default(
        cls,
        name: str,
        overrides: Mapping[str, float] | None = None,
        lo: float | None = None,
        hi: float | None = None,
        step: float | None = None,
    ) -> "ScenarioSpec":
        if name not in _SCENARIOS:
            raise InvalidParameterError(f"unknown scenario {name!r}")
        d_lo, d_hi, d_step = _SCENARIOS[name].default_grid
        lo = d_lo if lo is None else core._as_float(lo, "grid min")
        hi = d_hi if hi is None else core._as_float(hi, "grid max")
        step = d_step if step is None else core._as_float(step, "grid step")
        if not all(map(isfinite, (lo, hi, step))):
            raise InvalidParameterError(f"grid min, max and step must be finite, got {lo!r}, {hi!r}, {step!r}")
        if step <= 0.0 or hi < lo:
            raise InvalidParameterError("grid needs step > 0 and max >= min")
        n = int(round((hi - lo) / step))
        grid = [lo + i * step for i in range(n + 1)]
        if grid[-1] > hi + 1e-12:
            grid.pop()
        return cls(name, tuple(grid), overrides or {})


@dataclass(frozen=True)
class SweepSeries:
    """Per-hospital ratio series over the parameter grid."""

    spec: ScenarioSpec
    values: tuple[float, ...]
    series: Mapping[HospitalId, tuple[float, ...]]

    @property
    def scheme(self) -> Scheme:
        return self.spec.scheme

    def hospital(self, hospital: HospitalId) -> tuple[float, ...]:
        try:
            return self.series[hospital]
        except KeyError:
            raise UnknownHospitalError(f"hospital {hospital!r} not in series") from None


def _build_casemix_ext(eta: float, _: Mapping[str, float]) -> World:
    cohort = Cohort.build({
        "H1": {"1": (20.0 - eta, 0.2), "2": (eta, 0.1), "3": (5.0, 0.2)},
        "H2": {"1": (20.0 - eta, 0.2), "2": (eta, 0.1), "3": (5.0, 0.1)},
    })
    return World(cohort, ExternalStandard({"1": 0.2, "2": 0.1, "3": 0.15}))


def _build_scale_ext(lam: float, _: Mapping[str, float]) -> World:
    cohort = Cohort.build({"H1": {"1": (20.0 * lam, 0.05), "2": (40.0 * lam, 0.15)}})
    return World(cohort, ExternalStandard({"1": 0.1, "2": 0.1}))


def _build_actual_ext(p11: float, _: Mapping[str, float]) -> World:
    cohort = Cohort.build({
        "H1": {"1": (5.0, p11), "2": (5.0, 0.15)},
        "H2": {"1": (5.0, p11), "3": (5.0, 0.3)},
    })
    return World(cohort, ExternalStandard({"1": 0.1, "2": 0.15, "3": 0.3}))


def _build_expected_ext(p1e: float, _: Mapping[str, float]) -> World:
    cohort = Cohort.build({
        "H1": {"1": (5.0, 0.1), "2": (5.0, 0.2)},
        "H2": {"1": (5.0, 0.1), "2": (15.0, 0.15)},
    })
    return World(cohort, ExternalStandard({"1": p1e, "2": 0.1}))


def _build_casemix_int(eta: float, _: Mapping[str, float]) -> World:
    return World(Cohort.build({
        "H1": {"1": (50.0 - eta, 0.1), "2": (eta, 0.3)},
        "H2": {"1": (25.0, 0.1), "2": (10.0, 0.1)},
    }))


def _build_scale_int(lam: float, _: Mapping[str, float]) -> World:
    return World(Cohort.build({
        "H1": {"1": (50.0 * lam, 0.3), "2": (50.0 * lam, 0.2), "3": (0.0, None)},
        "H2": {"1": (50.0, 0.1), "2": (100.0, 0.1), "3": (0.0, None)},
        "H3": {"1": (0.0, None), "2": (10.0, 0.25), "3": (10.0, 0.2)},
    }))


def _build_actual_int(p11: float, overrides: Mapping[str, float]) -> World:
    w11 = overrides.get("w11", 0.8)
    if not 0.0 <= w11 <= 1.0:
        raise ParameterOutOfRangeError(f"w11 = {w11!r} outside [0, 1]")
    return World(Cohort.build({
        "H1": {"1": (100.0 * w11, p11), "2": (50.0, 0.4)},
        "H2": {"1": (100.0 * (1.0 - w11), 0.1), "2": (50.0, 0.1)},
        "H3": {"1": (0.0, None), "2": (40.0, 0.3)},
    }))


def build_scenario(spec: ScenarioSpec, at: float) -> World:
    """Materialize the scenario at one parameter value."""
    scenario = _SCENARIOS[spec.name]
    at = core._as_float(at, spec.parameter)
    scenario.check_range(at)
    return scenario.build(at, spec.overrides)


def evaluate(world: World, hospital: HospitalId) -> float:
    """The hospital's ratio against the world's benchmark."""
    return core.smr(world.cohort.table(hospital), world.rates(), world.scheme).smr


def run_sweep(spec: ScenarioSpec) -> SweepSeries:
    """Evaluate every hospital's ratio at every grid point, building each point's world once."""
    series: dict[HospitalId, list[float]] = {}
    for x in spec.grid:
        world = build_scenario(spec, x)
        for r in core.smr_all(world.cohort, world.scheme, world.standard):
            if not (isfinite(r.smr) and r.smr >= 0.0):
                raise InvalidParameterError(f"non-finite ratio for {r.hospital!r} at {x!r}")
            series.setdefault(r.hospital, []).append(r.smr)
    return SweepSeries(spec, spec.grid, {h: tuple(v) for h, v in series.items()})


def find_crossing(series: SweepSeries, a: HospitalId, b: HospitalId) -> float | None:
    """Parameter value where the two hospitals' ratios meet, or None.

    Scans the grid for a sign change of the difference and refines it by
    bisection on the underlying model until the gap is at most
    ``CROSSING_TOL``.
    """
    diff = [va - vb for va, vb in zip(series.hospital(a), series.hospital(b))]
    spec = series.spec

    def gap(x: float) -> float:
        world = build_scenario(spec, x)
        return evaluate(world, a) - evaluate(world, b)

    for i in range(len(diff) - 1):
        lo_d, hi_d = diff[i], diff[i + 1]
        if lo_d == 0.0 and (i == 0 or diff[i - 1] * hi_d < 0.0):
            return series.values[i]
        if lo_d * hi_d < 0.0:
            lo, hi = series.values[i], series.values[i + 1]
            g_lo = lo_d
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                g_mid = gap(mid)
                if abs(g_mid) <= CROSSING_TOL:
                    return mid
                if (g_lo < 0.0) == (g_mid < 0.0):
                    lo, g_lo = mid, g_mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
    if diff and diff[-1] == 0.0 and len(diff) > 1 and diff[-2] != 0.0:
        return series.values[-1]
    return None


# ---------------------------------------------------------------------------
# qualitative claims
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    detail: str = ""


def _strictly(direction: str, values: tuple[float, ...]) -> bool:
    pairs = zip(values, values[1:])
    if direction == "increasing":
        return all(b > a for a, b in pairs)
    if direction == "decreasing":
        return all(b < a for a, b in pairs)
    return all(abs(b - a) <= core.EXACT_TOL for a, b in pairs)


def slope_sign_changes(values: tuple[float, ...]) -> int:
    """Number of sign alternations of the discrete slope (zeros skipped)."""
    signs = [1 if b > a else -1 for a, b in zip(values, values[1:]) if b != a]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def check_claims(series: SweepSeries) -> list[ClaimResult]:
    """Verify the scenario's qualitative claims on a series ``run_sweep`` made."""
    return _SCENARIOS[series.spec.name].claims(series)


def _claims_casemix_ext(series: SweepSeries) -> list[ClaimResult]:
    return [
        ClaimResult("h1-strictly-increasing", _strictly("increasing", series.hospital("H1"))),
        ClaimResult("h2-strictly-decreasing", _strictly("decreasing", series.hospital("H2"))),
        ClaimResult("no-crossing", find_crossing(series, "H1", "H2") is None),
    ]


def _claims_scale_ext(series: SweepSeries) -> list[ClaimResult]:
    h1 = series.hospital("H1")
    constant = all(abs(v - h1[0]) <= core.EXACT_TOL for v in h1)
    return [ClaimResult("series-constant", constant, f"ratio stays {h1[0]!r}")]


def _claims_actual_ext(series: SweepSeries) -> list[ClaimResult]:
    at_standard = build_scenario(series.spec, 0.1)
    v1 = evaluate(at_standard, "H1")
    v2 = evaluate(at_standard, "H2")
    # wherever the two ratios differ, H1's is the larger exactly when p11 > 0.1
    ordered = all(
        (va - vb > 0.0) == (x > 0.1)
        for x, va, vb in zip(series.values, series.hospital("H1"), series.hospital("H2"))
        if abs(va - vb) > core.EXACT_TOL
    )
    return [
        ClaimResult("equal-ratios-at-standard",
                    abs(v1 - 1.0) <= core.EXACT_TOL and abs(v2 - 1.0) <= core.EXACT_TOL,
                    f"H1={v1!r} H2={v2!r} at p11=0.1"),
        ClaimResult("ranking-flips-at-standard", ordered),
    ]


def _claims_expected_ext(series: SweepSeries) -> list[ClaimResult]:
    x = find_crossing(series, "H1", "H2")
    near = x is not None and abs(x - 0.14) <= 1e-6
    return [ClaimResult("crossing-at-0.14", near, f"crossing at {x!r}")]


def _claims_casemix_int(series: SweepSeries) -> list[ClaimResult]:
    h1 = series.hospital("H1")
    changes = slope_sign_changes(h1)
    rises_then_falls = h1[1] > h1[0] and h1[-1] < max(h1)
    return [
        ClaimResult("h1-single-interior-maximum", changes == 1 and rises_then_falls,
                    f"{changes} slope sign change(s)"),
        ClaimResult("h2-strictly-decreasing", _strictly("decreasing", series.hospital("H2"))),
    ]


def _claims_scale_int(series: SweepSeries) -> list[ClaimResult]:
    x = find_crossing(series, "H1", "H3")
    far = evaluate(build_scenario(series.spec, 1e6), "H1")
    lams = sorted([float(2 ** k) for k in range(20)] + [1e6])
    gaps = [abs(evaluate(build_scenario(series.spec, lam), "H1") - 1.0) for lam in lams]
    return [
        ClaimResult("h1-h3-crossing-between-2-and-3", x is not None and 2.0 < x < 3.0,
                    f"crossing at {x!r}"),
        ClaimResult("h1-approaches-unity", abs(far - 1.0) < 1e-3, f"ratio {far!r} at lambda=1e6"),
        ClaimResult("h1-monotone-approach", all(b <= a for a, b in zip(gaps, gaps[1:])),
                    "gap to 1 non-increasing on a geometric grid"),
    ]


def _claims_actual_int(series: SweepSeries) -> list[ClaimResult]:
    w11 = series.spec.overrides.get("w11", 0.8)
    h1, h2 = series.hospital("H1"), series.hospital("H2")
    claims = []
    if abs(w11 - 0.6) <= 1e-9:
        claims.append(ClaimResult("h1-strictly-increasing", _strictly("increasing", h1)))
    elif w11 >= 0.8 - 1e-9:
        window = tuple(v for x, v in zip(series.values, h1) if 0.4 - 1e-9 <= x <= 1.0 + 1e-9)
        claims.append(ClaimResult("h1-strictly-decreasing-on-[0.4,1]", _strictly("decreasing", window)))
    claims.append(ClaimResult("h3-unaffected", _strictly("constant", series.hospital("H3"))))
    if w11 < 1.0 - 1e-9:
        claims.append(ClaimResult("h2-strictly-decreasing", _strictly("decreasing", h2)))
    else:
        claims.append(ClaimResult("h2-unaffected", _strictly("constant", h2)))
    return claims


# ---------------------------------------------------------------------------
# the scenario table
# ---------------------------------------------------------------------------


_SCENARIOS = {
    s.name: s
    for s in (
        Scenario("casemix-ext", "eta", (0.0, 20.0), (0.0, 20.0, 1.0),
                 _build_casemix_ext, _claims_casemix_ext),
        Scenario("scale-ext", "lambda", (0.0, inf), (1.0, 5.0, 0.1),
                 _build_scale_ext, _claims_scale_ext, open_low=True),
        Scenario("actual-ext", "p11", (0.0, 1.0), (0.0, 1.0, 0.005),
                 _build_actual_ext, _claims_actual_ext),
        Scenario("expected-ext", "p1e", (0.0, 1.0), (0.01, 0.3, 0.005),
                 _build_expected_ext, _claims_expected_ext),
        Scenario("casemix-int", "eta", (0.0, 50.0), (0.0, 50.0, 1.0),
                 _build_casemix_int, _claims_casemix_int),
        Scenario("scale-int", "lambda", (0.0, inf), (1.0, 5.0, 0.1),
                 _build_scale_int, _claims_scale_int, open_low=True),
        Scenario("actual-int", "p11", (0.0, 1.0), (0.0, 1.0, 0.005),
                 _build_actual_int, _claims_actual_int, overrides=("w11",)),
    )
}

SCENARIO_NAMES = tuple(_SCENARIOS)
