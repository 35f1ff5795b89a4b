"""Mechanical audit of ratio-style performance measures.

Five requirements a trustworthy standardized mortality measure should
satisfy:

* strict monotonicity: raising a treated stratum's mortality rate must
  raise the measure;
* case-mix insensitivity: moving patients between strata (size, rates
  and benchmark fixed) must not move the measure;
* scale insensitivity: rescaling a hospital (case mix and rates fixed)
  must not move the measure;
* equivalence: hospitals with identical stratum rates, or identical
  stratum-wise deviations from the benchmark, must score the same;
* dominance: a hospital that is stratum-wise at least as good and
  somewhere strictly better must rank strictly better (lower value).

The requirements are universally quantified, so the audit is a
falsifier: it runs a deterministic battery of hand-built probes (the
configurations known to break each measure) followed by seeded random
probes, and reports the first counterexample as a replayable witness.
"Holds" always means "no violation found in N trials", never a proof.

Violation comparisons use ``EXACT_TOL`` (1e-12) for the insensitivity
and monotonicity checks and ``DERIVED_TOL`` (1e-9) for pair equality; a
dominance tie counts as a violation because the requirement demands a
strictly better rank.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Iterator, Literal, Mapping, Sequence

from . import core, scenarios
from .core import (
    Cohort,
    ExternalStandard,
    HospitalId,
    Rates,
    Scheme,
    StratumId,
    StratumTable,
    World,
    with_cell,
    with_rate,
)
from .errors import (
    EmptyProbeSetError,
    IncomparableProbeError,
    InvalidParameterError,
    MissingStandardRateError,
)
from .sensitivity import CaseMixShift, ScaleChange, scale_hospital, shift_case_mix

AXIOMS = (
    "strict_monotonicity",
    "case_mix_insensitivity",
    "scale_insensitivity",
    "equivalence",
    "dominance",
)

Status = Literal["holds", "violated"]

#: Expected verdict pattern of the two built-in measures, in AXIOMS order.
EXPECTED_BUILTIN_STATUS = {
    "smr-external": ("holds", "violated", "holds", "violated", "violated"),
    "smr-internal": ("violated", "violated", "violated", "violated", "violated"),
}


@dataclass(frozen=True)
class Measure:
    """A deterministic evaluator mapping (world, hospital) to a real."""

    name: str
    scheme: Scheme
    evaluate: Callable[[World, HospitalId], float]


def _eval_smr_external(world: World, hospital: HospitalId) -> float:
    if world.standard is None:
        raise InvalidParameterError("external measure needs a standard")
    return core.smr_external(world.cohort.table(hospital), world.standard).smr


def _eval_smr_internal(world: World, hospital: HospitalId) -> float:
    return core.smr_internal(world.cohort, hospital).smr


def _eval_constant(world: World, hospital: HospitalId) -> float:
    world.cohort.table(hospital)
    return 1.0


def _eval_actual_rate(world: World, hospital: HospitalId) -> float:
    return core.actual_rate(world.cohort.table(hospital))


def built_in_measures() -> dict[str, Measure]:
    """Registry of measures the CLI can audit by name."""
    return {
        "smr-external": Measure("smr-external", "external", _eval_smr_external),
        "smr-internal": Measure("smr-internal", "internal", _eval_smr_internal),
        "constant": Measure("constant", "external", _eval_constant),
        "actual-rate": Measure("actual-rate", "external", _eval_actual_rate),
    }


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityProbe:
    world: World
    hospital: HospitalId
    stratum: StratumId
    delta: float


@dataclass(frozen=True)
class CaseMixProbe:
    world: World
    hospital: HospitalId
    shift: CaseMixShift


@dataclass(frozen=True)
class ScaleProbe:
    world: World
    hospital: HospitalId
    factor: float


@dataclass(frozen=True)
class PairProbe:
    """Two hospitals inside one world, plus the declared relation.

    ``relation`` is ``identical-rates`` or ``identical-deviations`` for
    equivalence probes and ``dominates`` for dominance probes (the first
    hospital is the dominant one).
    """

    world: World
    hospital_a: HospitalId
    hospital_b: HospitalId
    relation: str


Probe = object


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: full inputs plus the two evaluations."""

    axiom: str
    measure: str
    world: World
    hospital: HospitalId
    value_before: float
    value_after: float
    perturbed_world: World | None = None
    hospital_b: HospitalId | None = None
    perturbation: Mapping[str, object] = field(default_factory=dict)
    detail: str = ""


@dataclass(frozen=True)
class AxiomVerdict:
    axiom: str
    status: Status
    trials: int
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.status == "violated" and self.witness is None:
            raise InvalidParameterError("a violation verdict needs a witness")


@dataclass(frozen=True)
class MeasureAudit:
    measure: str
    scheme: Scheme
    verdicts: tuple[AxiomVerdict, ...]

    def __post_init__(self) -> None:
        if tuple(v.axiom for v in self.verdicts) != AXIOMS:
            raise InvalidParameterError("exactly one verdict per axiom, in canonical order")

    def statuses(self) -> tuple[Status, ...]:
        return tuple(v.status for v in self.verdicts)


@dataclass(frozen=True)
class AuditMatrix:
    rows: tuple[MeasureAudit, ...]

    def row(self, measure: str) -> MeasureAudit:
        for r in self.rows:
            if r.measure == measure:
                return r
        raise InvalidParameterError(f"measure {measure!r} not audited")


def replay(measure: Measure, witness: Witness) -> tuple[float, float]:
    """Re-evaluate a witness's two comparisons from its stored inputs."""
    before = measure.evaluate(witness.world, witness.hospital)
    if witness.axiom in ("equivalence", "dominance"):
        after = measure.evaluate(witness.world, witness.hospital_b)
    else:
        after = measure.evaluate(witness.perturbed_world, witness.hospital)
    return before, after


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def _verdict(axiom: str, probes_run: int, witness: Witness | None) -> AxiomVerdict:
    if probes_run == 0:
        raise EmptyProbeSetError(f"no probes supplied for {axiom}")
    if witness is None:
        return AxiomVerdict(axiom, "holds", probes_run)
    return AxiomVerdict(axiom, "violated", probes_run, witness)


def check_strict_monotonicity(
    measure: Measure, probes: Iterable[MonotonicityProbe], tol: float = core.EXACT_TOL
) -> AxiomVerdict:
    """Perturb one treated stratum's rate upward; demand a strict increase."""
    ran = 0
    for probe in probes:
        ran += 1
        table = probe.world.cohort.table(probe.hospital)
        cell = table.cell(probe.stratum)
        if cell.count <= 0.0:
            raise InvalidParameterError("monotonicity probe needs a populated stratum")
        bumped = min(1.0, cell.rate + probe.delta)
        if bumped <= cell.rate:
            raise IncomparableProbeError(
                f"raising the rate {cell.rate!r} of stratum {probe.stratum!r} by {probe.delta!r}"
                " leaves it unchanged"
            )
        perturbed = World(
            probe.world.cohort.with_table(with_rate(table, probe.stratum, bumped)),
            probe.world.standard,
        )
        before = measure.evaluate(probe.world, probe.hospital)
        after = measure.evaluate(perturbed, probe.hospital)
        if after - before <= tol:
            return _verdict(
                "strict_monotonicity",
                ran,
                Witness(
                    "strict_monotonicity",
                    measure.name,
                    probe.world,
                    probe.hospital,
                    before,
                    after,
                    perturbed_world=perturbed,
                    perturbation={"stratum": probe.stratum, "delta": probe.delta},
                    detail=f"rate of stratum {probe.stratum!r} raised by {probe.delta}"
                    f" but the measure moved {after - before!r}",
                ),
            )
    return _verdict("strict_monotonicity", ran, None)


def check_case_mix_insensitivity(
    measure: Measure, probes: Iterable[CaseMixProbe], tol: float = core.EXACT_TOL
) -> AxiomVerdict:
    """Shift patients between strata; demand the measure stays put."""
    ran = 0
    for probe in probes:
        ran += 1
        table = probe.world.cohort.table(probe.hospital)
        perturbed = World(
            probe.world.cohort.with_table(shift_case_mix(table, probe.shift)),
            probe.world.standard,
        )
        before = measure.evaluate(probe.world, probe.hospital)
        after = measure.evaluate(perturbed, probe.hospital)
        if abs(after - before) > tol:
            shift = probe.shift
            return _verdict(
                "case_mix_insensitivity",
                ran,
                Witness(
                    "case_mix_insensitivity",
                    measure.name,
                    probe.world,
                    probe.hospital,
                    before,
                    after,
                    perturbed_world=perturbed,
                    perturbation={
                        "from_stratum": shift.from_stratum,
                        "to_stratum": shift.to_stratum,
                        "eta": shift.eta,
                    },
                    detail=f"moving {shift.eta} patients {shift.from_stratum!r}"
                    f" -> {shift.to_stratum!r} moved the measure by {after - before!r}",
                ),
            )
    return _verdict("case_mix_insensitivity", ran, None)


def check_scale_insensitivity(
    measure: Measure, probes: Iterable[ScaleProbe], tol: float = core.EXACT_TOL
) -> AxiomVerdict:
    """Rescale one hospital; demand the measure stays put."""
    ran = 0
    for probe in probes:
        ran += 1
        table = probe.world.cohort.table(probe.hospital)
        perturbed = World(
            probe.world.cohort.with_table(scale_hospital(table, ScaleChange(probe.factor))),
            probe.world.standard,
        )
        before = measure.evaluate(probe.world, probe.hospital)
        after = measure.evaluate(perturbed, probe.hospital)
        if abs(after - before) > tol:
            return _verdict(
                "scale_insensitivity",
                ran,
                Witness(
                    "scale_insensitivity",
                    measure.name,
                    probe.world,
                    probe.hospital,
                    before,
                    after,
                    perturbed_world=perturbed,
                    perturbation={"factor": probe.factor},
                    detail=f"scaling by {probe.factor} moved the measure by {after - before!r}",
                ),
            )
    return _verdict("scale_insensitivity", ran, None)


def _deviations(
    rates: Rates, table: StratumTable, strata: Sequence[StratumId]
) -> dict[StratumId, float]:
    """Stratum-wise gaps to the benchmark; unpopulated strata count as 0."""
    out: dict[StratumId, float] = {}
    for sid in strata:
        if sid not in rates:
            raise MissingStandardRateError(sid)
        cell = table.cells.get(sid)
        out[sid] = 0.0 if cell is None or cell.count <= 0.0 else cell.rate - rates[sid]
    return out


def _pair_relation_holds(probe: PairProbe) -> bool:
    """Verify the probe's declared relation before trusting it."""
    ta = probe.world.cohort.table(probe.hospital_a)
    tb = probe.world.cohort.table(probe.hospital_b)
    strata = sorted({*ta.populated(), *tb.populated()}, key=str)
    if probe.relation == "identical-rates":
        for sid in strata:
            ra, rb = ta.rate(sid), tb.rate(sid)
            if ra is None or rb is None or ra != rb:
                return False
        return True
    if probe.relation == "identical-deviations":
        rates = probe.world.rates()
        da = _deviations(rates, ta, strata)
        db = _deviations(rates, tb, strata)
        return all(abs(da[sid] - db[sid]) <= core.EXACT_TOL for sid in strata)
    raise InvalidParameterError(f"unknown pair relation {probe.relation!r}")


def check_equivalence(
    measure: Measure, probes: Iterable[PairProbe], tol: float = core.DERIVED_TOL
) -> AxiomVerdict:
    """Hospitals with identical rates or identical deviations must score equal."""
    ran = 0
    for probe in probes:
        ran += 1
        if not _pair_relation_holds(probe):
            raise IncomparableProbeError(
                f"probe relation {probe.relation!r} does not hold for"
                f" ({probe.hospital_a!r}, {probe.hospital_b!r})"
            )
        va = measure.evaluate(probe.world, probe.hospital_a)
        vb = measure.evaluate(probe.world, probe.hospital_b)
        if abs(va - vb) > tol:
            return _verdict(
                "equivalence",
                ran,
                Witness(
                    "equivalence",
                    measure.name,
                    probe.world,
                    probe.hospital_a,
                    va,
                    vb,
                    hospital_b=probe.hospital_b,
                    perturbation={"relation": probe.relation},
                    detail=f"{probe.relation} pair scored {va!r} vs {vb!r}",
                ),
            )
    return _verdict("equivalence", ran, None)


def _dominates(probe: PairProbe) -> bool:
    """hospital_a stratum-wise <= hospital_b with at least one strict gap.

    Comparability needs a defined rate on both sides for every stratum
    either hospital populates (a rate may be supplied on an empty cell).
    """
    ta = probe.world.cohort.table(probe.hospital_a)
    tb = probe.world.cohort.table(probe.hospital_b)
    strata = sorted({*ta.populated(), *tb.populated()}, key=str)
    strict = False
    for sid in strata:
        ra, rb = ta.rate(sid), tb.rate(sid)
        if ra is None or rb is None:
            raise IncomparableProbeError(
                f"stratum {sid!r} lacks a rate on one side; supply one to compare"
            )
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def check_dominance(
    measure: Measure, probes: Iterable[PairProbe]
) -> AxiomVerdict:
    """A stratum-wise better hospital must rank strictly better (lower)."""
    ran = 0
    for probe in probes:
        ran += 1
        if not _dominates(probe):
            raise IncomparableProbeError(
                f"probe does not satisfy dominance of {probe.hospital_a!r}"
                f" over {probe.hospital_b!r}"
            )
        va = measure.evaluate(probe.world, probe.hospital_a)
        vb = measure.evaluate(probe.world, probe.hospital_b)
        if va >= vb:
            return _verdict(
                "dominance",
                ran,
                Witness(
                    "dominance",
                    measure.name,
                    probe.world,
                    probe.hospital_a,
                    va,
                    vb,
                    hospital_b=probe.hospital_b,
                    perturbation={"relation": "dominates"},
                    detail=f"dominant hospital scored {va!r}, dominated {vb!r}",
                ),
            )
    return _verdict("dominance", ran, None)


# ---------------------------------------------------------------------------
# probe construction
# ---------------------------------------------------------------------------


def _world(name: str, at: float, overrides: Mapping[str, float] | None = None) -> World:
    return scenarios.build_scenario(scenarios.ScenarioSpec(name, (at,), overrides or {}), at)


def mandatory_probes(axiom: str, scheme: Scheme) -> list[Probe]:
    """Deterministic probes drawn from the built-in worked examples.

    These guarantee that the known counterexamples are found before any
    random probing starts, so the audit's verdict on the two ratio
    measures never depends on the seed.
    """
    if axiom == "strict_monotonicity":
        if scheme == "internal":
            return [MonotonicityProbe(_world("actual-int", 0.5, {"w11": 0.8}), "H1", "1", 1e-3)]
        return [MonotonicityProbe(_world("actual-ext", 0.1), "H1", "1", 1e-3)]
    if axiom == "case_mix_insensitivity":
        if scheme == "internal":
            return [CaseMixProbe(_world("casemix-int", 0.0), "H1", CaseMixShift("1", "2", 10.0))]
        return [CaseMixProbe(_world("casemix-ext", 0.0), "H1", CaseMixShift("1", "2", 5.0))]
    if axiom == "scale_insensitivity":
        if scheme == "internal":
            return [ScaleProbe(_world("scale-int", 1.0), "H1", 2.0)]
        return [ScaleProbe(_world("scale-ext", 1.0), "H1", factor) for factor in (2.0, 3.0, 4.0, 5.0)]
    if axiom == "equivalence":
        # For an internal-scheme measure the standard is dropped so the
        # deviation relation is verified against the endogenous benchmark.
        def pair_world(p: float) -> World:
            w = _world("actual-ext", p)
            return World(w.cohort) if scheme == "internal" else w

        probes: list[Probe] = [
            PairProbe(pair_world(p), "H1", "H2", "identical-deviations")
            for p in (0.05, 0.075, 0.1, 0.125, 0.15)
        ]
        if scheme == "internal":
            twin = Cohort.build(
                {
                    "A": {"1": (10.0, 0.1), "2": (90.0, 0.3)},
                    "B": {"1": (90.0, 0.1), "2": (10.0, 0.3)},
                    "C": {"1": (50.0, 0.2), "2": (50.0, 0.2)},
                }
            )
            probes.append(PairProbe(World(twin), "A", "B", "identical-rates"))
        return probes
    if axiom == "dominance":
        if scheme == "internal":
            world = _world("actual-int", 1.0, {"w11": 1.0})
            h3 = world.cohort.table("H3")
            # H3 treats nobody in stratum 1; a supplied rate (tied with H1's
            # 1.0) makes the pair comparable without touching any ratio.
            patched = world.cohort.with_table(with_cell(h3, "1", 0.0, 1.0))
            return [PairProbe(World(patched), "H3", "H1", "dominates")]
        return [
            PairProbe(_world("expected-ext", p), "H2", "H1", "dominates")
            for p in (0.2, 0.25, 0.3)
        ]
    raise InvalidParameterError(f"unknown axiom {axiom!r}")


class ProbeGenerator:
    """Seeded random probe source.

    Counts are log-uniform in [1, 1000], rates uniform in [0.01, 0.5],
    strata counts in [2, 6]; the bounds keep every denominator well away
    from zero so that "holds" verdicts are not rounding artifacts.
    """

    def __init__(self, seed: int):
        self._rng = Random(seed)

    def _count(self) -> float:
        return 10.0 ** self._rng.uniform(0.0, 3.0)

    def _rate(self) -> float:
        return self._rng.uniform(0.01, 0.5)

    def _strata(self) -> list[str]:
        return [f"S{i}" for i in range(1, self._rng.randint(2, 6) + 1)]

    def _table(self, hospital: str, strata: Sequence[str]) -> StratumTable:
        return StratumTable.build(
            hospital, {sid: (self._count(), self._rate()) for sid in strata}
        )

    def _standard(self, strata: Sequence[str]) -> ExternalStandard:
        return ExternalStandard({sid: self._rate() for sid in strata})

    def _single_world(self, scheme: Scheme, strata: Sequence[str]) -> tuple[World, str]:
        if scheme == "internal":
            cohort = Cohort(
                tuple(self._table(h, strata) for h in ("A", "B", "C")[: self._rng.randint(2, 3)])
            )
            return World(cohort), "A"
        cohort = Cohort((self._table("A", strata),))
        return World(cohort, self._standard(strata)), "A"

    def monotonicity(self, scheme: Scheme) -> Iterator[MonotonicityProbe]:
        while True:
            strata = self._strata()
            world, hospital = self._single_world(scheme, strata)
            yield MonotonicityProbe(world, hospital, self._rng.choice(strata), 1e-3)

    def case_mix(self, scheme: Scheme) -> Iterator[CaseMixProbe]:
        while True:
            strata = self._strata()
            world, hospital = self._single_world(scheme, strata)
            donor, receiver = self._rng.sample(strata, 2)
            eta = world.cohort.table(hospital).count(donor) * self._rng.uniform(0.1, 0.9)
            yield CaseMixProbe(world, hospital, CaseMixShift(donor, receiver, eta))

    def scale(self, scheme: Scheme) -> Iterator[ScaleProbe]:
        while True:
            world, hospital = self._single_world(scheme, self._strata())
            yield ScaleProbe(world, hospital, 10.0 ** self._rng.uniform(-0.6, 0.6))

    def equivalence(self, scheme: Scheme) -> Iterator[PairProbe]:
        while True:
            strata = self._strata()
            if scheme == "internal":
                rates = {sid: self._rate() for sid in strata}
                a = StratumTable.build("A", {s: (self._count(), rates[s]) for s in strata})
                b = StratumTable.build("B", {s: (self._count(), rates[s]) for s in strata})
                c = self._table("C", strata)
                yield PairProbe(World(Cohort((a, b, c))), "A", "B", "identical-rates")
                continue
            standard = self._standard(strata)
            if self._rng.random() < 0.5:
                rates = {sid: self._rate() for sid in strata}
                relation = "identical-rates"
            else:
                rates = {
                    sid: min(1.0, max(0.0, standard.rate(sid) + self._rng.uniform(-0.05, 0.05)))
                    for sid in strata
                }
                relation = "identical-deviations"
            a = StratumTable.build("A", {s: (self._count(), rates[s]) for s in strata})
            b = StratumTable.build("B", {s: (self._count(), rates[s]) for s in strata})
            yield PairProbe(World(Cohort((a, b)), standard), "A", "B", relation)

    def dominance(self, scheme: Scheme) -> Iterator[PairProbe]:
        while True:
            strata = self._strata()
            worse = {sid: self._rng.uniform(0.05, 0.5) for sid in strata}
            better = dict(worse)
            cut = self._rng.choice(strata)
            for sid in strata:
                if sid == cut or self._rng.random() < 0.5:
                    better[sid] = max(0.01, worse[sid] - self._rng.uniform(0.005, 0.04))
            a = StratumTable.build("A", {s: (self._count(), better[s]) for s in strata})
            b = StratumTable.build("B", {s: (self._count(), worse[s]) for s in strata})
            standard = None if scheme == "internal" else self._standard(strata)
            yield PairProbe(World(Cohort((a, b)), standard), "A", "B", "dominates")

    def stream(self, axiom: str, scheme: Scheme) -> Iterator[Probe]:
        return {
            "strict_monotonicity": self.monotonicity,
            "case_mix_insensitivity": self.case_mix,
            "scale_insensitivity": self.scale,
            "equivalence": self.equivalence,
            "dominance": self.dominance,
        }[axiom](scheme)


_CHECKS = {
    "strict_monotonicity": check_strict_monotonicity,
    "case_mix_insensitivity": check_case_mix_insensitivity,
    "scale_insensitivity": check_scale_insensitivity,
    "equivalence": check_equivalence,
    "dominance": check_dominance,
}


def _cell_seed(seed: int, measure: str, axiom: str) -> int:
    # crc32 keeps child seeds stable across runs and interpreter versions.
    return seed ^ zlib.crc32(f"{measure}:{axiom}".encode())


def _probe_budget(axiom: str, scheme: Scheme, seed: int, measure: str, trials: int) -> Iterator[Probe]:
    yield from mandatory_probes(axiom, scheme)
    generator = ProbeGenerator(_cell_seed(seed, measure, axiom))
    stream = generator.stream(axiom, scheme)
    for _ in range(trials):
        yield next(stream)


def run_audit(
    measures: Sequence[Measure] = (),
    seed: int = 0,
    trials: int = 10_000,
) -> AuditMatrix:
    """Audit the built-in ratio measures plus any user-supplied ones.

    Deterministic for a given seed: mandatory probes run first in a
    fixed order and the random stream of each (measure, axiom) cell is
    seeded independently, so verdicts and witnesses do not depend on
    evaluation order. Checks stop at the first counterexample; ``trials``
    caps the number of random probes per cell.
    """
    registry = built_in_measures()
    ordered: list[Measure] = [registry["smr-external"], registry["smr-internal"]]
    for m in measures:
        if m.name not in {x.name for x in ordered}:
            ordered.append(m)

    rows = []
    for measure in ordered:
        verdicts = []
        for axiom in AXIOMS:
            probes = _probe_budget(axiom, measure.scheme, seed, measure.name, trials)
            verdicts.append(_CHECKS[axiom](measure, probes))
        rows.append(MeasureAudit(measure.name, measure.scheme, tuple(verdicts)))
    return AuditMatrix(tuple(rows))


def matches_expected_matrix(matrix: AuditMatrix) -> bool:
    """True when the built-in rows show their known verdict pattern.

    The external ratio satisfies strict monotonicity and scale
    insensitivity only; the internal ratio satisfies none of the five.
    """
    try:
        return all(
            matrix.row(name).statuses() == expected
            for name, expected in EXPECTED_BUILTIN_STATUS.items()
        )
    except InvalidParameterError:
        return False
