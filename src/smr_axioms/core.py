"""Domain model and exact ratio computations.

Conventions
-----------
A hospital treats patients grouped into strata of identical risk profile.
For hospital h and stratum s:

    n_hs  patients treated (non-negative real; real-valued so that scale
          factors and fractional sweeps stay inside the model),
    p_hs  actual mortality rate in [0, 1], defined whenever n_hs > 0,
    n_h   = sum_s n_hs,
    pbar_h = sum_s n_hs * p_hs / n_h          (actual mortality rate).

Given benchmark rates p_s^e per stratum, the expected mortality rate is
the same patient-weighted mean over the benchmark,

    pbar_h^e = sum_s n_hs * p_s^e / n_h,

and the standardized mortality ratio is SMR_h = pbar_h / pbar_h^e.

The benchmark is one value, ``Rates`` (stratum -> rate), and :func:`smr`
computes every ratio against it. Only its origin differs:

* external: rates come from outside the analyzed cohort and do not react
  to it (`ExternalStandard.rates`);
* internal: the rate of stratum s is the patient-weighted mean rate of
  that stratum across the cohort itself (`internal_standard`), so every
  hospital's data feeds the benchmark it is measured against.

Internal standardization is external standardization against
``internal_standard(cohort)``, built once per cohort, so
:func:`smr_all` is O(H*S) for H hospitals and S strata.

Cells with ``count == 0`` may carry a rate (it is ignored by all rate
aggregations) or leave it undefined. A zero expected rate is a typed
error, never an infinity.

All values are immutable after construction and every operation is a
pure function, so concurrent evaluation needs no coordination. Weighted
sums use ``math.fsum``, which makes results independent of stratum and
hospital ordering bit-for-bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import fsum, isfinite
from typing import Collection, Iterator, Literal, Mapping, Union

from .errors import (
    EmptyHospitalError,
    InvalidParameterError,
    MissingStandardRateError,
    UnknownHospitalError,
    UnknownStratumError,
    ZeroExpectedRateError,
)

StratumId = Union[str, int]
HospitalId = Union[str, int]
Scheme = Literal["external", "internal"]
#: Benchmark rates p_s^e: stratum -> expected mortality rate.
Rates = Mapping[StratumId, float]

#: Absolute tolerance for comparisons that are identities in exact arithmetic.
EXACT_TOL = 1e-12
#: Absolute tolerance for comparisons between independently derived quantities.
DERIVED_TOL = 1e-9

EXTERNAL: Scheme = "external"
INTERNAL: Scheme = "internal"


def _check_rate(rate: float, what: str) -> float:
    rate = float(rate)
    if not (isfinite(rate) and 0.0 <= rate <= 1.0):
        raise InvalidParameterError(f"{what} must lie in [0, 1], got {rate!r}")
    return rate


def _reject_string_collisions(ids: Collection[object], what: str) -> None:
    """Distinct ids must stay distinct once stringified, as every writer does."""
    try:
        "".join(ids)  # passes only when every id is a str, and distinct strs never collide
    except TypeError:
        seen: dict[str, object] = {}
        for key in ids:
            if seen.setdefault(str(key), key) is not key:
                raise InvalidParameterError(
                    f"{what} ids {seen[str(key)]!r} and {key!r} collide once stringified"
                ) from None


@dataclass(frozen=True)
class StratumCell:
    """Patient count and actual mortality rate of one stratum.

    ``rate`` may be None only while ``count == 0``; a populated stratum
    always defines its rate.
    """

    count: float
    rate: float | None = None

    def __post_init__(self) -> None:
        count = float(self.count)
        if not (isfinite(count) and count >= 0.0):
            raise InvalidParameterError(f"patient count must be >= 0, got {self.count!r}")
        object.__setattr__(self, "count", count)
        if self.rate is None:
            if count > 0.0:
                raise InvalidParameterError("populated stratum needs a mortality rate")
        else:
            object.__setattr__(self, "rate", _check_rate(self.rate, "mortality rate"))


CellLike = Union[StratumCell, tuple]


def _as_cell(value: CellLike) -> StratumCell:
    if isinstance(value, StratumCell):
        return value
    if len(value) == 1:
        return StratumCell(value[0], None)
    count, rate = value
    return StratumCell(count, rate)


@dataclass(frozen=True)
class StratumTable:
    """One hospital's strata: id -> (count, rate)."""

    hospital: HospitalId
    cells: Mapping[StratumId, StratumCell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", dict(self.cells))
        _reject_string_collisions(self.cells, "stratum")

    @classmethod
    def build(cls, hospital: HospitalId, cells: Mapping[StratumId, CellLike]) -> "StratumTable":
        """Build from a mapping of ``stratum -> (count, rate)`` pairs."""
        return cls(hospital, {sid: _as_cell(c) for sid, c in cells.items()})

    @property
    def total_count(self) -> float:
        return fsum(c.count for c in self.cells.values())

    @property
    def strata(self) -> tuple[StratumId, ...]:
        return tuple(self.cells)

    def populated(self) -> Iterator[StratumId]:
        """Strata with at least one patient."""
        return (sid for sid, c in self.cells.items() if c.count > 0.0)

    def cell(self, stratum: StratumId) -> StratumCell:
        try:
            return self.cells[stratum]
        except KeyError:
            raise UnknownStratumError(
                f"hospital {self.hospital!r} has no stratum {stratum!r}"
            ) from None

    def count(self, stratum: StratumId) -> float:
        return self.cells[stratum].count if stratum in self.cells else 0.0

    def rate(self, stratum: StratumId) -> float | None:
        return self.cells[stratum].rate if stratum in self.cells else None


def with_cell(table: StratumTable, stratum: StratumId, count: float, rate: float | None) -> StratumTable:
    """Copy of ``table`` with one cell replaced or added."""
    cells = dict(table.cells)
    cells[stratum] = StratumCell(count, rate)
    return StratumTable(table.hospital, cells)


def with_rate(table: StratumTable, stratum: StratumId, rate: float) -> StratumTable:
    """Copy of ``table`` with the rate of one existing stratum replaced."""
    cell = table.cell(stratum)
    return with_cell(table, stratum, cell.count, rate)


@dataclass(frozen=True)
class ExternalStandard:
    """Benchmark rates fixed outside the analyzed cohort: stratum -> rate."""

    rates: Mapping[StratumId, float]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rates",
            {sid: _check_rate(r, f"standard rate of stratum {sid!r}") for sid, r in self.rates.items()},
        )
        _reject_string_collisions(self.rates, "stratum")

    def rate(self, stratum: StratumId) -> float:
        try:
            return self.rates[stratum]
        except KeyError:
            raise MissingStandardRateError(stratum) from None


@dataclass(frozen=True)
class Cohort:
    """The hospitals that jointly define the internal benchmark."""

    hospitals: tuple[StratumTable, ...] = field(default_factory=tuple)
    _index: dict[HospitalId, StratumTable] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hospitals", tuple(self.hospitals))
        index = {t.hospital: t for t in self.hospitals}
        if len(index) < len(self.hospitals):
            duplicate = next(h for h, n in Counter(t.hospital for t in self.hospitals).items() if n > 1)
            raise InvalidParameterError(f"duplicate hospital id {duplicate!r}")
        _reject_string_collisions(index, "hospital")
        object.__setattr__(self, "_index", index)

    @classmethod
    def build(cls, tables: Mapping[HospitalId, Mapping[StratumId, CellLike]]) -> "Cohort":
        return cls(tuple(StratumTable.build(h, cells) for h, cells in tables.items()))

    def ids(self) -> tuple[HospitalId, ...]:
        return tuple(self._index)

    def table(self, hospital: HospitalId) -> StratumTable:
        try:
            return self._index[hospital]
        except KeyError:
            raise UnknownHospitalError(f"hospital {hospital!r} not in cohort") from None

    def strata(self) -> tuple[StratumId, ...]:
        """Union of stratum ids, in first-seen order."""
        out: dict[StratumId, None] = {}
        for t in self.hospitals:
            for sid in t.strata:
                out.setdefault(sid)
        return tuple(out)

    def stratum_count(self, stratum: StratumId) -> float:
        """Cohort-wide patient count of one stratum."""
        return fsum(t.count(stratum) for t in self.hospitals)

    def with_table(self, table: StratumTable) -> "Cohort":
        """Copy with the same-id hospital replaced; the ids stay valid, so nothing is re-checked."""
        old = self.table(table.hospital)
        copy = object.__new__(Cohort)
        object.__setattr__(copy, "hospitals", tuple(table if t is old else t for t in self.hospitals))
        object.__setattr__(copy, "_index", {**self._index, table.hospital: table})
        return copy


@dataclass(frozen=True)
class SmrResult:
    """Actual rate, expected rate and their ratio for one hospital."""

    hospital: HospitalId
    actual_rate: float
    expected_rate: float
    smr: float
    scheme: Scheme


def _require_patients(table: StratumTable) -> float:
    total = table.total_count
    if total <= 0.0:
        raise EmptyHospitalError(f"hospital {table.hospital!r} has no patients")
    return total


def actual_rate(table: StratumTable) -> float:
    """Patient-weighted mean of the hospital's stratum rates."""
    total = _require_patients(table)
    return fsum(c.count * c.rate for c in table.cells.values() if c.count > 0.0) / total


def expected_rate(table: StratumTable, rates: Rates) -> float:
    """Patient-weighted mean of the benchmark rates under the hospital's case mix."""
    total = _require_patients(table)
    try:
        return fsum(c.count * rates[sid] for sid, c in table.cells.items() if c.count > 0.0) / total
    except KeyError as missing:
        raise MissingStandardRateError(missing.args[0]) from None


def smr(table: StratumTable, rates: Rates, scheme: Scheme) -> SmrResult:
    """Ratio of actual to expected mortality; ``scheme`` only labels the result."""
    actual = actual_rate(table)
    expected = expected_rate(table, rates)
    if expected <= 0.0:
        benchmark = "the standard" if scheme == EXTERNAL else "the internal benchmark"
        raise ZeroExpectedRateError(f"hospital {table.hospital!r} has zero expected mortality under {benchmark}")
    return SmrResult(table.hospital, actual, expected, actual / expected, scheme)


def internal_standard(cohort: Cohort) -> dict[StratumId, float]:
    """Benchmark rates implied by the cohort itself.

    The rate of stratum s is the patient-weighted mean rate across all
    hospitals; strata with no patients anywhere are omitted rather than
    given an arbitrary value.
    """
    out: dict[StratumId, float] = {}
    for sid in cohort.strata():
        total = cohort.stratum_count(sid)
        if total > 0.0:
            deaths = fsum(
                t.cells[sid].count * t.cells[sid].rate
                for t in cohort.hospitals
                if sid in t.cells and t.cells[sid].count > 0.0
            )
            out[sid] = deaths / total
    return out


def expected_rate_external(table: StratumTable, standard: ExternalStandard) -> float:
    """Expected mortality rate of one hospital under a fixed external standard."""
    return expected_rate(table, standard.rates)


def expected_rate_internal(cohort: Cohort, hospital: HospitalId) -> float:
    """Expected mortality rate of one hospital under the cohort's own benchmark."""
    return expected_rate(cohort.table(hospital), internal_standard(cohort))


def smr_external(table: StratumTable, standard: ExternalStandard) -> SmrResult:
    """Ratio of actual to expected mortality against a fixed external standard."""
    return smr(table, standard.rates, EXTERNAL)


def smr_internal(cohort: Cohort, hospital: HospitalId) -> SmrResult:
    """Ratio of actual to expected mortality against the cohort's own benchmark."""
    return smr(cohort.table(hospital), internal_standard(cohort), INTERNAL)


def smr_all(cohort: Cohort, scheme: Scheme, standard: ExternalStandard | None = None) -> list[SmrResult]:
    """SMR of every hospital under one scheme, against a benchmark built once."""
    if scheme == EXTERNAL:
        if standard is None:
            raise InvalidParameterError("external scheme needs a standard")
        rates = standard.rates
    else:
        rates = internal_standard(cohort)
    return [smr(t, rates, scheme) for t in cohort.hospitals]


@dataclass(frozen=True)
class World:
    """A cohort plus an optional external standard, which decides the scheme.

    With a standard, hospitals are measured against its rates (external);
    without one, against ``internal_standard(cohort)`` (internal). Audit
    probes, their witnesses and the scenario configurations are worlds.
    """

    cohort: Cohort
    standard: ExternalStandard | None = None

    @property
    def scheme(self) -> Scheme:
        return INTERNAL if self.standard is None else EXTERNAL

    def rates(self) -> Rates:
        """The benchmark this world's hospitals are measured against."""
        return internal_standard(self.cohort) if self.standard is None else self.standard.rates
