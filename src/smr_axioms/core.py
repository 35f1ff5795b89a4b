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
``internal_standard(cohort)``. Its per-stratum patient and death totals
are summed in one pass over the cells, the first time a ``Cohort``
object needs them, and kept on that object with the terms of only each
stratum's holders, so :func:`smr_all`, or :func:`smr_internal` once per
hospital, is O(cells) in time and memory. A ``Cohort.with_table`` copy
keeping the replaced table's stratum ids and order re-sums only the totals
it changes, reading no other hospital's cells: ``fsum`` rounds once, so a
column then ``-y, x`` sums as the column with x in place of y. Any other
copy sums its own cells. Totals beyond the float range raise ``TotalOverflowError``.

Cells with ``count == 0`` may carry a rate (it is ignored by all rate
aggregations) or leave it undefined. A zero expected rate, or one so
near zero that the ratio overflows, is a typed error, never an infinity.

Each count and rate is validated once, when its ``StratumCell`` or
``ExternalStandard`` is built; ``csvio`` leaves a hospitals row's values to
``StratumCell``. An in-range exact ``float`` costs one chained comparison;
others are converted with ``float()`` and checked in full, or refused as invalid.
Cells are slotted, and a loaded cohort's cells share one string per stratum id.
Only the audit's probes and a table's copies that keep its ids may skip the checks
of a table, cohort or standard through its private ``_trusted``: the caller hands
over a fresh container, with values already checked and ids that cannot collide.

All values are immutable after construction and every operation is a
pure function, so concurrent evaluation needs no coordination: keeping
the totals is an idempotent write of a value derived from immutable
cells, and two threads that race to it store equal tables. Weighted
sums use ``math.fsum``, which makes results independent of stratum and
hospital ordering bit-for-bit.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from math import fsum, inf
from typing import Collection, Iterator, Literal, Mapping, Union

from .errors import (
    EmptyHospitalError,
    InvalidParameterError,
    MissingStandardRateError,
    TotalOverflowError,
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


def _as_float(value: object, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(f"{what} must be a number, got {value!r}") from None


def _check_rate(rate: object, what: str) -> float:
    rate = _as_float(rate, what)
    if not 0.0 <= rate <= 1.0:
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


@dataclass(frozen=True, slots=True)
class StratumCell:
    """Patient count and actual mortality rate of one stratum.

    ``rate`` may be None only while ``count == 0``; a populated stratum
    always defines its rate.
    """

    count: float
    rate: float | None = None

    def __post_init__(self) -> None:
        # the chained comparisons also reject nan and inf
        count, rate = self.count, self.rate
        if type(count) is not float or not 0.0 <= count < inf:
            count = _as_float(count, "patient count")
            if not 0.0 <= count < inf:
                raise InvalidParameterError(f"patient count must be finite and >= 0, got {self.count!r}")
            object.__setattr__(self, "count", count)
        if rate is None:
            if count > 0.0:
                raise InvalidParameterError("populated stratum needs a mortality rate")
        elif type(rate) is not float or not 0.0 <= rate <= 1.0:
            object.__setattr__(self, "rate", _check_rate(rate, "mortality rate"))


CellLike = Union[StratumCell, tuple]


def _addends(cell: StratumCell) -> tuple[float, float]:
    """A cell's terms in its stratum's cohort-wide (patients, deaths), as ``Cohort._sum_cells`` keeps them."""
    return cell.count, cell.count * cell.rate if cell.count > 0.0 else 0.0


def _as_cell(value: CellLike) -> StratumCell:
    if isinstance(value, StratumCell):
        return value
    if isinstance(value, (tuple, list)) and 1 <= len(value) <= 2:
        return StratumCell(*value)
    raise InvalidParameterError(f"a cell must be (count,) or (count, rate), got {value!r}")


@dataclass(frozen=True)
class StratumTable:
    """One hospital's strata: id -> (count, rate)."""

    hospital: HospitalId
    cells: Mapping[StratumId, StratumCell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", dict(self.cells))
        _reject_string_collisions(self.cells, "stratum")

    @classmethod
    def _trusted(cls, hospital: HospitalId, cells: dict[StratumId, StratumCell]) -> "StratumTable":
        table = object.__new__(cls)
        table.__dict__.update(hospital=hospital, cells=cells)
        return table

    @classmethod
    def build(cls, hospital: HospitalId, cells: Mapping[StratumId, CellLike]) -> "StratumTable":
        """Build from a mapping of ``stratum -> (count, rate)`` pairs."""
        return cls(hospital, {sid: _as_cell(c) for sid, c in cells.items()})

    @property
    def total_count(self) -> float:
        try:
            return fsum(c.count for c in self.cells.values())
        except OverflowError:
            raise TotalOverflowError(f"patients of hospital {self.hospital!r} overflow a float") from None

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
    """Copy of ``table`` with one cell replaced or added; only an added id is checked."""
    build = StratumTable._trusted if stratum in table.cells else StratumTable
    return build(table.hospital, {**table.cells, stratum: StratumCell(count, rate)})


def with_rate(table: StratumTable, stratum: StratumId, rate: float) -> StratumTable:
    """Copy of ``table`` with the rate of one existing stratum replaced."""
    cell = table.cell(stratum)
    return with_cell(table, stratum, cell.count, rate)


@dataclass(frozen=True)
class ExternalStandard:
    """Benchmark rates fixed outside the analyzed cohort: stratum -> rate."""

    rates: Mapping[StratumId, float]

    def __post_init__(self) -> None:
        rates = dict(self.rates)
        for sid, r in rates.items():
            if type(r) is not float or not 0.0 <= r <= 1.0:
                rates[sid] = _check_rate(r, f"standard rate of stratum {sid!r}")
        object.__setattr__(self, "rates", rates)
        _reject_string_collisions(self.rates, "stratum")

    @classmethod
    def _trusted(cls, rates: dict[StratumId, float]) -> "ExternalStandard":
        standard = object.__new__(cls)
        standard.__dict__["rates"] = rates
        return standard

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
    # _sums: stratum -> (patients, deaths) over all hospitals in first-seen order, set on first use;
    # _terms: those terms of only the stratum's holders, if it summed its cells; _base: (parent, replaced table)
    _sums: dict[StratumId, tuple[float, float]] | None = field(default=None, init=False, repr=False, compare=False)
    _terms: dict[StratumId, tuple[array, array]] | None = field(default=None, init=False, repr=False, compare=False)
    _base: tuple[Cohort, StratumTable] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "hospitals", tuple(self.hospitals))
        index = {t.hospital: t for t in self.hospitals}
        if len(index) < len(self.hospitals):
            duplicate = next(h for h, n in Counter(t.hospital for t in self.hospitals).items() if n > 1)
            raise InvalidParameterError(f"duplicate hospital id {duplicate!r}")
        _reject_string_collisions(index, "hospital")
        object.__setattr__(self, "_index", index)

    @classmethod
    def _trusted(cls, hospitals: tuple[StratumTable, ...]) -> "Cohort":
        cohort = object.__new__(cls)
        cohort.__dict__.update(hospitals=hospitals, _index={t.hospital: t for t in hospitals})
        return cohort

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

    def _stratum_sums(self) -> dict[StratumId, tuple[float, float]]:
        """Cohort-wide (patients, deaths) per stratum, summed once per object."""
        if self._sums is None:
            try:
                sums = self._swap_sums(*self._base) if self._base else self._sum_cells()
            except OverflowError:
                raise TotalOverflowError("cohort-wide patients of a stratum overflow a float") from None
            object.__setattr__(self, "_sums", sums)
        return self._sums

    def _sum_cells(self) -> dict[StratumId, tuple[float, float]]:
        terms: dict[StratumId, tuple[array, array]] = {}
        for t in self.hospitals:
            for sid, c in t.cells.items():
                entry = terms.get(sid)
                if entry is None:
                    entry = terms[sid] = (array("d"), array("d"))
                entry[0].append(c.count)
                entry[1].append(c.count * c.rate if c.count > 0.0 else 0.0)
        sums = {sid: (fsum(counts), fsum(deaths)) for sid, (counts, deaths) in terms.items()}
        object.__setattr__(self, "_terms", terms)
        return sums

    def _swap_sums(self, parent: Cohort, old: StratumTable) -> dict[StratumId, tuple[float, float]]:
        sums = dict(parent._stratum_sums())  # not parent._sums, which a racing thread may not have set yet
        for sid, c in self._index[old.hospital].cells.items():
            sums[sid] = tuple(
                total if y == x else fsum(chain(col, (-y, x)))  # fsum rounds once: col with x for y
                for col, y, x, total in zip(parent._terms[sid], _addends(old.cells[sid]), _addends(c), sums[sid])
            )
        return sums

    def strata(self) -> tuple[StratumId, ...]:
        """Union of stratum ids, in first-seen order."""
        return tuple(self._stratum_sums())

    def stratum_count(self, stratum: StratumId) -> float:
        """Cohort-wide patient count of one stratum."""
        entry = self._stratum_sums().get(stratum)
        return 0.0 if entry is None else entry[0]

    def with_table(self, table: StratumTable) -> "Cohort":
        """Copy with the same-id hospital replaced; the ids stay valid, so nothing is re-checked.

        The copy sums its own cells, unless this cohort summed its own and ``table`` keeps the
        replaced table's stratum ids and order: then it re-sums only the totals ``table`` changes.
        """
        old = self.table(table.hospital)
        slot = list(self._index).index(table.hospital)
        copy = object.__new__(Cohort)
        object.__setattr__(copy, "hospitals", (*self.hospitals[:slot], table, *self.hospitals[slot + 1 :]))
        object.__setattr__(copy, "_index", {**self._index, table.hospital: table})
        if self._terms is not None and list(table.cells) == list(old.cells):
            object.__setattr__(copy, "_base", (self, old))
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


def _expected_deaths(table: StratumTable, rates: Rates) -> float:
    try:
        return fsum(c.count * rates[sid] for sid, c in table.cells.items() if c.count > 0.0)
    except KeyError as missing:
        raise MissingStandardRateError(missing.args[0]) from None


def expected_rate(table: StratumTable, rates: Rates) -> float:
    """Patient-weighted mean of the benchmark rates under the hospital's case mix."""
    total = _require_patients(table)
    return _expected_deaths(table, rates) / total


def smr(table: StratumTable, rates: Rates, scheme: Scheme) -> SmrResult:
    """Ratio of actual to expected mortality, over one patient total; ``scheme`` only labels the result."""
    total = _require_patients(table)
    actual = fsum(c.count * c.rate for c in table.cells.values() if c.count > 0.0) / total
    expected = _expected_deaths(table, rates) / total
    ratio = actual / expected if expected > 0.0 else inf
    if ratio == inf:
        benchmark = "the standard" if scheme == EXTERNAL else "the internal benchmark"
        size = "zero" if expected <= 0.0 else f"near-zero ({expected!r})"
        raise ZeroExpectedRateError(f"hospital {table.hospital!r} has {size} expected mortality under {benchmark}")
    return SmrResult(table.hospital, actual, expected, ratio, scheme)


def internal_standard(cohort: Cohort) -> dict[StratumId, float]:
    """Benchmark rates implied by the cohort itself.

    The rate of stratum s is the patient-weighted mean rate across all
    hospitals; strata with no patients anywhere are omitted rather than
    given an arbitrary value. The totals behind it are summed once per
    cohort object; each call returns a fresh dict.
    """
    return {
        sid: deaths / patients
        for sid, (patients, deaths) in cohort._stratum_sums().items()
        if patients > 0.0
    }


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
    if scheme == INTERNAL:
        rates = internal_standard(cohort)
    elif scheme != EXTERNAL:
        raise InvalidParameterError(f"unknown scheme {scheme!r}")
    elif standard is None:
        raise InvalidParameterError("external scheme needs a standard")
    else:
        rates = standard.rates
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

    def with_table(self, table: StratumTable) -> "World":
        """This world with ``table`` in place of the same-id hospital's; an internal benchmark follows it."""
        return World(self.cohort.with_table(table), self.standard)
