"""CSV ingestion and emission.

Interchange schemas (UTF-8, a leading byte-order mark skipped, comma-delimited,
``.`` decimal separator):

* hospitals file, header ``hospital_id,stratum_id,patients,mortality_rate``;
  an empty ``mortality_rate`` means undefined and is only legal when
  ``patients`` is 0;
* standard file, header ``stratum_id,expected_rate``.

Every CSV output of the package, these files and the command line's
tables alike, goes through :func:`write_rows`: numbers with 17
significant digits, so ``ingest(emit(cohort)) == cohort`` bit-for-bit,
and an id holding a comma or a quote is quoted. All ingestion failures
carry the 1-based row number of the offending line; a file that is not
UTF-8 text is refused with its path. A hospitals row's values
are validated once, by the slotted ``StratumCell``; a row it refuses is read again
from its stripped values, by ``_checked_cell``. A loaded cohort's cells share one
string per stratum id, and each hospital's fresh dict of ``str`` ids, which cannot
collide, becomes its table through ``StratumTable._trusted``.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import Cohort, ExternalStandard, StratumCell, StratumTable
from .errors import InvalidParameterError, ParseError, SmrError, ValidationError

HOSPITALS_HEADER = ["hospital_id", "stratum_id", "patients", "mortality_rate"]
STANDARD_HEADER = ["stratum_id", "expected_rate"]


def format_number(value: float) -> str:
    """17 significant digits; round-trips any float exactly."""
    return format(float(value), ".17g")


def _parse_float(text: str, row: int, column: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(row, column, f"not a number: {text!r}") from None
    if not isfinite(value):
        raise ParseError(row, column, f"not finite: {text!r}")
    return value


def _check_header(got: list[str] | None, want: list[str], path: str) -> None:
    if got is None or [c.strip() for c in got] != want:
        raise ParseError(1, ",".join(want), f"{path}: header must be {','.join(want)!r}")


def _checked_cell(row: int, patients_text: str, rate_text: str) -> StratumCell:
    """A hospitals row's cell read from its stripped values, or the error that names its fault.

    Reached when ``StratumCell`` refused the row, or when ``float()`` kept whitespace that
    ``str.strip`` removes (``\\x1c``-``\\x1f``)."""
    patients = _parse_float(patients_text, row, "patients")
    if patients < 0.0:
        raise ValidationError(row, f"patients must be >= 0, got {patients}")
    if rate_text == "":
        if patients > 0.0:
            raise ValidationError(row, "populated stratum needs a mortality_rate")
        return StratumCell(patients)
    rate = _parse_float(rate_text, row, "mortality_rate")
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(row, f"mortality_rate must be in [0, 1], got {rate}")
    return StratumCell(patients, rate)


@contextmanager
def _rows(path: str | Path, header: list[str]) -> Iterator[Iterator[tuple[int, list[str]]]]:
    """The rows after the checked header, with their 1-based numbers and a blank one as ``[]``.

    Non-UTF-8 text is refused."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            _check_header(next(reader, None), header, str(path))
            yield enumerate(reader, 2)
    except UnicodeDecodeError as exc:
        raise SmrError(f"{path}: not UTF-8 text, byte 0x{exc.object[exc.start]:02x} cannot be decoded") from None


def load_hospitals(path: str | Path) -> Cohort:
    """Read a hospitals file into a cohort, in file order."""
    tables: dict[str, dict[str, StratumCell]] = {}
    strata: dict[str, str] = {}  # one string per stratum id, shared by every hospital's cells
    hospital, cells = None, {}
    with _rows(path, HOSPITALS_HEADER) as rows:
        for row_no, row in rows:
            try:
                hospital_text, stratum, patients_text, rate_text = row
            except ValueError:
                if not row:
                    continue
                raise ParseError(row_no, "*", f"expected 4 fields, got {len(row)}") from None
            hospital_text, stratum = hospital_text.strip(), stratum.strip()
            if not hospital_text or not stratum:
                raise ValidationError(row_no, "hospital_id and stratum_id must be non-empty")
            try:  # float() skips common padding; _checked_cell strips the rest
                cell = StratumCell(float(patients_text), float(rate_text) if rate_text.strip() else None)
            except (ValueError, InvalidParameterError):
                cell = _checked_cell(row_no, patients_text.strip(), rate_text.strip())
            if hospital_text != hospital:  # a registry lists a hospital's rows together
                hospital = hospital_text
                cells = tables.setdefault(hospital, {})
            if stratum in cells:
                raise ValidationError(row_no, f"duplicate ({hospital!r}, {stratum!r})")
            cells[strata.setdefault(stratum, stratum)] = cell
    if not tables:
        raise ValidationError(1, "no hospital rows")
    return Cohort(tuple(StratumTable._trusted(h, cells) for h, cells in tables.items()))


def load_standard(path: str | Path) -> ExternalStandard:
    """Read a standard file."""
    rates: dict[str, float] = {}
    with _rows(path, STANDARD_HEADER) as rows:
        for row_no, row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(row_no, "*", f"expected 2 fields, got {len(row)}")
            stratum, rate_text = map(str.strip, row)
            if not stratum:
                raise ValidationError(row_no, "stratum_id must be non-empty")
            if stratum in rates:
                raise ValidationError(row_no, f"duplicate stratum {stratum!r}")
            rate = _parse_float(rate_text, row_no, "expected_rate")
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(row_no, f"expected_rate must be in [0, 1], got {rate}")
            rates[stratum] = rate
    return ExternalStandard(rates)


def ingest(
    hospitals_path: str | Path, standard_path: str | Path | None = None
) -> tuple[Cohort, ExternalStandard | None]:
    """Load and validate the hospitals file and the optional standard."""
    cohort = load_hospitals(hospitals_path)
    standard = None if standard_path is None else load_standard(standard_path)
    return cohort, standard


def write_rows(rows: Iterable[Sequence[object]]) -> str:
    """CSV text: floats through :func:`format_number`, ``None`` as an empty field, quoting as needed."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows([format_number(v) if isinstance(v, float) else v for v in row] for row in rows)
    return buffer.getvalue()


def emit_hospitals(cohort: Cohort) -> str:
    """Serialize a cohort; iteration order is preserved for round-trips."""
    rows = ([t.hospital, sid, c.count, c.rate] for t in cohort.hospitals for sid, c in t.cells.items())
    return write_rows([HOSPITALS_HEADER, *rows])


def emit_standard(standard: ExternalStandard) -> str:
    return write_rows([STANDARD_HEADER, *standard.rates.items()])
