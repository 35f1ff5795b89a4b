"""Seeded synthetic cohorts and an independent reference computation.

Every cohort has 20 strata per hospital. A cell is empty (zero patients)
with probability 0.15, and an empty cell carries a rate half of the
time, as in ``tests/worlds.py``; otherwise the patient count is uniform
on 1..500 and the mortality rate uniform on [0.01, 0.4]. External
standard rates are uniform on [0.05, 0.5]. The same seed gives the same
rows, hence byte-identical CSV files.

The reference computation here uses only ``math.fsum`` over the
generated rows; it shares no code with the program, so it can check the
program's output.
"""

from __future__ import annotations

import csv
from math import fsum
from pathlib import Path
from random import Random

STRATA = tuple(f"S{i:02d}" for i in range(1, 21))
EMPTY_SHARE = 0.15

# (hospital_id, stratum_id, patients, mortality_rate or None)
Row = tuple[str, str, int, "float | None"]


def hospital_rows(seed: int, hospitals: int) -> list[Row]:
    """Rows of ``hospitals`` hospitals x 20 strata, drawn from ``seed``."""
    rng = Random(seed)
    rows: list[Row] = []
    for h in range(1, hospitals + 1):
        hid = f"H{h:04d}"
        cells = []
        for sid in STRATA:
            if rng.random() < EMPTY_SHARE:
                rate = rng.uniform(0.01, 0.4) if rng.random() < 0.5 else None
                cells.append((hid, sid, 0, rate))
            else:
                cells.append((hid, sid, rng.randint(1, 500), rng.uniform(0.01, 0.4)))
        if all(c[2] == 0 for c in cells):
            cells[0] = (hid, STRATA[0], rng.randint(1, 500), rng.uniform(0.01, 0.4))
        rows.extend(cells)
    return rows


def standard_rates(seed: int) -> dict[str, float]:
    """External standard rates for ``STRATA``; independent of the hospitals."""
    rng = Random(f"standard:{seed}")
    return {sid: rng.uniform(0.05, 0.5) for sid in STRATA}


def write_hospitals_csv(path: Path, rows: list[Row]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["hospital_id", "stratum_id", "patients", "mortality_rate"])
        for hid, sid, count, rate in rows:
            writer.writerow([hid, sid, str(count), "" if rate is None else repr(rate)])


def write_standard_csv(path: Path, rates: dict[str, float]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["stratum_id", "expected_rate"])
        for sid, rate in rates.items():
            writer.writerow([sid, repr(rate)])


def by_hospital(rows: list[Row]) -> dict[str, dict[str, tuple[float, "float | None"]]]:
    """``hospital -> stratum -> (count, rate)``, in row order."""
    out: dict[str, dict[str, tuple[float, float | None]]] = {}
    for hid, sid, count, rate in rows:
        out.setdefault(hid, {})[sid] = (float(count), rate)
    return out


def stratum_means(rows: list[Row]) -> dict[str, float]:
    """Patient-weighted mean rate of each stratum across all hospitals."""
    counts: dict[str, list[float]] = {}
    deaths: dict[str, list[float]] = {}
    for _, sid, count, rate in rows:
        if count > 0:
            counts.setdefault(sid, []).append(float(count))
            deaths.setdefault(sid, []).append(count * rate)
    return {sid: fsum(deaths[sid]) / fsum(counts[sid]) for sid in counts}


def reference_smrs(
    rows: list[Row], standard: dict[str, float] | None
) -> dict[str, tuple[float, float, float]]:
    """``hospital -> (actual rate, expected rate, SMR)`` recomputed with fsum.

    ``standard`` None means internal standardization against
    :func:`stratum_means`.
    """
    benchmark = stratum_means(rows) if standard is None else standard
    out = {}
    for hid, cells in by_hospital(rows).items():
        populated = [(sid, n, p) for sid, (n, p) in cells.items() if n > 0.0]
        total = fsum(n for _, n, _ in populated)
        actual = fsum(n * p for _, n, p in populated) / total
        expected = fsum(n * benchmark[sid] for sid, n, _ in populated) / total
        out[hid] = (actual, expected, actual / expected)
    return out
