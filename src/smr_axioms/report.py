"""Report assembly and deterministic serialization.

Reports are plain nested structures (dicts, lists, strings, numbers)
with a versioned envelope::

    {"schema_version": "1", "command": ..., "inputs_digest": ...,
     "results": ..., "warnings": [...]}

The JSON writer emits floats with 17 significant digits (lossless for
binary64) and sorts keys, so identical inputs produce byte-identical
output. The digest is a content hash of the canonicalized inputs, never
of file paths: the sha256 of their compact ``dumps`` text, hashed in
pieces as the writer produces it, so that text is never held whole.
A ``Cohort`` inside a payload is written straight from its cells, with
no payload copy; its bytes are exactly those of ``cohort_payload``, so
``compute`` and ``sensitivity`` put the cohort itself in their inputs.
Each distinct positive count, such as a registry's whole counts, and
each ``str`` stratum id is formatted once per write of a cohort.
Witness payloads embed the complete probe inputs so a violation can be
re-evaluated from the report alone.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .core import Cohort, ExternalStandard, StratumCell, StratumTable, World, _as_float
from .csvio import write_rows
from .errors import InvalidParameterError

if TYPE_CHECKING:
    from . import audit, scenarios
    from .sensitivity import SensitivityReport

SCHEMA_VERSION = "1"


def _number(value: float) -> str:
    """17 significant digits (lossless for binary64), with ``.0`` added to an integral value."""
    text = f"{value:.17g}"
    return text if "." in text or "e" in text else text + ".0"


def _cohort_pieces(cohort: Cohort, indent: int | None, level: int) -> Iterator[str]:
    """The text of ``cohort_payload(cohort)`` at nesting ``level``, one hospital per piece.

    Written straight from the cells with one fixed template per cell, so no payload copy
    is built. ``StratumCell`` has already checked every count and rate finite, and ids go
    through ``str`` as in ``table_payload``, so the bytes equal the generic walk's. The
    text of each positive count and the closing text of each ``str`` stratum id are made
    once per call: a registry repeats both. Never a zero count, since ``0.0 == -0.0`` is
    one key written two ways, nor an id of another type, such as ``1`` and ``True``."""
    if not cohort.hospitals:
        yield "[]"
        return
    p0, p1, p2, p3, p4 = ("" if indent is None else "\n" + " " * (indent * n) for n in range(level, level + 5))
    rate_head, count_head = "{" + p4 + '"mortality_rate": ', "," + p4 + '"patients": '
    id_head, cell_end, cell_sep = "," + p4 + '"stratum_id": ', p3 + "}", "," + p3
    number, quote = _number, encode_basestring_ascii
    counts: dict[float, str] = {}
    tails: dict[str, str] = {}

    def count_text(count: float) -> str:
        text = number(count)
        if count > 0.0:
            counts[count] = text
        return text

    def tail_text(sid: object) -> str:
        text = f"{id_head}{quote(str(sid))}{cell_end}"
        if type(sid) is str:
            tails[sid] = text
        return text

    sep = "[" + p1
    for table in cohort.hospitals:
        cells = cell_sep.join([
            f"{rate_head}{'null' if c.rate is None else number(c.rate)}"
            f"{count_head}{counts.get(c.count) or count_text(c.count)}"
            f"{tails[sid] if type(sid) is str and sid in tails else tail_text(sid)}"
            for sid, c in table.cells.items()
        ])
        cells = f"[{p3}{cells}{p2}]" if cells else "[]"
        yield f'{sep}{{{p2}"cells": {cells},{p2}"hospital_id": {quote(str(table.hospital))}{p1}}}'
        sep = "," + p1
    yield p0 + "]"


def _write(payload: Any, indent: int | None, emit: Callable[[str], None]) -> None:
    """Pass the canonical text of ``payload`` to ``emit`` in pieces of a few thousand chunks.
    Dicts whose keys are all exact ``str`` reuse their sorted ``"key": `` heads per (keys, level);
    a ``Cohort`` comes from ``_cohort_pieces``, a piece per 64 hospitals."""
    out: list[str] = []
    heads: dict[tuple, tuple[list, list[str]]] = {}

    def write(pairs: Iterable[tuple[str, Any]], level: int) -> None:
        for head, value in pairs:
            kind = type(value)
            if kind is str:
                out.append(head + encode_basestring_ascii(value))  # what json.dumps(str) calls
            elif kind is float or isinstance(value, float):
                if not isfinite(value):
                    raise InvalidParameterError(f"cannot serialize non-finite number {value!r}")
                out.append(head + _number(float(value)))
            elif kind is bool or value is None:
                out.append(head + ("null" if value is None else "true" if value else "false"))
            elif isinstance(value, (int, str)):
                out.append(head + (str(value) if isinstance(value, int) else json.dumps(value)))
            else:
                pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
                if kind is dict or kind not in (list, tuple) and isinstance(value, Mapping):
                    keys = tuple(value)
                    cached = kind is dict and {str}.issuperset(map(type, keys))
                    entry = heads.get((keys, level)) if cached else None
                    if entry is None:
                        items = sorted(value.items(), key=lambda kv: str(kv[0]))
                        order = [k for k, _ in items]
                        entry = order, [("," if i else "{") + pad + json.dumps(str(k)) + ": "
                                        for i, k in enumerate(order)]
                        if cached:
                            heads[keys, level] = entry
                    children = map(value.__getitem__, entry[0]) if kind is dict else [v for _, v in items]
                    prefixes, brackets = entry[1], "{}"
                elif isinstance(value, (list, tuple)):
                    prefixes, children, brackets = ["[" + pad] + ["," + pad] * (len(value) - 1), value, "[]"
                elif kind is Cohort:
                    out.append(head)
                    for piece in _cohort_pieces(value, indent, level):
                        out.append(piece)
                        if len(out) >= 64:
                            emit("".join(out))
                            out.clear()
                    continue
                else:
                    raise InvalidParameterError(f"cannot serialize {type(value).__name__}")
                if not value:
                    out.append(head + brackets)
                    continue
                out.append(head)
                write(zip(prefixes, children), level + 1)
                out.append(("" if indent is None else "\n" + " " * (indent * level)) + brackets[1])
                if len(out) >= 4096:
                    emit("".join(out))
                    out.clear()

    write((("", payload),), 0)
    emit("".join(out))


def dumps(payload: Any, indent: int | None = 2) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pieces: list[str] = []
    _write(payload, indent, pieces.append)
    return "".join(pieces) + ("\n" if indent is not None else "")


def inputs_digest(inputs: Any) -> str:
    """Content hash of the canonicalized inputs: sha256 of ``dumps(inputs, None)``."""
    digest = hashlib.sha256()
    _write(inputs, None, lambda text: digest.update(text.encode("utf-8")))
    return digest.hexdigest()


def make_report(command: str, inputs: Any, results: Any, warnings: Sequence[str] = ()) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs_digest": inputs_digest(inputs),
        "results": results,
        "warnings": list(warnings),
    }


# ---------------------------------------------------------------------------
# domain payloads
# ---------------------------------------------------------------------------


def table_payload(table: StratumTable) -> dict:
    return {
        "hospital_id": str(table.hospital),
        "cells": [
            {
                "stratum_id": str(sid),
                "patients": cell.count,
                "mortality_rate": cell.rate,
            }
            for sid, cell in table.cells.items()
        ],
    }


def cohort_payload(cohort: Cohort) -> list[dict]:
    return [table_payload(t) for t in cohort.hospitals]


def cohort_from_payload(payload: Sequence[Mapping]) -> Cohort:
    tables = []
    for entry in payload:
        cells = {
            c["stratum_id"]: StratumCell(c["patients"], c["mortality_rate"])
            for c in entry["cells"]
        }
        tables.append(StratumTable(entry["hospital_id"], cells))
    return Cohort(tuple(tables))


def standard_payload(standard: ExternalStandard | None) -> dict | None:
    if standard is None:
        return None
    return {str(sid): rate for sid, rate in standard.rates.items()}


def standard_from_payload(payload: Mapping | None) -> ExternalStandard | None:
    if payload is None:
        return None
    return ExternalStandard(payload)


def world_payload(world: World) -> dict:
    return {"hospitals": cohort_payload(world.cohort), "standard": standard_payload(world.standard)}


def world_from_payload(payload: Mapping) -> World:
    return World(
        cohort_from_payload(payload["hospitals"]),
        standard_from_payload(payload.get("standard")),
    )


def sensitivity_payload(result: SensitivityReport) -> dict:
    return {
        "value": result.value,
        "sign": result.sign,
        "condition": result.condition,
        "fd_check": result.fd_check,
        "details": dict(result.details),
        "flags": list(result.flags),
    }


def witness_payload(witness: audit.Witness) -> dict:
    return {
        "axiom": witness.axiom,
        "measure": witness.measure,
        "world": world_payload(witness.world),
        "perturbed_world": None
        if witness.perturbed_world is None
        else world_payload(witness.perturbed_world),
        "hospital_id": str(witness.hospital),
        "hospital_id_b": None if witness.hospital_b is None else str(witness.hospital_b),
        "perturbation": dict(witness.perturbation),
        "value_before": witness.value_before,
        "value_after": witness.value_after,
        "detail": witness.detail,
    }


def witness_from_payload(payload: Mapping) -> audit.Witness:
    from . import audit

    return audit.Witness(
        axiom=payload["axiom"],
        measure=payload["measure"],
        world=world_from_payload(payload["world"]),
        hospital=payload["hospital_id"],
        value_before=_as_float(payload["value_before"], "value_before"),
        value_after=_as_float(payload["value_after"], "value_after"),
        perturbed_world=None
        if payload.get("perturbed_world") is None
        else world_from_payload(payload["perturbed_world"]),
        hospital_b=payload.get("hospital_id_b"),
        perturbation=dict(payload.get("perturbation", {})),
        detail=payload.get("detail", ""),
    )


def verdict_payload(verdict: audit.AxiomVerdict) -> dict:
    payload: dict[str, Any] = {
        "axiom": verdict.axiom,
        "status": verdict.status,
        "trials": verdict.trials,
    }
    if verdict.status == "holds":
        payload["message"] = f"no violation found in {verdict.trials} trials"
        payload["witness"] = None
    else:
        payload["witness"] = witness_payload(verdict.witness)
    return payload


def matrix_payload(matrix: audit.AuditMatrix) -> list[dict]:
    return [
        {
            "measure": row.measure,
            "scheme": row.scheme,
            "verdicts": [verdict_payload(v) for v in row.verdicts],
        }
        for row in matrix.rows
    ]


def sweep_payload(series: scenarios.SweepSeries) -> dict:
    return {
        "scenario": series.spec.name,
        "scheme": series.scheme,
        "parameter": series.spec.parameter,
        "overrides": dict(series.spec.overrides),
        "grid": list(series.values),
        "series": {str(h): list(v) for h, v in series.series.items()},
    }


def sweep_csv(series: scenarios.SweepSeries) -> str:
    hospitals = list(series.series)
    rows = [[x, *(series.series[h][i] for h in hospitals)] for i, x in enumerate(series.values)]
    return write_rows([[series.spec.parameter, *hospitals], *rows])
