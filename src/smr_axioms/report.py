"""Report assembly and deterministic serialization.

Reports are plain nested structures (dicts, lists, strings, numbers)
with a versioned envelope::

    {"schema_version": "1", "command": ..., "inputs_digest": ...,
     "results": ..., "warnings": [...]}

The JSON writer emits floats with 17 significant digits (lossless for
binary64) and sorts keys, so identical inputs produce byte-identical
output. The digest is a content hash of the canonicalized inputs, never
of file paths. Witness payloads embed the complete probe inputs so a
violation can be re-evaluated from the report alone.
"""

from __future__ import annotations

import hashlib
import json
from math import isfinite
from typing import Any, Mapping, Sequence

from . import audit, scenarios
from .core import Cohort, ExternalStandard, StratumCell, StratumTable, World
from .csvio import format_number
from .errors import InvalidParameterError
from .sensitivity import SensitivityReport

SCHEMA_VERSION = "1"


def _render(value: Any, indent: int | None, level: int) -> str:
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise InvalidParameterError(f"cannot serialize non-finite number {value!r}")
        text = format_number(value)
        if "." not in text and "e" not in text:
            text += ".0"
        return text
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return json.dumps(value)
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end = "" if indent is None else "\n" + " " * (indent * level)
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_render(v, indent, level + 1)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{" + ",".join(items) + end + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}{_render(v, indent, level + 1)}" for v in value]
        return "[" + ",".join(items) + end + "]"
    raise InvalidParameterError(f"cannot serialize {type(value).__name__}")


def dumps(payload: Any, indent: int | None = 2) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    return _render(payload, indent, 0) + ("\n" if indent is not None else "")


def inputs_digest(inputs: Any) -> str:
    """Content hash of the canonicalized inputs."""
    return hashlib.sha256(dumps(inputs, indent=None).encode("utf-8")).hexdigest()


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
            c["stratum_id"]: StratumCell(float(c["patients"]),
                                         None if c["mortality_rate"] is None else float(c["mortality_rate"]))
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
    return ExternalStandard({sid: float(rate) for sid, rate in payload.items()})


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
    return audit.Witness(
        axiom=payload["axiom"],
        measure=payload["measure"],
        world=world_from_payload(payload["world"]),
        hospital=payload["hospital_id"],
        value_before=float(payload["value_before"]),
        value_after=float(payload["value_after"]),
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
    lines = [",".join([series.spec.parameter] + [str(h) for h in hospitals])]
    for i, x in enumerate(series.values):
        row = [format_number(x)] + [format_number(series.series[h][i]) for h in hospitals]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
