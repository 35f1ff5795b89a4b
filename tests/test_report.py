"""The canonical JSON writer against a plain recursive reference.

``reference_render`` is the writer as it was before it became a single
walk over a chunk list: it builds a string per nesting level and runs the
``isinstance`` chain on every value. ``report.dumps`` and
``report.inputs_digest`` must reproduce its bytes exactly, and a
``Cohort``, which the writer takes straight from its cells, must give
the bytes of its ``cohort_payload`` dicts. The payload readers at the
end must refuse malformed numbers with a typed error.
"""

from __future__ import annotations

import hashlib
import json
from math import inf, isfinite, nan
from random import Random
from types import MappingProxyType
from typing import Any, Mapping

import pytest
from hypothesis import given, settings, strategies as st

from smr_axioms import report
from smr_axioms.core import Cohort, StratumCell, StratumTable
from smr_axioms.csvio import format_number
from smr_axioms.errors import InvalidParameterError

from worlds import random_cohort


def reference_render(value: Any, indent: int | None, level: int = 0) -> str:
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
            f"{pad}{json.dumps(str(k))}: {reference_render(v, indent, level + 1)}"
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        ]
        return "{" + ",".join(items) + end + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}{reference_render(v, indent, level + 1)}" for v in value]
        return "[" + ",".join(items) + end + "]"
    raise InvalidParameterError(f"cannot serialize {type(value).__name__}")


def reference_dumps(value: Any, indent: int | None) -> str:
    return reference_render(value, indent) + ("\n" if indent is not None else "")


def reference_digest(value: Any) -> str:
    return hashlib.sha256(reference_render(value, None).encode("utf-8")).hexdigest()


def assert_matches_reference(payload: Any) -> None:
    for indent in (None, 2):
        assert report.dumps(payload, indent) == reference_dumps(payload, indent)
    assert report.inputs_digest(payload) == reference_digest(payload)


class Rate(float):
    pass


class Count(int):
    def __str__(self) -> str:
        return f"count-{int(self)}"


class Label(str):
    def __str__(self) -> str:
        return "z-" + str.__str__(self)


class Masked(dict):
    """Item access differs from ``items()``, which the writer must follow."""

    def __getitem__(self, key):
        return "masked"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
# A small key alphabet makes sibling dicts share key sets, so the head cache
# is hit at several levels; int and bool keys take the uncached path.
KEYS = st.one_of(
    st.sampled_from(["a", "b", "c", "stratum_id"]), st.text(max_size=3), st.integers(-2, 2), st.booleans()
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(PAYLOADS)
def test_writer_matches_reference(payload):
    assert_matches_reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param([{1: "a"}, {True: "b"}], id="int-and-bool-keys-in-sibling-dicts"),
        pytest.param([{True: "b"}, {1: "a"}, {1.0: "c"}], id="equal-non-str-keys-in-sibling-dicts"),
        pytest.param(
            {"a": {"a": 1, "b": [2]}, "b": [{"a": 3, "b": [4]}, {"b": 5, "a": 6}]},
            id="one-key-set-at-two-levels",
        ),
        pytest.param([{"a": 1}, {Label("a"): 2}], id="str-subclass-key-after-equal-str-key"),
        pytest.param([{"a": 1, "b": [2]}, Masked(a=1, b=[2])], id="dict-subclass-after-equal-dict"),
        pytest.param({"m": MappingProxyType({"b": 1, "a": [MappingProxyType({})]})}, id="mapping-proxy"),
        pytest.param([Rate(0.1), Rate(3.0), Count(7), Label("xé")], id="scalar-subclasses"),
        pytest.param({"a": {}, "b": [], "c": (), "d": [{}, [], ()]}, id="empty-containers"),
        pytest.param({}, id="empty-dict"),
        pytest.param([], id="empty-list"),
        pytest.param("café \"quoted\"\n", id="top-level-string"),
        pytest.param(-0.0, id="negative-zero"),
        pytest.param([1e300, 5e-324, 2.0**53, 123456789.0], id="float-extremes"),
    ],
)
def test_named_payloads_match_reference(payload):
    assert_matches_reference(payload)


def test_digest_spans_many_pieces():
    cells = [{"stratum_id": f"S{i % 20:02d}", "patients": float(i % 500), "mortality_rate": i / 1e4}
             for i in range(20_000)]
    payload = {"hospitals": [{"hospital_id": f"H{h}", "cells": cells[h::100]} for h in range(100)], "scheme": "x"}
    assert report.inputs_digest(payload) == reference_digest(payload)


# Ids that need quoting or escaping, and int ids, which the payload writes through str.
IDS = st.one_of(
    st.sampled_from(["H,1", '"q"', "Hôpital", "a\nb", "S01", ""]), st.integers(-3, 12), st.text(max_size=3)
)
RATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
COUNTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 2.5, 1e17, 1e-7]),
    st.integers(0, 500),
    st.floats(0.0, 1e20, allow_nan=False, allow_infinity=False),
)
# An empty cell may leave its rate undefined or carry one; a populated cell always has one.
CELLS = st.one_of(st.tuples(st.sampled_from([0.0, 0]), st.one_of(st.none(), RATES)), st.tuples(COUNTS, RATES))
TABLES = st.tuples(IDS, st.lists(st.tuples(IDS, CELLS), max_size=4, unique_by=lambda c: str(c[0])))
COHORTS = st.lists(TABLES, max_size=4, unique_by=lambda t: str(t[0])).map(
    lambda tables: Cohort(
        tuple(StratumTable(h, {sid: StratumCell(*c) for sid, c in cells}) for h, cells in tables)
    )
)
# the cohort at the top, inside the inputs envelope, and two levels down
NESTINGS = [
    lambda x: x,
    lambda x: {"hospitals": x, "standard": None, "scheme": "internal"},
    lambda x: [[x], {"z": x}],
]


def assert_cohort_written_as_payload(cohort: Cohort) -> None:
    payload = report.cohort_payload(cohort)
    for nest in NESTINGS:
        for indent in (None, 2):
            assert report.dumps(nest(cohort), indent) == report.dumps(nest(payload), indent)
            assert report.dumps(nest(cohort), indent) == reference_dumps(nest(payload), indent)
        assert report.inputs_digest(nest(cohort)) == report.inputs_digest(nest(payload))


@settings(max_examples=200, deadline=None)
@given(COHORTS)
def test_cohort_is_written_as_its_payload(cohort):
    assert_cohort_written_as_payload(cohort)


def test_large_cohort_is_written_as_its_payload_across_pieces():
    cohort, _ = random_cohort(Random(11), hospitals=150, strata_count=20)
    assert_cohort_written_as_payload(cohort)
    pieces: list[str] = []
    report._write(cohort, None, pieces.append)  # hashed in pieces, never held whole
    assert len(pieces) > 2 and "".join(pieces) == report.dumps(cohort, None)


@pytest.mark.parametrize(
    "payload",
    [nan, inf, -inf, {"a": [1.0, nan]}, Rate(inf), {"a": {1, 2}}, [object()], b"bytes"],
    ids=["nan", "inf", "-inf", "nested-nan", "float-subclass-inf", "set", "object", "bytes"],
)
def test_unserializable_payloads_raise(payload):
    with pytest.raises(InvalidParameterError) as expected:
        reference_dumps(payload, None)
    for write in (report.inputs_digest, report.dumps, lambda p: report.dumps(p, None)):
        with pytest.raises(InvalidParameterError) as got:
            write(payload)
        assert str(got.value) == str(expected.value)


def _one_cell_cohort(patients, rate):
    return [{"hospital_id": "H1", "cells": [{"stratum_id": "1", "patients": patients, "mortality_rate": rate}]}]


@pytest.mark.parametrize("patients", ["abc", None], ids=["string", "null"])
def test_cohort_reader_refuses_unconvertible_counts_as_typed_errors(patients):
    with pytest.raises(InvalidParameterError, match="patient count must be a number"):
        report.cohort_from_payload(_one_cell_cohort(patients, 0.2))


def test_standard_reader_refuses_unconvertible_rates_as_typed_errors():
    with pytest.raises(InvalidParameterError, match="standard rate of stratum '1' must be a number"):
        report.standard_from_payload({"1": "x"})


@pytest.mark.parametrize(
    "patients, rate, cell",
    [(0, None, (0.0, None)), (4, 1, (4.0, 1.0)), ("4", "0.25", (4.0, 0.25))],
    ids=["int-count-no-rate", "ints", "numeric-strings"],
)
def test_cohort_reader_converts_numbers(patients, rate, cell):
    stored = report.cohort_from_payload(_one_cell_cohort(patients, rate)).table("H1").cells["1"]
    assert (stored.count, stored.rate) == cell
    assert type(stored.count) is float and (stored.rate is None or type(stored.rate) is float)


def test_standard_reader_converts_numbers():
    rates = report.standard_from_payload({"1": 1, "2": "0.5"}).rates
    assert rates == {"1": 1.0, "2": 0.5} and all(type(r) is float for r in rates.values())


def _witness(**values):
    world = {"hospitals": _one_cell_cohort(10, 0.2), "standard": None}
    return {"axiom": "scale_insensitivity", "measure": "smr-internal", "world": world,
            "hospital_id": "H1", "value_before": 1.0, "value_after": 1.0, **values}


@pytest.mark.parametrize("field", ["value_before", "value_after"])
@pytest.mark.parametrize("value", ["abc", None], ids=["string", "null"])
def test_witness_reader_refuses_unconvertible_values_as_typed_errors(field, value):
    with pytest.raises(InvalidParameterError, match=f"{field} must be a number"):
        report.witness_from_payload(_witness(**{field: value}))


def test_witness_reader_converts_numbers():
    witness = report.witness_from_payload(_witness(value_before=2, value_after="0.5"))
    assert (witness.value_before, witness.value_after) == (2.0, 0.5)
    assert type(witness.value_before) is float and type(witness.value_after) is float
