"""Semantic exception hierarchy.

Public functions never raise bare ValueError/KeyError for domain problems;
every refusal has a typed error so callers (and the CLI) can map failures
to diagnostics and exit codes.
"""

from __future__ import annotations


class SmrError(Exception):
    """Base error for this package."""


class EmptyHospitalError(SmrError):
    """A hospital with zero patients was submitted to a rate computation."""


class MissingStandardRateError(SmrError):
    """A populated stratum has no rate in the external standard."""

    def __init__(self, stratum: object):
        self.stratum = stratum
        super().__init__(f"no standard rate for populated stratum {stratum!r}")


class ZeroExpectedRateError(SmrError):
    """The expected mortality rate is zero, or so near it that the ratio overflows."""


class TotalOverflowError(SmrError):
    """A patient total exceeds the largest finite float."""


class UnknownHospitalError(SmrError):
    """Hospital id not present in the cohort."""


class UnknownStratumError(SmrError):
    """Stratum id not present where it is required."""


class UndefinedRateError(SmrError):
    """An operation needs a mortality rate that the cell does not define."""


class ShiftExceedsStratumError(SmrError):
    """A case-mix shift tried to move more patients than the stratum holds."""


class NotConcentratedError(SmrError):
    """The concentration shortcut requires all patients in a single stratum."""


class SameHospitalError(SmrError):
    """Cross-hospital effect requested for a hospital against itself."""


class InvalidParameterError(SmrError):
    """A magnitude parameter is out of its admissible domain."""


class ParameterOutOfRangeError(SmrError):
    """A sweep parameter lies outside the scenario's valid range."""


class EmptyProbeSetError(SmrError):
    """An audit check was invoked with no probes."""


class IncomparableProbeError(SmrError):
    """A probe's comparability precondition cannot be verified."""


class ParseError(SmrError):
    """A CSV cell could not be parsed."""

    def __init__(self, row: int, column: str, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        super().__init__(f"row {row}, column {column!r}: {reason}")


class ValidationError(SmrError):
    """A parsed CSV row violates a data invariant."""

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")
