"""The traced run: per-layer time and work counts.

Every wrapper is installed from this file onto the package's module
attributes and removed again after each traced operation; nothing in
``src/`` changes. Boundary calls (``cli.main``, ``csvio.ingest``,
``core.smr_all``, the ``report`` writers, ``audit.run_audit``, the
``scenarios`` sweeps and the seven sensitivity analyses) each record a
span: name, start, end, parent span and operation id. Calls made
hundreds of thousands of times per operation (the ``core`` ratio
functions, ``Cohort`` and ``StratumCell`` construction, probe drawing)
only add to per-operation counters and timers, so that tracing them
does not swamp the run. Spans stay in memory and are written out when
the run ends.

End-to-end metrics never come from this run: ``trace.overhead_ratio``
is the traced replay's time over the same replay untraced.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import cohorts
import workloads

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "csvio.ingest_s": "s",
    "csvio.rows": "count",
    "core.smr_all_s": "s",
    "core.internal_standard_s": "s",
    "core.internal_standard.calls": "count",
    "core.smr_internal.calls": "count",
    "core.cohort.builds": "count",
    "core.cell.builds": "count",
    "core.smr_all.internal.slope": "1",
    "report.payload_s": "s",
    "report.make_report_s": "s",
    "report.dumps_s": "s",
    "report.bytes": "B",
    **{f"sensitivity.{name}_s": "s" for name, _ in workloads.ANALYSES},
    "sensitivity.reports": "count",
    "sensitivity.cross_check.worst_ratio": "ratio",
    "audit.run_s": "s",
    "audit.generate_s": "s",
    "audit.evaluate_s": "s",
    "audit.probes": "count",
    "audit.probes_per_s": "1/s",
    "scenarios.sweep_s": "s",
    "scenarios.claims_s": "s",
    "scenarios.points": "count",
    "trace.overhead_ratio": "ratio",
}

#: Hospital counts of the ladder that exposes the growth of internal smr_all,
#: each timed SLOPE_REPEATS times; the fastest time counts.
SLOPE_LADDER = (100, 160, 250, 400)
SLOPE_REPEATS = 2
IMPORT_REPEATS = 5


class Tracer:
    """Spans, counters and timers of the operations run while installed."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, output bytes]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._ratio_depth = 0
        self._in_audit = False

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_of) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    def install(self) -> None:
        from smr_axioms import audit, cli, core, csvio, report, scenarios, sensitivity

        ingest = self._spanned("csvio.ingest", self._count_rows)
        self._patch(csvio, "ingest", ingest)
        self._patch(cli, "ingest", ingest)
        self._patch(cli, "main", self._spanned("cli.main"))
        self._patch(core, "smr_all", self._spanned("core.smr_all"))
        self._patch(core, "internal_standard", self._internal_standard)
        for name in ("smr_internal", "smr_external", "actual_rate"):
            self._patch(core, name, self._ratio(name))
        self._patch(core.Cohort, "__post_init__", self._counted("core.cohort.builds"))
        self._patch(core.StratumCell, "__post_init__", self._counted("core.cell.builds"))
        for name in ("cohort_payload", "standard_payload", "matrix_payload", "sweep_payload",
                     "sensitivity_payload"):
            self._patch(report, name, self._spanned("report.payload"))
        self._patch(report, "make_report", self._spanned("report.make_report"))
        self._patch(report, "inputs_digest", self._spanned("report.inputs_digest"))
        self._patch(report, "dumps", self._spanned("report.dumps", self._record_bytes))
        for name, _ in workloads.ANALYSES:
            self._patch(sensitivity, name, self._spanned(f"sensitivity.{name}", self._count_report))
        self._patch(audit, "run_audit", self._audit_run)
        self._patch(audit.ProbeGenerator, "stream", self._timed_stream)
        self._patch(scenarios, "run_sweep", self._spanned("scenarios.run_sweep"))
        self._patch(scenarios, "check_claims", self._spanned("scenarios.check_claims"))
        self._patch(scenarios, "build_scenario", self._counted("scenarios.points"))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, after=None):
        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None,
                          self.op, None]
                self._stack.append(len(self.spans))
                self.spans.append(record)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._stack.pop()
                    record[2] = perf_counter()
                if after is not None:
                    after(record, result)
                return result
            return wrapper
        return wrapper_of

    def _counted(self, name: str):
        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                self.counts[self.op, name] += 1
                return original(*args, **kwargs)
            return wrapper
        return wrapper_of

    def _internal_standard(self, original):
        def wrapper(cohort):
            self.counts[self.op, "core.internal_standard.calls"] += 1
            start = perf_counter()
            try:
                return original(cohort)
            finally:
                self.timers[self.op, "core.internal_standard"] += perf_counter() - start
        return wrapper

    def _ratio(self, name: str):
        """Count calls; inside the audit, time the outermost ratio call."""
        counter = f"core.{name}.calls"

        def wrapper_of(original):
            def wrapper(*args, **kwargs):
                self.counts[self.op, counter] += 1
                if not self._in_audit or self._ratio_depth:
                    self._ratio_depth += 1
                    try:
                        return original(*args, **kwargs)
                    finally:
                        self._ratio_depth -= 1
                self._ratio_depth = 1
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self._ratio_depth = 0
                    self.timers[self.op, "audit.evaluate"] += perf_counter() - start
            return wrapper
        return wrapper_of

    def _audit_run(self, original):
        spanned = self._spanned("audit.run_audit")(original)

        def wrapper(*args, **kwargs):
            self._in_audit = True
            try:
                matrix = spanned(*args, **kwargs)
            finally:
                self._in_audit = False
            self.counts[self.op, "audit.probes"] += sum(
                v.trials for row in matrix.rows for v in row.verdicts
            )
            return matrix
        return wrapper

    def _timed_stream(self, original):
        """Time every draw from the probe iterator that ``stream`` returns."""
        def wrapper(generator, axiom, scheme):
            inner = original(generator, axiom, scheme)
            while True:
                start = perf_counter()
                probe = next(inner, None)
                self.timers[self.op, "audit.generate"] += perf_counter() - start
                if probe is None:
                    return
                yield probe
        return wrapper

    def _count_rows(self, record, result) -> None:
        cohort, standard = result
        rows = sum(len(t.cells) for t in cohort.hospitals)
        self.counts[self.op, "csvio.rows"] += rows + (0 if standard is None else len(standard.rates))

    def _count_report(self, record, result) -> None:
        self.counts[self.op, "sensitivity.reports"] += 1

    def _record_bytes(self, record, result) -> None:
        record[5] = len(result.encode("utf-8"))

    # -- reading -----------------------------------------------------------

    def _has_ancestor(self, index: int, names: tuple[str, ...]) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def outer_spans(self, op: int, name: str, outside: tuple[str, ...] = ()) -> list[list]:
        """Spans of ``name`` in ``op`` not nested in ``name`` or ``outside``."""
        return [
            s for i, s in enumerate(self.spans)
            if s[0] == name and s[4] == op and not self._has_ancestor(i, (name, *outside))
        ]

    def inclusive(self, op: int, name: str, outside: tuple[str, ...] = ()) -> float:
        return sum(s[2] - s[1] for s in self.outer_spans(op, name, outside))

    def self_times(self, op: int) -> dict[str, float]:
        """Per span name: duration minus the part covered by child spans."""
        out: defaultdict = defaultdict(float)
        for s in self.spans:
            if s[4] == op:
                out[s[0]] += s[2] - s[1]
                if s[3] is not None:
                    out[self.spans[s[3]][0]] -= s[2] - s[1]
        return dict(out)

    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer times and counts of one traced operation."""
        timers = {name: v for (o, name), v in self.timers.items() if o == op}
        counts = {name: v for (o, name), v in self.counts.items() if o == op}
        run_s = self.inclusive(op, "audit.run_audit")
        m = {
            "csvio.ingest_s": self.inclusive(op, "csvio.ingest"),
            "csvio.rows": counts.get("csvio.rows", 0),
            "core.smr_all_s": self.inclusive(op, "core.smr_all"),
            "core.internal_standard_s": timers.get("core.internal_standard", 0.0),
            "core.internal_standard.calls": counts.get("core.internal_standard.calls", 0),
            "core.smr_internal.calls": counts.get("core.smr_internal.calls", 0),
            "core.cohort.builds": counts.get("core.cohort.builds", 0),
            "core.cell.builds": counts.get("core.cell.builds", 0),
            "report.payload_s": self.inclusive(op, "report.payload"),
            "report.make_report_s": self.inclusive(op, "report.make_report"),
            "report.dumps_s": self.inclusive(op, "report.dumps", ("report.make_report",)),
            "report.bytes": sum(
                s[5] for s in self.outer_spans(op, "report.dumps", ("report.make_report",))
            ),
            "sensitivity.reports": counts.get("sensitivity.reports", 0),
            "audit.run_s": run_s,
            "audit.generate_s": timers.get("audit.generate", 0.0),
            "audit.evaluate_s": timers.get("audit.evaluate", 0.0),
            "audit.probes": counts.get("audit.probes", 0),
            "audit.probes_per_s": counts.get("audit.probes", 0) / run_s if run_s else 0.0,
            "scenarios.sweep_s": self.inclusive(op, "scenarios.run_sweep", ("scenarios.check_claims",)),
            "scenarios.claims_s": self.inclusive(op, "scenarios.check_claims"),
            "scenarios.points": counts.get("scenarios.points", 0),
        }
        for name, _ in workloads.ANALYSES:
            m[f"sensitivity.{name}_s"] = self.inclusive(op, f"sensitivity.{name}")
        return m


def cli_import_seconds(root: Path) -> float:
    """Median time of ``import smr_axioms.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import smr_axioms.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def smr_all_slope(seed: int) -> tuple[float, dict[int, float]]:
    """Log-log slope of internal ``core.smr_all`` time against hospital count."""
    from smr_axioms import Cohort, core

    seconds = {}
    for hospitals in SLOPE_LADDER:
        cohort = Cohort.build(cohorts.by_hospital(cohorts.hospital_rows(seed, hospitals)))
        times = []
        for _ in range(SLOPE_REPEATS):
            start = perf_counter()
            core.smr_all(cohort, "internal")
            times.append(perf_counter() - start)
        seconds[hospitals] = min(times)
    xs = [math.log(h) for h in seconds]
    ys = [math.log(t) for t in seconds.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return slope, seconds


def traced_run(workload, seconds: float, root: Path, seed: int) -> dict:
    """Replay the workload in process, untraced and traced, for ``seconds``."""
    workload.setup()
    warm = workload.run_op(-1)
    import_s = cli_import_seconds(root)
    slope, ladder = smr_all_slope(seed)
    worst = workload.worst_ratio(0) if hasattr(workload, "worst_ratio") else 0.0

    tracer = Tracer()
    plain, traced, errors = [], [], []
    if warm.error:
        errors.append(f"warm-up: {warm.error}")
    deadline = perf_counter() + seconds
    op = 0
    while True:
        start = perf_counter()
        error = workload.replay_op(op)
        plain.append(perf_counter() - start)
        errors.append(error)
        tracer.op = op
        tracer.install()
        try:
            start = perf_counter()
            error = workload.replay_op(op)
            traced.append(perf_counter() - start)
        finally:
            tracer.restore()
        errors.append(error)
        op += 1
        if perf_counter() >= deadline:
            break
    if hasattr(workload, "check_witnesses"):
        errors.append(workload.check_witnesses())

    per_op = [tracer.op_metrics(i) for i in range(op)]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in per_op[0]:
            # counts come from the first op so that they repeat exactly
            values = [m[name] for m in per_op]
            metrics[name] = values[0] if unit == "count" else statistics.median(values)
    metrics["cli.import_s"] = import_s
    metrics["core.smr_all.internal.slope"] = slope
    metrics["sensitivity.cross_check.worst_ratio"] = worst
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    self_times = defaultdict(list)
    for i in range(op):
        for name, value in tracer.self_times(i).items():
            self_times[name].append(value)
    return {
        "metrics": metrics,
        "attempted": len(errors),
        "errors": [e for e in errors if e],
        "detail": {
            "replay_untraced_s": plain,
            "replay_traced_s": traced,
            "slope_ladder_s": {str(h): t for h, t in ladder.items()},
            "self_s_median": {k: statistics.median(v) for k, v in sorted(self_times.items())},
            "counts_op0": {name: n for (o, name), n in sorted(tracer.counts.items()) if o == 0},
            "spans": len(tracer.spans),
        },
        "spans": tracer.spans,
    }
