"""The four benchmark workloads, their operations and their output checks.

Each workload is a closed loop with one client: the next operation
starts only after the previous one has finished. The program sees only
the inputs generated from the seed (CSV files, or library objects for
the in-process workload).

* ``compute-internal`` and ``compute-external`` spawn
  ``python -m smr_axioms compute`` on a generated CSV cohort. Every row
  is checked against an independent ``math.fsum`` recomputation, and
  stdout must be byte-identical across the operations of a run.
* ``paper-repro`` spawns the paper's reproduction session: one
  ``audit --expect-paper`` and all seven ``scenario --check-claims``.
* ``whatif-internal`` calls the seven internal sensitivity analyses in
  process and checks each against its cross-check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
from dataclasses import dataclass
from math import fsum
from pathlib import Path
from random import Random
from time import perf_counter

import cohorts

#: An operation that runs longer than this is killed and counts as failed.
OP_TIMEOUT_S = 60
#: Agreement of the program's ratios with the fsum recomputation.
REL_TOL = 1e-12
#: Documented cross-check bounds of the sensitivity reports.
EXACT_TOL = 1e-12
FD_REL_TOL = 1e-5
FD_ABS_FLOOR = 1e-8

SCENARIOS = (
    "casemix-ext",
    "scale-ext",
    "actual-ext",
    "expected-ext",
    "casemix-int",
    "scale-int",
    "actual-int",
)
#: Audit statuses of the two extra measures, in requirement order, as
#: recorded when the benchmark was defined. The pattern does not depend
#: on the seed.
RECORDED_STATUS = {
    "constant": ("violated", "holds", "holds", "holds", "violated"),
    "actual-rate": ("holds", "violated", "holds", "violated", "violated"),
}


@dataclass
class OpResult:
    seconds: float
    rss_kib: int
    units: int
    error: str | None = None


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(argv: list[str], env: dict, cwd: Path, work: Path) -> tuple[float, int | None, int]:
    """Run one child to exit: (wall seconds, exit code or None on timeout, peak RSS KiB).

    The child's stdout and stderr go to ``work/stdout`` and ``work/stderr``.
    ``os.wait4`` gives the peak RSS of this child alone. The timeout is an
    interval timer, so the parent needs no thread and does not poll.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with open(work / "stdout", "wb") as out, open(work / "stderr", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd, env=env)
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _Timeout:
                proc.kill()
                proc.wait()
                return perf_counter() - start, None, 0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
    finally:
        signal.signal(signal.SIGALRM, previous)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def run_cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    """``smr_axioms.cli.main`` in this process: (exit code, stdout, stderr)."""
    from smr_axioms import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


class CliWorkload:
    """A workload whose operation is a fixed list of CLI commands.

    The first output of each command that passes the full check becomes
    the verified output; every later output must equal it byte for byte.
    """

    name = ""
    unit = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / "perfbench" / "work" / f"{self.name}-{seed}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.verified: dict[int, tuple[bytes, int]] = {}

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.verified.clear()
        self.make_inputs()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, index: int, data: bytes) -> tuple[str | None, int]:
        """(error or None, units of work) for the output of command ``index``."""
        raise NotImplementedError

    def accept(self, index: int, code: int | None, data: bytes, stderr: str = "") -> tuple[str | None, int]:
        if code is None:
            return f"command {index} timed out", 0
        if code != 0:
            return f"command {index} exited {code}: {stderr.strip()[-200:]}", 0
        known = self.verified.get(index)
        if known is not None:
            if data != known[0]:
                return f"command {index}: stdout differs from an earlier op", 0
            return None, known[1]
        error, units = self.check(index, data)
        if error is None:
            self.verified[index] = (data, units)
        return error, units

    def run_op(self, i: int) -> OpResult:
        seconds, rss, units, error = 0.0, 0, 0, None
        for index, args in enumerate(self.commands()):
            argv = [sys.executable, "-m", "smr_axioms", *args]
            elapsed, code, child_rss = spawn(argv, self.env, self.root, self.work)
            seconds += elapsed
            rss = max(rss, child_rss)
            stderr = (self.work / "stderr").read_text(errors="replace")
            err, n = self.accept(index, code, (self.work / "stdout").read_bytes(), stderr)
            units += n
            error = error or err
        return OpResult(seconds, rss, units, error)

    def replay_op(self, i: int) -> str | None:
        """The same commands through ``cli.main`` in process; None if all match."""
        for index, args in enumerate(self.commands()):
            code, text, stderr = run_cli_in_process(args)
            error, _ = self.accept(index, code, text.encode("utf-8"), stderr)
            if error is not None:
                return f"in-process {error}"
        return None


class ComputeWorkload(CliWorkload):
    unit = "hospitals"

    def __init__(self, root: Path, seed: int, scheme: str, hospitals: int):
        self.name = f"compute-{scheme}"
        super().__init__(root, seed)
        self.scheme = scheme
        self.hospitals = hospitals

    def make_inputs(self) -> None:
        rows = cohorts.hospital_rows(self.seed, self.hospitals)
        cohorts.write_hospitals_csv(self.work / "hospitals.csv", rows)
        standard = None
        if self.scheme == "external":
            standard = cohorts.standard_rates(self.seed)
            cohorts.write_standard_csv(self.work / "standard.csv", standard)
        self.reference = cohorts.reference_smrs(rows, standard)

    def commands(self) -> list[list[str]]:
        args = ["compute", "--hospitals", str(self.work / "hospitals.csv"),
                "--scheme", self.scheme, "--format", "json"]
        if self.scheme == "external":
            args += ["--standard", str(self.work / "standard.csv")]
        return [args]

    def check(self, index: int, data: bytes) -> tuple[str | None, int]:
        return check_compute(data, self.scheme, self.reference), len(self.reference)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_compute(data: bytes, scheme: str, reference: dict) -> str | None:
    """None when every row agrees with the recomputation."""
    try:
        payload = json.loads(data)
        results = payload["results"]
        rows = results["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable compute output: {exc!r}"
    if payload.get("command") != "compute" or results.get("scheme") != scheme:
        return "wrong command or scheme in output"
    if [r.get("hospital_id") for r in rows] != list(reference):
        return "hospital rows differ from the input"
    for row in rows:
        want = reference[row["hospital_id"]]
        got = (row.get("actual_rate"), row.get("expected_rate"), row.get("smr"))
        if not all(isinstance(g, float) and _close(g, w) for g, w in zip(got, want)):
            return f"hospital {row['hospital_id']}: {got} != {want}"
    return None


class PaperReproWorkload(CliWorkload):
    name = "paper-repro"
    unit = "probes"
    trials = 10_000

    def make_inputs(self) -> None:
        pass

    def commands(self) -> list[list[str]]:
        audit = ["audit", "--seed", str(self.seed), "--trials", str(self.trials),
                 "--measure", "constant", "--measure", "actual-rate", "--expect-paper"]
        return [audit] + [["scenario", "--name", n, "--check-claims"] for n in SCENARIOS]

    def check(self, index: int, data: bytes) -> tuple[str | None, int]:
        try:
            results = json.loads(data)["results"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output of command {index}: {exc!r}", 0
        if index == 0:
            return check_audit(results)
        claims = results.get("claims") or []
        if not claims or not all(c.get("passed") is True for c in claims):
            return f"scenario {SCENARIOS[index - 1]}: a claim failed", 0
        return None, 0

    def check_witnesses(self) -> str | None:
        """Replay every witness of the verified audit output."""
        if 0 not in self.verified:
            return "no verified audit output"
        bad = witness_mismatches(json.loads(self.verified[0][0])["results"])
        return f"witnesses replay to other values: {bad}" if bad else None


def check_audit(results: dict) -> tuple[str | None, int]:
    """(error or None, probes run) for an audit result."""
    try:
        rows = {row["measure"]: row for row in results["matrix"]}
        probes = sum(v["trials"] for row in rows.values() for v in row["verdicts"])
        statuses = {m: tuple(v["status"] for v in rows[m]["verdicts"]) for m in RECORDED_STATUS}
    except (KeyError, TypeError) as exc:
        return f"unreadable audit matrix: {exc!r}", 0
    if results.get("expected_matrix_ok") is not True:
        return "built-in audit matrix differs from the paper", probes
    if statuses != RECORDED_STATUS:
        return f"audit rows differ from the recorded pattern: {statuses}", probes
    return None, probes


def witness_mismatches(results: dict) -> list[str]:
    """Witnesses of an audit result whose replay gives other values."""
    from smr_axioms import audit, report

    registry = audit.built_in_measures()
    bad = []
    for row in results["matrix"]:
        for verdict in row["verdicts"]:
            if verdict["witness"] is None:
                continue
            witness = report.witness_from_payload(verdict["witness"])
            got = audit.replay(registry[row["measure"]], witness)
            if got != (witness.value_before, witness.value_after):
                bad.append(f"{row['measure']}/{verdict['axiom']}")
    return bad


# ---------------------------------------------------------------------------
# in-process library workload
# ---------------------------------------------------------------------------

#: The seven internal analyses, with the kind of cross-check each carries.
ANALYSES = (
    ("omega_internal", "exact"),
    ("delta_smr_scale_internal", "exact"),
    ("me_actual_internal", "derivative"),
    ("dsmr_expected_internal", "derivative"),
    ("dsmr_uniform_actual_internal", "derivative"),
    ("me_cross_hospital_internal", "derivative"),
    ("standard_shift_add_patients", "recompute"),
)


def cross_check_ratio(kind: str, value: float, check: float) -> float:
    """Residual over its documented bound; at most 1 means agreement.

    Exact identities allow ``EXACT_TOL`` absolute; derivatives use the
    ``fd_close`` rule of ``tests/test_sensitivity.py``.
    """
    residual = abs(value - check)
    if kind == "derivative":
        scale = max(abs(value), abs(check), 1.0)
        return residual / max(FD_REL_TOL * scale, FD_ABS_FLOOR)
    return residual / EXACT_TOL


def _self_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class WhatIfWorkload:
    name = "whatif-internal"
    unit = "reports"

    def __init__(self, root: Path, seed: int, hospitals: int):
        self.seed = seed
        self.hospitals = hospitals

    def setup(self) -> None:
        from smr_axioms import Cohort

        self.rows = cohorts.hospital_rows(self.seed, self.hospitals)
        self.cells = cohorts.by_hospital(self.rows)
        self.cohort = Cohort.build(self.cells)
        self.ids = list(self.cells)
        self.replayed: dict[int, list] = {}

    def params(self, i: int) -> dict:
        """Hospital, strata, other hospital and step sizes of operation ``i``."""
        rng = Random(f"whatif:{self.seed}:{i}")
        while True:
            h = rng.choice(self.ids)
            populated = [s for s, (n, _) in self.cells[h].items() if n > 0.0]
            if len(populated) >= 2:
                break
        k, l = rng.sample(populated, 2)
        other = rng.choice([o for o in self.ids if o != h and self.cells[o][k][0] > 0.0])
        return {
            "hospital": h, "stratum": k, "donor": l, "other": other,
            "eta": self.cells[h][l][0] * rng.uniform(0.1, 0.9),
            "factor": 10.0 ** rng.uniform(-0.5, 0.5),
            "dp": rng.uniform(0.001, 0.02),
            "add": rng.uniform(1.0, 100.0),
        }

    def analyses(self, p: dict) -> list[tuple[str, str, object]]:
        """(name, kind, result) of the seven analyses for parameters ``p``."""
        from smr_axioms import sensitivity
        from smr_axioms.sensitivity import CaseMixShift, ScaleChange

        c, h, k = self.cohort, p["hospital"], p["stratum"]
        args = {
            "omega_internal": (c, h, CaseMixShift(p["donor"], k, p["eta"])),
            "delta_smr_scale_internal": (c, h, ScaleChange(p["factor"])),
            "me_actual_internal": (c, h, k),
            "dsmr_expected_internal": (c, h, k, p["dp"]),
            "dsmr_uniform_actual_internal": (c, h, p["dp"]),
            "me_cross_hospital_internal": (c, h, p["other"], k),
            "standard_shift_add_patients": (c, h, k, p["add"]),
        }
        return [(name, kind, getattr(sensitivity, name)(*args[name])) for name, kind in ANALYSES]

    def add_patients_check(self, p: dict) -> float:
        """Move of the stratum mean, recomputed from the rows with fsum."""
        k, h, eta = p["stratum"], p["hospital"], p["add"]
        counts, deaths, grown_counts, grown_deaths = [], [], [], []
        for hid, cells in self.cells.items():
            n, rate = cells[k]
            if n > 0.0:
                counts.append(n)
                deaths.append(n * rate)
            if hid == h:
                n += eta
            if n > 0.0:
                grown_counts.append(n)
                grown_deaths.append(n * rate)
        return fsum(grown_deaths) / fsum(grown_counts) - fsum(deaths) / fsum(counts)

    def ratios(self, p: dict, results: list) -> list[float]:
        """Cross-check residual over bound of every result."""
        out = []
        for name, kind, result in results:
            if kind == "recompute":
                out.append(cross_check_ratio(kind, result, self.add_patients_check(p)))
            else:
                out.append(cross_check_ratio(kind, result.value, result.fd_check))
        return out

    def check(self, p: dict, results: list) -> str | None:
        for (name, _, _), ratio in zip(results, self.ratios(p, results)):
            if not ratio <= 1.0:
                return f"{name}: cross-check residual is {ratio:.3g} x its bound"
        return None

    def run_op(self, i: int) -> OpResult:
        p = self.params(i)
        start = perf_counter()
        try:
            results = self.analyses(p)
        except Exception as exc:  # an analysis that raises is a failed op
            return OpResult(perf_counter() - start, _self_rss_kib(), 0, f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        return OpResult(seconds, _self_rss_kib(), len(results), self.check(p, results))

    def replay_op(self, i: int) -> str | None:
        """Operation ``i`` again; its results must equal the first replay's."""
        p = self.params(i)
        results = self.analyses(p)
        first = self.replayed.setdefault(i, results)
        if results != first:
            return f"op {i}: results differ between replays"
        return self.check(p, results)

    def worst_ratio(self, i: int) -> float:
        """Largest cross-check residual over its bound in operation ``i``."""
        p = self.params(i)
        return max(self.ratios(p, self.analyses(p)))


def make(name: str, root: Path, seed: int):
    """The workload called ``name``, with its input size."""
    if name == "compute-internal":
        return ComputeWorkload(root, seed, "internal", 300)
    if name == "compute-external":
        return ComputeWorkload(root, seed, "external", 4000)
    if name == "paper-repro":
        return PaperReproWorkload(root, seed)
    if name == "whatif-internal":
        return WhatIfWorkload(root, seed, 1000)
    raise KeyError(name)


WORKLOADS = ("compute-internal", "compute-external", "paper-repro", "whatif-internal")
