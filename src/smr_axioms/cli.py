"""Command-line front end.

Commands: ``compute``, ``sensitivity``, ``audit``, ``scenario``. Each
command builds only its own options and imports only the layers it runs
(``compute`` none beyond ``core``, ``csvio`` and ``report``). Machine
formats (``json``, ``csv``) are byte-deterministic for fixed inputs and
seed; display rounding happens only in ``pretty`` mode. Exit codes:
0 success, 1 data or claim failure, 2 usage error. Set
``SMR_AXIOMS_NO_COLOR`` to disable ANSI styling in pretty mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isfinite
from typing import Sequence

from . import core, report
from .csvio import format_number, ingest
from .errors import SmrError

ANALYSES = (
    "shift",
    "scale",
    "me-actual",
    "me-expected",
    "uniform-actual",
    "uniform-expected",
    "cross",
    "add-patients",
)


def _styled(text: str, code: str) -> str:
    if "SMR_AXIOMS_NO_COLOR" in os.environ:
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _smr_pretty(value: float) -> str:
    text = f"{value:.2f}"
    if value > 1.0:
        return _styled(text, "31")
    if value < 1.0:
        return _styled(text, "32")
    return text


def _table_text(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    def fmt(cells: list[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [_styled(fmt(headers), "1"), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _finite(text: str) -> float:
    """argparse type of a float option: ``nan`` and ``inf`` are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


#: command -> help. A command's options, and the layer they name, are built only when
#: argv starts with that command, or for every command when it names none (help, typos).
COMMANDS = {
    "compute": "per-hospital SMR table",
    "sensitivity": "closed-form sensitivity analyses",
    "audit": "five-requirement compliance matrix",
    "scenario": "built-in example sweeps",
}


def _build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smr-axioms",
        description="Standardized mortality ratios, their sensitivities, and an axiomatic audit.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    common.add_argument("--out", metavar="PATH")

    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, parents=[common], help=text) for name, text in COMMANDS.items()}
    wanted = {argv[0]} if argv and argv[0] in COMMANDS else set(COMMANDS)

    for name in wanted & {"compute", "sensitivity"}:
        parsers[name].add_argument("--hospitals", required=True, metavar="CSV")
        parsers[name].add_argument("--standard", metavar="CSV")
        parsers[name].add_argument("--scheme", choices=("external", "internal"), required=True)

    if "sensitivity" in wanted:
        from . import sensitivity
        p_sens = parsers["sensitivity"]
        p_sens.add_argument("--analysis", choices=ANALYSES, required=True)
        p_sens.add_argument("--hospital", metavar="ID")
        p_sens.add_argument("--stratum", metavar="ID")
        p_sens.add_argument("--from-stratum", dest="from_stratum", metavar="ID")
        p_sens.add_argument("--to-stratum", dest="to_stratum", metavar="ID")
        p_sens.add_argument("--other-hospital", dest="other_hospital", metavar="ID")
        p_sens.add_argument("--eta", type=_finite)
        p_sens.add_argument("--lambda", dest="scale_factor", type=_finite)
        p_sens.add_argument("--dp", type=_finite)
        p_sens.add_argument("--tolerance", type=_finite, default=sensitivity.SIGN_ZERO_TOL,
                            help="zero-classification tolerance (default %(default)s)")

    if "audit" in wanted:
        from . import audit
        p_audit = parsers["audit"]
        p_audit.add_argument("--seed", type=int, default=0)
        p_audit.add_argument("--trials", type=int, default=10_000)
        p_audit.add_argument("--expect-paper", dest="expect_paper", action="store_true",
                             help="fail unless the built-in matrix matches its known pattern")
        p_audit.add_argument("--measure", action="append", default=[],
                             choices=sorted(audit.built_in_measures()),
                             help="additional measure to audit (repeatable)")

    if "scenario" in wanted:
        from . import scenarios
        p_scen = parsers["scenario"]
        p_scen.add_argument("--name", required=True, choices=scenarios.SCENARIO_NAMES)
        p_scen.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
        p_scen.add_argument("--min", dest="grid_min", type=_finite)
        p_scen.add_argument("--max", dest="grid_max", type=_finite)
        p_scen.add_argument("--step", dest="grid_step", type=_finite)
        p_scen.add_argument("--check-claims", dest="check_claims", action="store_true")
    return parser


def _cmd_compute(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.scheme == "external" and args.standard is None:
        parser.error("compute --scheme external requires --standard")
    cohort, standard = ingest(args.hospitals, args.standard)
    results = core.smr_all(cohort, args.scheme, standard)
    rows = [
        {
            "hospital_id": str(r.hospital),
            "actual_rate": r.actual_rate,
            "expected_rate": r.expected_rate,
            "smr": r.smr,
        }
        for r in results
    ]
    inputs = {
        "hospitals": report.cohort_payload(cohort),
        "standard": report.standard_payload(standard),
        "scheme": args.scheme,
    }
    payload = report.make_report("compute", inputs, {"scheme": args.scheme, "rows": rows})
    if args.format == "json":
        _emit(report.dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["hospital_id,actual_rate,expected_rate,smr"]
        lines += [
            ",".join(
                [r["hospital_id"]]
                + [format_number(r[k]) for k in ("actual_rate", "expected_rate", "smr")]
            )
            for r in rows
        ]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        table = [
            [r["hospital_id"], f"{r['actual_rate']:.4f}", f"{r['expected_rate']:.4f}", _smr_pretty(r["smr"])]
            for r in rows
        ]
        _emit(_table_text(["hospital", "actual", "expected", "SMR"], table), args.out)
    return 0


def _require(parser: argparse.ArgumentParser, args: argparse.Namespace, names: Sequence[str]) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            parser.error(f"--analysis {args.analysis} requires --{name}")


def _run_analysis(args, parser, cohort, standard):
    from . import sensitivity
    scheme, analysis = args.scheme, args.analysis
    tol = args.tolerance
    external = scheme == "external"
    if external and standard is None:
        parser.error("external analyses require --standard")
    if args.hospital is None:
        parser.error("sensitivity requires --hospital")
    table = cohort.table(args.hospital)

    if analysis == "shift":
        _require(parser, args, ["from-stratum", "to-stratum", "eta"])
        shift = sensitivity.CaseMixShift(args.from_stratum, args.to_stratum, args.eta)
        if external:
            return sensitivity.omega_external(table, standard, shift, tol)
        return sensitivity.omega_internal(cohort, args.hospital, shift, tol)
    if analysis == "scale":
        if args.scale_factor is None:
            parser.error("--analysis scale requires --lambda")
        change = sensitivity.ScaleChange(args.scale_factor)
        if external:
            return sensitivity.scale_invariance_external(table, standard, change, tol)
        return sensitivity.delta_smr_scale_internal(cohort, args.hospital, change, tol)
    if analysis == "me-actual":
        _require(parser, args, ["stratum"])
        if external:
            return sensitivity.me_actual_external(table, standard, args.stratum, tol)
        return sensitivity.me_actual_internal(cohort, args.hospital, args.stratum, tol)
    if analysis == "me-expected":
        _require(parser, args, ["stratum"])
        if external:
            return sensitivity.me_expected_external(table, standard, args.stratum, tol)
        _require(parser, args, ["dp"])
        return sensitivity.dsmr_expected_internal(cohort, args.hospital, args.stratum, args.dp, tol)
    if analysis == "uniform-actual":
        _require(parser, args, ["dp"])
        if external:
            return sensitivity.dsmr_uniform_actual_external(table, standard, args.dp, tol)
        return sensitivity.dsmr_uniform_actual_internal(cohort, args.hospital, args.dp, tol)
    if analysis == "uniform-expected":
        if not external:
            parser.error("uniform-expected is defined for --scheme external only")
        _require(parser, args, ["dp"])
        return sensitivity.dsmr_uniform_expected_external(table, standard, args.dp, tol)
    if analysis == "cross":
        if external:
            parser.error("cross is defined for --scheme internal only")
        _require(parser, args, ["other-hospital", "stratum"])
        return sensitivity.me_cross_hospital_internal(
            cohort, args.hospital, args.other_hospital, args.stratum, tol
        )
    if analysis == "add-patients":
        if external:
            parser.error("add-patients is defined for --scheme internal only")
        _require(parser, args, ["stratum", "eta"])
        value = sensitivity.standard_shift_add_patients(cohort, args.hospital, args.stratum, args.eta)
        return sensitivity.SensitivityReport(
            value,
            sensitivity.classify_sign(value, tol),
            "p_ik vs stratum mean",
            details={"eta": args.eta},
        )
    raise AssertionError(analysis)


def _cmd_sensitivity(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cohort, standard = ingest(args.hospitals, args.standard)
    result = _run_analysis(args, parser, cohort, standard)
    parameters = {
        key: value
        for key, value in (
            ("hospital_id", args.hospital),
            ("stratum_id", args.stratum),
            ("from_stratum", args.from_stratum),
            ("to_stratum", args.to_stratum),
            ("other_hospital", args.other_hospital),
            ("eta", args.eta),
            ("lambda", args.scale_factor),
            ("dp", args.dp),
        )
        if value is not None
    }
    inputs = {
        "hospitals": report.cohort_payload(cohort),
        "standard": report.standard_payload(standard),
        "scheme": args.scheme,
        "analysis": args.analysis,
        "parameters": parameters,
        "tolerance": args.tolerance,
    }
    results = {
        "analysis": args.analysis,
        "scheme": args.scheme,
        "parameters": parameters,
        "report": report.sensitivity_payload(result),
    }
    payload = report.make_report("sensitivity", inputs, results, warnings=list(result.flags))
    if args.format == "json":
        _emit(report.dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["field,value"]
        flat = report.sensitivity_payload(result)
        details = flat.pop("details")
        flat.pop("flags")
        for key, value in flat.items():
            rendered = "" if value is None else (format_number(value) if isinstance(value, float) else str(value))
            lines.append(f"{key},{rendered}")
        for key in sorted(details, key=str):
            value = details[key]
            if isinstance(value, float):
                lines.append(f"details.{key},{format_number(value)}")
            elif isinstance(value, dict):
                for sub in sorted(value, key=str):
                    lines.append(f"details.{key}.{sub},{value[sub]}")
            else:
                lines.append(f"details.{key},{value}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        sign_color = {"increase": "31", "decrease": "32", "zero": "2"}[result.sign]
        rows = [
            ["value", format_number(result.value)],
            ["sign", _styled(result.sign, sign_color)],
            ["condition", result.condition],
        ]
        if result.fd_check is not None:
            rows.append(["cross-check", format_number(result.fd_check)])
        for key in sorted(result.details, key=str):
            rows.append([str(key), str(result.details[key])])
        _emit(_table_text([f"{args.analysis} ({args.scheme})", "value"], rows), args.out)
    return 0


def _cmd_audit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import audit
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    registry = audit.built_in_measures()
    extras = [registry[name] for name in args.measure]
    matrix = audit.run_audit(extras, seed=args.seed, trials=args.trials)
    inputs = {"seed": args.seed, "trials": args.trials, "measures": sorted({m.name for m in extras})}
    results: dict = {
        "seed": args.seed,
        "trials": args.trials,
        "matrix": report.matrix_payload(matrix),
    }
    failed = False
    if args.expect_paper:
        ok = audit.matches_expected_matrix(matrix)
        inputs["expect_paper"] = True
        results["expected_matrix_ok"] = ok
        failed = not ok
    payload = report.make_report("audit", inputs, results)
    if args.format == "json":
        _emit(report.dumps(payload), args.out)
    elif args.format == "csv":
        lines = ["measure,axiom,status,trials"]
        for row in matrix.rows:
            for verdict in row.verdicts:
                lines.append(f"{row.measure},{verdict.axiom},{verdict.status},{verdict.trials}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        rows = []
        for row in matrix.rows:
            for verdict in row.verdicts:
                status = (
                    _styled("holds", "32") if verdict.status == "holds" else _styled("violated", "31")
                )
                rows.append([row.measure, verdict.axiom, status, str(verdict.trials)])
        _emit(_table_text(["measure", "requirement", "status", "trials"], rows), args.out)
    if failed:
        print("audit: built-in matrix differs from the expected pattern", file=sys.stderr)
        return 1
    return 0


def _cmd_scenario(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import scenarios
    overrides = {}
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--override needs KEY=VALUE, got {item!r}")
        try:
            overrides[key.strip()] = float(value)
        except ValueError:
            parser.error(f"--override value must be numeric, got {item!r}")
    if args.grid_step is not None and args.grid_step <= 0.0:
        parser.error("--step must be > 0")
    if args.grid_min is not None and args.grid_max is not None and args.grid_max < args.grid_min:
        parser.error("--max must be >= --min")
    spec = scenarios.ScenarioSpec.default(
        args.name, overrides, lo=args.grid_min, hi=args.grid_max, step=args.grid_step
    )
    series = scenarios.run_sweep(spec)
    claims = scenarios.check_claims(spec) if args.check_claims else []
    inputs = {
        "name": args.name,
        "overrides": overrides,
        "grid": list(spec.grid),
        "check_claims": args.check_claims,
    }
    results = report.sweep_payload(series)
    if args.check_claims:
        results["claims"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in claims
        ]
    payload = report.make_report("scenario", inputs, results)
    if args.format == "json":
        _emit(report.dumps(payload), args.out)
    elif args.format == "csv":
        _emit(report.sweep_csv(series), args.out)
        for claim in claims:
            status = "ok" if claim.passed else "FAILED"
            print(f"claim {claim.name}: {status}", file=sys.stderr)
    else:
        hospitals = list(series.series)
        rows = [
            [f"{x:g}"] + [_smr_pretty(series.series[h][i]) for h in hospitals]
            for i, x in enumerate(series.values)
        ]
        text = _table_text([series.spec.parameter] + [str(h) for h in hospitals], rows)
        if claims:
            lines = [
                ("  " + (_styled("ok", "32") if c.passed else _styled("FAILED", "31")) + f"  {c.name}")
                for c in claims
            ]
            text += "claims:\n" + "\n".join(lines) + "\n"
        _emit(text, args.out)
    if any(not c.passed for c in claims):
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "sensitivity": _cmd_sensitivity,
        "audit": _cmd_audit,
        "scenario": _cmd_scenario,
    }
    try:
        return handlers[args.command](args, parser)
    except SmrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
