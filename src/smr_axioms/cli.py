"""Command-line front end.

Commands: ``compute``, ``sensitivity``, ``audit``, ``scenario``, one
``COMMANDS`` row each: help, options builder, handler. Each command
builds only its own options and imports only the layers it runs
(``compute`` none beyond ``core``, ``csvio`` and ``report``). Every
handler writes through ``_render``, which builds only the asked format.
Machine formats (``json``, ``csv``) are byte-deterministic for fixed
inputs and seed; display rounding happens only in ``pretty`` mode. Exit
codes: 0 success, 1 data or claim failure, 2 usage error. A failure 1
includes a ``sensitivity`` cross-check over its bound, and an input file
that is missing, a directory or not UTF-8 (a leading byte-order mark is
skipped) or an unwritable ``--out``: each gives one ``error:`` line. Set
``SMR_AXIOMS_NO_COLOR`` to disable ANSI styling in pretty mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isfinite
from typing import Callable, Sequence

from . import core, report
from .csvio import format_number, ingest, write_rows
from .errors import SmrError

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


def _render(args: argparse.Namespace, payload: dict, csv_text: Callable[[], str],
            pretty_text: Callable[[], str]) -> None:
    """Write the asked ``--format`` to stdout or ``--out``: json from ``payload``, else its thunk's text."""
    text = {"json": lambda: report.dumps(payload), "csv": csv_text, "pretty": pretty_text}[args.format]()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
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


#: sensitivity option -> its key in the ``parameters`` payload, metavar and argparse type.
SENSITIVITY_OPTIONS = {
    "--hospital": ("hospital_id", "ID", None),
    "--stratum": ("stratum_id", "ID", None),
    "--from-stratum": ("from_stratum", "ID", None),
    "--to-stratum": ("to_stratum", "ID", None),
    "--other-hospital": ("other_hospital", "ID", None),
    "--eta": ("eta", "ETA", _finite),
    "--lambda": ("lambda", "SCALE_FACTOR", _finite),
    "--dp": ("dp", "DP", _finite),
}


def _build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """A command's options, and the layer they name, are built only when argv starts with that
    command, or for every command when it names none (help, typos)."""
    parser = argparse.ArgumentParser(
        prog="smr-axioms",
        description="Standardized mortality ratios, their sensitivities, and an axiomatic audit.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    common.add_argument("--out", metavar="PATH")
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (text, options, _) in COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=text)
        if wanted in (None, name):
            options(command)
    return parser


def _cohort_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hospitals", required=True, metavar="CSV")
    p.add_argument("--standard", metavar="CSV")
    p.add_argument("--scheme", choices=("external", "internal"), required=True)


def _sensitivity_options(p: argparse.ArgumentParser) -> None:
    from . import sensitivity
    _cohort_options(p)
    p.add_argument("--analysis", choices=list(dict.fromkeys(a for a, _ in sensitivity.ANALYSES)),
                   required=True)
    for option, (key, metavar, kind) in SENSITIVITY_OPTIONS.items():
        p.add_argument(option, dest=key, metavar=metavar, type=kind)
    p.add_argument("--tolerance", type=_finite, default=sensitivity.SIGN_ZERO_TOL,
                   help="zero-classification tolerance (default %(default)s)")
    p.epilog = "A negative number in exponent form must follow '=', as in --dp=-1e-3."


def _audit_options(p: argparse.ArgumentParser) -> None:
    from . import audit
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--expect-paper", dest="expect_paper", action="store_true",
                   help="fail unless the built-in matrix matches its known pattern")
    p.add_argument("--measure", action="append", default=[], choices=sorted(audit.built_in_measures()),
                   help="additional measure to audit (repeatable)")


def _scenario_options(p: argparse.ArgumentParser) -> None:
    from . import scenarios
    p.add_argument("--name", required=True, choices=scenarios.SCENARIO_NAMES)
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--min", dest="grid_min", type=_finite)
    p.add_argument("--max", dest="grid_max", type=_finite)
    p.add_argument("--step", dest="grid_step", type=_finite)
    p.add_argument("--check-claims", dest="check_claims", action="store_true")
    p.epilog = "A negative number in exponent form must follow '=', as in --min=-1e-3."


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
        "hospitals": cohort,  # written from its cells, the bytes of report.cohort_payload(cohort)
        "standard": report.standard_payload(standard),
        "scheme": args.scheme,
    }
    payload = report.make_report("compute", inputs, {"scheme": args.scheme, "rows": rows})
    header = ["hospital_id", "actual_rate", "expected_rate", "smr"]
    _render(args, payload, lambda: write_rows([header, *([r[k] for k in header] for r in rows)]),
            lambda: _table_text(["hospital", "actual", "expected", "SMR"], [
                [r["hospital_id"], f"{r['actual_rate']:.4f}", f"{r['expected_rate']:.4f}", _smr_pretty(r["smr"])]
                for r in rows
            ]))
    return 0


def _cmd_sensitivity(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import sensitivity
    if args.tolerance < 0.0:  # a negative band would report an exact 0 as a decrease
        parser.error(f"argument --tolerance: must be >= 0, got {args.tolerance!r}")
    cohort, standard = ingest(args.hospitals, args.standard)
    world = core.World(cohort, standard if args.scheme == core.EXTERNAL else None)
    if world.scheme != args.scheme:
        parser.error("external analyses require --standard")
    given = vars(args)
    parameters = {key: given[key] for key, _, _ in SENSITIVITY_OPTIONS.values() if given[key] is not None}
    if "hospital_id" not in parameters:
        parser.error("sensitivity requires --hospital")
    row = sensitivity.ANALYSES.get((args.analysis, args.scheme))
    if row is None:
        schemes = " or ".join(s for a, s in sensitivity.ANALYSES if a == args.analysis)
        parser.error(f"{args.analysis} is defined for --scheme {schemes} only")
    option = {key: name for name, (key, _, _) in SENSITIVITY_OPTIONS.items()}
    for key in row.needs:
        if key not in parameters:
            parser.error(f"--analysis {args.analysis} requires {option[key]}")
    result = row.run(world, parameters, args.tolerance)
    residual, bound = sensitivity.cross_check(result, row.check)
    agrees = residual <= bound
    warnings = list(result.flags)
    if not agrees:
        warnings.append(f"cross-check residual {residual:.3g} exceeds its {row.check} bound {bound:.3g}")
    inputs = {
        "hospitals": cohort,
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
    payload = report.make_report("sensitivity", inputs, results, warnings=warnings)

    def warned(text: str) -> str:  # a text format puts a failed cross-check on stderr
        if not agrees:
            print(f"sensitivity: {warnings[-1]}", file=sys.stderr)
        return text

    def csv_text() -> str:
        flat = dict(results["report"])
        details = flat.pop("details")
        flat.pop("flags")
        fields = [("field", "value"), *flat.items()]
        for key in sorted(details, key=str):
            value = details[key]
            if isinstance(value, dict):
                fields += [(f"details.{key}.{sub}", value[sub]) for sub in sorted(value, key=str)]
            else:
                fields.append((f"details.{key}", value))
        return warned(write_rows(fields))

    def pretty_text() -> str:
        sign_color = {"increase": "31", "decrease": "32", "zero": "2"}[result.sign]
        rows = [
            ["value", format_number(result.value)],
            ["sign", _styled(result.sign, sign_color)],
            ["condition", result.condition],
            ["cross-check", format_number(result.fd_check)],
        ]
        rows += [[str(key), str(result.details[key])] for key in sorted(result.details, key=str)]
        return warned(_table_text([f"{args.analysis} ({args.scheme})", "value"], rows))

    _render(args, payload, csv_text, pretty_text)
    return 0 if agrees else 1


def _cmd_audit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from . import audit
    if args.trials < 0:
        parser.error("--trials must be >= 0")
    registry = audit.built_in_measures()
    extras = [registry[name] for name in args.measure]
    matrix = audit.run_audit(extras, seed=args.seed, trials=args.trials)
    inputs = {"seed": args.seed, "trials": args.trials, "measures": sorted({m.name for m in extras})}
    results: dict = {"seed": args.seed, "trials": args.trials, "matrix": report.matrix_payload(matrix)}
    if args.expect_paper:
        inputs["expect_paper"] = True
        results["expected_matrix_ok"] = audit.matches_expected_matrix(matrix)
    payload = report.make_report("audit", inputs, results)
    cells = [(row.measure, v.axiom, v.status, v.trials) for row in matrix.rows for v in row.verdicts]
    color = {"holds": "32", "violated": "31"}
    _render(args, payload, lambda: write_rows([("measure", "axiom", "status", "trials"), *cells]),
            lambda: _table_text(["measure", "requirement", "status", "trials"], [
                [m, axiom, _styled(status, color[status]), str(n)] for m, axiom, status, n in cells
            ]))
    if args.expect_paper and not results["expected_matrix_ok"]:
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
    claims = scenarios.check_claims(series) if args.check_claims else []
    inputs = {
        "name": args.name,
        "overrides": overrides,
        "grid": list(spec.grid),
        "check_claims": args.check_claims,
    }
    results = report.sweep_payload(series)
    if args.check_claims:
        results["claims"] = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in claims]
    payload = report.make_report("scenario", inputs, results)

    def csv_text() -> str:
        """The csv holds the series alone; the claims go to stderr."""
        for claim in claims:
            print(f"claim {claim.name}: {'ok' if claim.passed else 'FAILED'}", file=sys.stderr)
        return report.sweep_csv(series)

    def pretty_text() -> str:
        hospitals = list(series.series)
        rows = [
            [f"{x:g}"] + [_smr_pretty(series.series[h][i]) for h in hospitals]
            for i, x in enumerate(series.values)
        ]
        text = _table_text([series.spec.parameter] + [str(h) for h in hospitals], rows)
        lines = [f"  {_styled('ok', '32') if c.passed else _styled('FAILED', '31')}  {c.name}\n"
                 for c in claims]
        return text + ("claims:\n" + "".join(lines) if claims else "")

    _render(args, payload, csv_text, pretty_text)
    return 1 if any(not c.passed for c in claims) else 0


#: command -> (help, builder of its options, handler); see ``_build_parser``.
COMMANDS = {
    "compute": ("per-hospital SMR table", _cohort_options, _cmd_compute),
    "sensitivity": ("closed-form sensitivity analyses", _sensitivity_options, _cmd_sensitivity),
    "audit": ("five-requirement compliance matrix", _audit_options, _cmd_audit),
    "scenario": ("built-in example sweeps", _scenario_options, _cmd_scenario),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    _, _, handler = COMMANDS[args.command]
    try:
        return handler(args, parser)
    except (SmrError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
