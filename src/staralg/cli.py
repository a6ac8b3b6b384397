"""Batch front door: instance files in, certified reports out.

Verbs:

* ``analyze``        run the checks named in an instance file (or the full
                     hierarchy when none are named) and report verdicts with
                     certificates.
* ``extend``         build the joint extension of two named operations and
                     report its Choi matrix and residuals.
* ``fuzz``           sweep a randomized instance family and aggregate the
                     verdicts plus the implication-violation count.
* ``verify-report``  re-validate the certificates of a machine-readable
                     report through the library entry points.

Instance and report files are JSON with complex entries written as
``[re, im]`` pairs.  Reports are emitted with sorted keys and no wall-clock
data unless ``--timing`` is given, so re-running a verb with equal inputs
and seeds reproduces the output byte for byte.  Exit codes: 0 completed
(verdicts may still be Fails), 2 for input or validation problems, 3 for
internal numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .certificates import _is_int, _jsonable, _VerifyLog
from .errors import IllConditioned, ParseError, ToolkitError, ValidationError
from .independence import VERDICT_KEYS, implication_violations, run_hierarchy_checks
from .instances import CHECKS, SCHEMA_VERSION, Instance, _check_name, _check_schema_version, _instance_section
from .instances import _joint_extension, _load, _object, _product_transition, _read_json, _require, _tolerances
from .instances import _TOL_FIELDS, _verify_analyze, _verify_extend, run_check
from .numerics import Tolerances
from .sampling import fuzz_instances

__all__ = ["main", "cmd_analyze", "cmd_extend", "cmd_fuzz", "cmd_verify_report"]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _base_report(command: str, args: argparse.Namespace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "command": command,
        "flags": {
            "seed": getattr(args, "seed", None),
            "samples": getattr(args, "samples", None),
            "tol": getattr(args, "tol", None),
        },
    }


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _finish(report: dict, args: argparse.Namespace, human: Callable[[dict], None], started: float) -> int:
    report["wall_clock_seconds"] = round(time.perf_counter() - started, 6) if args.timing else None
    data = _jsonable(report)
    payload = _dump(data)
    if args.out:
        Path(args.out).write_text(payload)
    if args.json:
        sys.stdout.write(payload)
    else:
        human(data)
        if args.out:
            print(f"machine-readable report written to {args.out}")
    return 0


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def _verdict_summary(verdict: dict) -> str:
    """Status, then the certificate or witness kind, then the reason or an extension's residual."""
    line = verdict["status"]
    evidence = verdict.get("certificate") or verdict.get("witness")
    if evidence:
        line += f"  [{evidence['kind']}]"
    if verdict.get("reason"):
        line += f"  ({verdict['reason']})"
    if verdict.get("residual") is not None:
        line += f"  (residual {_fmt(verdict['residual'])}, {verdict['iterations']} iterations)"
    return line


def _outcome_summary(entry: dict) -> str:
    """The line of a single verdict, an outcome, or a joint extension (recorded by the name of its outcome)."""
    outcome = entry.get("verdict") or entry["outcome"]
    if isinstance(outcome, str):
        worst = "residuals" in entry and f"max residual {_fmt(max(entry['residuals'].values()))}"
        outcome = {"status": outcome, "reason": worst or entry["diagnostic"]}
    return _verdict_summary(outcome)


def _human_analyze(data: dict) -> None:
    inst = data["instance"]
    dims = ", ".join(f"{name} (dim {entry['dim']})" for name, entry in sorted(inst["algebras"].items()))
    print(f"staralg {data['toolkit_version']} analyze — {inst['path']}")
    print(f"ambient dimension {inst['ambient_dim']}; algebras: {dims}")
    for entry in data["checks"]:
        kind = entry["check"]
        head = f"check {kind} [{', '.join(entry[CHECKS[kind].section])}]"
        if "verdicts" not in entry:
            print(f"{head}: {_outcome_summary(entry)}")
            continue
        print(f"{head}:")
        for key in VERDICT_KEYS:
            print(f"  {key:<22} {_verdict_summary(entry['verdicts'][key])}")
        print(f"  implication violations: {len(entry['implication_violations'])}")


def _default_checks(inst: Instance) -> list[dict]:
    names = list(inst.algebras)
    if len(names) != 2:
        raise ValidationError(f"{inst.path}: no checks given and the file does not contain exactly two algebras; "
                              "nothing to do")
    return [{"check": "hierarchy", "algebras": names}]


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the checks named in an instance file and report the verdicts."""
    started = time.perf_counter()
    inst = _load(args.instance, args.tol)
    checks = inst.checks or _default_checks(inst)
    report = _base_report("analyze", args)
    report["instance"] = _instance_section(inst)
    flags = {key: getattr(args, key) for key in ("seed", "samples") if getattr(args, key, None) is not None}
    report["checks"] = [run_check({**entry, **flags}, inst) for entry in checks]
    return _finish(report, args, _human_analyze, started)


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _human_extend(data: dict) -> None:
    section = data["joint_extension"]
    print(f"staralg {data['toolkit_version']} extend — {data['instance']['path']}")
    print(f"joint extension of [{', '.join(section['operations'])}]: {_outcome_summary(section)}")
    table = section.get("product_transition")
    if table:
        print(f"  product transition: residual {_fmt(table['product_residual'])}, "
              f"matches prescription: {table['matches_prescription']}")


def cmd_extend(args: argparse.Namespace) -> int:
    """Jointly extend two named operations and certify the result."""
    started = time.perf_counter()
    inst = _load(args.instance, args.tol)
    for name in (args.op1, args.op2):
        _check_name(name, inst.operations, "operation", inst.path)
    t1, t2 = inst.named("operations", [args.op1, args.op2])
    section, joint = _joint_extension(t1, t2, inst.tol)
    section["operations"] = [args.op1, args.op2]
    if joint is not None and t1.kind == "state_prep" and t2.kind == "state_prep":
        section["product_transition"] = _product_transition(joint, t1.prep_state, t2.prep_state, inst.tol)
    report = _base_report("extend", args)
    report["instance"] = _instance_section(inst)
    report["joint_extension"] = section
    return _finish(report, args, _human_extend, started)


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def _fuzz_summary(
    family: str, count: int, seed: int, samples: int, tol: Tolerances
) -> dict:
    instances = fuzz_instances(family, count, seed)
    rows = []
    counts = {key: {"Holds": 0, "Fails": 0, "Undecided": 0} for key in VERDICT_KEYS}
    total_violations = 0
    for idx, inst in enumerate(instances):
        child = int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])
        report = run_hierarchy_checks(inst.a1, inst.a2, seed=child, samples=samples, tol=tol)
        violations = implication_violations(report.verdicts)
        total_violations += len(violations)
        statuses = {key: v.status for key, v in report.verdicts.items()}
        for key, status in statuses.items():
            counts[key][status] += 1
        rows.append(
            {
                "index": idx,
                "family": inst.family,
                "ambient_dim": inst.a1.ambient_dim,
                "dims": [inst.a1.dim, inst.a2.dim],
                "meta": inst.meta,
                "verdicts": statuses,
                "implication_violations": [list(v) for v in violations],
            }
        )
    return {
        "family": family,
        "count": count,
        "seed": seed,
        "samples": samples,
        "instances": rows,
        "aggregate": {
            "verdict_counts": counts,
            "implication_violation_count": total_violations,
        },
    }


def _human_fuzz(data: dict) -> None:
    print(
        f"staralg {data['toolkit_version']} fuzz — family {data['family']}, "
        f"{data['count']} instances, seed {data['seed']}"
    )
    for row in data["instances"]:
        statuses = row["verdicts"]
        if all(s == "Holds" for s in statuses.values()):
            digest = "all Holds"
        else:
            digest = ", ".join(
                f"{key}={statuses[key]}" for key in VERDICT_KEYS if statuses[key] != "Holds"
            )
        print(f"  instance {row['index']:>3} (ambient {row['ambient_dim']}): {digest}")
    agg = data["aggregate"]
    print(f"implication violations: {agg['implication_violation_count']}")
    for key in VERDICT_KEYS:
        c = agg["verdict_counts"][key]
        print(
            f"  {key:<22} Holds {c['Holds']:>3}  Fails {c['Fails']:>3}  "
            f"Undecided {c['Undecided']:>3}"
        )


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Sweep a randomized family and aggregate verdicts deterministically."""
    started = time.perf_counter()
    seed = args.seed if args.seed is not None else 0
    samples = args.samples if args.samples is not None else 12
    tol = _tolerances({}, "tolerances", args.tol)
    summary = _fuzz_summary(args.family, args.count, seed, samples, tol)
    report = _base_report("fuzz", args)
    report.update(summary)
    return _finish(report, args, _human_fuzz, started)


# ---------------------------------------------------------------------------
# verify-report
# ---------------------------------------------------------------------------
#
# This section only walks the report: the certificate format and the
# re-check of every evidence kind live in ``staralg.certificates``;
# ``staralg.instances`` reads the instance echo back and re-checks an
# ``analyze`` or ``extend`` report by the rows of its ``CHECKS``.


def _verify_fuzz(doc: dict, where: str, tol: Tolerances, log: _VerifyLog) -> None:
    if not isinstance(_require(doc, "family", where), str):
        raise ParseError(f"{where}: family: must be a string")
    for key in ("count", "seed", "samples"):
        if not _is_int(_require(doc, key, where)) or doc[key] < 0:
            raise ParseError(f"{where}: {key}: must be a non-negative integer")

    def regenerate() -> str:
        if doc["count"] != len(doc["instances"]):  # before the replay builds and decides ``count`` instances
            raise ValidationError(f"count {doc['count']} differs from the {len(doc['instances'])} recorded instances")
        summary = _fuzz_summary(
            doc["family"], doc["count"], doc["seed"], doc["samples"], tol
        )
        replay = _jsonable(summary)
        for key in ("instances", "aggregate"):
            if replay[key] != doc[key]:
                raise ValidationError(f"regenerated '{key}' section differs")
        return f"summary regenerated identically for {doc['count']} instances"

    log.attempt("fuzz summary", regenerate)


def _echoed_tolerances(doc: dict, path: str) -> Tolerances:
    """The tolerances a report says it was made with: a fuzz report's ``flags.tol``, else its instance echo."""
    if doc["command"] == "fuzz":
        recorded = _object(doc.get("flags", {}), f"{path}: flags").get("tol")
        return _tolerances({} if recorded is None else {"eps_verify": recorded}, f"{path}: flags.tol", None)
    return _tolerances(_object(doc.get("instance", {}), f"{path}: instance").get("tolerances", {}),
                       f"{path}: instance.tolerances", None)


def _check_tolerances(echoed: Tolerances, tol: Tolerances) -> str:
    """No echoed tolerance may be looser than the one in force: a report cannot lower the bar it is checked at."""
    looser = [f"{key} {getattr(echoed, key):.1e} > {getattr(tol, key):.1e}"
              for key in _TOL_FIELDS if getattr(echoed, key) > getattr(tol, key)]
    if looser:
        raise ValidationError(f"the report records looser tolerances than those in force: {', '.join(looser)}")
    return "the report's tolerances are no looser than those in force"


def cmd_verify_report(args: argparse.Namespace) -> int:
    """Re-validate the certificates in a machine-readable report."""
    started = time.perf_counter()
    path = args.report
    doc = _read_json(path)
    if not isinstance(doc, dict) or "command" not in doc:
        raise ParseError(f"{path}: not a toolkit report (missing 'command')")
    _check_schema_version(doc, path)
    command = doc["command"]
    verify = {"analyze": _verify_analyze, "extend": _verify_extend, "fuzz": _verify_fuzz}
    if not isinstance(command, str) or command not in verify:
        raise ParseError(f"{path}: unknown report command {command!r}")
    # the tolerances in force are the defaults with --tol applied; the report's own are only compared with them
    tol, echoed = _tolerances({}, "--tol", args.tol), _echoed_tolerances(doc, path)
    log = _VerifyLog()
    log.attempt("tolerances", lambda: _check_tolerances(echoed, tol))
    try:
        verify[command](doc, path, tol, log)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed report ({type(exc).__name__}: {exc})") from exc
    all_ok = all(item["ok"] for item in log.items)
    report = _base_report("verify-report", args)
    report["source"] = path
    report["source_command"] = command
    report["items"] = log.items
    report["all_ok"] = all_ok

    def human(data: dict) -> None:
        print(f"staralg {data['toolkit_version']} verify-report — {data['source']}")
        for item in data["items"]:
            mark = "ok  " if item["ok"] else "FAIL"
            print(f"  [{mark}] {item['target']}: {item['detail']}")
        print("all certificates re-validated" if data["all_ok"] else "re-validation FAILED")

    code = _finish(report, args, human, started)
    return code if all_ok else 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    """argparse type of seeds and counts; argparse names the flag on error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_non_negative_int, default=None, help="seed overriding per-check defaults")
    sub.add_argument("--samples", type=_non_negative_int, default=None, help="accepted and echoed; nothing is sampled")
    sub.add_argument("--tol", type=float, default=None, help="override the certification tolerance eps_verify")
    sub.add_argument("--out", default=None, help="write the machine-readable report to this path")
    sub.add_argument("--json", action="store_true", help="print the machine-readable report to stdout")
    sub.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock time in the report (breaks byte-identical re-runs)",
    )


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; ``parse_args`` does not mutate it."""
    parser = argparse.ArgumentParser(
        prog="staralg",
        description="checks for independence of commuting matrix *-algebras, with certificates",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    analyze = subs.add_parser("analyze", help="run the checks named in an instance file")
    analyze.add_argument("instance", help="instance file (JSON)")
    _add_common(analyze)

    extend = subs.add_parser("extend", help="jointly extend two named operations")
    extend.add_argument("instance", help="instance file (JSON)")
    extend.add_argument("op1", help="first operation name")
    extend.add_argument("op2", help="second operation name")
    _add_common(extend)

    fuzz = subs.add_parser("fuzz", help="sweep a randomized instance family")
    fuzz.add_argument("family", help="instance family name")
    fuzz.add_argument("count", type=_non_negative_int, help="number of instances")
    _add_common(fuzz)

    verify = subs.add_parser("verify-report", help="re-validate a report's certificates")
    verify.add_argument("report", help="machine-readable report file (JSON)")
    _add_common(verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one verb; its command is looked up by name at call time, so a wrapped ``cmd_*`` is the one run."""
    args = _build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.verb.replace("-", "_")](args)
    except IllConditioned as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
