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
from .algebra import full_matrix_algebra
from .certificates import _array_in, _check_extension, _check_factor, _check_implications, _is_int, _jsonable
from .certificates import _Pair, _verify_verdicts, _VerifyLog
from .channels import ChannelMap, build_channel, choi, dual_on_states, map_from_choi
from .errors import IllConditioned, ParseError, ToolkitError, ValidationError
from .independence import VERDICT_KEYS, check_cstar_independence, check_product_sense, check_spatial_product_sense
from .independence import check_wstar_independence, check_wstar_product_sense, find_interpolating_factor
from .independence import implication_violations, joint_extension_residuals, joint_operation, run_hierarchy_checks
from .instances import _CHECK_SECTIONS, SCHEMA_VERSION, Instance, Operation, _check_schema_version, _load
from .instances import _instance_section, _object, _read_echo, _read_json, _require, _tolerances, _two_names
from .numerics import Tolerances
from .sampling import fuzz_instances, random_density, random_pure_density
from .states import AlgebraState, extend_state, marginal_residual

__all__ = ["main", "cmd_analyze", "cmd_extend", "cmd_fuzz", "cmd_verify_report"]


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _effective(entry: dict, args: argparse.Namespace, key: str, default: int) -> int:
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return entry.get(key, default)


def _joint_extension(
    t1: Operation, t2: Operation, names: list[str], tol: Tolerances, status_key: str
) -> tuple[dict, ChannelMap | None]:
    """Report section for the joint extension of two operations, and the channel.

    A refusal (any toolkit error but ``IllConditioned``) is reported under
    ``status_key`` with its diagnostic, and the channel is then None.
    """
    try:
        joint = joint_operation(t1.channel, t2.channel, tol=tol)
    except IllConditioned:
        raise
    except ToolkitError as exc:
        return {status_key: type(exc).__name__, "operations": list(names), "diagnostic": str(exc)}, None
    return {
        status_key: "Extended",
        "operations": list(names),
        "choi": choi(joint),
        "residuals": joint_extension_residuals(joint, t1.channel, t2.channel, tol),
        "completely_positive": joint.cp_certified,
        "unital": joint.unital,
        "faithful": joint.faithful,
    }, joint


_UNSEEDED = {
    "product_sense": check_product_sense,
    "wstar_product_sense": check_wstar_product_sense,
    "spatial_product_sense": check_spatial_product_sense,
}


def _run_check(entry: dict, inst: Instance, args: argparse.Namespace) -> dict:
    kind, tol = entry["check"], inst.tol
    section = _CHECK_SECTIONS[kind]
    names = entry[section]
    x1, x2 = (getattr(inst, section)[nm] for nm in names)
    result = {"check": kind, section: list(names)}
    if kind == "extend_state":
        outcome = result["outcome"] = extend_state(x1, x2, tol=tol, max_iter=entry.get("max_iter", 20000))
        if outcome.status == "Feasible":
            result["recomputed_marginal_residual"] = marginal_residual(outcome.density, (x1, x2))
    elif kind == "joint_operation":
        result.update(_joint_extension(x1, x2, names, tol, "outcome")[0])
    elif kind == "interpolating_factor":
        result["outcome"] = find_interpolating_factor(x1, x2, tol)
    elif kind in _UNSEEDED:
        result["verdict"] = _UNSEEDED[kind](x1, x2, tol)
    else:  # the hierarchy and the plain notions, which echo their seed and samples
        seed = _effective(entry, args, "seed", 0)
        result.update(seed=seed, samples=_effective(entry, args, "samples", 50))
        if kind == "hierarchy":
            report = run_hierarchy_checks(x1, x2, seed=seed, tol=tol)
            violations = [list(v) for v in implication_violations(report.verdicts)]
            result.update(verdicts=report.verdicts, notes=report.notes, implication_violations=violations)
        else:
            fn = check_cstar_independence if kind == "cstar_independence" else check_wstar_independence
            result["verdict"] = fn(x1, x2, rng=np.random.default_rng(seed), tol=tol)
    return result


def _default_checks(inst: Instance) -> list[dict]:
    names = list(inst.algebras)
    if len(names) != 2:
        raise ValidationError(f"{inst.path}: no checks given and the file does not contain exactly two algebras; "
                              "nothing to do")
    return [{"check": "hierarchy", "algebras": names}]


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
    """Status, then the certificate or witness kind, then the reason."""
    line = verdict["status"]
    evidence = verdict.get("certificate") or verdict.get("witness")
    if evidence:
        line += f"  [{evidence['kind']}]"
    if verdict.get("reason"):
        line += f"  ({verdict['reason']})"
    return line


def _human_analyze(data: dict) -> None:
    inst = data["instance"]
    dims = ", ".join(f"{name} (dim {entry['dim']})" for name, entry in sorted(inst["algebras"].items()))
    print(f"staralg {data['toolkit_version']} analyze — {inst['path']}")
    print(f"ambient dimension {inst['ambient_dim']}; algebras: {dims}")
    for entry in data["checks"]:
        kind = entry["check"]
        head = f"check {kind} [{', '.join(entry[_CHECK_SECTIONS[kind]])}]"
        if "verdicts" in entry:
            print(f"{head}:")
            for key in VERDICT_KEYS:
                print(f"  {key:<22} {_verdict_summary(entry['verdicts'][key])}")
            violations = entry["implication_violations"]
            print(f"  implication violations: {len(violations)}")
        elif kind == "extend_state":
            outcome = entry["outcome"]
            line = f"{head}: {outcome['status']}"
            if outcome["residual"] is not None:
                line += f"  (residual {_fmt(outcome['residual'])}, {outcome['iterations']} iterations)"
            print(line)
        elif kind == "joint_operation":
            if entry["outcome"] == "Extended":
                worst = max(entry["residuals"].values())
                print(f"{head}: Extended  (max residual {_fmt(worst)})")
            else:
                print(f"{head}: {entry['outcome']}  ({entry['diagnostic']})")
        else:  # a single verdict, or the factor search's outcome
            print(f"{head}: {_verdict_summary(entry.get('verdict') or entry['outcome'])}")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the checks named in an instance file and report the verdicts."""
    started = time.perf_counter()
    inst = _load(args.instance, args.tol)
    checks = inst.checks or _default_checks(inst)
    report = _base_report("analyze", args)
    report["instance"] = _instance_section(inst)
    report["checks"] = [_run_check(entry, inst, args) for entry in checks]
    return _finish(report, args, _human_analyze, started)


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _transition_residuals(
    dual: ChannelMap, rho: np.ndarray, prescribed1: AlgebraState, prescribed2: AlgebraState
) -> tuple[float, float]:
    """Marginal residuals of one input pushed through a joint preparation's dual."""
    out = dual.apply(rho)
    return marginal_residual(out, (prescribed1,)), marginal_residual(out, (prescribed2,))


def _product_transition_table(
    joint: ChannelMap, prescribed1: AlgebraState, prescribed2: AlgebraState, seed: int, tol: Tolerances
) -> dict:
    """Sweep input states through the dual of a joint preparation.

    Every input must come out with the two prescribed marginals; the table
    records the residuals for the maximally mixed input, random full-rank
    inputs, and random pure (generically entangled) inputs.
    """
    dual = dual_on_states(joint, tol)
    n = joint.in_dim
    rng = np.random.default_rng(seed)
    probes: list[tuple[str, np.ndarray]] = [("maximally_mixed", np.eye(n) / n)]
    probes += [(f"random_full_rank_{k}", random_density(n, rng)) for k in range(3)]
    probes += [(f"random_pure_{k}", random_pure_density(n, rng)) for k in range(2)]
    rows = []
    for label, rho in probes:
        r1, r2 = _transition_residuals(dual, rho, prescribed1, prescribed2)
        rows.append({"probe": label, "input_density": rho, "marginal_residual_1": r1, "marginal_residual_2": r2,
                     "matches_prescription": bool(max(r1, r2) <= tol.eps_verify)})
    return {
        "prescribed_values_1": prescribed1.expect_basis(),
        "prescribed_values_2": prescribed2.expect_basis(),
        "rows": rows,
        "all_match": all(row["matches_prescription"] for row in rows),
    }


def _human_extend(data: dict) -> None:
    section = data["joint_extension"]
    ops = ", ".join(section["operations"])
    print(f"staralg {data['toolkit_version']} extend — {data['instance']['path']}")
    if section["status"] != "Extended":
        print(f"joint extension of [{ops}]: {section['status']}")
        print(f"  {section['diagnostic']}")
        return
    print(f"joint extension of [{ops}]: Extended")
    for key, value in sorted(section["residuals"].items()):
        print(f"  {key:<28} {_fmt(value)}")
    print(f"  completely positive: {section['completely_positive']}, unital: {section['unital']}")
    table = section.get("product_transition")
    if table:
        print(f"  product transition table ({len(table['rows'])} probes): all_match={table['all_match']}")
        for row in table["rows"]:
            print(
                f"    {row['probe']:<20} residuals "
                f"{_fmt(row['marginal_residual_1'])} / {_fmt(row['marginal_residual_2'])}"
            )


def cmd_extend(args: argparse.Namespace) -> int:
    """Jointly extend two named operations and certify the result."""
    started = time.perf_counter()
    inst = _load(args.instance, args.tol)
    for name in (args.op1, args.op2):
        if name not in inst.operations:
            raise ValidationError(f"{inst.path}: unknown operation '{name}'")
    t1, t2 = inst.operations[args.op1], inst.operations[args.op2]
    section, joint = _joint_extension(t1, t2, [args.op1, args.op2], inst.tol, "status")
    if joint is not None and t1.kind == "state_prep" and t2.kind == "state_prep":
        seed = args.seed if args.seed is not None else 0
        section["product_transition"] = _product_transition_table(joint, t1.prep_state, t2.prep_state, seed, inst.tol)
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
                f"{key}={status}" for key, status in statuses.items() if status != "Holds"
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
# re-check of every evidence kind live in ``staralg.certificates``, and
# ``staralg.instances`` reads the instance echo back.


def _verify_joint(
    target: str, section: dict, where: str, inst: Instance, log: _VerifyLog
) -> None:
    """Rebuild a joint extension from its Choi matrix once; re-check it and its transition table."""
    if section.get("outcome", section.get("status")) != "Extended":
        log.attempt(target, lambda: "no extension claimed: nothing to re-validate")
        return
    names = _two_names(section, "operations", inst.declared["operations"], "operation", where)
    n, tol = inst.ambient_dim, inst.tol

    @cache
    def joint() -> ChannelMap:
        action = map_from_choi(_array_in(section["choi"], (n * n, n * n), "choi"), n, n)
        channel = build_channel(full_matrix_algebra(n), n, action, tol)
        if not (channel.cp_certified and channel.unital):
            raise ValidationError("rebuilt joint map is not a nonselective operation")
        return channel

    def rebuilt(attr: str) -> tuple:
        for nm in names:
            if nm not in inst.operations:
                raise ValidationError(f"operation {nm} did not rebuild; see its own item")
        return tuple(getattr(inst.operations[nm], attr) for nm in names)

    def extension() -> str:
        t1, t2 = rebuilt("channel")
        residuals = joint_extension_residuals(joint(), t1, t2, tol)
        worst = max(residuals.values())
        if not worst <= tol.eps_verify:
            raise ValidationError(f"extension residual {worst:.3e} exceeds tolerance")
        return f"joint extension rebuilt from Choi matrix (max residual {worst:.3e})"

    log.attempt(target, extension)
    if not section.get("product_transition"):
        return

    def transitions() -> str:
        prep1, prep2 = rebuilt("prep_state")
        if prep1 is None or prep2 is None:
            raise ValidationError("transition table present but operations are not preparations")
        dual = dual_on_states(joint(), tol)
        rows = section["product_transition"]["rows"]
        inputs = [_array_in(row["input_density"], (n, n), f"rows[{k}].input_density") for k, row in enumerate(rows)]
        # np.max, unlike max, returns a NaN wherever it stands
        worst = float(np.max([_transition_residuals(dual, rho, prep1, prep2) for rho in inputs], initial=0.0))
        if not worst <= tol.eps_verify:
            raise ValidationError(f"transition residual {worst:.3e} exceeds tolerance")
        return f"product transitions reproduced on {len(rows)} probes (worst {worst:.3e})"

    log.attempt("product_transition", transitions)


def _verify_analyze(doc: dict, where: str, tol: Tolerances, log: _VerifyLog) -> None:
    inst = _read_echo(doc, where, tol, log)
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ParseError(f"{where}: checks: must be a list")
    for idx, entry in enumerate(checks):
        at = f"{where}: checks[{idx}]"
        kind = _require(_object(entry, at), "check", at)
        if not (isinstance(kind, str) and kind in _CHECK_SECTIONS):
            raise ParseError(f"{at}.check: unknown check {kind!r}")
        target = f"checks[{idx}] {kind}"
        if kind == "joint_operation":
            _verify_joint(target, entry, at, inst, log)
            continue
        section = _CHECK_SECTIONS[kind]
        names = _two_names(entry, section, inst.declared[section], section[:-1], at)
        built = getattr(inst, section)
        objs = [built[nm] for nm in names if nm in built]
        if kind == "extend_state":
            outcome = _object(_require(entry, "outcome", at), f"{at}.outcome")
            _require(outcome, "status", f"{at}.outcome")
            if len(objs) == 2:
                log.attempt(target, lambda: _check_extension(outcome, *objs, tol))
            continue
        pair = _Pair(*objs, tol) if len(objs) == 2 else None
        if kind == "interpolating_factor":
            factor = _object(_require(entry, "outcome", at), f"{at}.outcome").get("factor")
            if pair and factor:
                log.attempt(f"{target} factor", lambda: _check_factor(factor, pair))
        elif kind == "hierarchy":
            verdicts = _object(_require(entry, "verdicts", at), f"{at}.verdicts")
            vdocs = {key: _object(vdoc, f"{at}.verdicts.{key}") for key, vdoc in verdicts.items()}
            recorded = _require(entry, "implication_violations", at)
            log.attempt(f"{target} implications", lambda: _check_implications(verdicts, recorded))
            _verify_verdicts(f"{target} ", vdocs, pair, log)
        else:
            _verify_verdicts(f"checks[{idx}] ", {kind: _object(_require(entry, "verdict", at), f"{at}.verdict")}, pair, log)


def _verify_extend(doc: dict, where: str, tol: Tolerances, log: _VerifyLog) -> None:
    inst = _read_echo(doc, where, tol, log)
    at = f"{where}: joint_extension"
    section = _object(_require(doc, "joint_extension", where), at)
    _verify_joint("joint_extension", section, at, inst, log)


def _verify_fuzz(doc: dict, where: str, _: Tolerances, log: _VerifyLog) -> None:
    # the replay uses the tolerance of the original run, never an override
    recorded = _object(doc.get("flags", {}), f"{where}: flags").get("tol")
    fields = {} if recorded is None else {"eps_verify": recorded}
    tol = _tolerances(fields, f"{where}: flags.tol", None)
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


def cmd_verify_report(args: argparse.Namespace) -> int:
    """Re-validate the certificates in a machine-readable report."""
    started = time.perf_counter()
    path = args.report
    doc = _read_json(path)
    if not isinstance(doc, dict) or "command" not in doc:
        raise ParseError(f"{path}: not a toolkit report (missing 'command')")
    _check_schema_version(doc, path)
    inst = _object(doc.get("instance", {}), f"{path}: instance")
    tol = _tolerances(inst.get("tolerances", {}), f"{path}: instance.tolerances", args.tol)
    log = _VerifyLog()
    command = doc["command"]
    verify = {"analyze": _verify_analyze, "extend": _verify_extend, "fuzz": _verify_fuzz}
    if not isinstance(command, str) or command not in verify:
        raise ParseError(f"{path}: unknown report command {command!r}")
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
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
