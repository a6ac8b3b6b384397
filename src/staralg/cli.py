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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .algebra import (
    MatrixStarAlgebra,
    full_matrix_algebra,
    generate_algebra,
    join,
)
from .channels import (
    ChannelMap,
    ProjectiveMeasurement,
    build_channel,
    channel_from_kraus,
    channel_on_algebra,
    choi,
    dual_on_states,
    luders_operation,
    map_from_choi,
    state_prep_operation,
)
from .errors import (
    IllConditioned,
    ParseError,
    ToolkitError,
    ValidationError,
)
from .independence import (
    ANNIHILATION_CUT,
    VERDICT_KEYS,
    FactorSearchOutcome,
    IndependenceReport,
    InterpolatingFactor,
    ProductIsomorphism,
    Verdict,
    check_cstar_independence,
    check_product_sense,
    check_spatial_product_sense,
    check_wstar_independence,
    check_wstar_product_sense,
    find_interpolating_factor,
    implication_violations,
    joint_extension_residuals,
    joint_operation,
    run_hierarchy_checks,
    state_preparation,
    verify_interpolating_factor,
)
from .numerics import DEFAULT_TOL, Tolerances, dagger, hs_norm
from .sampling import fuzz_instances, random_density, random_pure_density
from .states import (
    AlgebraState,
    ExtensionOutcome,
    canonical_trace_state,
    extend_state,
    marginal_residual,
    state_from_density,
)

__all__ = [
    "main",
    "cmd_analyze",
    "cmd_extend",
    "cmd_fuzz",
    "cmd_verify_report",
    "load_instance",
]

SCHEMA_VERSION = 1

_CHECK_NAMES = (
    "hierarchy",
    "product_sense",
    "wstar_product_sense",
    "cstar_independence",
    "wstar_independence",
    "spatial_product_sense",
    "interpolating_factor",
    "extend_state",
    "joint_operation",
)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _complex_out(z: complex) -> list[float] | None:
    re, im = float(np.real(z)), float(np.imag(z))
    if not (np.isfinite(re) and np.isfinite(im)):
        return None
    return [re, im]


def _array_out(a: np.ndarray) -> Any:
    if a.ndim == 0:
        return _complex_out(complex(a))
    return [_array_out(row) for row in a]


def _jsonable(x: Any) -> Any:
    """Recursively convert toolkit objects to plain JSON data.

    Complex entries become ``[re, im]`` pairs; non-finite floats become
    null; matrices stay nested lists so certificates remain auditable by
    other tools.
    """
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x if np.isfinite(x) else None
    if isinstance(x, complex):
        return _complex_out(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x) if np.isfinite(x) else None
    if isinstance(x, np.complexfloating):
        return _complex_out(complex(x))
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "iub":
            return x.tolist()
        return _array_out(np.asarray(x, dtype=complex))
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Verdict):
        out: dict[str, Any] = {"status": x.status}
        if x.certificate is not None:
            out["certificate"] = _jsonable(x.certificate)
        if x.witness is not None:
            out["witness"] = _jsonable(x.witness)
        if x.reason is not None:
            out["reason"] = x.reason
        if x.iso is not None:
            out["isomorphism"] = _jsonable(x.iso)
        return out
    if isinstance(x, ProductIsomorphism):
        return {
            "to_tensor": _jsonable(x.to_tensor),
            "from_tensor": _jsonable(x.from_tensor),
            "join_basis": _jsonable(x.join.basis),
        }
    if isinstance(x, InterpolatingFactor):
        return {
            "d1": x.d1,
            "d2": x.d2,
            "factor_basis": _jsonable(x.algebra.basis),
            "unitary": _jsonable(x.unitary),
            "residuals": _jsonable(x.residuals),
        }
    if isinstance(x, FactorSearchOutcome):
        out = {"status": x.status}
        if x.reason is not None:
            out["reason"] = x.reason
        if x.factor is not None:
            out["factor"] = _jsonable(x.factor)
        return out
    if isinstance(x, ExtensionOutcome):
        return {
            "status": x.status,
            "density": _jsonable(x.density),
            "certificate": _jsonable(x.certificate),
            "iterations": x.iterations,
            "residual": _jsonable(x.residual),
        }
    if isinstance(x, AlgebraState):
        return {"density": _jsonable(x.density)}
    if isinstance(x, IndependenceReport):
        return {
            "verdicts": _jsonable(x.verdicts),
            "seed": x.seed,
            "sample_counts": _jsonable(x.sample_counts),
            "notes": list(x.notes),
        }
    raise TypeError(f"cannot serialize object of type {type(x).__name__}")


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _entry_in(node: Any, where: str) -> complex:
    if isinstance(node, (int, float)):
        return complex(node)
    if (
        isinstance(node, list)
        and len(node) == 2
        and all(isinstance(v, (int, float)) for v in node)
    ):
        return complex(node[0], node[1])
    raise ParseError(f"{where}: matrix entry must be a number or an [re, im] pair")


def _matrix_in(node: Any, n: int, where: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != n:
        raise ParseError(f"{where}: expected a {n}x{n} matrix (list of {n} rows)")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {i} must be a list of {n} entries")
        for j, v in enumerate(row):
            out[i, j] = _entry_in(v, f"{where}[{i}][{j}]")
    return out


def _matrix_list_in(node: Any, n: int, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise ParseError(f"{where}: expected a non-empty list of matrices")
    return np.stack([_matrix_in(m, n, f"{where}[{k}]") for k, m in enumerate(node)])


def _require(node: dict, key: str, where: str) -> Any:
    if key not in node:
        raise ParseError(f"{where}: missing required field '{key}'")
    return node[key]


def _check_keys(node: dict, allowed: set[str], where: str) -> None:
    for key in node:
        if key not in allowed:
            raise ParseError(f"{where}: unknown field '{key}'")


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (bool subclasses int in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_name(name: Any, pool: dict, kind: str, where: str) -> None:
    if not isinstance(name, str):
        raise ParseError(f"{where}: {kind} names must be strings, got {name!r}")
    if name not in pool:
        raise ParseError(f"{where}: unknown {kind} '{name}'")


_TOL_FIELDS = ("eps_herm", "eps_psd", "eps_algebra", "eps_verify")


def load_instance(path: str) -> dict:
    """Parse and structurally validate an instance file.

    Returns the raw document; object construction (and hence numerical
    validation) happens separately so every complaint carries the path and
    field that caused it.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    _check_keys(
        doc,
        {"schema_version", "ambient_dim", "algebras", "states", "operations", "checks", "tolerances"},
        path,
    )
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ParseError(f"{path}: schema_version: unsupported version {version!r}")
    n = _require(doc, "ambient_dim", path)
    if not _is_int(n) or n < 1:
        raise ParseError(f"{path}: ambient_dim: must be a positive integer")

    algebras = doc.get("algebras", {})
    if not isinstance(algebras, dict):
        raise ParseError(f"{path}: algebras: must be an object of named algebras")
    for name, entry in algebras.items():
        where = f"{path}: algebras.{name}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        _check_keys(entry, {"generators"}, where)
        _matrix_list_in(_require(entry, "generators", where), n, f"{where}.generators")

    states = doc.get("states", {})
    if not isinstance(states, dict):
        raise ParseError(f"{path}: states: must be an object of named states")
    for name, entry in states.items():
        where = f"{path}: states.{name}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        _check_keys(entry, {"algebra", "density"}, where)
        _check_name(_require(entry, "algebra", where), algebras, "algebra", f"{where}.algebra")
        _matrix_in(_require(entry, "density", where), n, f"{where}.density")

    operations = doc.get("operations", {})
    if not isinstance(operations, dict):
        raise ParseError(f"{path}: operations: must be an object of named operations")
    for name, entry in operations.items():
        where = f"{path}: operations.{name}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        _check_keys(entry, {"algebra", "kind", "kraus", "projections", "density"}, where)
        if entry.get("algebra") is not None:
            _check_name(entry["algebra"], algebras, "algebra", f"{where}.algebra")
        kind = entry.get("kind", "kraus")
        if kind == "kraus":
            _matrix_list_in(_require(entry, "kraus", where), n, f"{where}.kraus")
        elif kind == "luders":
            _matrix_list_in(_require(entry, "projections", where), n, f"{where}.projections")
        elif kind == "state_prep":
            _matrix_in(_require(entry, "density", where), n, f"{where}.density")
        else:
            raise ParseError(
                f"{where}.kind: must be one of 'kraus', 'luders', 'state_prep'"
            )

    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ParseError(f"{path}: checks: must be a list")
    for k, entry in enumerate(checks):
        where = f"{path}: checks[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        _check_keys(
            entry,
            {"check", "algebras", "states", "operations", "samples", "op_samples", "seed", "max_iter"},
            where,
        )
        kind = _require(entry, "check", where)
        if kind not in _CHECK_NAMES:
            raise ParseError(
                f"{where}.check: unknown check '{kind}' (known: {', '.join(_CHECK_NAMES)})"
            )
        if kind == "extend_state":
            label, pool, noun = "states", states, "state"
        elif kind == "joint_operation":
            label, pool, noun = "operations", operations, "operation"
        else:
            label, pool, noun = "algebras", algebras, "algebra"
        names = _require(entry, label, where)
        if not isinstance(names, list) or len(names) != 2:
            raise ParseError(f"{where}.{label}: expected a list of two names")
        for nm in names:
            _check_name(nm, pool, noun, f"{where}.{label}")
        for key in ("samples", "op_samples", "seed", "max_iter"):
            if key in entry and (not _is_int(entry[key]) or entry[key] < 0):
                raise ParseError(f"{where}.{key}: must be a non-negative integer")

    tols = doc.get("tolerances", {})
    if not isinstance(tols, dict):
        raise ParseError(f"{path}: tolerances: must be an object")
    _check_keys(tols, set(_TOL_FIELDS), f"{path}: tolerances")
    for key, value in tols.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ParseError(f"{path}: tolerances.{key}: must be a positive number")
    return doc


# ---------------------------------------------------------------------------
# building module-level objects
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _ParsedOperation:
    channel: ChannelMap
    kind: str
    algebra: str | None
    prep_state: AlgebraState | None = None


@dataclass(eq=False)
class _Instance:
    path: str
    doc: dict
    ambient_dim: int
    algebras: dict[str, MatrixStarAlgebra]
    states: dict[str, AlgebraState]
    operations: dict[str, _ParsedOperation]
    tol: Tolerances


def _resolve_tol(doc: dict, args: argparse.Namespace) -> Tolerances:
    fields = {name: getattr(DEFAULT_TOL, name) for name in _TOL_FIELDS}
    fields.update(doc.get("tolerances", {}))
    if getattr(args, "tol", None) is not None:
        fields["eps_verify"] = args.tol
    return Tolerances(**{k: float(v) for k, v in fields.items()})


def _build_operation(
    name: str,
    entry: dict,
    n: int,
    algebras: dict[str, MatrixStarAlgebra],
    tol: Tolerances,
    where: str,
) -> _ParsedOperation:
    alg_name = entry.get("algebra")
    kind = entry.get("kind", "kraus")
    a = algebras[alg_name] if alg_name is not None else None
    if kind == "kraus":
        kraus = np.stack([_matrix_in(m, n, where) for m in entry["kraus"]])
        if a is None:
            channel = channel_from_kraus(kraus, n, n, tol)
        else:
            for k, w in enumerate(kraus):
                if a.distance_to_span(w) > tol.eps_algebra * n:
                    raise ValidationError(
                        f"{where}: Kraus operator {k} does not lie in algebra '{alg_name}'"
                    )
            channel = channel_on_algebra(a, kraus, tol)
        return _ParsedOperation(channel, "kraus", alg_name)
    if kind == "luders":
        projs = np.stack([_matrix_in(m, n, where) for m in entry["projections"]])
        measurement = ProjectiveMeasurement(projs)
        measurement.validate(tol)
        if a is None:
            return _ParsedOperation(luders_operation(measurement, tol), "luders", None)
        for k, p in enumerate(projs):
            if a.distance_to_span(p) > tol.eps_algebra * n:
                raise ValidationError(
                    f"{where}: projection {k} does not lie in algebra '{alg_name}'"
                )
        return _ParsedOperation(
            channel_on_algebra(a, projs, tol), "luders", alg_name
        )
    # state_prep
    rho = _matrix_in(entry["density"], n, where)
    if a is None:
        sigma = state_from_density(full_matrix_algebra(n), rho, tol)
        return _ParsedOperation(
            state_prep_operation(rho, tol), "state_prep", None, sigma
        )
    st = state_from_density(a, rho, tol)
    return _ParsedOperation(state_preparation(st, tol), "state_prep", alg_name, st)


def _build_instance(path: str, args: argparse.Namespace) -> _Instance:
    doc = load_instance(path)
    n = doc["ambient_dim"]
    tol = _resolve_tol(doc, args)
    algebras: dict[str, MatrixStarAlgebra] = {}
    for name, entry in doc.get("algebras", {}).items():
        where = f"{path}: algebras.{name}"
        gens = _matrix_list_in(entry["generators"], n, where)
        try:
            algebras[name] = generate_algebra(gens, n, tol)
        except ToolkitError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    states: dict[str, AlgebraState] = {}
    for name, entry in doc.get("states", {}).items():
        where = f"{path}: states.{name}"
        rho = _matrix_in(entry["density"], n, where)
        try:
            states[name] = state_from_density(algebras[entry["algebra"]], rho, tol)
        except ToolkitError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    operations: dict[str, _ParsedOperation] = {}
    for name, entry in doc.get("operations", {}).items():
        where = f"{path}: operations.{name}"
        try:
            operations[name] = _build_operation(name, entry, n, algebras, tol, where)
        except ToolkitError as exc:
            if isinstance(exc, (ParseError, ValidationError)):
                raise
            raise ValidationError(f"{where}: {exc}") from exc
    return _Instance(path, doc, n, algebras, states, operations, tol)


def _instance_section(inst: _Instance) -> dict:
    """Echo of the parsed instance, with orthonormal bases for round trips."""
    return {
        "path": inst.path,
        "ambient_dim": inst.ambient_dim,
        "algebras": {
            name: {"dim": a.dim, "basis": a.basis}
            for name, a in inst.algebras.items()
        },
        "states": {
            name: {
                "algebra": inst.doc["states"][name]["algebra"],
                "density": st.density,
            }
            for name, st in inst.states.items()
        },
        "operations": {
            name: dict(inst.doc.get("operations", {})[name])
            for name in inst.operations
        },
        "tolerances": {k: getattr(inst.tol, k) for k in _TOL_FIELDS},
    }


# ---------------------------------------------------------------------------
# check runners
# ---------------------------------------------------------------------------


def _effective(entry: dict, args: argparse.Namespace, key: str, default: int) -> int:
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return entry.get(key, default)


def _strip_iso(verdict: Verdict) -> Verdict:
    if verdict.iso is None:
        return verdict
    return Verdict(
        status=verdict.status,
        certificate=verdict.certificate,
        witness=verdict.witness,
        reason=verdict.reason,
    )


def _run_check(entry: dict, inst: _Instance, args: argparse.Namespace) -> dict:
    kind = entry["check"]
    tol = inst.tol
    if kind == "extend_state":
        names = entry["states"]
        s1, s2 = inst.states[names[0]], inst.states[names[1]]
        max_iter = entry.get("max_iter", 20000)
        outcome = extend_state(
            s1, s2, ambient_dim=inst.ambient_dim, tol=tol, max_iter=max_iter
        )
        result = {"check": kind, "states": list(names), "outcome": outcome}
        if outcome.status == "Feasible":
            result["recomputed_marginal_residual"] = marginal_residual(
                outcome.density, (s1, s2)
            )
        return result
    if kind == "joint_operation":
        names = entry["operations"]
        t1, t2 = inst.operations[names[0]], inst.operations[names[1]]
        try:
            joint = joint_operation(t1.channel, t2.channel, tol=tol)
        except IllConditioned:
            raise
        except ToolkitError as exc:
            return {
                "check": kind,
                "operations": list(names),
                "outcome": type(exc).__name__,
                "diagnostic": str(exc),
            }
        return {
            "check": kind,
            "operations": list(names),
            "outcome": "Extended",
            "choi": choi(joint),
            "residuals": joint_extension_residuals(joint, t1.channel, t2.channel, tol),
            "completely_positive": joint.cp_certified,
            "unital": joint.unital,
            "faithful": joint.faithful,
        }

    names = entry["algebras"]
    a1, a2 = inst.algebras[names[0]], inst.algebras[names[1]]
    result = {"check": kind, "algebras": list(names)}
    if kind == "hierarchy":
        seed = _effective(entry, args, "seed", 0)
        samples = _effective(entry, args, "samples", 50)
        op_samples = entry.get("op_samples", 3)
        report = run_hierarchy_checks(
            a1, a2, seed=seed, samples=samples, op_samples=op_samples, tol=tol
        )
        # the nine verdicts share one product isomorphism; serialize it only
        # on the verdict that asserts it so reports stay auditable but small
        verdicts = {
            key: v if key == "cstar_product_sense" else _strip_iso(v)
            for key, v in report.verdicts.items()
        }
        result.update(
            {
                "seed": seed,
                "samples": samples,
                "op_samples": op_samples,
                "verdicts": verdicts,
                "sample_counts": report.sample_counts,
                "notes": report.notes,
                "implication_violations": [list(v) for v in implication_violations(report.verdicts)],
            }
        )
        return result
    if kind in ("cstar_independence", "wstar_independence"):
        seed = _effective(entry, args, "seed", 0)
        samples = _effective(entry, args, "samples", 50)
        fn = check_cstar_independence if kind == "cstar_independence" else check_wstar_independence
        result.update(
            {
                "seed": seed,
                "samples": samples,
                "verdict": fn(a1, a2, rng=np.random.default_rng(seed), samples=samples, tol=tol),
            }
        )
        return result
    if kind == "interpolating_factor":
        result["outcome"] = find_interpolating_factor(a1, a2, tol)
        return result
    fn = {
        "product_sense": check_product_sense,
        "wstar_product_sense": check_wstar_product_sense,
        "spatial_product_sense": check_spatial_product_sense,
    }[kind]
    result["verdict"] = fn(a1, a2, tol)
    return result


def _default_checks(inst: _Instance) -> list[dict]:
    names = list(inst.algebras)
    if len(names) != 2:
        raise ValidationError(
            f"{inst.path}: no checks given and the file does not contain "
            "exactly two algebras; nothing to do"
        )
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


def _finish(
    report: dict,
    args: argparse.Namespace,
    human: Callable[[dict], None],
    started: float,
) -> int:
    report["wall_clock_seconds"] = (
        round(time.perf_counter() - started, 6) if args.timing else None
    )
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


def _human_analyze(data: dict) -> None:
    inst = data["instance"]
    dims = ", ".join(
        f"{name} (dim {entry['dim']})" for name, entry in sorted(inst["algebras"].items())
    )
    print(f"staralg {data['toolkit_version']} analyze — {inst['path']}")
    print(f"ambient dimension {inst['ambient_dim']}; algebras: {dims}")
    for entry in data["checks"]:
        kind = entry["check"]
        target = entry.get("algebras") or entry.get("states") or entry.get("operations")
        head = f"check {kind} [{', '.join(target)}]"
        if "verdicts" in entry:
            print(f"{head}:")
            for key in VERDICT_KEYS:
                verdict = entry["verdicts"][key]
                line = f"  {key:<22} {verdict['status']}"
                if verdict.get("reason"):
                    line += f"  ({verdict['reason']})"
                print(line)
            violations = entry["implication_violations"]
            print(f"  implication violations: {len(violations)}")
        elif "verdict" in entry:
            verdict = entry["verdict"]
            line = f"{head}: {verdict['status']}"
            if verdict.get("reason"):
                line += f"  ({verdict['reason']})"
            print(line)
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
        else:
            print(f"{head}: {entry.get('outcome', {}).get('status', '?')}")


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the checks named in an instance file and report the verdicts."""
    started = time.perf_counter()
    inst = _build_instance(args.instance, args)
    checks = inst.doc.get("checks") or _default_checks(inst)
    report = _base_report("analyze", args)
    report["instance"] = _instance_section(inst)
    report["checks"] = [_run_check(entry, inst, args) for entry in checks]
    return _finish(report, args, _human_analyze, started)


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def _product_transition_table(
    joint: ChannelMap,
    prescribed1: AlgebraState,
    prescribed2: AlgebraState,
    seed: int,
    tol: Tolerances,
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
        out = dual.apply(rho)
        r1 = marginal_residual(out, (prescribed1,))
        r2 = marginal_residual(out, (prescribed2,))
        rows.append(
            {
                "probe": label,
                "input_density": rho,
                "marginal_residual_1": r1,
                "marginal_residual_2": r2,
                "matches_prescription": bool(max(r1, r2) <= tol.eps_verify),
            }
        )
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
    inst = _build_instance(args.instance, args)
    for name in (args.op1, args.op2):
        if name not in inst.operations:
            raise ValidationError(f"{inst.path}: unknown operation '{name}'")
    t1, t2 = inst.operations[args.op1], inst.operations[args.op2]
    tol = inst.tol
    try:
        joint = joint_operation(t1.channel, t2.channel, tol=tol)
    except ToolkitError as exc:
        if not isinstance(exc, IllConditioned):
            section: dict[str, Any] = {
                "status": type(exc).__name__,
                "operations": [args.op1, args.op2],
                "diagnostic": str(exc),
            }
            report = _base_report("extend", args)
            report["instance"] = _instance_section(inst)
            report["joint_extension"] = section
            return _finish(report, args, _human_extend, started)
        raise
    section = {
        "status": "Extended",
        "operations": [args.op1, args.op2],
        "choi": choi(joint),
        "residuals": joint_extension_residuals(joint, t1.channel, t2.channel, tol),
        "completely_positive": joint.cp_certified,
        "unital": joint.unital,
        "faithful": joint.faithful,
    }
    if t1.kind == "state_prep" and t2.kind == "state_prep":
        seed = args.seed if args.seed is not None else 0
        section["product_transition"] = _product_transition_table(
            joint, t1.prep_state, t2.prep_state, seed, tol
        )
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
        report = run_hierarchy_checks(
            inst.a1, inst.a2, seed=child, samples=samples, op_samples=2, tol=tol
        )
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
    tol = DEFAULT_TOL if args.tol is None else Tolerances(eps_verify=args.tol)
    summary = _fuzz_summary(args.family, args.count, seed, samples, tol)
    report = _base_report("fuzz", args)
    report.update(summary)
    return _finish(report, args, _human_fuzz, started)


# ---------------------------------------------------------------------------
# verify-report
# ---------------------------------------------------------------------------


def _complex_in(node: Any) -> complex:
    if node is None:
        return complex(float("nan"))
    if isinstance(node, (int, float)):
        return complex(node)
    return complex(node[0], node[1])


def _array_in(node: Any) -> np.ndarray:
    """Read back a matrix serialized by :func:`_jsonable`."""
    arr = np.asarray(node, dtype=float)
    if arr.ndim >= 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)


@dataclass
class _VerifyLog:
    items: list[dict] = field(default_factory=list)

    def check(self, target: str, ok: bool, detail: str) -> None:
        self.items.append({"target": target, "ok": bool(ok), "detail": detail})

    def attempt(self, target: str, fn: Callable[[], str]) -> None:
        try:
            self.check(target, True, fn())
        except ToolkitError as exc:
            self.check(target, False, f"{type(exc).__name__}: {exc}")
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            self.check(target, False, f"malformed certificate ({type(exc).__name__}: {exc})")


def _rebuild_algebras(
    doc: dict, tol: Tolerances, log: _VerifyLog
) -> tuple[int, dict[str, MatrixStarAlgebra]]:
    inst = doc["instance"]
    n = inst["ambient_dim"]
    algebras: dict[str, MatrixStarAlgebra] = {}
    for name, entry in inst["algebras"].items():
        def build(name=name, entry=entry) -> str:
            a = MatrixStarAlgebra(n, _array_in(entry["basis"]))
            a.validate(tol)
            algebras[name] = a
            return f"orthonormal basis of dimension {a.dim} revalidated"
        log.attempt(f"algebra {name}", build)
    return n, algebras


def _verify_density(rho: np.ndarray, tol: Tolerances) -> None:
    evals = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if np.abs(rho - dagger(rho)).max() > tol.eps_herm * 10:
        raise ValidationError("density is not Hermitian")
    if evals[0] < -tol.eps_psd * max(1.0, evals[-1]):
        raise ValidationError(f"density is not positive (eigenvalue {evals[0]:.3e})")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-8:
        raise ValidationError("density does not have unit trace")


def _verify_extension_outcome(
    target: str,
    outcome: dict,
    s1: AlgebraState,
    s2: AlgebraState,
    tol: Tolerances,
    log: _VerifyLog,
) -> None:
    status = outcome["status"]
    if status == "Feasible":
        def feasible() -> str:
            rho = _array_in(outcome["density"])
            _verify_density(rho, tol)
            res = marginal_residual(rho, (s1, s2))
            if res > tol.eps_verify:
                raise ValidationError(f"marginal residual {res:.3e} exceeds tolerance")
            return f"joint density PSD with marginal residual {res:.3e}"
        log.attempt(target, feasible)
        return
    if status == "InfeasibleCertified":
        def infeasible() -> str:
            cert = outcome["certificate"]
            if cert["kind"] == "separating_observable":
                h = _array_in(cert["observable"])
                lam = float(np.linalg.eigvalsh(0.5 * (h + dagger(h)))[-1])
                if abs(lam - cert["max_eigenvalue"]) > 1e-8:
                    raise ValidationError("recorded largest eigenvalue does not match")
                gap = cert["forced_value"] - lam
                if gap < 10 * tol.eps_verify:
                    raise ValidationError(f"separation gap {gap:.3e} too small")
            rerun = extend_state(s1, s2, tol=tol)
            if rerun.status != "InfeasibleCertified":
                raise ValidationError(f"re-run returned {rerun.status}")
            return f"infeasibility reproduced ({cert['kind']})"
        log.attempt(target, infeasible)
        return
    log.check(target, True, f"status {status}: nothing to re-validate")


def _verify_verdict(
    target: str,
    vdoc: dict,
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    n: int,
    tol: Tolerances,
    log: _VerifyLog,
) -> None:
    iso_doc = vdoc.get("isomorphism")
    if iso_doc is not None:
        def revalidate_iso() -> str:
            jn = MatrixStarAlgebra(n, _array_in(iso_doc["join_basis"]))
            jn.validate(tol)
            iso = ProductIsomorphism(
                a1, a2, jn, _array_in(iso_doc["to_tensor"]), _array_in(iso_doc["from_tensor"])
            )
            residuals = iso.validate(tol)
            worst = max(residuals.values())
            return f"product isomorphism revalidated (max residual {worst:.3e})"
        log.attempt(f"{target} isomorphism", revalidate_iso)
    payload = vdoc.get("certificate") or vdoc.get("witness")
    if not isinstance(payload, dict):
        return
    kind = payload.get("kind")
    if kind == "factorizing_unitary":
        def revalidate_factor() -> str:
            fdoc = payload["factor"]
            m = MatrixStarAlgebra(n, _array_in(fdoc["factor_basis"]))
            m.validate(tol)
            factor = verify_interpolating_factor(
                m, _array_in(fdoc["unitary"]), fdoc["d1"], fdoc["d2"], a1, a2, tol
            )
            worst = max(factor.residuals.values())
            return f"interpolating factor revalidated (max residual {worst:.3e})"
        log.attempt(f"{target} factor", revalidate_factor)
    elif kind == "faithful_product_state":
        def revalidate_state() -> str:
            rho = _array_in(payload["density"])
            _verify_density(rho, tol)
            res = marginal_residual(
                rho, (canonical_trace_state(a1), canonical_trace_state(a2))
            )
            if res > tol.eps_verify:
                raise ValidationError(f"tracial marginal residual {res:.3e}")
            return f"product-state density PSD with tracial marginals ({res:.3e})"
        log.attempt(f"{target} product state", revalidate_state)
    elif kind == "annihilating_central_projections":
        def revalidate_projections() -> str:
            z1 = _array_in(payload["projection1"])
            z2 = _array_in(payload["projection2"])
            for z in (z1, z2):
                if np.abs(z @ z - z).max() > ANNIHILATION_CUT:
                    raise ValidationError("witness is not a projection")
            worst = float(np.abs(z1 @ z2).max())
            if worst > ANNIHILATION_CUT:
                raise ValidationError(f"projections do not annihilate ({worst:.3e})")
            return f"central projections annihilate (max entry {worst:.3e})"
        log.attempt(f"{target} projections", revalidate_projections)
    elif kind == "multiplication_relation":
        def revalidate_relation() -> str:
            rel = _array_in(payload["relation_coefficients"])
            element = np.einsum("ab,aij,bjk->ik", rel, a1.basis, a2.basis, optimize=True)
            norm = float(np.abs(element).max())
            if norm > max(1e-8, 10 * payload["relation_element_norm"] + 1e-12):
                raise ValidationError(f"relation element does not vanish ({norm:.3e})")
            w1, w2 = payload["witness_states"]
            v1 = np.einsum("ij,aji->a", _array_in(w1["density"]), a1.basis)
            v2 = np.einsum("ij,aji->a", _array_in(w2["density"]), a2.basis)
            value = complex(v1 @ rel @ v2)
            recorded = _complex_in(payload["product_value"])
            if abs(value - recorded) > 1e-8 or abs(value) < 1e-9:
                raise ValidationError("witness product value does not reproduce")
            return f"vanishing relation with nonzero product value {abs(value):.3e}"
        log.attempt(f"{target} relation", revalidate_relation)
    elif kind == "dimension_deficit":
        def revalidate_deficit() -> str:
            jn = join(a1, a2, tol)
            if jn.dim != payload["dim_join"]:
                raise ValidationError(
                    f"join dimension {jn.dim} differs from recorded {payload['dim_join']}"
                )
            if jn.dim >= a1.dim * a2.dim:
                raise ValidationError("recorded deficit but join has full dimension")
            return f"join dimension deficit confirmed ({jn.dim} < {a1.dim * a2.dim})"
        log.attempt(f"{target} dimensions", revalidate_deficit)
    elif kind in ("refused_marginal_pair", "inconsistent_constraints", "separating_observable"):
        def revalidate_refusal() -> str:
            w1, w2 = payload["witness_states"]
            s1 = state_from_density(a1, _array_in(w1["density"]), tol)
            s2 = state_from_density(a2, _array_in(w2["density"]), tol)
            rerun = extend_state(s1, s2, tol=tol)
            if rerun.status != "InfeasibleCertified":
                raise ValidationError(f"re-run returned {rerun.status}")
            return "refused marginal pair reproduced"
        log.attempt(f"{target} refusal", revalidate_refusal)


def _verify_joint_entry(
    target: str,
    entry: dict,
    operations: dict[str, _ParsedOperation],
    n: int,
    tol: Tolerances,
    log: _VerifyLog,
) -> None:
    if entry.get("outcome", entry.get("status")) != "Extended":
        log.check(target, True, "no extension claimed: nothing to re-validate")
        return

    def revalidate() -> str:
        action = map_from_choi(_array_in(entry["choi"]), n, n)
        joint = build_channel(full_matrix_algebra(n), n, action, tol)
        if not (joint.cp_certified and joint.unital):
            raise ValidationError("rebuilt joint map is not a nonselective operation")
        names = entry["operations"]
        t1, t2 = operations[names[0]], operations[names[1]]
        residuals = joint_extension_residuals(joint, t1.channel, t2.channel, tol)
        worst = max(residuals.values())
        if worst > tol.eps_verify:
            raise ValidationError(f"extension residual {worst:.3e} exceeds tolerance")
        return f"joint extension rebuilt from Choi matrix (max residual {worst:.3e})"

    log.attempt(target, revalidate)


def _verify_transition_table(
    target: str,
    section: dict,
    operations: dict[str, _ParsedOperation],
    n: int,
    tol: Tolerances,
    log: _VerifyLog,
) -> None:
    def revalidate() -> str:
        action = map_from_choi(_array_in(section["choi"]), n, n)
        joint = build_channel(full_matrix_algebra(n), n, action, tol)
        dual = dual_on_states(joint, tol)
        names = section["operations"]
        prep1 = operations[names[0]].prep_state
        prep2 = operations[names[1]].prep_state
        if prep1 is None or prep2 is None:
            raise ValidationError("transition table present but operations are not preparations")
        worst = 0.0
        for row in section["product_transition"]["rows"]:
            out = dual.apply(_array_in(row["input_density"]))
            worst = max(
                worst,
                marginal_residual(out, (prep1,)),
                marginal_residual(out, (prep2,)),
            )
        if worst > tol.eps_verify:
            raise ValidationError(f"transition residual {worst:.3e} exceeds tolerance")
        return f"product transitions reproduced on {len(section['product_transition']['rows'])} probes (worst {worst:.3e})"

    log.attempt(target, revalidate)


def _verify_analyze(doc: dict, tol: Tolerances, log: _VerifyLog) -> None:
    n, algebras = _rebuild_algebras(doc, tol, log)
    inst = doc["instance"]
    states: dict[str, AlgebraState] = {}
    for name, entry in inst.get("states", {}).items():
        def build(name=name, entry=entry) -> str:
            states[name] = state_from_density(
                algebras[entry["algebra"]], _array_in(entry["density"]), tol
            )
            return "density revalidated"
        log.attempt(f"state {name}", build)
    operations: dict[str, _ParsedOperation] = {}
    for name, entry in inst.get("operations", {}).items():
        def build_op(name=name, entry=entry) -> str:
            operations[name] = _build_operation(name, entry, n, algebras, tol, f"operation {name}")
            return f"{entry.get('kind', 'kraus')} operation rebuilt"
        log.attempt(f"operation {name}", build_op)
    for idx, entry in enumerate(doc.get("checks", [])):
        kind = entry["check"]
        target = f"checks[{idx}] {kind}"
        if kind == "extend_state":
            names = entry["states"]
            if names[0] in states and names[1] in states:
                _verify_extension_outcome(
                    target, entry["outcome"], states[names[0]], states[names[1]], tol, log
                )
            continue
        if kind == "joint_operation":
            _verify_joint_entry(target, entry, operations, n, tol, log)
            continue
        names = entry["algebras"]
        if names[0] not in algebras or names[1] not in algebras:
            continue
        a1, a2 = algebras[names[0]], algebras[names[1]]
        if "verdicts" in entry:
            if entry["implication_violations"]:
                log.check(f"{target} implications", False, "report records implication violations")
            for key, vdoc in entry["verdicts"].items():
                _verify_verdict(f"{target} {key}", vdoc, a1, a2, n, tol, log)
        elif "verdict" in entry:
            _verify_verdict(target, entry["verdict"], a1, a2, n, tol, log)
        elif kind == "interpolating_factor":
            outcome = entry["outcome"]
            if outcome.get("factor"):
                _verify_verdict(
                    target,
                    {"certificate": {"kind": "factorizing_unitary", "factor": outcome["factor"]}},
                    a1,
                    a2,
                    n,
                    tol,
                    log,
                )


def _verify_extend(doc: dict, tol: Tolerances, log: _VerifyLog) -> None:
    n, algebras = _rebuild_algebras(doc, tol, log)
    inst = doc["instance"]
    operations: dict[str, _ParsedOperation] = {}
    for name, entry in inst.get("operations", {}).items():
        def build_op(name=name, entry=entry) -> str:
            operations[name] = _build_operation(name, entry, n, algebras, tol, f"operation {name}")
            return f"{entry.get('kind', 'kraus')} operation rebuilt"
        log.attempt(f"operation {name}", build_op)
    section = doc["joint_extension"]
    _verify_joint_entry("joint_extension", section, operations, n, tol, log)
    if section.get("product_transition"):
        _verify_transition_table("product_transition", section, operations, n, tol, log)


def _verify_fuzz(doc: dict, tol: Tolerances, log: _VerifyLog) -> None:
    # the replay must use the tolerance of the original run, not an override
    recorded = doc.get("flags", {}).get("tol")
    tol = DEFAULT_TOL if recorded is None else Tolerances(eps_verify=recorded)

    def regenerate() -> str:
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
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "command" not in doc:
        raise ParseError(f"{path}: not a toolkit report (missing 'command')")
    tol_fields = doc.get("instance", {}).get("tolerances", {})
    tol = Tolerances(**{k: tol_fields.get(k, getattr(DEFAULT_TOL, k)) for k in _TOL_FIELDS})
    if args.tol is not None:
        tol = Tolerances(
            **{**{k: getattr(tol, k) for k in _TOL_FIELDS}, "eps_verify": args.tol}
        )
    log = _VerifyLog()
    command = doc["command"]
    try:
        if command == "analyze":
            _verify_analyze(doc, tol, log)
        elif command == "extend":
            _verify_extend(doc, tol, log)
        elif command == "fuzz":
            _verify_fuzz(doc, tol, log)
        else:
            raise ParseError(f"{path}: unknown report command '{command}'")
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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="seed overriding per-check defaults")
    sub.add_argument("--samples", type=int, default=None, help="sample count overriding per-check defaults")
    sub.add_argument("--tol", type=float, default=None, help="override the certification tolerance eps_verify")
    sub.add_argument("--out", default=None, help="write the machine-readable report to this path")
    sub.add_argument("--json", action="store_true", help="print the machine-readable report to stdout")
    sub.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock time in the report (breaks byte-identical re-runs)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staralg",
        description="checks for independence of commuting matrix *-algebras, with certificates",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    analyze = subs.add_parser("analyze", help="run the checks named in an instance file")
    analyze.add_argument("instance", help="instance file (JSON)")
    _add_common(analyze)
    analyze.set_defaults(func=cmd_analyze)

    extend = subs.add_parser("extend", help="jointly extend two named operations")
    extend.add_argument("instance", help="instance file (JSON)")
    extend.add_argument("op1", help="first operation name")
    extend.add_argument("op2", help="second operation name")
    _add_common(extend)
    extend.set_defaults(func=cmd_extend)

    fuzz = subs.add_parser("fuzz", help="sweep a randomized instance family")
    fuzz.add_argument("family", help="instance family name")
    fuzz.add_argument("count", type=int, help="number of instances")
    _add_common(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    verify = subs.add_parser("verify-report", help="re-validate a report's certificates")
    verify.add_argument("report", help="machine-readable report file (JSON)")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
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
