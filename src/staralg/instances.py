"""The instance format: how an instance file is read, echoed and read back.

An instance file declares, by name, subalgebras of M_n by their generators,
states on them by densities, and operations on them (Kraus, Lüders or
state preparation), plus the checks to run and the tolerances.  Every
matrix is decoded by ``certificates._array_in``.  ``load(path)`` validates
the file and builds each object.  A report echoes the built instance
(``_instance_section``), each algebra as its orthonormal basis, and
``verify-report`` reads that echo back (``_read_echo``) through the same
builder, logging one item per object.

The check kinds are the rows of ``CHECKS``: the section a check's two
names come from, the runner that fills its report entry (``run_check``),
and the re-check that ``verify-report`` runs on that entry
(``_verify_analyze``), which covers every outcome the runner can emit.
The joint-operation row also builds and re-checks ``extend``'s section.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .algebra import MatrixStarAlgebra, full_matrix_algebra, generate_algebra
from .certificates import _array_in, _check_extension, _check_factor_outcome, _check_implications, _check_recorded
from .certificates import _is_int, _Pair, _verify_verdicts, _VerifyLog
from .channels import ChannelMap, ProjectiveMeasurement, build_channel, channel_on_algebra, choi, map_from_choi
from .errors import IllConditioned, ParseError, ToolkitError, ValidationError
from .independence import _joint_extension_gate, _joint_operation, _product_transition_residual
from .independence import check_cstar_independence, check_product_sense
from .independence import check_spatial_product_sense, check_wstar_independence, check_wstar_product_sense
from .independence import find_interpolating_factor, implication_violations, run_hierarchy_checks, state_preparation
from .numerics import Tolerances
from .states import AlgebraState, extend_state, marginal_residual, state_from_density

__all__ = ["CHECKS", "Check", "Instance", "Operation", "load", "run_check"]

SCHEMA_VERSION = 1

#: the sections of named objects, in build order
SECTIONS = ("algebras", "states", "operations")

#: the fields an entry of each section may have, and those it must have
_ENTRY_FIELDS = {
    "algebras": ({"generators"}, ("generators",)),
    "states": ({"algebra", "density"}, ("algebra", "density")),
    "operations": ({"algebra", "kind", "kraus", "projections", "density"}, ()),
}

_TOL_FIELDS = ("eps_herm", "eps_psd", "eps_algebra", "eps_verify")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _require(node: dict, key: str, where: str) -> Any:
    if key not in node:
        raise ParseError(f"{where}: missing required field '{key}'")
    return node[key]


def _check_keys(node: dict, allowed: set[str], where: str, sep: str = ".") -> None:
    """Reject a key outside ``allowed``, naming it as ``<where><sep><key>``."""
    for key in node:
        if key not in allowed:
            raise ParseError(f"{where}{sep}{key}: unknown field")


def _check_name(name: Any, pool: dict, kind: str, where: str) -> None:
    if not isinstance(name, str):
        raise ParseError(f"{where}: {kind} names must be strings, got {name!r}")
    if name not in pool:
        raise ParseError(f"{where}: unknown {kind} '{name}'")


def _two_names(entry: dict, key: str, pool: dict, kind: str, where: str) -> list[str]:
    """The list of two names under ``key``, each naming an entry of ``pool``."""
    names = _require(entry, key, where)
    if not isinstance(names, list) or len(names) != 2:
        raise ParseError(f"{where}.{key}: expected a list of two names")
    for nm in names:
        _check_name(nm, pool, kind, f"{where}.{key}")
    return names


def _object(node: Any, where: str) -> dict:
    if not isinstance(node, dict):
        raise ParseError(f"{where}: must be an object")
    return node


def _positive(value: Any, where: str) -> float:
    """A finite positive number (bools are not numbers here)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= sys.float_info.max:
        raise ParseError(f"{where}: must be a positive number")
    return float(value)


def _tolerances(fields: Any, where: str, flag: float | None) -> Tolerances:
    """The defaults, updated by the tolerance object ``fields`` and then by ``--tol``.

    ``where`` names the object in error messages.
    """
    _check_keys(_object(fields, where), set(_TOL_FIELDS), where)
    values = {key: _positive(value, f"{where}.{key}") for key, value in fields.items()}
    if flag is not None:
        values["eps_verify"] = _positive(flag, "--tol")
    return Tolerances(**values)


def _read_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _check_schema_version(doc: dict, where: str) -> None:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not (_is_int(version) and version == SCHEMA_VERSION):
        raise ParseError(f"{where}: schema_version: unsupported version {version!r}")


def _ambient_dim(node: dict, where: str, sep: str) -> int:
    n = _require(node, "ambient_dim", where)
    if not _is_int(n) or n < 1:
        raise ParseError(f"{where}{sep}ambient_dim: must be a positive integer")
    return n


def _sections(node: dict, at: str) -> dict[str, dict]:
    """Each section of named objects (empty where absent); ``at`` prefixes its name in errors."""
    return {key: _object(node.get(key, {}), f"{at}{key}") for key in SECTIONS}


def _operation_matrices(entry: dict, n: int, where: str) -> np.ndarray:
    """The Kraus operators, the projections or the prepared density of an operation entry."""
    kind = entry.get("kind", "kraus")
    if kind == "state_prep":
        return _array_in(_require(entry, "density", where), (n, n), f"{where}.density")
    if kind not in ("kraus", "luders"):
        raise ParseError(f"{where}.kind: must be one of 'kraus', 'luders', 'state_prep'")
    key = "kraus" if kind == "kraus" else "projections"
    return _array_in(_require(entry, key, where), (None, n, n), f"{where}.{key}")


# ---------------------------------------------------------------------------
# the one builder
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Operation:
    """A built operation: its channel, kind, algebra name, and the state a preparation prepares."""

    channel: ChannelMap
    kind: str
    algebra: str | None
    prep_state: AlgebraState | None = None


@dataclass(eq=False)
class Instance:
    """The objects that an instance file, or a report's echo of one, declares, built.

    ``declared`` holds each section's raw entries by name, so names can be
    checked against them.  Read from an echo, an object whose build failed
    is missing from its dict.
    """

    path: str
    ambient_dim: int
    tol: Tolerances
    declared: dict[str, dict]
    checks: list = field(default_factory=list)
    algebras: dict[str, MatrixStarAlgebra] = field(default_factory=dict)
    states: dict[str, AlgebraState] = field(default_factory=dict)
    operations: dict[str, Operation] = field(default_factory=dict)

    def named(self, section: str, names: list[str]) -> tuple:
        """The built objects of ``section`` by name; ValidationError names one that did not rebuild."""
        built = getattr(self, section)
        for name in names:
            if name not in built:  # only an echo's object can fail and leave the build going
                raise ValidationError(f"{section[:-1]} {name} did not rebuild; see its own item")
        return tuple(built[name] for name in names)


def _operation(entry: dict, mats: np.ndarray, a: MatrixStarAlgebra, tol: Tolerances, where: str) -> Operation:
    """The operation of an entry, with its decoded ``mats``, on its algebra ``a`` (M_n for one that names none)."""
    n = a.ambient_dim
    alg_name = entry.get("algebra")
    kind = entry.get("kind", "kraus")
    if kind == "state_prep":
        st = state_from_density(a, mats, tol)
        return Operation(state_preparation(st, tol), kind, alg_name, st)
    label = "Kraus operator" if kind == "kraus" else "projection"
    if kind == "luders":
        ProjectiveMeasurement(mats).validate(tol)
    outside = np.flatnonzero(~(a.distances_to_span(mats) <= tol.eps_algebra * n))
    if outside.size:
        raise ValidationError(f"{where}: {label} {outside[0]} does not lie in algebra '{alg_name}'")
    return Operation(channel_on_algebra(a, mats, tol), kind, alg_name)


def _build(
    inst: Instance,
    make_algebra: Callable[[dict, str], MatrixStarAlgebra],
    attempt: Callable[[str, str, Callable[[str], str]], None],
) -> Instance:
    """Build the declared objects into ``inst``, section by section.

    ``make_algebra(entry, where)`` makes an algebra.  Each object's build is
    run as ``attempt(section, name, build)``; ``build(where)`` decodes the
    entry's matrices, names errors by ``where``, and returns the detail
    that ``verify-report`` logs for the object.
    """
    n, tol = inst.ambient_dim, inst.tol

    def algebra(name: str, entry: dict, where: str) -> str:
        a = inst.algebras[name] = make_algebra(entry, where)
        return f"orthonormal basis of dimension {a.dim} revalidated"

    def built(name: Any, where: str) -> MatrixStarAlgebra:
        _check_name(name, inst.declared["algebras"], "algebra", f"{where}.algebra")
        return inst.named("algebras", [name])[0]

    def state(name: str, entry: dict, where: str) -> str:
        a = built(entry["algebra"], where)
        inst.states[name] = state_from_density(a, _array_in(entry["density"], (n, n), f"{where}.density"), tol)
        return "density revalidated"

    def operation(name: str, entry: dict, where: str) -> str:
        mats = _operation_matrices(entry, n, where)  # before M_n, whose n^4 basis an absurd n cannot hold
        alg_name = entry.get("algebra")
        a = full_matrix_algebra(n) if alg_name is None else built(alg_name, where)
        op = inst.operations[name] = _operation(entry, mats, a, tol, where)
        return f"{op.kind} operation rebuilt"

    steps = {"algebras": algebra, "states": state, "operations": operation}
    for section in SECTIONS:
        for name, entry in inst.declared[section].items():
            attempt(section, name, lambda where: steps[section](name, entry, where))
    return inst


def _load(path: str, eps_verify: float | None) -> Instance:
    """``load``, with ``eps_verify`` (``--tol``) overriding the file's, if given."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    _check_keys(doc, {"schema_version", "ambient_dim", *SECTIONS, "checks", "tolerances"}, path, sep=": ")
    _check_schema_version(doc, path)
    n = _ambient_dim(doc, path, ": ")
    declared = _sections(doc, f"{path}: ")
    for section, (allowed, required) in _ENTRY_FIELDS.items():
        for name, entry in declared[section].items():
            where = f"{path}: {section}.{name}"
            _check_keys(_object(entry, where), allowed, where)
            for key in required:
                _require(entry, key, where)
            if "algebra" in required or entry.get("algebra") is not None:
                _check_name(entry["algebra"], declared["algebras"], "algebra", f"{where}.algebra")

    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ParseError(f"{path}: checks: must be a list")
    for k, entry in enumerate(checks):
        where = f"{path}: checks[{k}]"
        _check_keys(_object(entry, where), {"check", *SECTIONS, "samples", "seed", "max_iter"}, where)
        _check_entry(entry, where, declared)
        for key in ("samples", "seed", "max_iter"):
            if key in entry and (not _is_int(entry[key]) or entry[key] < 0):
                raise ParseError(f"{where}.{key}: must be a non-negative integer")

    tol = _tolerances(doc.get("tolerances", {}), f"{path}: tolerances", eps_verify)

    def generated(entry: dict, where: str) -> MatrixStarAlgebra:
        return generate_algebra(_array_in(entry["generators"], (None, n, n), f"{where}.generators"), n, tol)

    def attempt(section: str, name: str, build: Callable[[str], str]) -> None:
        where = f"{path}: {section}.{name}"
        try:
            build(where)
        except (ParseError, ValidationError):  # these already name the field
            raise
        except ToolkitError as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    return _build(Instance(path, n, tol, declared, checks), generated, attempt)


def load(path: str) -> Instance:
    """Read, validate and build the instance file at ``path``.

    Raises ParseError for a malformed file and ValidationError for an
    object that does not build, each naming ``<path>: <section>.<name>``.
    """
    return _load(path, None)


# ---------------------------------------------------------------------------
# the echo in a report
# ---------------------------------------------------------------------------


def _instance_section(inst: Instance) -> dict:
    """Echo of the built instance, with orthonormal bases for round trips."""
    return {
        "path": inst.path,
        "ambient_dim": inst.ambient_dim,
        "algebras": {name: {"dim": a.dim, "basis": a.basis} for name, a in inst.algebras.items()},
        "states": {
            name: {"algebra": inst.declared["states"][name]["algebra"], "density": st.density}
            for name, st in inst.states.items()
        },
        "operations": {name: dict(inst.declared["operations"][name]) for name in inst.operations},
        "tolerances": {k: getattr(inst.tol, k) for k in _TOL_FIELDS},
    }


def _read_echo(doc: dict, where: str, tol: Tolerances, log: _VerifyLog) -> Instance:
    """Rebuild every object that a report's ``instance`` echo declares, one logged item each."""
    echo = _object(_require(doc, "instance", where), f"{where}: instance")
    n = _ambient_dim(echo, f"{where}: instance", ".")

    def revalidated(entry: dict, at: str) -> MatrixStarAlgebra:
        a = MatrixStarAlgebra(n, _array_in(entry["basis"], (None, n, n), f"{at}.basis"))
        a.validate(tol)
        if "dim" in entry:
            _check_recorded(entry, {"dim": a.dim}, tol)
        return a

    def attempt(section: str, name: str, build: Callable[[str], str]) -> None:
        log.attempt(f"{section[:-1]} {name}", lambda: build(f"instance.{section}.{name}"))

    return _build(Instance(where, n, tol, _sections(echo, f"{where}: instance.")), revalidated, attempt)


# ---------------------------------------------------------------------------
# the check kinds: runners and re-checks (see ``Check``)
# ---------------------------------------------------------------------------


def _echo(entry: dict) -> dict:
    """The seed (default 0) and the samples (default 50) that a seeded check echoes."""
    return {"seed": entry.get("seed", 0), "samples": entry.get("samples", 50)}


def _hierarchy(a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, entry: dict, tol: Tolerances) -> dict:
    report = run_hierarchy_checks(a1, a2, seed=entry.get("seed", 0), tol=tol)
    violations = [list(v) for v in implication_violations(report.verdicts)]
    return {**_echo(entry), "verdicts": report.verdicts, "notes": report.notes, "implication_violations": violations}


def _verdict(check: Callable, seeded: bool = False) -> Callable[[Any, Any, dict, Tolerances], dict]:
    """The runner of a single check; a seeded one draws from the entry's seed and echoes it."""
    if not seeded:
        return lambda a1, a2, entry, tol: {"verdict": check(a1, a2, tol)}
    return lambda a1, a2, entry, tol: {
        **_echo(entry), "verdict": check(a1, a2, rng=np.random.default_rng(entry.get("seed", 0)), tol=tol)}


def _extension(s1: AlgebraState, s2: AlgebraState, entry: dict, tol: Tolerances) -> dict:
    outcome = extend_state(s1, s2, tol=tol, max_iter=entry.get("max_iter", 20000))
    if outcome.status != "Feasible":
        return {"outcome": outcome}
    return {"outcome": outcome, "recomputed_marginal_residual": marginal_residual(outcome.density, (s1, s2))}


def _joint_extension(t1: Operation, t2: Operation, tol: Tolerances) -> tuple[dict, ChannelMap | None]:
    """The report entry of the joint extension of two operations, and the channel (None for a refusal).

    A refusal, any toolkit error but ``IllConditioned``, is recorded as the
    ``outcome`` by its error's name.
    """
    try:
        joint, residuals = _joint_operation(t1.channel, t2.channel, tol)
    except IllConditioned:
        raise
    except ToolkitError as exc:
        return {"outcome": type(exc).__name__, "diagnostic": str(exc)}, None
    return {"outcome": "Extended", "choi": choi(joint), **_map_fields(joint, residuals)}, joint


def _map_fields(joint: ChannelMap, residuals: dict[str, float]) -> dict:
    """What an ``Extended`` entry records of its map besides the Choi matrix."""
    return {"residuals": residuals, "completely_positive": joint.cp_certified, "unital": joint.unital,
            "faithful": joint.faithful}


def _product_transition(joint: ChannelMap, s1: AlgebraState, s2: AlgebraState, tol: Tolerances) -> dict:
    """``extend``'s section of a joint preparation: it sends every input to s1 (x) s2 iff ``product_residual`` is 0."""
    residual = _product_transition_residual(joint, s1, s2)
    return {"prescribed_values_1": s1.expect_basis(), "prescribed_values_2": s2.expect_basis(),
            "product_residual": residual, "matches_prescription": bool(residual <= tol.eps_verify)}


def _pair(objects: Callable[[], tuple], tol: Tolerances) -> _Pair | None:
    """The entry's algebra pair, or None if one did not rebuild (the status items still stand)."""
    try:
        return _Pair(*objects(), tol)
    except ValidationError:
        return None


def _recheck_hierarchy(entry: dict, at: str, target: str, objects: Callable, tol: Tolerances, log: _VerifyLog) -> None:
    verdicts = _object(_require(entry, "verdicts", at), f"{at}.verdicts")
    vdocs = {key: _object(vdoc, f"{at}.verdicts.{key}") for key, vdoc in verdicts.items()}
    recorded = _require(entry, "implication_violations", at)
    log.attempt(f"{target} implications", lambda: _check_implications(verdicts, recorded))
    _verify_verdicts(f"{target} ", vdocs, _pair(objects, tol), log)


def _recheck_verdict(entry: dict, at: str, target: str, objects: Callable, tol: Tolerances, log: _VerifyLog) -> None:
    """Items ``checks[k] <kind> status`` and on: the verdict is keyed by its kind."""
    kind, vdoc = entry["check"], _object(_require(entry, "verdict", at), f"{at}.verdict")
    _verify_verdicts(target.removesuffix(kind), {kind: vdoc}, _pair(objects, tol), log)


def _recheck_outcome(label: str, check: Callable[[dict, Any, Any, Tolerances], str]) -> Callable[..., None]:
    """Re-check an entry with an ``outcome`` object by ``check(entry, x1, x2, tol)``, as item ``<target><label>``."""

    def recheck(entry: dict, at: str, target: str, objects: Callable, tol: Tolerances, log: _VerifyLog) -> None:
        _object(_require(entry, "outcome", at), f"{at}.outcome")
        log.attempt(target + label, lambda: check(entry, *objects(), tol))

    return recheck


def _recheck_joint(section: dict, at: str, target: str, objects: Callable, tol: Tolerances, log: _VerifyLog) -> None:
    """Re-derive a joint extension entry (or ``extend``'s section) with the builder's code.

    ``Extended``: the map, rebuilt once from its Choi matrix, passes the
    builder's gate with the recorded residuals and flags, and gives the
    recorded ``product_transition`` with the echoed preparations.  Any other
    outcome names a refusal, which ``_joint_extension`` must give again: the
    error's name is the certificate, and the recorded ``diagnostic`` is only
    informational (the item prints the re-derived text), so an old report
    does not depend on today's wording.
    """
    outcome = _require(section, "outcome", at)

    @cache
    def joint() -> tuple[ChannelMap, dict[str, float]]:
        """The rebuilt map and its residuals, through the gate."""
        t1, t2 = (op.channel for op in objects())
        n = t1.in_dim
        action = map_from_choi(_array_in(section["choi"], (n * n, n * n), "choi"), n, n)
        channel = build_channel(full_matrix_algebra(n), n, action, tol)
        return channel, _joint_extension_gate(channel, t1, t2, tol)

    def extended() -> str:
        _check_recorded(section, _map_fields(*joint()), tol)
        return f"joint extension rebuilt from Choi matrix (max residual {max(joint()[1].values()):.3e})"

    def refusal() -> str:
        again = _joint_extension(*objects(), tol)[0]
        if again["outcome"] != outcome:
            raise ValidationError(f"the operations give {again['outcome']!r}, the report records {outcome!r}")
        return f"refusal {outcome} re-derived: {again['diagnostic']}"

    def transition() -> str:
        prep1, prep2 = (op.prep_state for op in objects())
        if prep1 is None or prep2 is None:
            raise ValidationError("product transition present but operations are not preparations")
        again = _product_transition(joint()[0], prep1, prep2, tol)
        if not again["product_residual"] <= tol.eps_verify:
            raise ValidationError(f"product residual {again['product_residual']:.3e} exceeds tolerance")
        _check_recorded(section["product_transition"], again, tol)
        return f"every input goes to the prescribed product (product residual {again['product_residual']:.3e})"

    if outcome != "Extended":
        log.attempt(target, refusal)
        return
    log.attempt(target, extended)
    if "product_transition" in section:
        log.attempt("product_transition", transition)


class Check(NamedTuple):
    """One check kind: the section its two names come from, its runner and its re-check.

    ``run(x1, x2, entry, tol)`` takes a check entry's two named objects and
    returns the fields it adds to the report entry.  ``recheck(entry, at,
    target, objects, tol, log)`` logs the items of that report entry, named
    ``target`` and after; ``objects()`` gives the two rebuilt objects or
    raises ValidationError naming one that did not rebuild.
    """

    section: str
    run: Callable[[Any, Any, dict, Tolerances], dict]
    recheck: Callable[[dict, str, str, Callable, Tolerances, _VerifyLog], None]


#: every check kind; the joint-operation row also serves ``extend``
CHECKS: dict[str, Check] = {
    "hierarchy": Check("algebras", _hierarchy, _recheck_hierarchy),
    "product_sense": Check("algebras", _verdict(check_product_sense), _recheck_verdict),
    "wstar_product_sense": Check("algebras", _verdict(check_wstar_product_sense), _recheck_verdict),
    "cstar_independence": Check("algebras", _verdict(check_cstar_independence, seeded=True), _recheck_verdict),
    "wstar_independence": Check("algebras", _verdict(check_wstar_independence, seeded=True), _recheck_verdict),
    "spatial_product_sense": Check("algebras", _verdict(check_spatial_product_sense), _recheck_verdict),
    "interpolating_factor": Check(
        "algebras", lambda a1, a2, entry, tol: {"outcome": find_interpolating_factor(a1, a2, tol)},
        _recheck_outcome(" factor", _check_factor_outcome)),
    "extend_state": Check("states", _extension, _recheck_outcome("", _check_extension)),
    "joint_operation": Check("operations", lambda t1, t2, entry, tol: _joint_extension(t1, t2, tol)[0], _recheck_joint),
}


def run_check(entry: dict, inst: Instance) -> dict:
    """The report entry of one check of ``inst``: its kind, its two names, and what its runner adds."""
    row, names = _check_entry(entry, inst.path, inst.declared)
    return {"check": entry["check"], row.section: names, **row.run(*inst.named(row.section, names), entry, inst.tol)}


def _check_entry(entry: Any, where: str, declared: dict[str, dict]) -> tuple[Check, list[str]]:
    """The row of a check entry's kind, and its two names, each declared in the row's section."""
    kind = _require(_object(entry, where), "check", where)
    if not (isinstance(kind, str) and kind in CHECKS):
        raise ParseError(f"{where}.check: unknown check '{kind}' (known: {', '.join(CHECKS)})")
    row = CHECKS[kind]
    return row, _two_names(entry, row.section, declared[row.section], row.section[:-1], where)


def _verify_analyze(doc: dict, where: str, tol: Tolerances, log: _VerifyLog) -> None:
    """Log the items of an ``analyze`` report: its echo, then each check entry by its row's re-check."""
    inst = _read_echo(doc, where, tol, log)
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ParseError(f"{where}: checks: must be a list")
    for idx, entry in enumerate(checks):
        at = f"{where}: checks[{idx}]"
        row, names = _check_entry(entry, at, inst.declared)
        row.recheck(entry, at, f"checks[{idx}] {entry['check']}", partial(inst.named, row.section, names), tol, log)


def _verify_extend(doc: dict, where: str, tol: Tolerances, log: _VerifyLog) -> None:
    """Log the items of an ``extend`` report: its echo, then its section by the joint-operation row's re-check.

    An ``Extended`` section of two preparations must carry its
    ``product_transition``; ``analyze``'s joint-operation entries never do,
    so the requirement is checked here and not in ``_recheck_joint``.
    """
    inst = _read_echo(doc, where, tol, log)
    at = f"{where}: joint_extension"
    section = _object(_require(doc, "joint_extension", where), at)
    names = _two_names(section, "operations", inst.declared["operations"], "operation", at)
    _recheck_joint(section, at, "joint_extension", partial(inst.named, "operations", names), tol, log)
    echoed = [_object(inst.declared["operations"][name], f"{where}: instance.operations.{name}") for name in names]
    preparations = all(entry.get("kind") == "state_prep" for entry in echoed)
    if section.get("outcome") == "Extended" and preparations and "product_transition" not in section:
        log.attempt("product_transition", _missing_transition)


def _missing_transition() -> str:
    raise ValidationError("missing: extend records it for every joint extension of two preparations")
