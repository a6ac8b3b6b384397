"""The instance format: how an instance file is read, echoed and read back.

An instance file declares, by name, subalgebras of M_n by their generators,
states on them by densities, and operations on them (Kraus, Lüders or
state preparation), plus the checks to run and the tolerances.  Every
matrix is decoded by ``certificates._array_in``.  ``load(path)`` validates
the file and builds each object.  A report echoes the built instance
(``_instance_section``), each algebra as its orthonormal basis, and
``verify-report`` reads that echo back (``_read_echo``) through the same
builder, logging one item per object.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .algebra import MatrixStarAlgebra, full_matrix_algebra, generate_algebra
from .certificates import _array_in, _is_int, _VerifyLog
from .channels import ChannelMap, ProjectiveMeasurement, channel_on_algebra
from .errors import ParseError, ToolkitError, ValidationError
from .independence import state_preparation
from .numerics import Tolerances
from .states import AlgebraState, state_from_density

__all__ = ["Instance", "Operation", "load"]

SCHEMA_VERSION = 1

#: the sections of named objects, in build order
SECTIONS = ("algebras", "states", "operations")

#: each check kind, and the section its two names come from
_CHECK_SECTIONS = {
    "hierarchy": "algebras",
    "product_sense": "algebras",
    "wstar_product_sense": "algebras",
    "cstar_independence": "algebras",
    "wstar_independence": "algebras",
    "spatial_product_sense": "algebras",
    "interpolating_factor": "algebras",
    "extend_state": "states",
    "joint_operation": "operations",
}

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


def _operation(entry: dict, a: MatrixStarAlgebra, n: int, tol: Tolerances, where: str) -> Operation:
    """The operation of an entry on its algebra ``a`` (M_n for one that names none)."""
    mats = _operation_matrices(entry, n, where)
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
        if name not in inst.algebras:  # only an echo's algebra can fail and leave the build going
            raise ValidationError(f"algebra {name} did not rebuild; see its own item")
        return inst.algebras[name]

    def state(name: str, entry: dict, where: str) -> str:
        a = built(entry["algebra"], where)
        inst.states[name] = state_from_density(a, _array_in(entry["density"], (n, n), f"{where}.density"), tol)
        return "density revalidated"

    def operation(name: str, entry: dict, where: str) -> str:
        alg_name = entry.get("algebra")
        a = full_matrix_algebra(n) if alg_name is None else built(alg_name, where)
        op = inst.operations[name] = _operation(entry, a, n, tol, where)
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
        kind = _require(entry, "check", where)
        if not (isinstance(kind, str) and kind in _CHECK_SECTIONS):
            raise ParseError(f"{where}.check: unknown check '{kind}' (known: {', '.join(_CHECK_SECTIONS)})")
        section = _CHECK_SECTIONS[kind]
        _two_names(entry, section, declared[section], section[:-1], where)
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
        return a

    def attempt(section: str, name: str, build: Callable[[str], str]) -> None:
        log.attempt(f"{section[:-1]} {name}", lambda: build(f"instance.{section}.{name}"))

    return _build(Instance(where, n, tol, _sections(echo, f"{where}: instance.")), revalidated, attempt)
