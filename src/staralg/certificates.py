"""The certificate format: how evidence is encoded, decoded and re-checked.

A certificate (``Holds``) or witness (``Fails``) is an object whose ``kind``
names one row of ``KINDS``: the status it supports, the label of its item,
and its re-check, which decodes the recorded fields and calls the library
function that built them.  ``check_verdicts`` re-checks ``Verdict`` objects
or decoded report verdicts; ``staralg verify-report`` logs the same items.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .algebra import MatrixStarAlgebra, full_matrix_algebra
from .errors import ParseError, ToolkitError, ValidationError
from .independence import (
    FactorSearchOutcome,
    InterpolatingFactor,
    PairPosition,
    Verdict,
    VerdictStatus,
    _factor_search,
    implication_violations,
    verify_faithful_product_state,
    verify_interpolating_factor,
    verify_noncommuting_elements,
)
from .numerics import DEFAULT_TOL, Tolerances
from .states import AlgebraState, ExtensionOutcome, marginal_residual, state_from_density, verify_separating_pair

__all__ = ["Kind", "KINDS", "EVIDENCE_STATUS", "check_verdicts"]


# ---------------------------------------------------------------------------
# encoding and decoding
# ---------------------------------------------------------------------------


def _array_out(a: np.ndarray) -> Any:
    """Nested ``[re, im]`` lists in one numpy call; an entry with a non-finite part is null."""
    out = np.stack((a.real, a.imag), -1).tolist()
    if a.ndim == 0:
        return out if np.isfinite(a) else None
    for *path, last in np.argwhere(~np.isfinite(a)).tolist():
        reduce(list.__getitem__, path, out)[last] = None
    return out


def _jsonable(x: Any) -> Any:
    """Recursively convert toolkit objects to plain JSON data.

    Complex entries become ``[re, im]`` pairs; non-finite floats become
    null; matrices stay nested lists so certificates remain auditable by
    other tools.
    """
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, complex):
        return _array_out(np.asarray(x))
    if isinstance(x, np.generic):  # numpy scalars: their Python counterparts
        return _jsonable(x.item())
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "iub":
            return x.tolist()
        return _array_out(np.asarray(x, dtype=complex))
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (Verdict, FactorSearchOutcome, InterpolatingFactor)):  # the fields that are set
        return {f.name: _jsonable(v) for f in fields(x) if (v := getattr(x, f.name)) is not None}
    if isinstance(x, ExtensionOutcome):  # every field, null where unset
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, AlgebraState):
        return {"density": _jsonable(x.density)}
    raise TypeError(f"cannot serialize object of type {type(x).__name__}")


def _array_in(node: Any, shape: tuple[int | None, ...], where: str) -> np.ndarray:
    """Decode a matrix of ``shape`` (rows, cols), or a non-empty stack of them for (None, rows, cols).

    Every entry is a finite number, or every entry a finite ``[re, im]``
    pair, read bit for bit as ``complex(re, im)``.  Anything else, ``null``
    (the encoder's mark of a non-finite entry) included, raises ParseError
    naming the first bad entry; only then are the entries walked one by one.
    """
    try:
        arr = np.array(node)
    except ValueError:  # ragged rows, or numbers mixed with pairs
        arr = np.array(None)
    ndim = len(shape)
    fits = arr.ndim >= ndim and arr.shape[ndim:] in ((), (2,)) and all(
        size == want or (want is None and size > 0) for size, want in zip(arr.shape, shape))
    if not (fits and arr.dtype.kind in "biuf" and np.isfinite(arr).all()):
        _raise_bad_entry(node, shape, where)
        arr = np.array(node, dtype=float)  # the walk passed: integers beyond 64 bits
    if arr.ndim > ndim:
        return arr.astype(float).view(np.complex128)[..., 0]
    return arr.astype(complex)


def _raise_bad_entry(node: Any, shape: tuple[int | None, ...], where: str) -> None:
    """The walk of :func:`_array_in`: raise ParseError at the first entry that breaks its format."""
    rows, cols = shape[-2:]
    mats = [(where, node)]
    if len(shape) == 3:
        if not isinstance(node, list) or not node:
            raise ParseError(f"{where}: expected a non-empty list of matrices")
        mats = [(f"{where}[{k}]", m) for k, m in enumerate(node)]
    forms = set()
    for at, m in mats:
        if not isinstance(m, list) or len(m) != rows:
            raise ParseError(f"{at}: expected a {rows}x{cols} matrix (list of {rows} rows)")
        for i, row in enumerate(m):
            if not isinstance(row, list) or len(row) != cols:
                raise ParseError(f"{at}: row {i} must be a list of {cols} entries")
            for j, v in enumerate(row):
                parts = v if isinstance(v, list) and len(v) == 2 else [v]
                if not all(isinstance(x, (int, float)) for x in parts):
                    raise ParseError(f"{at}[{i}][{j}]: matrix entry must be a number or an [re, im] pair")
                if not all(abs(x) <= float(np.finfo(float).max) for x in parts):  # NaN, inf, huge integers
                    text = repr(v) if len(repr(v)) <= 40 else f"{repr(v)[:37]}... ({type(v).__name__})"
                    raise ParseError(f"{at}[{i}][{j}]: matrix entry {text} is not finite")
                forms.add(len(parts))
                if len(forms) > 1:
                    raise ParseError(f"{at}[{i}][{j}]: a matrix mixes numbers and [re, im] pairs")


def _is_int(value: Any) -> bool:
    """An integer that is not a bool (bool subclasses int in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_recorded(recorded: Any, derived: Mapping[str, Any], tol: Tolerances) -> None:
    """Each re-derived field equals the one ``recorded`` under its key: floats within eps_verify, the rest exactly.

    Fields are compared as a report encodes them, dicts key by key and
    lists (vectors of ``[re, im]`` pairs) entry by entry; the first field
    that differs, is missing or has another type fails, by name.
    """
    _check_field("", recorded, _jsonable(dict(derived)), tol.eps_verify)


def _check_field(name: str, recorded: Any, derived: Any, eps: float) -> None:
    if isinstance(derived, (dict, list)):
        if isinstance(derived, list) and not (isinstance(recorded, list) and len(recorded) == len(derived)):
            raise ValidationError(f"recorded {name} is not a list of {len(derived)} entries")
        for key, value in derived.items() if isinstance(derived, dict) else enumerate(derived):
            _check_field(key if isinstance(key, str) else f"{name}[{key}]", recorded[key], value, eps)
        return
    if isinstance(derived, float):
        same = type(recorded) in (int, float) and abs(recorded - derived) <= eps  # a bool is no number
    else:  # a flag or a count, of the same type; a non-finite number is encoded as null and matches nothing
        same = derived is not None and type(recorded) is type(derived) and recorded == derived
    if not same:
        raise ValidationError(f"recorded {name} {recorded!r}, recomputed {derived!r}")


# ---------------------------------------------------------------------------
# the re-check of each kind
# ---------------------------------------------------------------------------


@dataclass
class _VerifyLog:
    items: list[dict] = field(default_factory=list)

    def attempt(self, target: str, fn: Callable[[], str]) -> bool:
        """Log the outcome of one re-check; return whether it passed."""
        try:
            with np.errstate(all="ignore"):  # an overflow gives inf or NaN, which fails every `not worst <= bound`
                detail, ok = fn(), True
        except ToolkitError as exc:
            detail, ok = f"{type(exc).__name__}: {exc}", False
        except (KeyError, TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
            detail, ok = f"malformed certificate ({type(exc).__name__}: {exc})", False
        self.items.append({"target": target, "ok": ok, "detail": detail})
        return ok


@dataclass(eq=False)
class _Pair(PairPosition):
    """The position of one check entry's algebra pair, and the verdicts re-checked on it as refusals.

    The position is re-derived once per entry, by the code that decided the verdicts.
    """

    refusals: dict[str, bool] = field(default_factory=dict)


def _check_implied(cert: dict, pair: _Pair) -> str:
    """The pair's re-derived cell table has no zero cell."""
    if pair.zero_cells:
        raise ValidationError(f"the re-derived cell table has zero cells {pair.zero_cells}")
    return f"cell table {pair.mu.tolist()} re-derived from the pair has no zero cell"


def _check_isomorphism(cert: dict, pair: _Pair) -> str:
    pair.check_table(cert["mu"])
    _check_recorded(cert, pair.dims, pair.tol)
    return _check_implied(cert, pair)


def _check_factor(fdoc: dict, pair: _Pair) -> str:
    n = pair.a1.ambient_dim
    factor = verify_interpolating_factor(
        _array_in(fdoc["unitary"], (n, n), "factor.unitary"), fdoc["d1"], fdoc["d2"], pair.a1, pair.a2, pair.tol
    )
    _check_recorded(fdoc["residuals"], factor.residuals, pair.tol)
    worst = max(factor.residuals.values())
    return f"interpolating factor revalidated (max residual {worst:.3e})"


def _check_product_state(cert: dict, pair: _Pair) -> str:
    density = _array_in(cert["density"], (pair.a1.ambient_dim,) * 2, "density")
    residual = verify_faithful_product_state(density, pair.a1, pair.a2, pair.tol)
    recomputed = {"dim_join": pair.dims["dim_join"], "product_residual": residual, "faithful": True}
    _check_recorded(cert, recomputed, pair.tol)
    return f"full-rank product of the tracial states (product residual {residual:.3e})"


def _check_zero_cell(cert: dict, pair: _Pair, with_dims: bool = False) -> str:
    z1, z2 = (_array_in(cert[key], (pair.a1.ambient_dim,) * 2, key) for key in ("projection1", "projection2"))
    pair.check_zero_cell(cert["cell"], cert["mu"], z1, z2)
    if with_dims:
        _check_recorded(cert, {**pair.dims, "deficit": pair.deficit}, pair.tol)
    return f"zero cell {cert['cell']} of the cell table re-derived from the pair"


def _check_no_factor(cert: dict, pair: _Pair) -> str:
    pair.check_table(cert["mu"])
    return f"re-derived cell table {pair.mu.tolist()}: {_check_not_found(pair)}"


def _check_not_found(pair: _Pair) -> str:
    """The factor search, re-run on the pair's position, finds no factor; its reason."""
    again = _factor_search(pair)
    if again.status != "NotFound":
        raise ValidationError("the factor search finds a factor for the pair")
    return again.reason


def _check_factor_outcome(entry: dict, a1: MatrixStarAlgebra, a2: MatrixStarAlgebra, tol: Tolerances) -> str:
    """An ``interpolating_factor`` entry's outcome: a recorded factor, or a NotFound the search, re-run, gives again."""
    outcome, pair = entry["outcome"], _Pair(a1, a2, tol)
    if outcome["status"] == "Found":
        return _check_factor(outcome["factor"], pair)
    if outcome["status"] != "NotFound":
        raise ValidationError(f"unknown status {outcome['status']!r}")
    return _check_not_found(pair)


def _check_separating_pair(cert: dict, s1: AlgebraState, s2: AlgebraState, tol: Tolerances) -> str:
    """A refusal of the marginal pair (s1, s2): a separating pair with its recorded gap."""
    kind = cert["kind"]
    if not (isinstance(kind, str) and kind in KINDS and KINDS[kind].check is _check_refusal):
        raise ValidationError(f"a {kind!r} certificate is no refusal")
    h1, h2 = (_array_in(cert[key], (s1.algebra.ambient_dim,) * 2, key) for key in ("h1", "h2"))
    gap = verify_separating_pair(h1, h2, s1, s2, tol)
    _check_recorded(cert, {"gap": gap}, tol)
    return f"separating pair with gap {gap:.3e} above the margin"


def _check_refusal(cert: dict, pair: _Pair) -> str:
    """A separating pair, against the refused marginals it records."""
    w1, w2 = cert["witness_states"]
    n = pair.a1.ambient_dim
    s1 = state_from_density(pair.a1, _array_in(w1["density"], (n, n), "witness_states[0].density"), pair.tol)
    s2 = state_from_density(pair.a2, _array_in(w2["density"], (n, n), "witness_states[1].density"), pair.tol)
    return _check_separating_pair(cert, s1, s2, pair.tol)


def _check_noncommuting(cert: dict, pair: _Pair) -> str:
    x, y = (_array_in(cert[key], (pair.a1.ambient_dim,) * 2, key) for key in ("element1", "element2"))
    norm = verify_noncommuting_elements(x, y, pair.a1, pair.a2, pair.tol)
    _check_recorded(cert, {"commutator_norm": norm}, pair.tol)
    return f"elements of the two algebras with commutator entry {norm:.3e}"


def _check_reference(cert: dict, pair: _Pair) -> str:
    """The referenced verdict of the entry is a refusal whose own item re-checked ok."""
    if not pair.refusals.get(cert["plain"]):
        raise ValidationError(f"{cert['plain']!r} is not a re-checked refusal of this entry")
    return f"refers to the refusal of {cert['plain']}"


class Kind(NamedTuple):
    """One evidence kind: the status it supports, its item label and its re-check."""

    status: VerdictStatus
    label: str
    check: Callable[[dict, _Pair], str]


#: every evidence kind; an Undecided verdict carries a reason and no evidence
KINDS: dict[str, Kind] = {
    "product_isomorphism": Kind("Holds", "isomorphism", _check_isomorphism),
    "implied_by_product_isomorphism": Kind("Holds", "product isomorphism", _check_implied),
    "faithful_product_state": Kind("Holds", "product state", _check_product_state),
    "factorizing_unitary": Kind("Holds", "factor", lambda cert, pair: _check_factor(cert["factor"], pair)),
    "dimension_deficit": Kind("Fails", "dimensions", lambda cert, pair: _check_zero_cell(cert, pair, True)),
    "separating_pair": Kind("Fails", "refusal", _check_refusal),
    "multiplication_relation": Kind("Fails", "relation", _check_zero_cell),
    "product_position_failure": Kind("Fails", "zero cell", _check_zero_cell),
    "normal_marginal_pair": Kind("Fails", "reference", _check_reference),
    "state_preparation_pair": Kind("Fails", "reference", _check_reference),
    "no_interpolating_factor": Kind("Fails", "cell table", _check_no_factor),
    "noncommuting_elements": Kind("Fails", "elements", _check_noncommuting),
}

EVIDENCE_STATUS: dict[str, VerdictStatus] = {kind: row.status for kind, row in KINDS.items()}


# ---------------------------------------------------------------------------
# verdicts, the implication audit and state extensions
# ---------------------------------------------------------------------------

#: the field a verdict of each status must carry
_EVIDENCE_FIELD = {"Holds": "certificate", "Fails": "witness", "Undecided": "reason"}


def _check_status(vdoc: dict) -> str:
    """The recorded status must carry its evidence, of a kind that supports it."""
    status = vdoc["status"]
    if status not in _EVIDENCE_FIELD:
        raise ValidationError(f"unknown status {status!r}")
    if not vdoc.get(_EVIDENCE_FIELD[status]):
        raise ValidationError(f"{status} verdict without a {_EVIDENCE_FIELD[status]}")
    kinds = [vdoc[key]["kind"] for key in ("certificate", "witness") if vdoc.get(key) is not None]
    for kind in kinds:
        if EVIDENCE_STATUS.get(kind) != status:
            raise ValidationError(f"a {kind!r} cannot support {status}")
    return f"{status} carried by {', '.join(kinds) or 'its reason'}"


def _check_implications(verdicts: dict[str, dict], recorded: Any) -> str:
    """The implication audit, re-run on the recorded statuses."""
    violations = implication_violations({key: Verdict(v["status"]) for key, v in verdicts.items()})
    if violations:
        raise ValidationError(
            "recorded statuses violate " + ", ".join(f"{p} => {q}" for p, q in violations)
        )
    if recorded:
        raise ValidationError(f"report records implication violations {recorded}")
    return "recorded statuses satisfy the implication table"


def _verify_verdicts(prefix: str, vdocs: dict[str, dict], pair: _Pair | None, log: _VerifyLog) -> None:
    """Log the status item of each verdict, then re-check its evidence on ``pair`` if it rebuilt.

    Items are named ``<prefix><key> <status or label>``.  References are
    re-checked last, against the refusals re-checked before them.
    """
    for key, vdoc in vdocs.items():
        log.attempt(f"{prefix}{key} status", lambda: _check_status(vdoc))
    if pair is None:
        return
    evidence = []
    for key, vdoc in vdocs.items():
        cert = vdoc.get("certificate") or vdoc.get("witness")
        kind = cert.get("kind") if isinstance(cert, dict) else None
        if isinstance(kind, str) and kind in KINDS:
            evidence.append((key, vdoc.get("status") == "Fails", cert, *KINDS[kind][1:]))
    for key, fails, cert, label, check in sorted(evidence, key=lambda e: e[4] is _check_reference):
        ok = log.attempt(f"{prefix}{key} {label}", lambda: check(cert, pair))
        pair.refusals[key] = ok and fails and check is _check_refusal


def check_verdicts(
    verdicts: Mapping[str, Verdict | dict],
    a1: MatrixStarAlgebra,
    a2: MatrixStarAlgebra,
    tol: Tolerances = DEFAULT_TOL,
) -> list[dict]:
    """Re-check the verdicts of the pair (a1, a2), keyed by notion; one item per re-check.

    A ``Verdict`` is encoded first, as a report records it.  The items are
    ``{"target", "ok", "detail"}``: ``<key> status`` for each verdict, then
    ``<key> <label>`` for each evidence of a kind in ``KINDS``, references
    last.  ``staralg verify-report`` logs them with the check entry's name
    in front, after a hierarchy's ``implications`` item.
    """
    log = _VerifyLog()
    vdocs = {key: _jsonable(v) if isinstance(v, Verdict) else v for key, v in verdicts.items()}
    _verify_verdicts("", vdocs, _Pair(a1, a2, tol), log)
    return log.items


def _check_extension(entry: dict, s1: AlgebraState, s2: AlgebraState, tol: Tolerances) -> str:
    """An ``extend_state`` entry's outcome for the marginals (s1, s2): a joint density or a refusal.

    A density's marginal residual, re-derived, is the recorded one; both it and the solver's are within eps_verify.
    """
    outcome = entry["outcome"]
    status = outcome["status"]
    if status == "InfeasibleCertified":
        return _check_separating_pair(outcome["certificate"], s1, s2, tol)
    if status == "Undecided":
        return "status Undecided: nothing to re-validate"
    if status != "Feasible":
        raise ValidationError(f"unknown status {status!r}")
    n = s1.algebra.ambient_dim
    joint = state_from_density(full_matrix_algebra(n), _array_in(outcome["density"], (n, n), "density"), tol)
    res = marginal_residual(joint.density, (s1, s2))
    if not res <= tol.eps_verify:
        raise ValidationError(f"marginal residual {res:.3e} exceeds tolerance")
    _check_recorded(entry, {"recomputed_marginal_residual": res}, tol)
    solver = outcome["residual"]
    if not (type(solver) in (int, float) and abs(solver) <= tol.eps_verify):
        raise ValidationError(f"recorded solver residual {solver!r} exceeds tolerance")
    return f"joint density PSD with marginal residual {res:.3e}"
