"""The three benchmark workloads.

A workload is a sequence of passes.  ``build(k)`` makes the inputs of
pass ``k`` from the workload seed alone; the harness calls it outside the
timed region, once per pass, so every pass decides freshly built algebra
objects and a per-object cache inside the program never turns a repeat
into a hit that a user would not get.  A pass is a list of ``Op``: a
``call`` that the harness times, and an ``inspect`` (untimed) that turns
the call's result into a verdict signature, a failure reason or ``None``,
and extra counts.  Calls reach the program through its modules
(``independence.run_hierarchy_checks``, ``cli.main``) at call time, so a
traced run sees them through the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from staralg import cli, independence, sampling

PRODUCT_FAMILY = ("cstar_product_sense", "wstar_product_sense", "op_cstar_product", "op_wstar_product")
BUNDLED = ("tensor_pair_m6", "split_pair_m6", "same_algebra_m2")
# Bound at import, before any tracing: checking an output is not the program's work.
implication_violations = independence.implication_violations


@dataclass
class Inspected:
    signature: Any
    failure: str | None = None
    counts: dict | None = None


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    inspect: Callable[[Any], Inspected]


def _child_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _statuses(report) -> tuple[str, ...]:
    return tuple(report.verdicts[k].status for k in independence.VERDICT_KEYS)


def _decide(a1, a2, seed: int) -> Callable[[], Any]:
    """One pair, decided as ``staralg fuzz`` decides it."""
    return lambda: independence.run_hierarchy_checks(
        a1, a2, seed=seed, samples=12, op_samples=2
    )


def _pair_inspector(known: Callable[[dict], str | None]) -> Callable[[Any], Inspected]:
    def inspect(report) -> Inspected:
        sig = _statuses(report)
        verdicts = dict(zip(independence.VERDICT_KEYS, sig))
        if implication_violations(report.verdicts):
            return Inspected(sig, "implication table violated")
        return Inspected(sig, known(verdicts))

    return inspect


class Ladder:
    """Haar-conjugated tensor pairs at ambient n = 6, 9, 12; one of each per pass."""

    name = "ladder"
    time_unit = "pass"
    RUNGS = ((2, 3), (3, 3), (3, 4))

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed

    @staticmethod
    def _all_hold(v: dict) -> str | None:
        bad = sorted(k for k, s in v.items() if s != "Holds")
        return f"expected Holds, got {bad}" if bad else None

    def build(self, k: int) -> list[Op]:
        ops = []
        for d1, d2 in self.RUNGS:
            n = d1 * d2
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, k, n]))
            pair = sampling.tensor_pair(d1, d2, rng)
            ops.append(
                Op(f"n{n}", _decide(pair.a1, pair.a2, _child_seed(self.seed, k, n)),
                   _pair_inspector(self._all_hold))
            )
        return ops

    @staticmethod
    def summary(passes) -> dict:
        by_rung: dict[str, list[float]] = {}
        for label, dt, _ in (op for p in passes for op in p):
            by_rung.setdefault(label, []).append(dt)
        return {f"hierarchy_s.{label}": median_record(v, "s") for label, v in by_rung.items()}


class RefusalSweep:
    """haar_overlap and shared_block fuzz pairs, ten of each per pass."""

    name = "refusal_sweep"
    time_unit = "pair"
    FAMILIES = ("haar_overlap", "shared_block")
    PER_FAMILY = 10

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed

    @staticmethod
    def _known(family: str) -> Callable[[dict], str | None]:
        def known(v: dict) -> str | None:
            if family == "shared_block":
                bad = [k for k in ("cstar_independent", "wstar_independent") if v[k] != "Fails"]
                return f"expected Fails on {bad}" if bad else None
            if v["split"] != "Fails":
                return "expected split to fail on a non-commuting pair"
            bad = [k for k in PRODUCT_FAMILY if v[k] != "Undecided"]
            return f"product-sense family not marked not applicable: {bad}" if bad else None

        return known

    def build(self, k: int) -> list[Op]:
        pass_seed = _child_seed(self.seed, k)
        ops = []
        for family in self.FAMILIES:
            check = _pair_inspector(self._known(family))
            for idx, inst in enumerate(sampling.fuzz_instances(family, self.PER_FAMILY, pass_seed)):
                ops.append(Op(family, _decide(inst.a1, inst.a2, _child_seed(pass_seed, idx)), check))
        return ops

    @staticmethod
    def summary(passes) -> dict:
        times = [dt for p in passes for _, dt, _ in p]
        pct, tail = tail_of(times)
        return {
            "pairs_per_s": {"value": len(times) / sum(times), "unit": "1/s", "n": len(times)},
            "pair_p50_s": median_record(times, "s"),
            "pair_tail_s": {"value": tail, "unit": "s", "n": len(times), "percentile": pct},
        }


class CliRoundtrip:
    """The CLI verbs in-process: produce reports, then re-validate them and the goldens."""

    name = "cli_roundtrip"
    time_unit = "pass"

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed = seed
        self.instances = root / "instances"
        self.golden = self.instances / "golden"
        self.work = work
        self.expected = {
            name: _analyze_statuses(json.loads((self.golden / f"{name}.report.json").read_text()))
            for name in BUNDLED
        }

    def _verb(self, label: str, argv: list[str], inspect) -> Op:
        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        return Op(label, call, inspect)

    def build(self, k: int) -> list[Op]:
        seed = str(_child_seed(self.seed, k))
        tensor = str(self.instances / "tensor_pair_m6.json")
        produce = [
            (f"analyze {name}", name, ["analyze", str(self.instances / f"{name}.json"), "--seed", seed])
            for name in BUNDLED
        ] + [
            ("extend prep", "extend_prep", ["extend", tensor, "prep_left", "prep_right", "--seed", seed]),
            ("extend measure", "extend_measure", ["extend", tensor, "measure_left", "rotate_right", "--seed", seed]),
            ("fuzz", "fuzz", ["fuzz", "tensor_split", "5", "--seed", "7", "--samples", "4"]),
        ]
        for stale in self.work.glob("*.json"):
            stale.unlink()
        ops, reports = [], []
        for label, name, argv in produce:
            out = self.work / f"{name}.json"
            reports.append(out)
            ops.append(self._verb(label, argv + ["--out", str(out)], self._produced(out, self.expected.get(name))))
        for i, src in enumerate(reports + sorted(self.golden.glob("*.report.json"))):
            audit = self.work / f"verify_{i}.json"
            ops.append(self._verb("verify-report", ["verify-report", str(src), "--out", str(audit)],
                                  self._verified(audit)))
        return ops

    @staticmethod
    def summary(passes) -> dict:
        report = [sum(dt for label, dt, _ in p if label != "verify-report") for p in passes]
        verify = [sum(dt for label, dt, _ in p if label == "verify-report") for p in passes]
        return {"report_s": median_record(report, "s"), "verify_s": median_record(verify, "s")}

    @staticmethod
    def _produced(out: Path, expected: list | None):
        def inspect(rc) -> Inspected:
            if rc != 0:
                return Inspected(rc, f"exit code {rc}")
            doc = json.loads(out.read_text())
            sig = _analyze_statuses(doc) if doc["command"] == "analyze" else doc["command"]
            failure = None
            if expected is not None and sig != expected:
                failure = "analyze statuses differ from the golden report"
            elif doc["command"] == "fuzz" and doc["aggregate"]["implication_violation_count"]:
                failure = "fuzz sweep reports implication violations"
            return Inspected(sig, failure, {"report_bytes": out.stat().st_size})

        return inspect

    @staticmethod
    def _verified(audit: Path):
        def inspect(rc) -> Inspected:
            doc = json.loads(audit.read_text())
            items = doc["items"]
            bad = [item["target"] for item in items if not item["ok"]]
            failure = f"exit code {rc}, failing items {bad}" if rc != 0 or bad or not items else None
            return Inspected((rc, len(items)), failure, {"verify_items": len(items)})

        return inspect


def _analyze_statuses(doc: dict) -> list:
    """Per check: verdict statuses (hierarchy) or the outcome status."""
    out = []
    for check in doc["checks"]:
        if "verdicts" in check:
            out.append({k: v["status"] for k, v in check["verdicts"].items()})
        elif "verdict" in check:
            out.append(check["verdict"]["status"])
        elif isinstance(check.get("outcome"), dict):
            out.append(check["outcome"].get("status"))
        else:
            out.append(check.get("outcome"))
    return out


def median_record(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def tail_of(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With ten samples or fewer no percentile qualifies, and the slowest
    sample stands in for the tail (reported as percentile 100).
    """
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def verdict_table(passes) -> dict:
    """Counts of each status per op label and verdict key."""
    table: dict = {}
    for label, _, ins in (op for p in passes for op in p):
        sig = ins.signature
        if isinstance(sig, tuple) and len(sig) == len(independence.VERDICT_KEYS):
            rows = [dict(zip(independence.VERDICT_KEYS, sig))]
        elif isinstance(sig, list):
            rows = [row for row in sig if isinstance(row, dict)]
        else:
            continue
        for row in rows:
            for key, status in row.items():
                cell = table.setdefault(label, {}).setdefault(key, {})
                cell[status] = cell.get(status, 0) + 1
    return table


WORKLOADS = {w.name: w for w in (Ladder, RefusalSweep, CliRoundtrip)}
