"""Command-line verbs: analyze, extend, fuzz, and verify-report.

The golden files under instances/golden/ version the report schema.
They are compared structurally (same shape, same statuses, numerics
within tolerance) rather than byte-for-byte, because bitwise floating
point output is only stable within one build environment; bitwise
determinism is asserted run-to-run in this environment instead, and
structural equality across BLAS thread counts (every serialized algebra
basis is in the canonical gauge of its span).

Regenerate the goldens from the repository root, at any BLAS thread
count, after a deliberate change to the report format or the numbers in it:

    PYTHONPATH=src python -m staralg.cli analyze instances/tensor_pair_m6.json --out instances/golden/tensor_pair_m6.report.json
    PYTHONPATH=src python -m staralg.cli analyze instances/same_algebra_m2.json --out instances/golden/same_algebra_m2.report.json
    PYTHONPATH=src python -m staralg.cli analyze instances/split_pair_m6.json --seed 42 --out instances/golden/split_pair_m6.report.json
    PYTHONPATH=src python -m staralg.cli extend instances/tensor_pair_m6.json prep_left prep_right --out instances/golden/tensor_prep_extend.report.json
    PYTHONPATH=src python -m staralg.cli fuzz tensor_split 5 --seed 7 --samples 4 --out instances/golden/fuzz_tensor_split_5_seed7.report.json

then check each with ``staralg verify-report`` and re-run the suite.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import array_from_json, array_to_json
import reference
import staralg
from staralg import certificates, cli, independence, instances, states
from staralg.cli import main
from staralg.numerics import haar_unitary

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"
GOLDEN = INSTANCES / "golden"
# the package under test, so subprocesses import the same source
PACKAGE_ROOT = Path(staralg.__file__).resolve().parent.parent

# the commands that produced the analyze and extend goldens
GOLDEN_COMMANDS = {
    "tensor_pair_m6": ["analyze", "instances/tensor_pair_m6.json"],
    "same_algebra_m2": ["analyze", "instances/same_algebra_m2.json"],
    "split_pair_m6": ["analyze", "instances/split_pair_m6.json", "--seed", "42"],
    "tensor_prep_extend": [
        "extend", "instances/tensor_pair_m6.json", "prep_left", "prep_right",
    ],
}


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    # bundled instance paths are repo-relative, and reports echo them
    monkeypatch.chdir(REPO)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out), "--json"])
    return code, json.loads(out.read_text())


def pair_report(inst, tmp_path, name):
    """Analyze report of a fuzz pair, its algebras given by their bases: the path and the parsed report."""
    instance = tmp_path / f"{name}.json"
    instance.write_text(json.dumps({
        "schema_version": 1,
        "ambient_dim": inst.a1.ambient_dim,
        "algebras": {
            "left": {"generators": array_to_json(inst.a1.basis)},
            "right": {"generators": array_to_json(inst.a2.basis)},
        },
    }))
    code, doc = run_json(["analyze", str(instance)], tmp_path, f"{name}.report.json")
    assert code == 0
    return tmp_path / f"{name}.report.json", doc


def overlap_report(tmp_path):
    """Analyze report of a haar_overlap pair: the path, the parsed report and the pair."""
    inst = staralg.fuzz_instances("haar_overlap", 1, 1)[0]
    return (*pair_report(inst, tmp_path, "overlap"), inst)


def assert_structurally_equal(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert set(got) == set(want), f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            assert_structurally_equal(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list), path
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_structurally_equal(g, w, f"{path}[{i}]")
    elif isinstance(want, bool) or want is None or isinstance(want, (str, int)):
        assert got == want, f"{path}: {got!r} != {want!r}"
    else:
        assert abs(got - want) <= 1e-6 + 1e-6 * abs(want), f"{path}: {got} != {want}"


# (field named in the error, path of the edit, bad value): names that are
# not strings, bools where an integer or a tolerance is expected, and
# matrix entries that are not finite numbers or pairs (json reads NaN and
# Infinity), short rows and a matrix that mixes numbers with pairs
MALFORMED_FIELDS = [
    ("states.phi_left.algebra", ("states", "phi_left", "algebra"), []),
    ("operations.prep_left.algebra", ("operations", "prep_left", "algebra"), {"a": 1}),
    ("checks[0].algebras", ("checks", 0, "algebras"), [[], "right"]),
    ("checks[1].states", ("checks", 1, "states"), ["phi_left", []]),
    ("checks[2].operations", ("checks", 2, "operations"), [{"a": 1}, "rotate_right"]),
    ("ambient_dim", ("ambient_dim",), True),
    ("checks[0].samples", ("checks", 0, "samples"), True),
    ("checks[0].op_samples", ("checks", 0, "op_samples"), True),
    ("checks[0].seed", ("checks", 0, "seed"), False),
    ("checks[0].max_iter", ("checks", 0, "max_iter"), True),
    ("tolerances.eps_verify", ("tolerances",), {"eps_verify": True}),
    ("algebras.left.generators[0][0][3]", ("algebras", "left", "generators", 0, 0, 3), [float("nan"), 0.0]),
    ("operations.rotate_right.kraus[0][0][0]", ("operations", "rotate_right", "kraus", 0, 0, 0), float("inf")),
    ("states.phi_left.density[1][2]: matrix entry must be", ("states", "phi_left", "density", 1, 2), None),
    ("operations.prep_left.density[0][0]: matrix entry must be", ("operations", "prep_left", "density", 0, 0), "0.5"),
    ("algebras.right.generators[0][1][1]", ("algebras", "right", "generators", 0, 1, 1), [10**400, 0.0]),
    ("states.phi_right.density: row 3 must be a list of 6 entries", ("states", "phi_right", "density", 3), [[0.0, 0.0]] * 5),
    ("operations.measure_left.projections[1][2][2]: a matrix mixes", ("operations", "measure_left", "projections", 1, 2, 2), 0.0),
    ("tolerances.eps_verify: must be a positive number", ("tolerances",), {"eps_verify": 10**400}),
]


# (field named in the error, golden report edited, path of the edit, bad
# value): shapes that verify-report must refuse
MALFORMED_REPORT_FIELDS = [
    ("checks[0].algebras", "tensor_pair_m6", ("checks", 0, "algebras"), []),
    ("checks[1].states", "tensor_pair_m6", ("checks", 1, "states"), ["phi_left"]),
    ("instance.states", "tensor_pair_m6", ("instance", "states"), []),
    ("checks[0].verdicts", "tensor_pair_m6", ("checks", 0, "verdicts"), []),
    ("instance.tolerances", "tensor_pair_m6", ("instance", "tolerances"), "x"),
    ("instance.tolerances.eps_verify", "tensor_pair_m6", ("instance", "tolerances"), {"eps_verify": "a"}),
    ("schema_version", "tensor_pair_m6", ("schema_version",), 99),
    ("samples", "fuzz_tensor_split_5_seed7", ("samples",), "x"),
    ("flags.tol.eps_verify", "fuzz_tensor_split_5_seed7", ("flags", "tol"), -1.0),
]


def write_edited(src, path, value, tmp_path):
    """Copy of the JSON file ``src`` with the node at ``path`` replaced."""
    doc = json.loads(src.read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return bad


class TestLoadInstance:
    def test_rejects_missing_ambient_dim(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"algebras": {}}))
        from staralg import ParseError, ValidationError

        with pytest.raises((ParseError, ValidationError)):
            instances.load(str(p))

    def test_rejects_malformed_matrix_row(self, tmp_path):
        p = tmp_path / "bad.json"
        doc = {
            "ambient_dim": 2,
            "algebras": {"a": {"generators": [[[1.0], [0.0, 0.0]]]}},
        }
        p.write_text(json.dumps(doc))
        from staralg import ParseError, ValidationError

        with pytest.raises((ParseError, ValidationError)):
            instances.load(str(p))

    def test_rejects_unknown_field(self, tmp_path):
        p = tmp_path / "bad.json"
        doc = {"ambient_dim": 2, "algebras": {}, "surprise": 1}
        p.write_text(json.dumps(doc))
        from staralg import ParseError, ValidationError

        with pytest.raises((ParseError, ValidationError)):
            instances.load(str(p))

    @pytest.mark.parametrize(
        "field,path,value", MALFORMED_FIELDS, ids=[case[0] for case in MALFORMED_FIELDS]
    )
    def test_malformed_field_exits_2_naming_it(self, field, path, value, tmp_path, capsys):
        bad = write_edited(INSTANCES / "tensor_pair_m6.json", path, value, tmp_path)
        assert main(["analyze", str(bad)]) == 2
        assert field in capsys.readouterr().err

    def test_an_operation_is_decoded_before_its_algebra_is_built(self, tmp_path, capsys):
        # M_n of n = 100000 has n^4 basis entries: the malformed Kraus stack is refused first
        doc = {"schema_version": 1, "ambient_dim": 100000,
               "operations": {"t": {"kind": "kraus", "kraus": [[[1.0]]]}}, "checks": []}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(bad)]) == 2
        assert "operations.t.kraus" in capsys.readouterr().err
        # the same shape echoed in a report is refused as well
        report = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        report["checks"] = []
        report["instance"].update(ambient_dim=100000, algebras={}, states={}, operations=doc["operations"])
        bad.write_text(json.dumps(report))
        assert main(["verify-report", str(bad)]) == 2
        assert "instance.operations.t.kraus" in capsys.readouterr().out

    def test_a_huge_entry_is_named_in_a_short_message(self, tmp_path, monkeypatch, capsys):
        # a 400-digit integer is named by its type and a cut of its repr that keeps the leading digits
        path = ("algebras", "left", "generators", 0, 0, 0)
        bad = write_edited(INSTANCES / "tensor_pair_m6.json", path, 10**400, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", bad.name]) == 2
        message = capsys.readouterr().err.strip().removeprefix("error: ")
        assert message.startswith("bad.json: algebras.left.generators[0][0][0]: matrix entry 1000"), message
        assert "(int)" in message and len(message) <= 120, message

    def test_build_decodes_each_matrix_field_once(self, monkeypatch):
        # the build decodes each matrix field where it builds the object, one decoder call per field
        decoded = []
        array_in = instances._array_in
        monkeypatch.setattr(instances, "_array_in", lambda node, shape, where: decoded.append(where) or array_in(node, shape, where))
        doc = json.loads((INSTANCES / "tensor_pair_m6.json").read_text())
        instances.load(str(INSTANCES / "tensor_pair_m6.json"))
        assert len(decoded) == len(set(decoded)) == sum(len(doc[key]) for key in ("algebras", "states", "operations"))

    def test_an_operation_without_an_algebra_acts_as_the_library_route(self):
        # an entry without an algebra is built on the full matrix algebra by
        # the named-algebra route; the direct full-algebra constructions are
        # the reference
        path = str(INSTANCES / "every_check_m6.json")
        inst = instances.load(path)
        direct = {
            "state_prep": reference.state_prep_operation,
            "kraus": lambda mats: staralg.channel_from_kraus(mats, 6, 6),
            "luders": lambda mats: reference.luders_operation(staralg.ProjectiveMeasurement(mats)),
        }
        kinds = []
        for name, op in inst.operations.items():
            assert op.algebra is None
            kinds.append(op.kind)
            want = direct[op.kind](instances._operation_matrices(inst.declared["operations"][name], 6, name))
            assert np.array_equal(op.channel.action, want.action), name
        assert sorted(kinds) == sorted(direct)

    def test_main_runs_the_command_named_by_the_verb(self, monkeypatch):
        # the parser is cached, so a command bound into it would miss the patch
        cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.instance) or 0)
        assert main(["analyze", "instances/same_algebra_m2.json"]) == 0
        assert seen == ["instances/same_algebra_m2.json"]

    def test_missing_file_exits_2(self, capsys):
        assert main(["analyze", "no_such_file.json"]) == 2

    def test_unknown_fuzz_family_exits_2(self, capsys):
        assert main(["fuzz", "bogus_family", "3"]) == 2

    @pytest.mark.parametrize(
        "flag,argv",
        [
            ("--seed", ["analyze", "instances/same_algebra_m2.json", "--seed", "-1"]),
            ("--seed", ["fuzz", "tensor_split", "1", "--seed", "-3"]),
            ("--samples", ["analyze", "instances/same_algebra_m2.json", "--samples", "-1"]),
            ("count", ["fuzz", "tensor_split", "-1"]),
        ],
        ids=["analyze_seed", "fuzz_seed", "analyze_samples", "fuzz_count"],
    )
    def test_negative_count_exits_2_naming_the_flag(self, flag, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be a non-negative integer" in capsys.readouterr().err


class TestAnalyze:
    def test_tensor_instance_all_checks_hold(self, tmp_path):
        code, doc = run_json(
            ["analyze", "instances/tensor_pair_m6.json"], tmp_path
        )
        assert code == 0
        checks = doc["checks"]
        hierarchy = next(c for c in checks if c["check"] == "hierarchy")
        assert all(v["status"] == "Holds" for v in hierarchy["verdicts"].values())
        assert hierarchy["implication_violations"] == []
        ext = next(c for c in checks if c["check"] == "extend_state")
        assert ext["outcome"]["status"] == "Feasible"
        joint = next(c for c in checks if c["check"] == "joint_operation")
        assert max(joint["residuals"].values()) <= 1e-8
        factor = next(c for c in checks if c["check"] == "interpolating_factor")
        assert factor["outcome"]["status"] == "Found"

    def test_same_algebra_instance_fails_with_witness_states(self, tmp_path):
        code, doc = run_json(
            ["analyze", "instances/same_algebra_m2.json"], tmp_path
        )
        assert code == 0
        hierarchy = next(c for c in doc["checks"] if c["check"] == "hierarchy")
        verdicts = hierarchy["verdicts"]
        assert all(v["status"] == "Fails" for v in verdicts.values())
        witness = verdicts["cstar_independent"]["witness"]
        states = witness["witness_states"]
        # the refusing marginal pair is serialized as densities
        d1 = np.array(states[0]["density"])
        d2 = np.array(states[1]["density"])
        assert d1.shape == (2, 2, 2) and d2.shape == (2, 2, 2)
        ext = next(c for c in doc["checks"] if c["check"] == "extend_state")
        assert ext["outcome"]["status"] == "InfeasibleCertified"

    def test_split_instance_repeated_run_is_byte_identical(self, tmp_path):
        argv = ["analyze", "instances/split_pair_m6.json", "--seed", "42"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main([*argv, "--out", str(out1), "--json"]) == 0
        assert main([*argv, "--out", str(out2), "--json"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_every_check_kind_reverifies(self, tmp_path):
        code, doc = run_json(["analyze", "instances/every_check_m6.json"], tmp_path)
        assert code == 0
        assert [c["check"] for c in doc["checks"]] == list(instances.CHECKS)
        code, rep = run_json(["verify-report", str(tmp_path / "out.json")], tmp_path, "verify.json")
        assert code == 0 and rep["all_ok"]
        assert rep["items"] and all(item["ok"] for item in rep["items"])
        rebuilt = {item["target"] for item in rep["items"] if item["target"].startswith("operation ")}
        assert rebuilt == {f"operation {name}" for name in doc["instance"]["operations"]}

    def test_human_summary_names_each_verdict_kind(self, capsys):
        assert main(["analyze", "instances/same_algebra_m2.json"]) == 0
        out = capsys.readouterr().out
        assert "cstar_product_sense    Fails  [dimension_deficit]" in out
        assert "split                  Fails  [no_interpolating_factor]" in out

    def test_human_summary_gives_the_factor_search_reason(self, capsys):
        assert main(["analyze", "instances/tensor_pair_m6.json"]) == 0
        out = capsys.readouterr().out
        assert "check interpolating_factor [left, right]: Found  (the first algebra is itself a factor)" in out

    def test_single_checks_on_a_non_commuting_pair_give_the_hierarchy_verdicts(self, tmp_path):
        # left does not commute with itself; no check of the file may be lost
        doc = json.loads((INSTANCES / "tensor_pair_m6.json").read_text())
        kinds = ("product_sense", "wstar_product_sense", "spatial_product_sense", "interpolating_factor", "hierarchy")
        doc["checks"] = [{"check": kind, "algebras": ["left", "left"]} for kind in kinds]
        instance = tmp_path / "noncommuting.json"
        instance.write_text(json.dumps(doc))
        code, rep = run_json(["analyze", str(instance)], tmp_path, "noncommuting.report.json")
        assert code == 0
        *single, hierarchy = rep["checks"]
        verdicts = hierarchy["verdicts"]
        assert [entry["verdict"] for entry in single[:3]] == [
            verdicts["cstar_product_sense"], verdicts["wstar_product_sense"], verdicts["split"]]
        assert single[0]["verdict"]["status"] == "Undecided" and verdicts["split"]["status"] == "Fails"
        assert single[3]["outcome"] == {"status": "NotFound", "reason": verdicts["split"]["witness"]["reasoning"]}
        code, verify = run_json(["verify-report", str(tmp_path / "noncommuting.report.json")], tmp_path, "verify.json")
        assert code == 0 and verify["all_ok"] is True

    def test_tolerances_are_echoed(self, tmp_path):
        code, doc = run_json(
            ["analyze", "instances/same_algebra_m2.json"], tmp_path
        )
        tol = doc["instance"]["tolerances"]
        assert set(tol) == {"eps_herm", "eps_psd", "eps_algebra", "eps_verify"}
        assert all(v > 0 for v in tol.values())

    def test_timing_records_the_wall_clock_only_when_asked(self, tmp_path):
        code, timed = run_json(["analyze", "instances/same_algebra_m2.json", "--timing"], tmp_path, "timed.json")
        assert code == 0 and type(timed["wall_clock_seconds"]) is float and timed["wall_clock_seconds"] >= 0
        code, plain = run_json(["analyze", "instances/same_algebra_m2.json"], tmp_path)
        assert code == 0 and plain["wall_clock_seconds"] is None


class TestExtend:
    def test_identity_pair_has_negligible_residuals(self, tmp_path):
        doc = json.loads((INSTANCES / "tensor_pair_m6.json").read_text())
        doc["operations"]["id_left"] = {
            "algebra": "left",
            "kraus": [[[[1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                       [[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                       [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0]],
                       [[0, 0], [0, 0], [0, 0], [1, 0], [0, 0], [0, 0]],
                       [[0, 0], [0, 0], [0, 0], [0, 0], [1, 0], [0, 0]],
                       [[0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [1, 0]]]],
        }
        doc["operations"]["id_right"] = {
            "algebra": "right",
            "kraus": doc["operations"]["id_left"]["kraus"],
        }
        inst = tmp_path / "with_ids.json"
        inst.write_text(json.dumps(doc))
        code, rep = run_json(
            ["extend", str(inst), "id_left", "id_right"], tmp_path
        )
        assert code == 0
        assert max(rep["joint_extension"]["residuals"].values()) <= 1e-12

    def test_luders_and_unitary_pair_on_m6(self, tmp_path):
        code, rep = run_json(
            ["extend", "instances/tensor_pair_m6.json", "measure_left", "rotate_right"],
            tmp_path,
        )
        assert code == 0
        assert rep["joint_extension"]["completely_positive"] is True
        assert rep["joint_extension"]["unital"] is True
        assert max(rep["joint_extension"]["residuals"].values()) <= 1e-8

    def test_prep_pair_reports_product_transitions(self, tmp_path):
        code, rep = run_json(
            ["extend", "instances/tensor_pair_m6.json", "prep_left", "prep_right"],
            tmp_path,
        )
        assert code == 0
        table = rep["joint_extension"]["product_transition"]
        assert set(table) == {"prescribed_values_1", "prescribed_values_2", "product_residual", "matches_prescription"}
        assert table["product_residual"] <= 1e-12
        assert table["matches_prescription"] is True
        inst = instances.load("instances/tensor_pair_m6.json")
        for key, op in zip(("prescribed_values_1", "prescribed_values_2"),
                           inst.named("operations", ["prep_left", "prep_right"])):
            assert np.allclose(array_from_json(table[key]), op.prep_state.expect_basis(), atol=1e-12), key

    def test_the_exact_transition_agrees_with_the_sampled_dual_route(self):
        # the route extend once took: seeded probes (maximally mixed, three
        # full-rank, two pure) pushed through the dual of the joint map
        inst = instances.load("instances/tensor_pair_m6.json")
        n, tol = inst.ambient_dim, inst.tol
        prep1, prep2 = (op.prep_state for op in inst.named("operations", ["prep_left", "prep_right"]))
        doc = json.loads((GOLDEN / "tensor_prep_extend.report.json").read_text())
        action = staralg.map_from_choi(array_from_json(doc["joint_extension"]["choi"]), n, n)
        joint = staralg.build_channel(staralg.full_matrix_algebra(n), n, action, tol)
        dual = staralg.dual_on_states(joint, tol)
        rng = np.random.default_rng(0)
        probes = [np.eye(n) / n] + [staralg.random_density(n, rng) for _ in range(3)]
        probes += [staralg.random_pure_density(n, rng) for _ in range(2)]
        for rho in probes:
            out = dual.apply(rho)
            assert staralg.marginal_residual(out, (prep1,)) <= tol.eps_verify
            assert staralg.marginal_residual(out, (prep2,)) <= tol.eps_verify
        assert independence._product_transition_residual(joint, prep1, prep2) <= tol.eps_verify
        # a joint operation that prepares neither state is told apart
        _, measured = instances._joint_extension(*inst.named("operations", ["measure_left", "rotate_right"]), tol)
        assert independence._product_transition_residual(measured, prep1, prep2) > tol.eps_verify

    def test_non_product_pair_reports_refusal_and_exits_zero(self, tmp_path):
        doc = {
            "ambient_dim": 2,
            "algebras": {"d": {"generators": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}},
            "operations": {
                "p1": {"algebra": "d", "kind": "luders",
                       "projections": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                                        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
                "p2": {"algebra": "d", "kind": "luders",
                       "projections": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                                        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]},
            },
        }
        inst = tmp_path / "nonproduct.json"
        inst.write_text(json.dumps(doc))
        code, rep = run_json(["extend", str(inst), "p1", "p2"], tmp_path)
        assert code == 0
        assert rep["joint_extension"]["outcome"] == "NoProductIsomorphism"


class TestFuzz:
    def test_tensor_split_50_seed_7_all_hold(self, tmp_path):
        code, rep = run_json(
            ["fuzz", "tensor_split", "50", "--seed", "7", "--samples", "4"],
            tmp_path,
        )
        assert code == 0
        agg = rep["aggregate"]
        assert agg["implication_violation_count"] == 0
        counts = agg["verdict_counts"]
        assert all(c.get("Holds", 0) == 50 for c in counts.values())
        assert len(rep["instances"]) == 50

    def test_shared_block_50_all_fail_independence(self, tmp_path):
        code, rep = run_json(["fuzz", "shared_block", "50"], tmp_path)
        assert code == 0
        counts = rep["aggregate"]["verdict_counts"]
        for key in ("cstar_independent", "wstar_independent"):
            assert counts[key].get("Fails", 0) == 50
        assert rep["aggregate"]["implication_violation_count"] == 0

    def test_haar_overlap_is_decided_and_replayed_without_the_solver(self, tmp_path, monkeypatch):
        def solver(*args, **kwargs):
            raise AssertionError("the extension solver ran")

        for module in (states, independence, instances):
            monkeypatch.setattr(module, "extend_state_batch", solver, raising=False)
        for inst in staralg.fuzz_instances("haar_overlap", 5, 3):
            verdicts = staralg.run_hierarchy_checks(inst.a1, inst.a2).verdicts
            assert verdicts["cstar_independent"].status == "Fails"
        code, rep = run_json(["fuzz", "haar_overlap", "50", "--seed", "7", "--samples", "4"], tmp_path, "fuzz.json")
        assert code == 0 and rep["aggregate"]["verdict_counts"]["cstar_independent"]["Undecided"] == 0
        code, audit = run_json(["verify-report", str(tmp_path / "fuzz.json")], tmp_path, "verify.json")
        assert code == 0 and audit["all_ok"]

    def test_count_is_checked_before_the_replay(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the fuzz summary was replayed")

        for name in ("fuzz_instances", "run_hierarchy_checks"):
            monkeypatch.setattr(cli, name, never)
        golden = GOLDEN / "fuzz_tensor_split_5_seed7.report.json"
        for count in (1_000_000, 4):
            bad = write_edited(golden, ["count"], count, tmp_path)
            code, audit = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
            tolerances, item = audit["items"]
            assert code == 2 and not audit["all_ok"]
            assert tolerances["target"] == "tolerances" and tolerances["ok"]
            assert item["target"] == "fuzz summary" and f"count {count} differs" in item["detail"]

    def test_the_human_digest_follows_the_verdict_key_order(self, capsys):
        # no verdict of this non-commuting pair holds, so its digest names all nine, in analyze's order
        assert main(["fuzz", "haar_overlap", "1", "--seed", "7"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert [item.split("=")[0] for item in row.split(": ", 1)[1].split(", ")] == list(staralg.VERDICT_KEYS)

    def test_repeated_seed_is_byte_identical(self, tmp_path):
        argv = ["fuzz", "haar_overlap", "5", "--seed", "13"]
        out1, out2 = tmp_path / "f1.json", tmp_path / "f2.json"
        assert main([*argv, "--out", str(out1), "--json"]) == 0
        assert main([*argv, "--out", str(out2), "--json"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyReport:
    @pytest.mark.parametrize(
        "golden",
        sorted(p.name for p in GOLDEN.glob("*.report.json")),
    )
    def test_golden_reports_revalidate(self, golden, tmp_path):
        code, rep = run_json(
            ["verify-report", str(GOLDEN / golden)], tmp_path, "verify.json"
        )
        assert code == 0
        assert rep["all_ok"] is True
        assert all(item["ok"] for item in rep["items"])

    @pytest.mark.parametrize(
        "field,golden,path,value",
        MALFORMED_REPORT_FIELDS,
        ids=[case[0] for case in MALFORMED_REPORT_FIELDS],
    )
    def test_malformed_report_exits_2_naming_it(self, field, golden, path, value, tmp_path, capsys):
        bad = write_edited(GOLDEN / f"{golden}.report.json", path, value, tmp_path)
        assert main(["verify-report", str(bad)]) == 2
        assert field in capsys.readouterr().err

    @staticmethod
    def corrupt_extension_density(doc):
        ext = next(c for c in doc["checks"] if c["check"] == "extend_state")
        density = ext["outcome"]["density"]
        density[0][0][0] = density[0][0][0] + 0.2  # corrupt the real part
        return "extend_state"

    @staticmethod
    def correlate_product_state(doc):
        # both marginals are still the normalized traces, but the density is
        # correlated across the factors and has rank 4 of 6
        hierarchy = next(c for c in doc["checks"] if c["check"] == "hierarchy")
        cert = hierarchy["verdicts"]["wstar_product_sense"]["certificate"]
        rho = 0.5 * (
            np.kron(np.diag([1.0, 0.0]), np.diag([2.0, 1.0, 0.0]) / 3)
            + np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0, 2.0]) / 3)
        )
        cert["density"] = array_to_json(rho.astype(complex))
        return "product state"

    @staticmethod
    def swap_zero_cell(doc):
        # the other zero cell of [[1, 0], [0, 1]]; its projections still
        # annihilate, but they are not the recorded ones
        witness = doc["checks"][0]["verdicts"]["wstar_product_sense"]["witness"]
        witness["cell"] = witness["cell"][::-1]
        return "relation"

    @staticmethod
    def edit_mu_entry(doc):
        # still no zero cell, and every recorded dimension is right
        cert = doc["checks"][0]["verdicts"]["cstar_product_sense"]["certificate"]
        cert["mu"][0][0] += 1
        return "isomorphism"

    @staticmethod
    def alter_no_factor_mu(doc):
        # [[1, 1], [1, 1]] would factor as an integer outer product
        witness = doc["checks"][0]["verdicts"]["split"]["witness"]
        witness["mu"] = [[1, 1], [1, 1]]
        return "split cell table"

    @staticmethod
    def move_h2_outside_a2(doc):
        # still Hermitian with the same diagonal, so the gap alone would pass
        cert = doc["checks"][1]["outcome"]["certificate"]
        cert["h2"] = array_to_json(array_from_json(cert["h2"]) + np.array([[0, 1], [1, 0]]))
        return "extend_state"

    @staticmethod
    def edit_refusal_gap(doc):
        doc["checks"][1]["outcome"]["certificate"]["gap"] += 0.5
        return "extend_state"

    @staticmethod
    def overflow_refusal_gap(doc):
        # an integer beyond float range, where a float is recorded
        doc["checks"][1]["outcome"]["certificate"]["gap"] = 10**400
        return "extend_state"

    @staticmethod
    def misspell_extension_status(doc):
        doc["checks"][1]["outcome"]["status"] = "Infeasible"
        return "extend_state"

    @staticmethod
    def integer_extension_status(doc):
        doc["checks"][1]["outcome"]["status"] = 2
        return "extend_state"

    @staticmethod
    def point_op_cstar_at_a_holds(doc):
        # a Fails reference to the Holding plain verdict; the implication
        # audit also sees op_cstar Fail below a Holding op_cstar_product
        doc["checks"][0]["verdicts"]["op_cstar"] = {
            "status": "Fails",
            "witness": {"kind": "state_preparation_pair", "plain": "cstar_independent"},
        }
        return ("op_cstar reference", "implications")

    @staticmethod
    def shift_isomorphism_dimension(doc):
        # the pair still Holds; only the recorded join dimension is wrong
        cert = doc["checks"][0]["verdicts"]["cstar_product_sense"]["certificate"]
        cert["dim_join"] += 1
        return "isomorphism"

    @staticmethod
    def shift_join_dimension(doc):
        witness = doc["checks"][0]["verdicts"]["cstar_product_sense"]["witness"]
        witness["dim_join"] += 1
        return "dimensions"

    @staticmethod
    def forge_dimension_deficit(doc):
        witness = doc["checks"][0]["verdicts"]["cstar_product_sense"]["witness"]
        witness["deficit"] += 1
        return "dimensions"

    @staticmethod
    def perturb_factor_unitary(doc):
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        factor = entry["outcome"]["factor"]
        unitary = array_from_json(factor["unitary"])
        unitary[0, 0] += 1e-3
        factor["unitary"] = array_to_json(unitary)
        return "factor"

    @staticmethod
    def collapse_factor_legs(doc):
        # 1 x 1 legs cannot split the ambient dimension 6
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        entry["outcome"]["factor"]["d1"] = entry["outcome"]["factor"]["d2"] = 1
        return "factor"

    @staticmethod
    def misstate_split_and_op_cstar(doc):
        # both certificates still re-check; only the statuses contradict them
        verdicts = doc["checks"][0]["verdicts"]
        verdicts["split"]["status"] = "Fails"
        verdicts["op_cstar"]["status"] = "Undecided"
        return ("split status", "op_cstar status")

    @staticmethod
    def claim_op_cstar_holds(doc):
        # a refusal witness cannot carry Holds, and op_cstar Holding while
        # cstar_independent Fails breaks the implication table
        doc["checks"][0]["verdicts"]["op_cstar"]["status"] = "Holds"
        return ("op_cstar status", "implications")

    @staticmethod
    def null_split_unitary(doc):
        # the encoder writes null for a non-finite entry; a NaN unitary is no factor
        factor = doc["checks"][0]["verdicts"]["split"]["certificate"]["factor"]
        factor["unitary"] = [[None] * len(row) for row in factor["unitary"]]
        return "split factor"

    @staticmethod
    def null_product_residual(doc):
        doc["joint_extension"]["product_transition"]["product_residual"] = None
        return "product_transition"

    @staticmethod
    def forge_product_residual(doc):
        doc["joint_extension"]["product_transition"]["product_residual"] = 0.5
        return "product_transition"

    @staticmethod
    def deny_the_prescription(doc):
        doc["joint_extension"]["product_transition"]["matches_prescription"] = False
        return "product_transition"

    @staticmethod
    def edit_prescribed_value(doc):
        doc["joint_extension"]["product_transition"]["prescribed_values_1"][1][0] += 0.5
        return "product_transition"

    @staticmethod
    def forge_extension_complete_positivity(doc):
        doc["joint_extension"]["completely_positive"] = False
        return "joint_extension"

    @staticmethod
    def forge_extension_residual(doc):
        doc["joint_extension"]["residuals"]["multiplicativity_residual"] = 0.5
        return "joint_extension"

    @staticmethod
    def forge_operation_complete_positivity(doc):
        next(c for c in doc["checks"] if c["check"] == "joint_operation")["completely_positive"] = False
        return "joint_operation"

    @staticmethod
    def deny_operation_faithfulness(doc):
        next(c for c in doc["checks"] if c["check"] == "joint_operation")["faithful"] = False
        return "joint_operation"

    @staticmethod
    def forge_split_factor_residual(doc):
        doc["checks"][0]["verdicts"]["split"]["certificate"]["factor"]["residuals"]["embedding_residual_1"] = 0.5
        return "split factor"

    @staticmethod
    def forge_found_factor_residual(doc):
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        entry["outcome"]["factor"]["residuals"]["unitarity_residual"] = 0.5
        return "interpolating_factor factor"

    @staticmethod
    def forge_product_state_residual(doc):
        doc["checks"][0]["verdicts"]["wstar_product_sense"]["certificate"]["product_residual"] = 0.5
        return "product state"

    @staticmethod
    def deny_product_state_faithfulness(doc):
        doc["checks"][0]["verdicts"]["wstar_product_sense"]["certificate"]["faithful"] = False
        return "product state"

    @staticmethod
    def forge_recomputed_marginal_residual(doc):
        next(c for c in doc["checks"] if c["check"] == "extend_state")["recomputed_marginal_residual"] = 0.5
        return "extend_state"

    @staticmethod
    def forge_solver_residual(doc):
        next(c for c in doc["checks"] if c["check"] == "extend_state")["outcome"]["residual"] = 0.5
        return "extend_state"

    @staticmethod
    def null_echoed_state(doc):
        doc["instance"]["states"]["phi_left"]["density"] = None
        return "state phi_left"

    @staticmethod
    def deny_a_found_factor(doc):
        # the pair splits, so the factor search, re-run, finds a factor
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        entry["outcome"] = {"status": "NotFound", "reason": "no factor exists"}
        return "interpolating_factor factor"

    @staticmethod
    def drop_the_found_factor(doc):
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        entry["outcome"] = {"status": "Found"}
        return "interpolating_factor factor"

    @staticmethod
    def misspell_factor_status(doc):
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        entry["outcome"]["status"] = "Split"
        return "interpolating_factor factor"

    @staticmethod
    def refuse_an_extended_operation(doc):
        # the pair commutes, so joint_operation, re-run, extends it
        entry = next(c for c in doc["checks"] if c["check"] == "joint_operation")
        for key in ("choi", "residuals", "completely_positive", "unital", "faithful"):
            del entry[key]
        entry.update(outcome="NotCommuting", diagnostic="a joint operation requires a commuting pair of domains")
        return "joint_operation"

    @staticmethod
    def swap_in_the_identity_map(doc):
        # completely positive and unital, but it restricts to neither operation
        entry = next(c for c in doc["checks"] if c["check"] == "joint_operation")
        entry["choi"] = array_to_json(staralg.choi(reference.identity_channel(doc["instance"]["ambient_dim"])))
        return "joint_operation"

    @staticmethod
    def refuse_an_extended_preparation(doc):
        doc["joint_extension"]["outcome"] = "NoProductIsomorphism"
        return "joint_extension"

    @staticmethod
    def drop_the_product_transition(doc):
        # both operations are preparations, so an Extended section must carry it
        del doc["joint_extension"]["product_transition"]
        return "product_transition"

    @staticmethod
    def loosen_echoed_tolerance(doc):
        # forged factors with residuals near 0.2, in a report that claims to
        # have been made at eps_verify 0.5: the verifier keeps its own 1e-8
        rng = np.random.default_rng(0)
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        for factor in (doc["checks"][0]["verdicts"]["split"]["certificate"]["factor"], entry["outcome"]["factor"]):
            unitary = array_from_json(factor["unitary"])
            factor["unitary"] = array_to_json(unitary + 0.05 * rng.standard_normal(unitary.shape))
        doc["instance"]["tolerances"]["eps_verify"] = 0.5
        return ("tolerances", "split factor", "interpolating_factor factor")

    @staticmethod
    def forge_echoed_dimension(doc):
        # the algebra fails its own item, and so does everything built on it
        doc["instance"]["algebras"]["left"]["dim"] = 5
        return ("algebra left", "state phi_left", "operation measure_left", "operation prep_left",
                "extend_state", "joint_operation", "interpolating_factor factor")

    # tamper -> the golden report it edits
    TAMPERS = {
        "corrupt_extension_density": "tensor_pair_m6",
        "shift_isomorphism_dimension": "tensor_pair_m6",
        "correlate_product_state": "tensor_pair_m6",
        "swap_zero_cell": "same_algebra_m2",
        "edit_mu_entry": "tensor_pair_m6",
        "alter_no_factor_mu": "same_algebra_m2",
        "move_h2_outside_a2": "same_algebra_m2",
        "edit_refusal_gap": "same_algebra_m2",
        "overflow_refusal_gap": "same_algebra_m2",
        "misspell_extension_status": "same_algebra_m2",
        "integer_extension_status": "same_algebra_m2",
        "point_op_cstar_at_a_holds": "tensor_pair_m6",
        "shift_join_dimension": "same_algebra_m2",
        "forge_dimension_deficit": "same_algebra_m2",
        "perturb_factor_unitary": "tensor_pair_m6",
        "collapse_factor_legs": "tensor_pair_m6",
        "misstate_split_and_op_cstar": "tensor_pair_m6",
        "claim_op_cstar_holds": "same_algebra_m2",
        "null_split_unitary": "tensor_pair_m6",
        "null_product_residual": "tensor_prep_extend",
        "forge_product_residual": "tensor_prep_extend",
        "deny_the_prescription": "tensor_prep_extend",
        "edit_prescribed_value": "tensor_prep_extend",
        "forge_extension_complete_positivity": "tensor_prep_extend",
        "forge_extension_residual": "tensor_prep_extend",
        "forge_operation_complete_positivity": "tensor_pair_m6",
        "deny_operation_faithfulness": "tensor_pair_m6",
        "forge_split_factor_residual": "tensor_pair_m6",
        "forge_found_factor_residual": "tensor_pair_m6",
        "forge_product_state_residual": "tensor_pair_m6",
        "deny_product_state_faithfulness": "tensor_pair_m6",
        "forge_recomputed_marginal_residual": "tensor_pair_m6",
        "forge_solver_residual": "tensor_pair_m6",
        "null_echoed_state": "tensor_prep_extend",
        "deny_a_found_factor": "tensor_pair_m6",
        "drop_the_found_factor": "tensor_pair_m6",
        "misspell_factor_status": "tensor_pair_m6",
        "refuse_an_extended_operation": "tensor_pair_m6",
        "swap_in_the_identity_map": "tensor_pair_m6",
        "refuse_an_extended_preparation": "tensor_prep_extend",
        "drop_the_product_transition": "tensor_prep_extend",
        "loosen_echoed_tolerance": "tensor_pair_m6",
        "forge_echoed_dimension": "tensor_pair_m6",
    }

    @pytest.mark.parametrize("tamper", list(TAMPERS))
    def test_tampered_certificate_is_caught(self, tamper, tmp_path):
        golden = GOLDEN / f"{self.TAMPERS[tamper]}.report.json"
        doc = json.loads(golden.read_text())
        target = getattr(self, tamper)(doc)
        targets = (target,) if isinstance(target, str) else target
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        assert rep["all_ok"] is False
        failed = [item["target"] for item in rep["items"] if not item["ok"]]
        assert failed and all(t.endswith(targets) for t in failed), failed
        assert all(any(t.endswith(want) for t in failed) for want in targets), failed

    def test_each_echoed_tolerance_may_be_tighter_but_not_looser(self, tmp_path):
        golden = GOLDEN / "tensor_pair_m6.report.json"
        for key in ("eps_herm", "eps_psd", "eps_algebra", "eps_verify"):
            for scale in (0.5, 1.0, 2.0):
                doc = json.loads(golden.read_text())
                doc["instance"]["tolerances"][key] *= scale
                bad = tmp_path / "echo.json"
                bad.write_text(json.dumps(doc))
                code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
                failed = {item["target"]: item["detail"] for item in rep["items"] if not item["ok"]}
                assert rep["items"][0]["target"] == "tolerances"
                assert (code, list(failed)) == ((0, []) if scale <= 1 else (2, ["tolerances"])), (key, scale)
                assert scale <= 1 or key in failed["tolerances"]

    FACTOR_ITEMS = ["checks[0] hierarchy split factor", "checks[3] interpolating_factor factor"]

    def test_a_forged_factor_outside_the_proof_range_fails_at_a_loose_tolerance(self, tmp_path):
        # the loosen_echoed_tolerance forgery at --tol 0.5: its residuals (0.09 and 0.26 at n = 6)
        # pass eps_verify, but n eps > 1/2 lies outside the range that proves the split
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        self.loosen_echoed_tolerance(doc)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad), "--tol", "0.5"], tmp_path, "verify.json")
        failed = {item["target"]: item["detail"] for item in rep["items"] if not item["ok"]}
        assert code == 2 and list(failed) == self.FACTOR_ITEMS
        assert all("outside the range n eps <= 0.5" in detail for detail in failed.values())

    def test_a_factor_residual_inside_eps_verify_fails_on_the_range(self, tmp_path):
        # sqrt(1.09) U has unitarity residual 0.09, in (1/12, 0.1] at n = 6, and keeps each image on its leg
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        entry = next(c for c in doc["checks"] if c["check"] == "interpolating_factor")
        for factor in (doc["checks"][0]["verdicts"]["split"]["certificate"]["factor"], entry["outcome"]["factor"]):
            factor["unitary"] = array_to_json(np.sqrt(1.09) * array_from_json(factor["unitary"]))
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad), "--tol", "0.1"], tmp_path, "verify.json")
        failed = {item["target"]: item["detail"] for item in rep["items"] if not item["ok"]}
        assert code == 2 and list(failed) == self.FACTOR_ITEMS
        for detail in failed.values():
            assert "residual 9.000e-02 is outside the range n eps <= 0.5" in detail and "at n = 6" in detail

    def test_a_fuzz_replay_runs_at_the_tolerance_in_force(self, tmp_path):
        golden = GOLDEN / "fuzz_tensor_split_5_seed7.report.json"
        for recorded, expected in ((1e-9, 0), (1e-6, 2)):
            code, rep = run_json(["verify-report", str(write_edited(golden, ["flags", "tol"], recorded, tmp_path))],
                                 tmp_path, "verify.json")
            failed = [item["target"] for item in rep["items"] if not item["ok"]]
            assert (code, failed) == (expected, [] if expected == 0 else ["tolerances"]), recorded

    def test_a_null_entry_fails_the_item_that_names_it(self, tmp_path):
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        doc["checks"][0]["verdicts"]["split"]["certificate"]["factor"]["unitary"][2][3] = None
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        failed = {item["target"]: item["detail"] for item in rep["items"] if not item["ok"]}
        assert list(failed) == ["checks[0] hierarchy split factor"]
        assert failed["checks[0] hierarchy split factor"] == (
            "ParseError: factor.unitary[2][3]: matrix entry must be a number or an [re, im] pair")

    def test_refusal_reverifies_and_an_extendable_pair_is_caught(self, tmp_path):
        # a haar_overlap pair, refused by the extension solver on a sampled
        # marginal pair; the three other readings refer to that refusal
        path, doc, inst = overlap_report(tmp_path)
        witness = doc["checks"][0]["verdicts"]["cstar_independent"]["witness"]
        assert witness["kind"] == "separating_pair"
        code, rep = run_json(["verify-report", str(path)], tmp_path, "verify.json")
        assert code == 0
        refusal = "checks[0] hierarchy cstar_independent refusal"
        references = {f"checks[0] hierarchy {key} reference" for key in ("wstar_independent", "op_cstar", "op_wstar")}
        checked = {item["target"] for item in rep["items"] if item["ok"]}
        assert {refusal, *references} <= checked
        # the maximally mixed pair always extends, so the gap cannot clear
        # the margin; the references fail with the refusal they rest on
        n = inst.a1.ambient_dim
        for state in witness["witness_states"]:
            state["density"] = array_to_json(np.eye(n, dtype=complex) / n)
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        failed = {item["target"]: item["detail"] for item in rep["items"] if not item["ok"]}
        assert set(failed) == {refusal, *references}
        assert "does not clear the margin" in failed[refusal]

    def test_noncommuting_element_outside_its_algebra_is_caught(self, tmp_path):
        path, doc, inst = overlap_report(tmp_path)
        code, rep = run_json(["verify-report", str(path)], tmp_path, "verify.json")
        target = "checks[0] hierarchy split elements"
        assert code == 0 and target in {item["target"] for item in rep["items"] if item["ok"]}
        # a Hermitian matrix orthogonal to the first algebra
        witness = doc["checks"][0]["verdicts"]["split"]["witness"]
        x = np.random.default_rng(5).standard_normal((inst.a1.ambient_dim,) * 2)
        x = x + x.T
        witness["element1"] = array_to_json(x - inst.a1.project(x))
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        failed = {item["target"]: item["detail"] for item in rep["items"] if not item["ok"]}
        assert list(failed) == [target]
        assert "element1 is" in failed[target] and "away from its algebra" in failed[target]

    def test_verify_report_never_runs_the_solver(self, tmp_path, monkeypatch):
        overlap, _, _ = overlap_report(tmp_path)
        calls = []

        def solver(*args, **kwargs):
            calls.append(args)
            raise AssertionError("verify-report ran the extension solver")

        for module, name in ((instances, "extend_state"), (states, "extend_state"),
                             (states, "extend_state_batch"), (independence, "extend_state_batch")):
            monkeypatch.setattr(module, name, solver, raising=False)
        for report in [overlap, *sorted(GOLDEN.glob("*.report.json"))]:
            code, rep = run_json(["verify-report", str(report)], tmp_path, "verify.json")
            assert code == 0 and rep["all_ok"], report
        assert calls == []

    def test_echoes_in_another_orthonormal_basis_revalidate(self, tmp_path):
        # a seeded unitary mixing of each echoed basis is another orthonormal
        # basis of its span, so the rebuilt structure orders the blocks, and
        # with them mu and the zero cell, as the report recorded them
        seeds = iter(range(3000, 4000))
        reports = 0
        for family in ("shared_block", "haar_overlap"):
            for inst in staralg.fuzz_instances(family, 16, 2):
                _, doc = pair_report(inst, tmp_path, "pair")
                for entry in doc["instance"]["algebras"].values():
                    basis = array_from_json(entry["basis"])
                    entry["basis"] = array_to_json(np.tensordot(
                        haar_unitary(len(basis), seed=next(seeds)), basis, axes=(1, 0)))
                rotated = tmp_path / "rotated.json"
                rotated.write_text(json.dumps(doc))
                code, rep = run_json(["verify-report", str(rotated)], tmp_path, "verify.json")
                assert code == 0, (inst.meta, [item for item in rep["items"] if not item["ok"]])
                reports += 1
        assert reports == 32

    def test_noncommuting_echo_fails_exactly_what_reads_the_pair(self, tmp_path):
        # right's echo is left's whole entry, basis and dim: still an algebra,
        # but it does not commute with left, so every certificate rebuilt
        # from the pair fails; so do the operation on right and the checks
        # that read it
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        algebras = doc["instance"]["algebras"]
        algebras["right"] = algebras["left"]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        implied = ("cstar_independent", "wstar_independent", "op_cstar", "op_wstar",
                   "op_cstar_product", "op_wstar_product")
        failed = {item["target"] for item in rep["items"] if not item["ok"]}
        assert failed == {
            "operation rotate_right",
            *(f"checks[0] hierarchy {key} product isomorphism" for key in implied),
            "checks[0] hierarchy cstar_product_sense isomorphism",
            "checks[0] hierarchy wstar_product_sense product state",
            "checks[0] hierarchy split factor",
            "checks[1] extend_state",
            "checks[2] joint_operation",
            "checks[3] interpolating_factor factor",
        }

    def test_an_operation_that_did_not_rebuild_is_named_not_malformed(self, tmp_path):
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        algebras = doc["instance"]["algebras"]
        algebras["right"] = algebras["left"]
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        (item,) = [it for it in rep["items"] if it["target"] == "checks[2] joint_operation"]
        assert not item["ok"]
        assert "operation rotate_right did not rebuild; see its own item" in item["detail"]
        assert "KeyError" not in item["detail"]

    def test_a_forged_echoed_dimension_fails_its_algebra(self, tmp_path):
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        doc["instance"]["algebras"]["left"]["dim"] = 5
        bad = tmp_path / "forged.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        (item,) = [it for it in rep["items"] if it["target"] == "algebra left"]
        assert not item["ok"] and item["detail"] == "ValidationError: recorded dim 5, recomputed 4"

    def test_what_reads_an_algebra_that_did_not_rebuild_names_it(self, tmp_path):
        doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
        doc["instance"]["algebras"]["left"] = {"dim": 2}
        doc["instance"]["states"]["phi_right"]["algebra"] = "nowhere"
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        assert code == 2
        details = {item["target"]: item["detail"] for item in rep["items"]}
        for target in ("state phi_left", "operation measure_left", "operation prep_left"):
            assert details[target] == "ValidationError: algebra left did not rebuild; see its own item", target
        assert details["state phi_right"] == "ParseError: instance.states.phi_right.algebra: unknown algebra 'nowhere'"

    def test_a_huge_forged_entry_fails_its_items_without_warnings(self, tmp_path):
        # the overflowed residuals are inf or NaN, which fail their gates; numpy stays silent
        doc = json.loads((GOLDEN / "tensor_prep_extend.report.json").read_text())
        doc["joint_extension"]["choi"][0][0] = [1e300, 0.0]
        bad = tmp_path / "forged.json"
        bad.write_text(json.dumps(doc))
        code, rep = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            strict_code, strict = run_json(["verify-report", str(bad)], tmp_path, "strict.json")
        assert code == strict_code == 2
        assert [item for item in rep["items"] if not item["ok"]]
        assert strict["items"] == rep["items"]


class TestInstances:
    @pytest.mark.parametrize("name", sorted(p.name for p in INSTANCES.glob("*.json")))
    def test_an_instance_and_its_echo_build_the_same_objects(self, name, tmp_path):
        path = f"instances/{name}"
        inst = instances.load(path)
        echo = json.loads(json.dumps(certificates._jsonable(instances._instance_section(inst))))
        log = certificates._VerifyLog()
        again = instances._read_echo({"instance": echo}, path, inst.tol, log)
        assert log.items and all(item["ok"] for item in log.items), log.items
        for section in instances.SECTIONS:
            assert list(getattr(again, section)) == list(getattr(inst, section))
        for key, a in inst.algebras.items():
            assert np.array_equal(again.algebras[key].basis, a.basis), key
        for key, st in inst.states.items():
            assert np.array_equal(again.states[key].density, st.density), key
        for key, op in inst.operations.items():
            assert again.operations[key].kind == op.kind
            assert np.array_equal(again.operations[key].channel.action, op.channel.action), key
        code, report = run_json(["analyze", path], tmp_path)
        assert code == 0 and report["instance"] == echo


class TestPackage:
    EXPORTS = """
        AlgebraState AlgebraStructure AmbientMismatch ChannelMap DEFAULT_TOL DomainNotFull
        EVIDENCE_STATUS ExtensionOutcome FUZZ_FAMILIES FactorSearchOutcome IMPLICATIONS
        IllConditioned IndependenceReport InterpolatingFactor InvalidMeasurement
        InvalidState KINDS Kind KrausSet MatrixStarAlgebra
        NoProductIsomorphism NotCP NotCommuting NotNonselective
        PairInstance PairPosition ParseError ProductIsomorphism ProjectiveMeasurement
        ShapeMismatch StinespringDilation Tolerances ToolkitError
        UnknownFamily VERDICT_KEYS ValidationError Verdict __version__
        annihilating_projections build_channel canonical_block_algebra canonical_trace_state
        cell_pair channel_from_kraus channel_on_algebra check_cstar_independence
        check_product_sense check_spatial_product_sense check_verdicts
        check_wstar_independence check_wstar_product_sense choi choi_matrix commutant
        commute_witness conditional_expectation conjugate_algebra dual_on_states
        extend_state extend_state_batch find_interpolating_factor
        full_matrix_algebra fuzz_instances generate_algebra
        implication_violations is_completely_positive is_faithful is_faithful_map
        joint_extension_residuals joint_operation
        kraus_from_choi map_from_choi marginal_residual mutually_commute
        noncommuting_pair product_isomorphism product_residual products
        random_density random_faithful_nonselective_channel
        random_prep_channel random_pure_density random_subalgebra
        run_hierarchy_checks sample_state_pairs scalar_algebra separating_pair
        state_from_density state_from_values
        state_preparation stinespring_dilation structure_decomposition superop_from_function
        superop_from_kraus tensor_channel tensor_pair verify_faithful_product_state
        verify_interpolating_factor verify_noncommuting_elements verify_product_transition
        verify_separating_pair
    """.split()

    def test_the_package_exports_each_module_list_once(self):
        assert len(self.EXPORTS) == 101
        assert len(staralg.__all__) == len(set(staralg.__all__)) == 101
        assert set(staralg.__all__) == set(self.EXPORTS)
        for name in staralg.__all__:
            assert hasattr(staralg, name), name


# the fields that hold a stack of matrices; every other field of [re, im] pairs holds one matrix
STACK_FIELDS = {"generators", "kraus", "projections", "basis"}


def matrix_fields(node, key=None):
    """(field name, node) for each matrix, or stack of matrices, of [re, im] pairs below node."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from matrix_fields(v, k)
    elif isinstance(node, list):
        if is_numeric_array(node) and np.ndim(node) == (4 if key in STACK_FIELDS else 3):
            yield key, node
        else:
            for v in node:
                yield from matrix_fields(v, key)


def complex_entries(node, depth):
    """complex(re, im) entry by entry: the reference the decoder must match bit for bit."""
    if depth == 0:
        return complex(*node) if isinstance(node, list) else complex(node)
    return [complex_entries(v, depth - 1) for v in node]


class TestSerialization:
    def test_an_entry_with_a_non_finite_part_is_null(self):
        a = np.array([[1 + 2j, np.nan], [1j * np.inf, -0.0]])
        assert certificates._jsonable(a) == [[[1.0, 2.0], None], [None, [-0.0, 0.0]]]
        assert certificates._jsonable(np.array([np.inf, 3.0])) == [None, [3.0, 0.0]]
        assert certificates._jsonable(np.array(np.nan)) is None

    def test_the_decoder_reads_every_bundled_matrix_as_complex_re_im_bit_for_bit(self):
        paths = [*sorted(INSTANCES.glob("*.json")), *sorted(GOLDEN.glob("*.report.json"))]
        decoded = []
        for path in paths:
            for key, node in matrix_fields(json.loads(path.read_text())):
                shape = np.shape(node)[:-1]
                got = certificates._array_in(node, (None, *shape[1:]) if key in STACK_FIELDS else shape, key)
                want = np.array(complex_entries(node, len(shape)), dtype=complex)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (path.name, key)
                decoded.append(got)
        assert len(decoded) >= 40
        # signed zeros survive (tensor_pair_m6's rotate_right holds -0.0)
        assert any(np.signbit(m.real[m.real == 0]).any() for m in decoded)

    def test_the_decoder_reads_numbers_as_complex_of_each_entry(self):
        # an integer beyond 64 bits takes the entry-by-entry walk, then the same conversion
        for node in ([[1, -0.0], [2.5, -3]], [[1, -0.0], [2.5, 2**70]]):
            got = certificates._array_in(node, (2, 2), "m")
            assert got.tobytes() == np.array(complex_entries(node, 2), dtype=complex).tobytes()

    @pytest.mark.parametrize("node,shape,message", [
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], 1.0]], (2, 2), "m[1][1]: a matrix mixes numbers and [re, im] pairs"),
        ([[[1.0, 0.0]], [[1.0, 0.0]]], (2, 2), "m: row 0 must be a list of 2 entries"),
        ([], (None, 2, 2), "m: expected a non-empty list of matrices"),
        ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], (3, 3), "m: expected a 3x3 matrix (list of 3 rows)"),
        ([[1.0, float("nan")], [0.0, 1.0]], (2, 2), "m[0][1]: matrix entry nan is not finite"),
        ([[1.0, 10**400], [0.0, 1.0]], (2, 2), "m[0][1]: matrix entry 1000"),
    ])
    def test_the_decoder_names_the_first_bad_entry(self, node, shape, message):
        with pytest.raises(staralg.ParseError) as exc:
            certificates._array_in(node, shape, "m")
        assert str(exc.value).startswith(message)


def evidence(vdoc):
    """The certificate or witness of a verdict (a Verdict or its report object), or None."""
    if isinstance(vdoc, staralg.Verdict):
        return vdoc.certificate or vdoc.witness
    return vdoc.get("certificate") or vdoc.get("witness")


def report_verdicts(doc):
    """(key, verdict object) for every verdict recorded in an analyze report."""
    for entry in doc.get("checks", []):
        yield from entry.get("verdicts", {}).items()
        if "verdict" in entry:
            yield entry["check"], entry["verdict"]


class TestCertificates:
    def hierarchies(self, count):
        """(instance, in-memory hierarchy) for fuzz pairs of every family."""
        for family in staralg.FUZZ_FAMILIES:
            for idx, inst in enumerate(staralg.fuzz_instances(family, count, 1)):
                yield inst, staralg.run_hierarchy_checks(inst.a1, inst.a2, seed=idx)

    def test_the_kind_table_is_exact(self):
        # every kind a builder emits has a row of its status, and every row
        # is reached by a fuzz pair, a golden or a tampered golden
        emitted = [(evidence(v)["kind"], v.status) for _, report in self.hierarchies(20)
                   for v in report.verdicts.values() if evidence(v)]
        goldens = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.report.json"))]
        emitted += [(evidence(v)["kind"], v["status"]) for doc in goldens
                    for _, v in report_verdicts(doc) if evidence(v)]
        for kind, status in emitted:
            assert certificates.KINDS[kind].status == status, kind
        reached = {kind for kind, _ in emitted}
        for tamper, golden in TestVerifyReport.TAMPERS.items():
            doc = json.loads((GOLDEN / f"{golden}.report.json").read_text())
            getattr(TestVerifyReport, tamper)(doc)
            reached |= {evidence(v)["kind"] for _, v in report_verdicts(doc) if evidence(v)}
        assert reached == set(certificates.KINDS)
        assert staralg.EVIDENCE_STATUS == {kind: row.status for kind, row in certificates.KINDS.items()}

    def test_library_items_are_the_verify_report_items(self, tmp_path):
        prefix = "checks[0] hierarchy "
        for inst, report in self.hierarchies(3):
            items = certificates.check_verdicts(report.verdicts, inst.a1, inst.a2)
            assert items and all(item["ok"] for item in items), items
            doc = {
                "schema_version": 1,
                "command": "analyze",
                "instance": {
                    "ambient_dim": inst.a1.ambient_dim,
                    "algebras": {"left": {"basis": inst.a1.basis}, "right": {"basis": inst.a2.basis}},
                },
                "checks": [{"check": "hierarchy", "algebras": ["left", "right"],
                            "verdicts": report.verdicts, "implication_violations": []}],
            }
            path = tmp_path / "entry.report.json"
            path.write_text(json.dumps(certificates._jsonable(doc)))
            code, rep = run_json(["verify-report", str(path)], tmp_path, "verify.json")
            assert code == 0, rep["items"]
            logged = [{**item, "target": item["target"].removeprefix(prefix)} for item in rep["items"]
                      if item["target"].startswith(prefix) and item["target"] != prefix + "implications"]
            assert logged == items

    def test_a_holds_verdict_carrying_a_refusal_fails_its_status(self):
        inst = staralg.fuzz_instances("shared_block", 1, 1)[0]
        refusal = staralg.run_hierarchy_checks(inst.a1, inst.a2).verdicts["cstar_independent"].witness
        assert refusal["kind"] == "separating_pair"
        verdicts = {"cstar_independent": staralg.Verdict("Holds", certificate=refusal)}
        items = {item["target"]: item for item in certificates.check_verdicts(verdicts, inst.a1, inst.a2)}
        assert not items["cstar_independent status"]["ok"]
        assert "'separating_pair' cannot support Holds" in items["cstar_independent status"]["detail"]
        assert items["cstar_independent refusal"]["ok"]


class TestCheckTable:
    # the status of each outcome a row's runner can emit: the factor search's
    # and the extension solver's Literals, and for a joint operation Extended
    # or the name of the error that refused it
    OUTCOMES = {
        "interpolating_factor": set(typing.get_args(typing.get_type_hints(staralg.FactorSearchOutcome)["status"])),
        "extend_state": set(typing.get_args(states.ExtensionStatus)),
        "joint_operation": {"Extended", "NotNonselective", "AmbientMismatch", "NotCommuting",
                            "NoProductIsomorphism", "NotCP"},
    }
    # refusals that operations built from one instance file cannot meet
    # (inputs that are not operations, two ambient spaces) or meet only on a
    # numerical failure (an extension that is not CP or not unital)
    UNREACHED = ("NotNonselective", "AmbientMismatch", "NotCP")

    @staticmethod
    def outcomes(doc):
        """(index of the entry, check kind, recorded status) for each outcome entry of a report."""
        if doc["command"] == "extend":
            yield None, "joint_operation", doc["joint_extension"]["outcome"]
        for idx, entry in enumerate(doc.get("checks", [])):
            outcome = entry.get("outcome")
            if outcome is not None:
                yield idx, entry["check"], outcome if isinstance(outcome, str) else outcome["status"]

    def test_the_check_table_is_exact(self, tmp_path):
        # every_check_m6 reaches every row, and every outcome status a row's
        # runner can emit reaches that row's re-check, through a bundled
        # report, a tampered golden, or (for the solver's Undecided and the
        # unreached refusals) a report written here
        assert [c["check"] for c in instances.load("instances/every_check_m6.json").checks] == list(instances.CHECKS)
        docs = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.report.json"))]
        for name in sorted(p.name for p in INSTANCES.glob("*.json")):
            code, doc = run_json(["analyze", f"instances/{name}"], tmp_path)
            assert code == 0
            docs.append(doc)
        for tamper, golden in TestVerifyReport.TAMPERS.items():
            doc = json.loads((GOLDEN / f"{golden}.report.json").read_text())
            getattr(TestVerifyReport, tamper)(doc)
            docs.append(doc)
        undecided = json.loads((INSTANCES / "every_check_m6.json").read_text())
        next(c for c in undecided["checks"] if c["check"] == "extend_state")["max_iter"] = 1
        (tmp_path / "undecided.json").write_text(json.dumps(undecided))
        code, doc = run_json(["analyze", str(tmp_path / "undecided.json")], tmp_path)
        assert code == 0
        docs.append(doc)
        for status in self.UNREACHED:
            doc = json.loads((GOLDEN / "tensor_pair_m6.report.json").read_text())
            TestVerifyReport.refuse_an_extended_operation(doc)
            next(c for c in doc["checks"] if c["check"] == "joint_operation")["outcome"] = status
            docs.append(doc)

        reached = {kind: set() for kind in self.OUTCOMES}
        for doc in docs:
            fresh = [(idx, kind, status) for idx, kind, status in self.outcomes(doc) if status not in reached[kind]]
            if not fresh:
                continue
            (tmp_path / "doc.json").write_text(json.dumps(doc))
            code, audit = run_json(["verify-report", str(tmp_path / "doc.json")], tmp_path, "verify.json")
            targets = [item["target"] for item in audit["items"]]
            for idx, kind, status in fresh:
                item = "joint_extension" if idx is None else f"checks[{idx}] {kind}"
                assert any(t == item or t.startswith(f"{item} ") for t in targets), (kind, status, targets)
                reached[kind].add(status)
        for kind, statuses in self.OUTCOMES.items():
            assert statuses <= reached[kind], (kind, statuses - reached[kind])

    def test_a_refusal_is_re_derived_by_its_name(self, tmp_path):
        code, doc = run_json(["analyze", "instances/every_check_m6.json"], tmp_path)
        (idx, entry), = [(k, c) for k, c in enumerate(doc["checks"]) if c["check"] == "joint_operation"]
        assert code == 0 and entry["outcome"] == "NotCommuting"
        assert entry["diagnostic"] == "a joint operation requires a commuting pair of domains"
        target = f"checks[{idx}] joint_operation"
        code, audit = run_json(["verify-report", str(tmp_path / "out.json")], tmp_path, "verify.json")
        assert code == 0 and {item["target"]: item["ok"] for item in audit["items"]}[target]
        # the diagnostic is informational: a forged one re-verifies, and the item prints the re-derived text
        entry["diagnostic"] = "forged"
        forged = tmp_path / "forged.json"
        forged.write_text(json.dumps(doc))
        code, audit = run_json(["verify-report", str(forged)], tmp_path, "verify.json")
        assert code == 0 and audit["all_ok"] is True
        detail = {item["target"]: item["detail"] for item in audit["items"]}[target]
        assert detail == "refusal NotCommuting re-derived: a joint operation requires a commuting pair of domains"
        entry["outcome"] = "NoProductIsomorphism"
        bad = tmp_path / "renamed.json"
        bad.write_text(json.dumps(doc))
        code, audit = run_json(["verify-report", str(bad)], tmp_path, "verify.json")
        failed = {item["target"]: item["detail"] for item in audit["items"] if not item["ok"]}
        assert code == 2 and list(failed) == [target]
        assert "the operations give 'NotCommuting', the report records 'NoProductIsomorphism'" in failed[target]

    def test_the_residuals_are_computed_once_per_extension(self, tmp_path, monkeypatch):
        calls = []
        residuals = independence.joint_extension_residuals
        monkeypatch.setattr(independence, "joint_extension_residuals",
                            lambda *args, **kwargs: calls.append(args) or residuals(*args, **kwargs))
        code, doc = run_json(["analyze", "instances/tensor_pair_m6.json"], tmp_path)
        assert code == 0 and [c["outcome"] for c in doc["checks"] if c["check"] == "joint_operation"] == ["Extended"]
        assert len(calls) == 1
        for ops in (["prep_left", "prep_right"], ["measure_left", "rotate_right"]):
            calls.clear()
            code, doc = run_json(["extend", "instances/tensor_pair_m6.json", *ops], tmp_path)
            assert code == 0 and doc["joint_extension"]["outcome"] == "Extended"
            assert len(calls) == 1, ops


class TestGoldenSchema:
    @pytest.mark.parametrize(
        "instance,golden,extra",
        [
            ("tensor_pair_m6.json", "tensor_pair_m6.report.json", []),
            ("same_algebra_m2.json", "same_algebra_m2.report.json", []),
            ("split_pair_m6.json", "split_pair_m6.report.json", ["--seed", "42"]),
        ],
    )
    def test_analyze_matches_golden(self, instance, golden, extra, tmp_path):
        code, doc = run_json(
            ["analyze", f"instances/{instance}", *extra], tmp_path
        )
        assert code == 0
        want = json.loads((GOLDEN / golden).read_text())
        assert_structurally_equal(doc, want)

    def test_tensor_pair_report_stays_small(self, tmp_path):
        # the product isomorphism and the factor basis are rebuilt by
        # verify-report, not serialized
        code, _ = run_json(["analyze", "instances/tensor_pair_m6.json"], tmp_path)
        assert code == 0
        assert (tmp_path / "out.json").stat().st_size <= 120_000

    def test_extend_matches_golden(self, tmp_path):
        code, doc = run_json(
            ["extend", "instances/tensor_pair_m6.json", "prep_left", "prep_right"],
            tmp_path,
        )
        assert code == 0
        want = json.loads((GOLDEN / "tensor_prep_extend.report.json").read_text())
        assert_structurally_equal(doc, want)

    @pytest.mark.parametrize("golden", sorted(GOLDEN_COMMANDS))
    def test_report_does_not_depend_on_blas_threads(self, golden, tmp_path):
        # the thread count fixes how LAPACK splits its work, and with it the
        # basis an SVD returns inside a degenerate singular subspace
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": str(PACKAGE_ROOT),
            }
            subprocess.run(
                [sys.executable, "-m", "staralg.cli", *GOLDEN_COMMANDS[golden],
                 "--out", str(out)],
                cwd=REPO, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            reports.append(json.loads(out.read_text()))
        assert_structurally_equal(reports[1], reports[0])

    def test_fuzz_matches_golden(self, tmp_path):
        code, doc = run_json(
            ["fuzz", "tensor_split", "5", "--seed", "7", "--samples", "4"],
            tmp_path,
        )
        assert code == 0
        want = json.loads(
            (GOLDEN / "fuzz_tensor_split_5_seed7.report.json").read_text()
        )
        assert_structurally_equal(doc, want)


def structural_children(node):
    """Keys or indices below a node; a numeric array is one node and has none."""
    if isinstance(node, dict):
        return list(node)
    if isinstance(node, list) and not is_numeric_array(node):
        return list(range(len(node)))
    return []


def is_numeric_array(node):
    if isinstance(node, list):
        return bool(node) and all(is_numeric_array(v) for v in node)
    return node is None or (isinstance(node, (int, float)) and not isinstance(node, bool))


def is_int(node):
    return isinstance(node, int) and not isinstance(node, bool)


# a value of another type for each JSON type; none is larger than what it replaces
SWAPPED_TYPE = {dict: [], list: {}, str: 1, int: "1", float: "1", bool: "true", type(None): []}

# mutation name -> (which nodes it applies to, the edit of the parent container)
MUTATIONS = {
    "drop_key": (lambda parent, value: isinstance(parent, dict), None),
    "swap_type": (lambda parent, value: True, lambda value: SWAPPED_TYPE[type(value)]),
    "empty_list": (lambda parent, value: isinstance(value, list), lambda value: []),
    "shorten_list": (lambda parent, value: bool(isinstance(value, list) and value), lambda value: value[:-1]),
    "bool_for_int": (lambda parent, value: is_int(value), lambda value: True),
    "negative_int": (lambda parent, value: is_int(value), lambda value: -1),
}


class TestMutationFuzz:
    """Structure-only mutations of an instance and a report never escape as exceptions.

    Magnitudes are never raised, so no case asks for more work than the
    file it mutates.
    """

    CASES = 300

    @staticmethod
    def mutate(doc, rng):
        """Walk down from the root to a random node and apply one mutation that fits it.

        The walk stops at each level with probability 0.4, so the top-level
        sections, the check entries and the verdicts are hit far more often
        than a uniform choice among the thousands of leaves would hit them.
        """
        parent, key = doc, rng.choice(structural_children(doc))
        while structural_children(parent[key]) and rng.random() < 0.6:
            parent, key = parent[key], rng.choice(structural_children(parent[key]))
        value = parent[key]
        name = rng.choice(sorted(m for m, (applies, _) in MUTATIONS.items() if applies(parent, value)))
        edit = MUTATIONS[name][1]
        if edit is None:
            del parent[key]
        else:
            parent[key] = edit(value)
        return f"{name} at {key!r}"

    def test_exit_codes_stay_in_0_2_3(self, tmp_path):
        rng = random.Random(20261018)
        sources = [
            ("analyze", INSTANCES / "same_algebra_m2.json"),
            ("verify-report", GOLDEN / "same_algebra_m2.report.json"),
        ]
        originals = [(verb, json.loads(src.read_text())) for verb, src in sources]
        bad = tmp_path / "mutated.json"
        for case in range(self.CASES):
            verb, original = originals[case % 2]
            doc = copy.deepcopy(original)
            what = self.mutate(doc, rng)
            bad.write_text(json.dumps(doc))
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = main([verb, str(bad)])
            except Exception as exc:
                pytest.fail(f"case {case} ({verb}, {what}) raised {exc!r}")
            assert code in (0, 2, 3), f"case {case} ({verb}, {what}): exit {code}"
