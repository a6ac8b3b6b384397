"""``src/staralg`` is what a verb reaches: the verbs' replay enters every function, or the allow-list names it.

The replay runs in-process under ``sys.setprofile``: ``analyze`` on every
bundled instance, README's two ``extend`` runs, ``fuzz F 5 --seed 1`` for
each family, then ``verify-report`` on every report written and on every
golden.  Functions are read off the compiled sources (lambdas and
comprehensions aside), so a nested function counts as well as a method.
Each allow-list entry gives its reason, and the list is exact: an entry the
replay reaches, or one no longer defined, fails the test as much as an
unlisted function it never enters.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import types
from pathlib import Path

import staralg
from staralg import cli

SRC = Path(staralg.__file__).resolve().parent
REPO = Path(__file__).resolve().parent.parent

ACCEPTANCE = "a criterion of tests/test_acceptance.py calls it"
README = "README's library example calls it"
ERROR_PATH = "an error path: it runs only on input that is refused"
IMPORT = "it runs only at import, building a row of instances.CHECKS"
TRIO = "the ProductIsomorphism trio: perfbench/spans.py reads it until the benchmark changes (ROADMAP item 6)"
LIBRARY = ("library API that no verb, criterion or README example reaches, kept on purpose: tests build "
           "fixtures with it, and InterpolatingFactor.algebra is the paper's interpolating factor M")


def through(caller: str) -> str:
    return f"reached only through {caller}"


UNREACHED = {
    "algebra.AlgebraStructure.blocks": through("algebra.structure_decomposition"),
    "algebra.AlgebraStructure.offsets": through("algebra.structure_decomposition"),
    "algebra._verify_structure": through("algebra.structure_decomposition"),
    "algebra.commutant": ACCEPTANCE,
    "algebra.conditional_expectation": ACCEPTANCE,
    "algebra.scalar_algebra": LIBRARY,
    "algebra.structure_decomposition": ACCEPTANCE,
    "certificates._check_noncommuting": "the re-check of a non-commuting pair's split witness, which only an analyze "
                                        "report of such a pair carries; no bundled instance is one",
    "certificates._raise_bad_entry": ERROR_PATH,
    "certificates.check_verdicts": README,
    "channels.ChannelMap.apply": ACCEPTANCE,
    "channels._tensor_superop": through("channels.tensor_channel"),
    "channels.channel_from_kraus": ACCEPTANCE,
    "channels.dual_on_states": ACCEPTANCE,
    "channels.is_completely_positive": ACCEPTANCE,
    "channels.stinespring_dilation": ACCEPTANCE,
    "channels.superop_from_function": ACCEPTANCE,
    "channels.tensor_channel": ACCEPTANCE,
    "cli._default_checks": "analyze of an instance file without a checks list; every bundled instance has one",
    "independence.InterpolatingFactor.algebra": LIBRARY,
    "independence.ProductIsomorphism._residuals": TRIO,
    "independence.ProductIsomorphism.validate": TRIO,
    "independence._multiplication_map": TRIO,
    "independence.joint_operation": ACCEPTANCE,
    "independence.product_isomorphism": TRIO,
    "independence.verify_product_transition": ACCEPTANCE,
    "instances._missing_transition": ERROR_PATH,
    "instances._recheck_outcome": IMPORT,
    "instances._verdict": IMPORT,
    "instances.load": README,
    "numerics.haar_unitary": ACCEPTANCE,
    "numerics.kron": README,
    "sampling._expi": through("sampling.random_faithful_nonselective_channel"),
    "sampling.random_density": ACCEPTANCE,
    "sampling.random_faithful_nonselective_channel": ACCEPTANCE,
    "sampling.random_prep_channel": ACCEPTANCE,
    "sampling.random_pure_density": ACCEPTANCE,
    "sampling.sample_state_pairs": ACCEPTANCE,
    "states.AlgebraState.is_faithful": ACCEPTANCE,
    "states._separating_directions": through("states.extend_state, when it refuses, as criterion 8 makes it"),
    "states.is_faithful": through("states.AlgebraState.is_faithful"),
    "states.state_from_values": LIBRARY,
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> ``module.qualname`` of every function compiled from ``src/staralg``."""
    out = {}

    def walk(code: types.CodeType, module: str, prefix: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                qualname = prefix + const.co_name
                function = bool(const.co_flags & 0x1)  # CO_OPTIMIZED: a function body, not a class body
                if function and not const.co_name.startswith("<"):
                    out[(const.co_filename, const.co_firstlineno, const.co_name)] = f"{module}.{qualname}"
                walk(const, module, qualname + (".<locals>." if function else "."))

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, "")
    return out


def replay(tmp_path: Path) -> set[tuple[str, int, str]]:
    """(file, first line, name) of every function the verbs enter, with every staralg cache cleared first."""
    for name, module in list(sys.modules.items()):
        if name.startswith("staralg"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    runs = [["analyze", f"instances/{p.name}"] for p in sorted((REPO / "instances").glob("*.json"))]
    runs += [["extend", "instances/tensor_pair_m6.json", "prep_left", "prep_right"],
             ["extend", "instances/tensor_pair_m6.json", "measure_left", "rotate_right"]]
    runs += [["fuzz", family, "5", "--seed", "1"] for family in staralg.FUZZ_FAMILIES]
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    reports = [tmp_path / f"report_{i}.json" for i in range(len(runs))]
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes_run = [cli.main([*argv, "--out", str(out)]) for argv, out in zip(runs, reports)]
            for report in reports + sorted((REPO / "instances" / "golden").glob("*.report.json")):
                codes_run.append(cli.main(["verify-report", str(report)]))
    finally:
        sys.setprofile(None)
    assert codes_run == [0] * len(codes_run)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in codes}


def test_every_function_is_reached_or_allowed(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # bundled instance paths are repo-relative
    defined = {(str(Path(f).resolve()), line, name): qual for (f, line, name), qual in defined_functions().items()}
    called = replay(tmp_path)
    unreached = {qual for key, qual in defined.items() if key not in called}
    assert sorted(unreached - set(UNREACHED)) == [], "unreached and not on the allow-list"
    assert sorted(set(UNREACHED) - unreached) == [], "on the allow-list but reached, or gone"


def test_each_reason_holds_where_it_can_be_read():
    functions = set(defined_functions().values())
    acceptance = (REPO / "tests" / "test_acceptance.py").read_text()
    example = re.search(r"## Library example\s+```python\n(.*?)```", (REPO / "README.md").read_text(), re.S).group(1)
    for qualname, reason in UNREACHED.items():
        leaf = qualname.rsplit(".", 1)[1]
        if reason == ACCEPTANCE:
            assert re.search(rf"\b{leaf}\b", acceptance), qualname
        elif reason == README:
            assert re.search(rf"\b{leaf}\b", example), qualname
        elif reason.startswith("reached only through "):
            assert reason.removeprefix("reached only through ").split(",")[0] in functions, qualname
