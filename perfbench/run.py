"""staralg benchmark: one workload per invocation, a closed loop in one process.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The workload runs pass after pass (see ``workloads.py``) for about
``--seconds``: a pass starts only if the median pass so far says it ends
inside the budget, and at least one pass always runs.  With ``--trace 0``
nothing is instrumented and the run reports the end-to-end metrics.
With ``--trace 1`` every pass runs twice, once without tracing and once
on freshly built inputs under ``spans.Tracer``, and the run reports the
per-layer metrics per pass; the traced verdicts must equal the untraced
ones.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a record of the environment, the workload's own metrics and its
verdict counts.  The exit code is 0 only if every check passed.
"""
import os

# Pinned before numpy is imported: one golden report differs at two BLAS threads.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import staralg.cli; print(time.perf_counter() - t)"
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
}

# Per-layer metrics beyond "<layer>.self_s" and "<layer>.calls": (span, field, unit).
SPAN_METRICS = (
    ("independence.ProductIsomorphism.validate", "self_s", "s"),
    ("independence.ProductIsomorphism.validate", "calls", "count"),
    ("numerics.null_space", "self_s", "s"),
    ("numerics.null_space", "calls", "count"),
    ("numerics.orthonormalize", "self_s", "s"),
    ("numerics.eig_hermitian", "calls", "count"),
    ("algebra.center_and_factor", "calls", "count"),
    ("algebra.center_and_factor", "self_s", "s"),
    ("algebra.join", "self_s", "s"),
    ("algebra.generate_algebra", "self_s", "s"),
    ("algebra.commutant", "self_s", "s"),
    ("states.extend_state_batch", "self_s", "s"),
    ("states.extend_state_batch", "calls", "count"),
    ("states.is_faithful", "self_s", "s"),
    ("channels.is_completely_positive", "calls", "count"),
    ("channels.build_channel", "self_s", "s"),
    ("channels.kraus_from_choi", "self_s", "s"),
    ("sampling.sample_state_pairs", "self_s", "s"),
    ("sampling.random_faithful_nonselective_channel", "self_s", "s"),
    ("cli.cmd_analyze", "self_s", "s"),
    ("cli.cmd_verify_report", "self_s", "s"),
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("ladder", "refusal_sweep", "cli_roundtrip"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(ops) -> list:
    """Time each op's call; inspect its result outside the timed region."""
    from workloads import Inspected

    records = []
    for op in ops:
        t = time.perf_counter()
        try:
            raw, error = op.call(), None
        except Exception as exc:  # a raising call is a failed operation, not a harness error
            raw, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if error is not None:
            inspected = Inspected(None, error)
        else:
            try:
                inspected = op.inspect(raw)
            except Exception as exc:  # unreadable output counts against the operation
                inspected = Inspected(None, f"output check raised {type(exc).__name__}: {exc}")
        records.append((op.label, dt, inspected))
    return records


def busy_s(passes) -> float:
    return sum(dt for p in passes for _, dt, _ in p)


def run_untraced(wl, budget_s: float) -> tuple[list, float]:
    """Passes for ``budget_s`` seconds, and the peak RSS after the first one.

    The peak is taken after one pass because later passes raise it by
    heap growth, and how many passes fit depends on the speed of the box."""
    passes, pass_times = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(pass_times) <= budget_s:
        passes.append(run_pass(wl.build(len(passes))))
        pass_times.append(busy_s(passes[-1:]))
        if len(passes) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, rss_mb


def run_traced(wl, replay, tracer, budget_s: float) -> tuple[list, list]:
    """Each pass twice, untraced and traced, in alternating order so drift and
    first-call costs do not land on one side.  Both copies of a pass are
    built before either runs: instance generation is set-up, not layer work."""
    passes, traced, pair_times = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(pair_times) <= budget_s:
        k = len(passes)
        plain_ops, traced_ops = wl.build(k), replay.build(k)
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    traced.append(run_pass(traced_ops))
            else:
                passes.append(run_pass(plain_ops))
        pair_times.append(busy_s(passes[-1:]) + busy_s(traced[-1:]))
    return passes, traced


def measure_setup(make_workload) -> tuple[float, list[float], list[float]]:
    """Median child-process import time plus median in-process input build time."""
    imports = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        imports.append(float(out.stdout.split()[-1]))
    builds = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        make_workload().build(0)
        builds.append(time.perf_counter() - t)
    return statistics.median(imports) + statistics.median(builds), imports, builds


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
    }


def end_to_end(wl, passes, setup_s: float, rss_mb: float) -> dict:
    if wl.time_unit == "pass":
        units = [busy_s([p]) for p in passes]
    else:
        units = [dt for p in passes for _, dt, _ in p]
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "op_p50_s": statistics.median(units),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracer, untraced, traced) -> dict:
    n = len(traced)
    extras = {"report_bytes": 0, "verify_items": 0}
    for _, _, ins in (op for p in traced for op in p):
        for key, value in (ins.counts or {}).items():
            extras[key] += value
    out = {}
    for layer, (self_s, calls) in tracer.layer_totals().items():
        out[f"{layer}.self_s"] = (self_s / n, "s")
        out[f"{layer}.calls"] = (calls / n, "count")
    for span, field, unit in SPAN_METRICS:
        table = tracer.self_s if field == "self_s" else tracer.calls
        out[f"{span}.{field}"] = (table.get(span, 0) / n, unit)
    out["states.solver_iterations"] = (tracer.solver_iterations / n, "count")
    out["states.decided_frac"] = (tracer.decided / tracer.problems if tracer.problems else 0.0, "ratio")
    out["cli.report_bytes"] = (extras["report_bytes"] / n, "B")
    out["cli.verify_items"] = (extras["verify_items"] / n, "count")
    out["trace.overhead_s"] = ((busy_s(traced) - busy_s(untraced)) / n, "s")
    out["trace.coverage"] = (tracer.covered_s / busy_s(traced), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "staralg" / "__init__.py").is_file() or not (ROOT / "instances" / "golden").is_dir():
        print(f"error: no staralg checkout at {ROOT} (need src/staralg and instances/golden)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import staralg

    if Path(staralg.__file__).resolve().parent != SRC / "staralg":
        print(f"error: staralg was imported from {staralg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        make = lambda: workloads.WORKLOADS[args.workload](args.seed, ROOT, work)  # noqa: E731
        setup_s, imports, builds = measure_setup(make)
        wl = make()
        if args.trace:
            tracer = Tracer()
            passes, traced = run_traced(wl, make(), tracer, args.seconds)
        else:
            (passes, rss_mb), traced = run_untraced(wl, args.seconds), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()

    ops = [op for p in passes + traced for op in p]
    failures = [(label, ins.failure) for label, _, ins in ops if ins.failure]
    mismatched = [
        (a[0], a[2].signature, b[2].signature)
        for pa, pb in zip(passes, traced)
        for a, b in zip(pa, pb)
        if a[2].signature != b[2].signature
    ]
    failures += [(label, f"traced verdict {t} != untraced {u}") for label, u, t in mismatched]
    attempted = len(ops)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(passes),
        "setup": {"setup_s": setup_s, "import_s": imports, "build_s": builds},
        "failed_frac": len(failures) / attempted,
        "workload_metrics": wl.summary(passes),
        "verdict_counts": workloads.verdict_table(passes),
        "failures": failures[:20],
    }
    metrics = per_layer(tracer, passes, traced) if args.trace else end_to_end(wl, passes, setup_s, rss_mb)
    for name, m in {**record["workload_metrics"], **metrics}.items():
        extra = f"  (n={m['n']})" if "n" in m else ""
        print(f"{name:<52} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{'failed_frac':<52} {record['failed_frac']:.6g} ratio  ({len(failures)} of {attempted})")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
