"""Benchmark of csiqa's three user-facing jobs, end to end and per layer.

Workloads (one closed-loop client, one process, each input made from
``--seed``):

  train-desk       pipeline.train, desk config; one op is one training step
  pretrain-corpus  sampling.pretrain_csm, criterion-9 corpus; one op is one epoch
  score-fivecrop   pipeline.predict_image after a checkpoint round trip;
                   one op is one image scored over five crops

Run one workload as

  python3 perfbench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half with
every layer wrapped, and reports the per-layer metrics (per op, self time)
and the tracing overhead. The line before it, and a file under
``perfbench/results/``, hold the environment record. ``failed`` over
``attempted`` is the failed fraction: ops that raised or gave a non-finite
output.

  python3 perfbench/run.py --workload all       every workload, each in a
                                                fresh process, as a table
  python3 perfbench/run.py --self-test          per-layer counts repeat
                                                exactly; missing wrap
                                                targets are reported

Set-up is repeated ``SETUP_REPS`` times per run and ``setup_s`` is the
import time plus their median. The first set-up always uses
``REFERENCE_SEED``; its warm-up output is ``result_mse``, so that metric
changes only when the code does. ``HELD_OUT_SEED`` was never run while the
benchmark was tuned; keep it for confirming a claimed gain.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKDIR = HERE / ".work"

WORKLOAD_NAMES = ("train-desk", "pretrain-corpus", "score-fivecrop")
SETUP_REPS = 3
REFERENCE_SEED = 0
HELD_OUT_SEED = 7919
CHILD_TIMEOUT_S = 600
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_mse": "mse",
}

# per-layer metric -> (unit, source, key); all but the last three are per op
PER_LAYER = {
    "pipeline.forward.calls": ("count", "calls", "pipeline.forward"),
    "pipeline.forward.ms": ("ms", "self", "pipeline.forward"),
    "numerics.tape_ops": ("count", "counts", "numerics.tape_ops"),
    "numerics.backward.ms": ("ms", "self", "numerics.backward"),
    "numerics.adam_step.ms": ("ms", "self", "numerics.adam_step"),
    "numerics.gather_rows.rows": ("count", "counts", "numerics.gather_rows.rows"),
    "numerics.matmul.gflop": ("gflop_computed", "counts", "numerics.matmul.flops"),
    "sampling.sample.ms": ("ms", "self", "sampling.sample"),
    "sampling.csnet_reconstruct.ms": ("ms", "self", "sampling.csnet_reconstruct"),
    "gridops.conv3x3.ms": ("ms", "self", "gridops.conv3x3"),
    "gridops.conv3x3.calls": ("count", "calls", "gridops.conv3x3"),
    "embedding.embed.ms": ("ms", "self", "embedding.embed"),
    "encoder.encode.ms": ("ms", "self", "encoder.encode"),
    "encoder.window_refine.ms": ("ms", "self", "encoder.window_refine"),
    "head.score.ms": ("ms", "self", "head.score"),
    "gc.pause.ms": ("ms", "self", "gc.pause"),
    "gc.collections": ("count", "calls", "gc.pause"),
    "data.random_crop.ms": ("ms", "self", "data.random_crop"),
    "untraced.ms": ("ms", "untraced", None),
    # per set-up rather than per op
    "pipeline.load_model.ms": ("ms", "setup", "pipeline.load_model"),
    "pipeline.save_model.ms": ("ms", "setup", "pipeline.save_model"),
    # traced op_ms_p50 over untraced op_ms_p50, both from the same run
    "trace.overhead": ("x", "overhead", None),
}

# per-layer counts that must repeat exactly for a fixed seed and op count
EXACT_COUNTS = ("numerics.tape_ops", "pipeline.forward.calls", "numerics.gather_rows.rows",
                "gridops.conv3x3.calls", "numerics.matmul.gflop")


def blas_threads() -> int:
    """At most two BLAS threads, and never more than this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def git_state() -> dict:
    """HEAD and a dirty flag when run from a git checkout, else nulls."""
    state = {"git_sha": None, "git_dirty": None}
    if not (ROOT / ".git").exists():
        return state
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return state
    state["git_sha"] = sha.stdout.strip()
    state["git_dirty"] = bool(dirty.stdout.strip())
    return state


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        **git_state(),
    }


def _ms_quantiles(op_s: list[float]) -> tuple[float, float]:
    """Median and 90th percentile of op durations, in ms."""
    ms = sorted(1e3 * s for s in op_s)
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[-1]


def run_one(name: str, seed: int, seconds: float, trace: bool, ops: int | None) -> int:
    started = time.perf_counter()
    import numpy  # noqa: F401  (import time is part of set-up)
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, OpMarks
    import_s = time.perf_counter() - started

    workload = WORKLOADS[name]
    setup_tracer = Tracer() if trace else None
    missing: list[str] = []
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp, OpMarks() as marks:
        if setup_tracer:
            setup_tracer.install()  # its missing targets are the op tracer's too
        setup_s = []
        for rep, rep_seed in enumerate([REFERENCE_SEED] + [seed] * (SETUP_REPS - 1)):
            workdir = os.path.join(tmp, f"setup{rep}")
            os.mkdir(workdir)
            t0 = time.perf_counter()
            ctx = workload.setup(rep_seed, workdir, marks)
            setup_s.append(time.perf_counter() - t0)
            if rep == 0:
                result_mse = ctx["result_mse"]
        if setup_tracer:
            setup_tracer.uninstall()

        if trace:
            untraced = workload.run(ctx, marks, seconds / 2, ops)
            tracer = Tracer()
            missing = tracer.install()
            try:
                traced = workload.run(ctx, marks, seconds / 2, ops)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        else:
            phases = [workload.run(ctx, marks, seconds, ops)]
        problems = workload.check(ctx)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if trace:
        metrics = per_layer_metrics(untraced, traced, tracer, setup_tracer)
        op_samples = len(traced.op_s)
    else:
        phase = phases[0]
        p50, p90 = _ms_quantiles(phase.op_s)
        values = {
            "ops_per_s": len(phase.op_s) / phase.wall_s,
            "op_ms_p50": p50,
            "op_ms_p90": p90,
            "setup_s": import_s + statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "result_mse": result_mse,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        op_samples = len(phase.op_s)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "op_samples": op_samples,
        "failed_frac": failed / attempted,
        "problems": problems,
        "missing_wrap_targets": missing,
        "import_s": import_s,
        "setup_reps_s": setup_s,
        "environment": environment(),
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps({**record, "metrics": metrics}, indent=1) + "\n")
    for line in problems + [f"missing wrap target: {m}" for m in missing]:
        print(line, file=sys.stderr)
    print("# " + json.dumps(record))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics(untraced, traced, tracer, setup_tracer) -> dict:
    n = len(traced.op_s)
    sources = {
        "self": lambda key: 1e3 * tracer.self_s.get(key, 0.0) / n,
        "calls": lambda key: tracer.calls.get(key, 0) / n,
        "counts": lambda key: tracer.counts.get(key, 0) / n,
        "setup": lambda key: 1e3 * setup_tracer.self_s.get(key, 0.0) / SETUP_REPS,
        "untraced": lambda key: 1e3 * (traced.wall_s - tracer.top_level_s) / n,
        "overhead": lambda key: (_ms_quantiles(traced.op_s)[0]
                                 / _ms_quantiles(untraced.op_s)[0]),
    }
    metrics = {}
    for name, (unit, source, key) in PER_LAYER.items():
        value = sources[source](key)
        if unit == "gflop_computed":
            value /= 1e9
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_child(name: str, seed: int, seconds: float, trace: int, ops: int | None = None) -> dict:
    """Run one workload in a fresh process and return its result line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2][2:])
    return result


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result = run_child(name, seed, seconds, trace)
            record = result["record"]
            ok &= result["correct"]
            print(f"== {name} trace={trace} correct={result['correct']} "
                  f"failed_frac={record['failed_frac']:g} "
                  f"({result['failed']}/{result['attempted']}) "
                  f"op_samples={record['op_samples']}")
            for problem in record["problems"] + record["missing_wrap_targets"]:
                print(f"   ! {problem}")
            for metric, m in result["metrics"].items():
                print(f"   {metric:32s} {m['value']:14.6g} {m['unit']}")
    env = record["environment"]
    print(f"# nproc={env['nproc']} blas={env['blas_name']} {env['blas_version']} "
          f"threads={env['blas_threads_pinned']} numpy={env['numpy']} "
          f"python={env['python']} git={env['git_sha']} dirty={env['git_dirty']}")
    return 0 if ok else 1


def self_test() -> int:
    """Exact repeat of per-layer counts; missing targets reported by name."""
    failures = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "workloads": [w["name"] for w in spec["workloads"]],
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reported = {
        "workloads": list(WORKLOAD_NAMES),
        "end_to_end": END_TO_END_UNITS,
        "per_layer": {name: unit for name, (unit, _, _) in PER_LAYER.items()},
    }
    for key in declared:
        if declared[key] != reported[key]:
            failures.append(f"BENCHMARK.json {key} {declared[key]} != reported {reported[key]}")

    for name in WORKLOAD_NAMES:
        first, second = (run_child(name, REFERENCE_SEED, 1, 1, ops=3) for _ in range(2))
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                failures.append(f"{name}: traced run not correct: {result['record']['problems']}")
        for key in EXACT_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{name:16s} {key:28s} {a!r:>22} {b!r:>22} {status}")
            if a != b:
                failures.append(f"{name}: {key} {a!r} != {b!r}")

    sys.path.insert(0, str(SRC))
    import csiqa  # noqa: F401  (the targets must be importable to be looked up)
    from tracer import Tracer

    bogus = Tracer(spans={"absent.span": ("csiqa.numerics", "no_such_function"),
                          "absent.module": ("csiqa.no_such_module", "f")},
                   counters={"absent.counter": [("csiqa.numerics", "Tensor.no_such_method",
                                                 lambda *a: 1)]})
    missing = bogus.install()
    bogus.uninstall()
    expected = ["absent.span (csiqa.numerics:no_such_function)",
                "absent.module (csiqa.no_such_module:f)",
                "absent.counter (csiqa.numerics:Tensor.no_such_method)"]
    print(f"missing targets reported: {missing}")
    if missing != expected:
        failures.append(f"missing targets reported as {missing}, expected {expected}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run this many ops per phase instead of --seconds")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.ops is not None and args.ops < 1:
        parser.error("--ops must be at least 1")
    if not (SRC / "csiqa" / "__init__.py").is_file():
        print(f"error: no csiqa sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # pin before numpy is imported here or in any child process
    for var in BLAS_ENV:
        os.environ[var] = str(blas_threads())

    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)


if __name__ == "__main__":
    sys.exit(main())
