"""Benchmark harness for spectral_forge.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client runs a fixed number of the workload's
operations, one at a time, sized to take about S seconds; it checks
every output against a numpy oracle, and prints a JSON line with the environment and, as its last line, the
result: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each op of half as many runs twice, untraced and then traced, and the
metrics are the per-layer ones.  See bench/README.md.
"""

import os

# BLAS threads for this process and, through the inherited environment,
# every child.  Set before numpy loads.  One thread was no slower than
# two on a 2-CPU machine and used half the CPU time.
THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = \
    str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 3

# Ops run between two speed references: about 0.6 s of work.
REFERENCE_EVERY_S = 0.6

# A run on a machine this many times slower than nominal stops early,
# so it still ends in time; its op count then differs from the norm.
STOP_AFTER = 3.0

UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
    "pass_share": "share",
}


def measure_setup(name: str, seed: int, workdir: str) -> tuple:
    """Median time of the workload's set-up in fresh interpreters.

    Returns the median at the reference speed and the raw median.
    """
    times, scaled = [], []
    sensitivity = speed.SENSITIVITY[name]
    ref = speed.reference()
    for rep in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup{rep}")
        os.makedirs(target)
        child = workloads.run_child(
            [os.path.join(workloads.BENCH, "workloads.py"), name, str(seed),
             target], os.path.join(target, "setup.out"))
        if child.returncode != 0:
            raise RuntimeError(f"set-up failed: {child.stderr}")
        times.append(child.wall_s)
        after = speed.reference()
        scaled.append(child.wall_s * speed.scale(ref, after, sensitivity))
        ref = after
        shutil.rmtree(target)
    return statistics.median(scaled), statistics.median(times)


def op_count(workload, seconds: float) -> int:
    """How many ops a run of about ``seconds`` makes: a fixed number.

    The count depends on ``seconds`` and the workload's nominal op time
    only, never on how fast the machine happens to be, so two runs with
    one seed attempt the same ops and fail the same ones.
    """
    return max(1, round(seconds / workload.op_s))


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 workdir: str) -> dict:
    """Set up, run ``op_count(workload, seconds)`` ops, check outputs;
    return the record.

    Traced, the run makes ``ceil(count / 2)`` rounds, each the op
    untraced and then traced on the same input.  The record's metrics
    are the end-to-end ones without ``setup_s`` when untraced, and the
    per-layer ones when traced.
    """
    tracer = spans.Tracer() if traced else None
    if tracer is None:
        state = workload.prepare(seed, workdir)
    else:
        with tracer.installed("setup"):
            state = workload.prepare(seed, workdir)

    ops, refs = [], []
    count = op_count(workload, seconds)
    rounds = count if tracer is None else (count + 1) // 2
    every = max(1, round(REFERENCE_EVERY_S / workload.op_s))
    start = time.perf_counter()
    for k in range(rounds):
        if k and time.perf_counter() - start > STOP_AFTER * seconds:
            break
        if k % every == 0:
            refs.append(speed.reference())
        ops.append(workload.run_op(state, k, workdir))
        if tracer is not None:
            ops.append(workload.run_op(state, k, workdir, tracer))
    refs.append(speed.reference())
    timed_s = time.perf_counter() - start
    sensitivity = speed.SENSITIVITY[workload.name]
    for op in ops:
        op.scale = speed.scale(*refs[op.k // every:op.k // every + 2],
                               sensitivity)

    problems = workload.check(state, ops)
    record = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.error is not None for op in ops),
        "problems": problems,
        "failures": sorted({op.error for op in ops if op.error}),
        "ops": [[op.index, op.traced, op.latency_s, op.verify_s, op.error,
                 op.scale] for op in ops],
        "references_s": refs,
    }
    if tracer is None:
        record["metrics"] = end_to_end(ops, workload.library)
        record["detail"] = detail(ops, refs, timed_s)
        return record
    traced_ops = [op for op in ops if op.traced]
    plain = sum(_op_wall(op) for op in ops if not op.traced)
    overhead = sum(_op_wall(op) for op in traced_ops) / plain - 1.0
    startup = statistics.fmean(op.startup_s for op in traced_ops)
    record["metrics"] = spans.summarize(
        tracer.spans, len(traced_ops), "setup", startup, overhead)
    record["absent"] = sorted(tracer.absent)
    record["spans"] = tracer.spans
    return record


def _op_wall(op) -> float:
    return op.latency_s + sum(op.verify_s)


def end_to_end(ops, library: bool) -> dict:
    """The end-to-end metrics of an untraced run, without ``setup_s``.

    Times are at the reference speed (see speed.py).
    """
    latencies = [_op_wall(op) * op.scale for op in ops]
    artifacts = [op.artifact_bytes for op in ops
                 if op.artifact_bytes is not None]
    if library:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss = rss_kib * 1024 / 1e6
    else:
        rss = max(op.rss_mb for op in ops)
    return {
        "latency_p50_s": statistics.median(latencies),
        "ops_per_s": len(ops) / sum(latencies),
        "peak_rss_mb": rss,
        "artifact_mb": statistics.fmean(artifacts) / 1e6 if artifacts
        else 0.0,
        "pass_share": sum(op.error is None for op in ops) / len(ops),
    }


def detail(ops, refs, timed_s: float) -> dict:
    """Timings reported beside the metrics but not gated by a bound.

    The first three are at the reference speed; ``raw`` holds the gated
    times as the clock read them, with the reference times they were
    scaled by.
    """
    walls = [_op_wall(op) * op.scale for op in ops]
    verifies = [v * op.scale for op in ops for v in op.verify_s]
    return {
        "latency_p90_s": float(np.percentile(walls, 90)),
        "main_p50_s": statistics.median(op.latency_s * op.scale
                                        for op in ops),
        "verify_p50_s": statistics.median(verifies) if verifies else None,
        "raw": {
            "latency_p50_s": statistics.median(_op_wall(op) for op in ops),
            "ops_per_s": len(ops) / timed_s,
            "reference_s": statistics.median(refs),
        },
    }


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "seed": seed,
    }


def pin_to_one_cpu():
    """Run this process and its children on one CPU.

    The CPUs of a shared machine change speed independently, so the
    speed reference only tracks the ops when both run on the same CPU.
    Ops run one at a time, so one CPU loses no parallelism.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(workloads.SRC, "spectral_forge")):
        print(f"error: no package sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    pin_to_one_cpu()

    out_dir = os.path.join(workloads.BENCH, ".work")
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(out_dir, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_s = None
        if not args.trace:
            setup_s, setup_raw_s = measure_setup(args.workload, args.seed,
                                                 workdir)
        record = run_workload(workloads.WORKLOADS[args.workload](),
                              args.seed, args.seconds, bool(args.trace),
                              workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup_s is not None:
        record["metrics"]["setup_s"] = setup_s
        record["detail"]["raw"]["setup_s"] = setup_raw_s
    env = environment(args.seed)
    with open(os.path.join(out_dir, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"env": env, "workload": args.workload, **record}, handle)
    units = spans.metric_units() if args.trace else UNITS
    print(json.dumps({"env": env, "detail": record.get("detail"),
                      "failures": record["failures"],
                      "problems": record["problems"]}))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
