"""One round of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SIZE SEED INPUT_SET TRACED BUDGET_S

Pins BLAS to one thread before NumPy loads, times the set-up (import of
cartanflow, plus the public calls that fill the per-descriptor caches for
the warm workloads), then runs passes of the workload's job list on input
set INPUT_SET until BUDGET_S seconds are spent (at least one pass; exactly
one when traced) and prints one JSON object on standard output.
"""

import os

# before anything imports NumPy
BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "CARTANFLOW_THREADS": "1",
}
os.environ.update(BLAS_PINS)

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import jobs  # noqa: E402
import tracing  # noqa: E402


def machine() -> dict:
    import numpy
    import scipy

    import cartanflow

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "blas": blas,
        "blas_thread_pins": BLAS_PINS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cartanflow": cartanflow.__version__,
    }


_REF_BATCH = None


def reference_s() -> float:
    """Wall time of a fixed piece of work that does not touch cartanflow.

    An interpreter loop and batched small-matrix LAPACK, like the jobs.
    Timed next to every job, it shows how fast the shared host runs at that
    moment."""
    global _REF_BATCH
    import numpy as np

    if _REF_BATCH is None:
        _REF_BATCH = np.random.default_rng(0).standard_normal((64, 16, 16))
    t = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.linalg.svd(_REF_BATCH, compute_uv=False)
    np.linalg.svd(_REF_BATCH)
    return time.perf_counter() - t


def run_pass(job_list: list, tracer: tracing.Tracer) -> dict:
    """Run the job list once; a job that raises or misses a check is failed."""
    misses: list[jobs.Miss] = []
    job_s = {}
    ref_s = []
    failed = []
    t0 = time.perf_counter()
    for job in job_list:
        ref_s.append(reference_s())
        t = time.perf_counter()
        with tracer.span(f"bench.job.{job.label}"):
            try:
                found = job.run()
            except Exception as exc:  # a raising job is a failed job; the pass goes on
                found = [jobs.Miss(job.label, f"raised {type(exc).__name__}: {exc}", False)]
        job_s[job.label] = time.perf_counter() - t
        misses += found
        if found:
            failed.append(job.label)
    ref_s.append(reference_s())
    return {
        "solve_s": time.perf_counter() - t0 - sum(ref_s),
        "job_s": job_s,
        "ref_s": ref_s,
        "failed": failed,
        "wrong": [f"{m.job}: {m.message}" for m in misses if m.exact],
        "missed": [f"{m.job}: {m.message}" for m in misses if not m.exact],
    }


def main(argv: list[str]) -> int:
    workload, size_name, seed, input_set, traced, budget = argv
    seed, input_set, traced = int(seed), int(input_set), traced == "1"
    size = jobs.SIZES[size_name]

    t0 = time.perf_counter()
    import cartanflow  # noqa: F401
    import cartanflow.cli  # noqa: F401

    jobs.setup(workload, size, seed)
    setup_s = time.perf_counter() - t0

    reference_s()  # warm, after the timed set-up
    setup_ref_s = statistics.median(reference_s() for _ in range(5))
    tracer = tracing.Tracer()
    absent = tracing.install(tracer) if traced else []
    # passes repeat the input set until the budget is spent; a traced round
    # runs one pass
    deadline = time.perf_counter() + float(budget)
    passes = []
    while not passes or (not traced and time.perf_counter() + passes[-1]["solve_s"] <= deadline):
        job_list = jobs.build_jobs(workload, size, seed, input_set, tracer)
        passes.append(run_pass(job_list, tracer))

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "input_set": input_set,
        "traced": traced,
        "machine": machine(),
    }
    if traced:
        summary = tracing.summarize(tracer)
        result["layers"] = tracing.layer_metrics(tracer, workload, size_name)
        result["self_sum_s"] = sum(summary["self"].values())
        result["absent_targets"] = absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
