"""cartanflow benchmark: time to a verified solution, one job at a time.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload geometry-cold --seed 1 --seconds 33 --trace 0

A run is a sequence of rounds.  Each round is a fresh interpreter
(perfbench/worker.py) with BLAS pinned to one thread: it sets up, then runs
passes of the workload's fixed job list and checks every job's output.
Rounds share ``--seconds`` (see ``run_rounds``).  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with times scaled to the
shared host's momentary speed (see ``solve_time``); ``--trace 1`` reports
the per-layer metrics of the traced rounds.  The line before the result
holds the machine description and every round's raw figures.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs
import tracing

HERE = Path(__file__).resolve().parent
END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
COLD = "geometry-cold"
MIN_ROUNDS = 3  # cold rounds: one pass each
WARM_ROUNDS = 5  # warm rounds: set-up once, then passes until their share of the time is spent
DEADLINE_S = 170.0  # every run ends well inside three minutes
# Times are scaled to a host that runs worker.reference_s in REF_S seconds,
# about what the machine of the README's baseline takes in its fast spells.
REF_S = 0.008


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", required=True, type=_seed)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--size", default="full", choices=tuple(jobs.SIZES),
                   help="job-list size; 'smoke' is the tiny list of the smoke test")
    return p.parse_args(argv)


def run_round(root: Path, args, input_set: int, traced: bool, budget: float,
              timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, args.size,
           str(args.seed), str(input_set), "1" if traced else "0", f"{budget:.3f}"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"round on input set {input_set} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(root: Path, args) -> list[dict]:
    """Rounds until the measuring time is spent.

    The cold workload runs one pass per fresh process, at least three, more
    while time allows.  The warm workloads set up in WARM_ROUNDS processes
    that share the time.  A traced run makes two untraced rounds on half the
    time, each followed by a traced one-pass round on the same inputs.

    Untraced round i runs input set i modulo the minimum round count, so the
    jobs a run checks are fixed by its seed, whatever the host's speed.
    """
    trace = args.trace == "1"
    cold = args.workload == COLD
    n_plain = 2 if trace else (MIN_ROUNDS if cold else WARM_ROUNDS)
    seconds = args.seconds / 2 if trace else args.seconds
    rounds: list[dict] = []
    overheads: list[float] = []  # round wall time outside its passes
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        plain = [r for r in rounds if not r["traced"]]
        if len(plain) >= n_plain:
            if not cold or trace:
                break
            typical = statistics.median(sum(p["solve_s"] for p in r["passes"]) for r in plain)
            if elapsed + typical + statistics.median(overheads) > seconds:
                break
        overhead = statistics.median(overheads) if overheads else 1.5
        budget = 0.0 if cold else max(0.0, (seconds - elapsed) / (n_plain - len(plain)) - overhead)
        input_set = len(plain) % n_plain
        for traced in ([False, True] if trace else [False]):
            t = time.monotonic()
            timeout = max(10.0, DEADLINE_S - (t - start))
            r = run_round(root, args, input_set, traced, 0.0 if traced else budget, timeout)
            overheads.append(time.monotonic() - t - sum(p["solve_s"] for p in r["passes"]))
            rounds.append(r)
    return rounds


def outcomes(rounds: list[dict]) -> dict:
    """Whether each checked job failed, keyed by (input set, job).

    Passes repeat their round's inputs, so a job counts once however often
    it ran; it failed if any of its runs raised or missed a check."""
    out: dict = {}
    for r in rounds:
        for p in r["passes"]:
            for job in p["job_s"]:
                key = (r["input_set"], job)
                out[key] = out.get(key, False) or job in p["failed"]
    return out


def _commit(root: Path) -> str | None:
    """The checkout's git commit; a plain source tree has none."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or None


def scaled(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the host ran the reference in ``ref_s``,
    scaled to a host that runs it in REF_S."""
    return seconds * REF_S / ref_s


def solve_time(passes: list[dict]) -> float:
    """Scaled time of one pass of the job list: the sum over the jobs of
    the median over the run of each job's time, each run of a job scaled by
    the mean of the reference times taken just before and just after it."""
    jobs_s: dict[str, list[float]] = {}
    for p in passes:
        refs = p["ref_s"]
        for i, (job, s) in enumerate(p["job_s"].items()):
            jobs_s.setdefault(job, []).append(scaled(s, (refs[i] + refs[i + 1]) / 2))
    return sum(statistics.median(v) for v in jobs_s.values())


def aggregate(root: Path, args, rounds: list[dict]) -> tuple[dict, dict]:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    passes = [p for r in rounds for p in r["passes"]]
    plain_passes = [p for r in plain for p in r["passes"]]
    wrong = sorted({w for p in passes for w in p["wrong"]})
    checked = outcomes(rounds)
    result = {
        "correct": not wrong,
        "attempted": len(checked),
        "failed": sum(checked.values()),
    }
    if args.trace == "0":
        values = {
            "solve_s": solve_time(plain_passes),
            "setup_s": statistics.median(scaled(r["setup_s"], r["setup_ref_s"]) for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = dict(END_TO_END)
    else:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _ in tracing.catalogue() if name != "trace.overhead_ratio"
        }
        values["trace.overhead_ratio"] = statistics.median(
            solve_time(r["passes"]) for r in traced) / solve_time(plain_passes)
        units = dict(tracing.catalogue())
    result["metrics"] = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": rounds[0]["machine"],
        "commit": _commit(root),
        "rounds": [
            {k: r.get(k) for k in ("input_set", "traced", "setup_s", "setup_ref_s",
                                   "peak_rss_mb", "self_sum_s", "absent_targets")}
            | {"passes": [{k: p[k] for k in ("solve_s", "job_s", "ref_s", "failed")}
                          for p in r["passes"]]}
            for r in rounds
        ],
        "wrong": wrong,
        "missed": sorted({m for p in passes for m in p["missed"]}),
    }
    return result, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cartanflow" / "__init__.py").is_file():
        print("error: run from the root of a cartanflow checkout (src/cartanflow not found)",
              file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(root, args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, detail = aggregate(root, args, rounds)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
