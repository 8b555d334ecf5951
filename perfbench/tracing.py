"""Spans around the calls into each cartanflow module, and the per-layer
metrics derived from them.

A span records its name, start, end and the span open when it began (its
parent).  A span's self time is its duration minus the durations of its
children; since one job runs at a time the children never overlap.

Library functions are wrapped by name at every module attribute that is
bound to them, which is where callers look them up.  A target that no
longer exists is reported as absent and simply records no calls, so
deleting or renaming an internal function never breaks the benchmark.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from jobs import SIZES, WORKLOADS, job_labels, label

LAYERS = ("spaces", "radial", "factorizations", "reduction", "dynamics", "sampling",
          "linalg", "cli")


def _steps(traj) -> int:
    return len(traj.times) - 1


# (module, attribute, span name, counter fed from the return value)
SPAN_TARGETS = (
    ("cartanflow.spaces", "check_p_membership", "spaces.check_p_membership", None),
    ("cartanflow.radial", "radial_decompose", "radial.radial_decompose", None),
    ("cartanflow.radial", "radial_coords_batch", "radial.radial_coords_batch", None),
    ("cartanflow.factorizations", "takagi", "factorizations.takagi", None),
    ("cartanflow.factorizations", "antisym_canonical", "factorizations.antisym_canonical", None),
    ("cartanflow.factorizations", "quaternionic_svd", "factorizations.quaternionic_svd", None),
    ("cartanflow.factorizations", "quaternionic_eigh", "factorizations.quaternionic_eigh", None),
    ("cartanflow.dynamics", "reduce_phase_point", "dynamics.reduce_phase_point", None),
    ("cartanflow.dynamics", "integrate_reduced", "dynamics.integrate_reduced",
     ("dynamics.rk4_steps", _steps)),
    ("cartanflow.dynamics", "compare_with_oracle", "dynamics.compare_with_oracle", None),
    ("cartanflow.sampling", "sample_radial_batch", "sampling.sample_radial_batch",
     ("sampling.draws", len)),
    ("cartanflow.sampling", "radial_histogram", "sampling.radial_histogram", None),
    ("cartanflow.sampling", "theoretical_radial_density", "sampling.theory", None),
    ("cartanflow.sampling", "theoretical_radial_cdf", "sampling.theory", None),
)
# called too often for a span each: counted only
COUNT_TARGETS = (("cartanflow.linalg", "commutator", "linalg.commutator_calls"),)


class Tracer:
    """In-memory spans and counters of one worker process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def start(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def stop(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.start(name)
        try:
            yield
        finally:
            self.stop(idx)


def _bindings(original) -> list[tuple[object, str]]:
    """Every (module, attribute) of cartanflow bound to ``original``."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cartanflow" or name.startswith("cartanflow.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


def _resolve(module: str, attr: str):
    mod = sys.modules.get(module)
    fn = getattr(mod, attr, None) if mod is not None else None
    return fn if callable(fn) else None


def install(tracer: Tracer) -> list[str]:
    """Wrap every target at all its bindings; return the absent targets."""
    absent = []
    for module, attr, span, counter in SPAN_TARGETS:
        fn = _resolve(module, attr)
        if fn is None:
            absent.append(f"{module}.{attr}")
            continue

        def wrapper(*args, _fn=fn, _span=span, _counter=counter, **kwargs):
            idx = tracer.start(_span)
            try:
                out = _fn(*args, **kwargs)
            finally:
                tracer.stop(idx)
            if _counter is not None:
                tracer.counts[_counter[0]] += _counter[1](out)
            return out

        functools.update_wrapper(wrapper, fn)
        for mod, name in _bindings(fn):
            setattr(mod, name, wrapper)
    for module, attr, counter in COUNT_TARGETS:
        fn = _resolve(module, attr)
        if fn is None:
            absent.append(f"{module}.{attr}")
            continue

        def counting(*args, _fn=fn, _counter=counter, **kwargs):
            tracer.counts[_counter] += 1
            return _fn(*args, **kwargs)

        functools.update_wrapper(counting, fn)
        for mod, name in _bindings(fn):
            setattr(mod, name, counting)
    return absent


# ---------------------------------------------------------------------------
# per-layer metrics


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in output order."""
    full = SIZES["full"]
    names = [
        ("spaces.basis_p_s", "s"), ("spaces.basis_k_s", "s"), ("spaces.basis_a_perp_s", "s"),
        ("spaces.basis_m_s", "s"), ("spaces.basis_m_rss_growth_mb", "MB"),
        ("spaces.numeric_roots_s", "s"), ("spaces.membership_check_s", "s"),
        ("linalg.commutator_calls", "count"),
        ("reduction.density_constant_s", "s"),
        ("dynamics.first_field_s", "s"), ("dynamics.integrate_s", "s"),
        ("dynamics.rk4_steps", "count"), ("dynamics.us_per_rk4_step", "us"),
        ("dynamics.useful_step_ratio", "ratio"), ("dynamics.oracle_pass_s", "s"),
        ("dynamics.reduce_phase_point_s", "s"), ("dynamics.truncated_jobs", "count"),
        ("radial.decompose_calls", "count"), ("radial.decompose_us_p50", "us"),
        ("radial.decompose_us_p99", "us"), ("radial.coords_batch_s", "s"),
        ("factorizations.takagi_s", "s"), ("factorizations.antisym_canonical_s", "s"),
        ("factorizations.quaternionic_svd_s", "s"), ("factorizations.quaternionic_eigh_s", "s"),
        ("sampling.normalizer_s", "s"), ("sampling.draws", "count"),
        ("sampling.draws_per_s", "1/s"), ("sampling.rng_assemble_s", "s"),
        ("sampling.histogram_s", "s"), ("sampling.theory_s", "s"),
        ("cli.flow_self_s", "s"), ("cli.sample_self_s", "s"),
    ]
    names += [(f"self_s.{layer}", "s") for layer in LAYERS]
    names.append(("trace.overhead_ratio", "ratio"))
    names += [(f"build_s.{label(s)}", "s") for s in full.geometry]
    jobs = []
    for workload in WORKLOADS:
        jobs += [j for j in job_labels(workload, full) if j not in jobs]
    names += [(f"job_s.{j}", "s") for j in jobs]
    return names


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(tracer: Tracer) -> dict:
    """Inclusive and self time per span name, plus the raw durations."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    oracle_children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
            if name in ("dynamics.integrate_reduced", "dynamics.reduce_phase_point"):
                oracle_children[parent] += end - start
    incl: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    oracle = 0.0
    for i, (name, start, end, _) in enumerate(spans):
        incl[name] += end - start
        self_[name] += end - start - child[i]
        durations[name].append(end - start)
        if name == "dynamics.compare_with_oracle":
            oracle += end - start - oracle_children[i]
    return {"incl": incl, "self": self_, "durations": durations, "oracle": oracle}


def layer_metrics(tracer: Tracer, workload: str, size_name: str) -> dict:
    """Per-layer metric values of one traced pass (metrics absent there read 0)."""
    s = summarize(tracer)
    incl, self_, durations, counts = s["incl"], s["self"], s["durations"], tracer.counts
    size = SIZES[size_name]
    steps = counts["dynamics.rk4_steps"]
    draws = counts["sampling.draws"]
    batch_s = incl["sampling.sample_radial_batch"]
    decomp_us = [1e6 * d for d in durations["radial.radial_decompose"]]
    out = dict.fromkeys((name for name, _ in catalogue()), 0.0)
    out.update({
        "spaces.basis_p_s": incl["spaces.basis_p"],
        "spaces.basis_k_s": incl["spaces.basis_k"],
        "spaces.basis_a_perp_s": incl["spaces.basis_a_perp"],
        "spaces.basis_m_s": incl["spaces.basis_m"],
        "spaces.basis_m_rss_growth_mb": counts["spaces.basis_m_rss_growth_mb"],
        "spaces.numeric_roots_s": incl["spaces.numeric_roots"],
        "spaces.membership_check_s": incl["spaces.check_p_membership"],
        "linalg.commutator_calls": counts["linalg.commutator_calls"],
        "reduction.density_constant_s": incl["reduction.density_constant"],
        "dynamics.first_field_s": incl["dynamics.first_field"],
        "dynamics.integrate_s": self_["dynamics.integrate_reduced"],
        "dynamics.rk4_steps": steps,
        "dynamics.us_per_rk4_step": 1e6 * self_["dynamics.integrate_reduced"] / steps if steps else 0.0,
        "dynamics.useful_step_ratio": counts["dynamics.delivered_steps"] / steps if steps else 0.0,
        "dynamics.oracle_pass_s": s["oracle"],
        "dynamics.reduce_phase_point_s": incl["dynamics.reduce_phase_point"],
        "dynamics.truncated_jobs": counts["dynamics.truncated_jobs"],
        "radial.decompose_calls": len(decomp_us),
        "radial.decompose_us_p50": _percentile(decomp_us, 0.50),
        "radial.decompose_us_p99": _percentile(decomp_us, 0.99),
        "radial.coords_batch_s": incl["radial.radial_coords_batch"],
        "factorizations.takagi_s": incl["factorizations.takagi"],
        "factorizations.antisym_canonical_s": incl["factorizations.antisym_canonical"],
        "factorizations.quaternionic_svd_s": incl["factorizations.quaternionic_svd"],
        "factorizations.quaternionic_eigh_s": incl["factorizations.quaternionic_eigh"],
        "sampling.normalizer_s": incl["sampling.normalizer"],
        "sampling.draws": draws,
        "sampling.draws_per_s": draws / batch_s if batch_s else 0.0,
        "sampling.rng_assemble_s": self_["sampling.sample_radial_batch"],
        "sampling.histogram_s": self_["sampling.radial_histogram"],
        "sampling.theory_s": incl["sampling.theory"],
        "cli.flow_self_s": self_["cli.flow"],
        "cli.sample_self_s": self_["cli.sample"],
    })
    for layer in LAYERS:
        out[f"self_s.{layer}"] = sum(v for k, v in self_.items() if k.startswith(layer + "."))
    if workload == "geometry-cold":
        build: dict[str, float] = defaultdict(float)
        for name, start, end, parent in tracer.spans:
            if name.startswith("spaces.basis_") and parent >= 0:
                build[tracer.spans[parent][0]] += end - start
        for space in size.geometry:
            out[f"build_s.{label(space)}"] = build[f"bench.job.{label(space)}"]
    for lab in job_labels(workload, size):
        out[f"job_s.{lab}"] = incl[f"bench.job.{lab}"]
    return out

