"""Job lists, seeded inputs and output checks of the benchmark workloads.

Every job calls cartanflow only through the names exported by
``cartanflow/__init__.py`` and through ``cartanflow.cli.main``, so internal
refactors never force an edit here.  A job returns a list of check misses;
each miss says whether the checked property holds exactly by construction
(a wrong result) or is an accuracy tolerance taken from the repository's
acceptance suite (a missed tolerance).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("geometry-cold", "flow-oracle", "sample-density")

# Acceptance tolerances of tests/test_acceptance.py (criteria 7 and 9).
ORACLE_TOL = 1e-6
ENERGY_RTOL = 1e-8
SPECTRUM_TOL = 1e-8


@dataclass(frozen=True)
class Size:
    """The fixed job list of every workload at one size."""

    geometry: tuple  # spaces built cold, in this order
    normalizer: tuple  # geometry spaces that also pay the chamber normaliser
    flow: tuple
    flow_t_max: float
    flow_steps: int
    sample: tuple
    sample_count: int
    verify: tuple
    verify_count: int


SIZES = {
    # Sizes keep one pass near ten seconds, so three rounds fit one run.
    # The cold build leaves out bdi(8,8) and a2(12): they repeat the
    # centralizer split that aiii(8,8) already pays.  cii(4,3) pays no
    # normaliser: its rank-3 quadrature takes over a minute.  The flow list
    # keeps one space per radial-decomposition route (plain SVD, real SVD,
    # quaternionic SVD and eigh, Takagi, antisymmetric, eigh) plus
    # aiii(5,5), whose steps are bound by dense solves.
    "full": Size(
        geometry=(("aiii", 8, 8), ("diii", 0, 8), ("cii", 4, 3), ("ci", 0, 6),
                  ("aii", 0, 6), ("ai", 0, 8), ("aiii", 3, 2), ("bdi", 3, 3)),
        normalizer=(("aiii", 3, 2), ("bdi", 3, 3)),
        flow=(("bdi", 3, 2), ("cii", 2, 1), ("ai", 0, 4), ("aii", 0, 3), ("diii", 0, 5),
              ("ci", 0, 3), ("aiii", 5, 5)),
        flow_t_max=0.25,
        flow_steps=250,
        sample=(("aiii", 2, 1), ("bdi", 3, 3), ("cii", 2, 2), ("ci", 0, 6),
                ("diii", 0, 8), ("a2", 0, 12), ("aiii", 8, 8)),
        sample_count=16_384,
        verify=(("aiii", 2, 1), ("bdi", 2, 1), ("ai", 0, 2), ("a2", 0, 2)),
        verify_count=32_768,
    ),
    # one small space per workload, few steps and draws: the smoke test
    "smoke": Size(
        geometry=(("aiii", 3, 2),),
        normalizer=(("aiii", 3, 2),),
        flow=(("cii", 2, 1),),
        flow_t_max=0.2,
        flow_steps=200,
        sample=(("aiii", 2, 1),),
        sample_count=4096,
        verify=(("aiii", 2, 1),),
        verify_count=4096,
    ),
}


def label(space) -> str:
    kind, m, n = space
    return f"{kind}-{m}-{n}" if kind in ("aiii", "bdi", "cii") else f"{kind}-{n}"


def job_labels(workload: str, size: Size) -> list[str]:
    if workload == "geometry-cold":
        return [label(s) for s in size.geometry]
    if workload == "flow-oracle":
        return [label(s) for s in size.flow]
    return [label(s) for s in size.sample] + ["verify-" + label(s) for s in size.verify]


def job_seed(seed: int, input_set: int, job_index: int) -> int:
    """Input seed of one job: a pure function of the workload seed, the
    round's input set and the job's place in the list.

    Every pass of a round repeats its input set, so what a run checks does
    not depend on how many passes fit its time.  Flow jobs use this seed
    and the next one, so job seeds are even."""
    return 10_000_000 * seed + 100 * input_set + 2 * job_index


@dataclass
class Miss:
    job: str
    message: str
    exact: bool  # True: the property holds by construction, so a miss is a wrong result


@dataclass
class Job:
    label: str
    run: Callable[[], list[Miss]]


def _argv(space) -> list[str]:
    kind, m, n = space
    return ["--class", kind, "--m", str(m), "--n", str(n)]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cartanflow.cli.main`` in process, output captured in memory."""
    from cartanflow.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            body.append(line.split(","))
    return meta, body[0], body[1:]


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# setup: the public calls that fill the per-descriptor caches


def setup(workload: str, size: Size, seed: int) -> None:
    import cartanflow as cf

    if workload == "flow-oracle":
        for i, space in enumerate(size.flow):
            d = cf.make_space(*space)
            s = job_seed(seed, 99_999, i)
            start = cf.PhasePoint(cf.sample_p_gaussian(d, s), cf.sample_p_gaussian(d, s + 1))
            state, _ = cf.reduce_phase_point(d, start)
            cf.reduced_vector_field(d, state)
    elif workload == "sample-density":
        for space in size.sample:
            d = cf.make_space(*space)
            cf.basis_of(d, "p")
            if d.real_rank == 1:
                cf.theoretical_radial_density(d, [1.0])
        for space in size.verify:
            d = cf.make_space(*space)
            cf.density_constant(d)
            cf.theoretical_radial_density(d, [1.0])


# ---------------------------------------------------------------------------
# job lists


def build_jobs(workload: str, size: Size, seed: int, input_set: int, tracer) -> list[Job]:
    """The workload's job list for one pass over ``input_set``.  Jobs time
    their calls into each layer with ``tracer`` spans and add what they
    observe about their own outputs to ``tracer.counts``."""
    if workload == "geometry-cold":
        specs = [(_geometry_job, space) for space in size.geometry]
    elif workload == "flow-oracle":
        specs = [(_flow_job, space) for space in size.flow]
    else:
        specs = ([(_sample_job, space) for space in size.sample]
                 + [(_verify_job, space) for space in size.verify])
    return [make(space, size, job_seed(seed, input_set, i), tracer)
            for i, (make, space) in enumerate(specs)]


def _geometry_job(space, size: Size, s: int, tracer) -> Job:
    lab = label(space)

    def run() -> list[Miss]:
        import cartanflow as cf

        misses = []
        d = cf.make_space(*space)
        want = {"p": d.dim_p, "k": d.dim_k, "a_perp": d.dim_p - d.real_rank}
        for which, span in (("p", "spaces.basis_p"), ("k", "spaces.basis_k"),
                            ("a_perp", "spaces.basis_a_perp")):
            with tracer.span(span):
                got = len(cf.basis_of(d, which))
            if got != want[which]:
                misses.append(Miss(lab, f"dim {which} = {got}, expected {want[which]}", True))
        rss0 = _max_rss_mb()
        with tracer.span("spaces.basis_m"):
            cf.basis_of(d, "m_centralizer")
            zk = len(cf.basis_of(d, "zk_perp"))
        tracer.counts["spaces.basis_m_rss_growth_mb"] += _max_rss_mb() - rss0
        if zk != want["a_perp"]:
            misses.append(Miss(lab, f"dim zk_perp = {zk}, expected {want['a_perp']}", True))
        with tracer.span("spaces.numeric_roots"):
            found = cf.numeric_roots(d, seed=s)
        table = {r.coeffs: r.multiplicity for r in cf.restricted_roots(d)}
        if {r.coeffs: r.multiplicity for r in found} != table:
            misses.append(Miss(lab, "numeric_roots differs from the root table", True))
        with tracer.span("reduction.density_constant"):
            const = cf.density_constant(d)
        if not (math.isfinite(const) and const > 0):
            misses.append(Miss(lab, f"density constant {const!r}", True))
        with tracer.span("dynamics.first_field"):
            start = cf.PhasePoint(cf.sample_p_gaussian(d, s), cf.sample_p_gaussian(d, s + 1))
            state, _ = cf.reduce_phase_point(d, start)
            dq, dp, dl = cf.reduced_vector_field(d, state)
        if not all(map(math.isfinite, list(dq) + list(dp) + [abs(x) for x in dl.ravel()])):
            misses.append(Miss(lab, "non-finite reduced vector field", True))
        if space in size.normalizer:
            with tracer.span("sampling.normalizer"):
                rho = cf.theoretical_radial_density(d, state.q)
            if not (math.isfinite(rho) and rho >= 0):
                misses.append(Miss(lab, f"theoretical density {rho!r}", True))
        return misses

    return Job(lab, run)


def _flow_job(space, size: Size, s: int, tracer) -> Job:
    lab = label(space)
    steps = size.flow_steps

    def run() -> list[Miss]:
        argv = ["flow", *_argv(space), "--seed", str(s), "--t-max", str(size.flow_t_max),
                "--steps", str(steps), "--compare"]
        with tracer.span("cli.flow"):
            rc, out, err = run_cli(argv)
        if rc != 0:
            return [Miss(lab, f"flow exit {rc}: {err.strip()}", False)]
        meta, header, rows = _parse_csv(out)
        misses = []
        truncated = "aborted" in meta
        tracer.counts["dynamics.truncated_jobs"] += truncated
        tracer.counts["dynamics.delivered_steps"] += max(len(rows) - 1, 0)
        if not truncated and len(rows) != steps + 1:
            misses.append(Miss(lab, f"{len(rows)} rows for {steps} steps", True))
        if not rows:
            return misses + [Miss(lab, "empty trajectory", True)]
        try:
            devs = [float(r[-1]) for r in rows]
        except ValueError:
            return misses + [Miss(lab, "a step lacks its oracle deviation", True)]
        h_col = header.index("H")
        spec_cols = [i for i, h in enumerate(header) if h.startswith("l_spec_")]
        energies = [float(r[h_col]) for r in rows]
        spectra = [[float(r[i]) for i in spec_cols] for r in rows]
        dev = max(devs)
        drift = max(abs(h - energies[0]) for h in energies)
        spec = max((abs(a - b) for row in spectra for a, b in zip(row, spectra[0])), default=0.0)
        if not dev <= ORACLE_TOL:
            misses.append(Miss(lab, f"oracle deviation {dev:.3e} > {ORACLE_TOL:g}", False))
        if not drift <= ENERGY_RTOL * max(1.0, abs(energies[0])):
            misses.append(Miss(lab, f"energy drift {drift:.3e} (H0 = {energies[0]:.6g})", False))
        if not spec <= SPECTRUM_TOL:
            misses.append(Miss(lab, f"l-spectrum drift {spec:.3e} > {SPECTRUM_TOL:g}", False))
        return misses

    return Job(lab, run)


def _sample_job(space, size: Size, s: int, tracer) -> Job:
    lab = label(space)
    count = size.sample_count

    def run() -> list[Miss]:
        argv = ["sample", *_argv(space), "--count", str(count), "--threads", "1", "--seed", str(s)]
        with tracer.span("cli.sample"):
            rc, out, err = run_cli(argv)
        if rc != 0:
            return [Miss(lab, f"sample exit {rc}: {err.strip()}", False)]
        _, header, rows = _parse_csv(out)
        col = header.index("count")
        totals: dict[str, int] = {}
        for r in rows:
            key = r[0] if header[0] == "coordinate" else "0"
            totals[key] = totals.get(key, 0) + int(r[col])
        bad = {k: v for k, v in totals.items() if v != count}
        if not totals or bad:
            return [Miss(lab, f"histogram counts {bad or totals} do not sum to {count}", True)]
        return []

    return Job(lab, run)


def _verify_job(space, size: Size, s: int, tracer) -> Job:
    lab = "verify-" + label(space)
    count = size.verify_count

    def run() -> list[Miss]:
        argv = ["verify-density", *_argv(space), "--count", str(count), "--threads", "1",
                "--seed", str(s)]
        with tracer.span("cli.verify_density"):
            rc, out, err = run_cli(argv)
        if rc != 0:
            return [Miss(lab, f"verify-density exit {rc}: {err.strip()}", False)]
        if json.loads(out).get("pass") is not True:
            # a Kolmogorov-Smirnov test: a statistical miss, not a wrong result
            return [Miss(lab, "verify-density did not pass", False)]
        return []

    return Job(lab, run)
