"""Gaussian Monte Carlo on p and verification of the radial densities.

Sampling X = sum_i g_i b_i over a trace-form-orthonormal basis of p with
independent standard normals g_i draws from the K-invariant density
proportional to exp(-trace_form(X, X)/2).  The pushforward of that
measure to the Weyl chamber has density

    rho(q) * exp(-q^T G q / 2) / Z

with rho the slice density, G the Gram matrix of the radial generators
and Z the chamber normalization.  rho is a product of root values
prod |alpha(q)|^m_alpha, so Z is Mehta's integral (ai, a2, aii) or the
Laguerre-Selberg integral (aiii, bdi, cii, diii, ci) in closed form.  Z
is kept only as log Z, and the density is the one sum of logarithms
sum m_alpha log|alpha(q)| - q^T G q / 2 - log Z, exponentiated once: on
large spaces the root product or Z leaves the doubles where the density
does not.

Reproducibility contract: the output depends on (count, seed) only.  Work
is split into fixed-size chunks; chunk c derives its generator from
``SeedSequence(seed, spawn_key=(c,))``, so the merged sample stream is
bit-identical for any worker count.  A chunk draws, assembles and reduces
its draws in sub-blocks of a fixed byte size, so of a number of draws that
depends on the space; the generator's stream drawn in consecutive slices
is the stream of one call, each block is built by index with no BLAS call
(its entries do not depend on how many draws are built together), and
each draw's spectral step reads only its block.  So the first n draws of a
larger count are the n draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ConsistencyError, ContractViolation, _check_int, _finite_array
from .radial import chamber_contains, radial_coords_batch
from .reduction import density_constant
from .spaces import SpaceDescriptor, _assemble, _radial_vector, _root_system, geometry
from .spaces import random_p_element

__all__ = [
    "CHUNK_SIZE",
    "RadialHistogram",
    "sample_p_gaussian",
    "sample_radial_batch",
    "radial_histogram",
    "theoretical_radial_density",
    "theoretical_radial_cdf",
    "ks_distance",
    "verify_density",
]

CHUNK_SIZE = 8192
# bytes of one sub-block's normals and blocks: a worker holds one sub-block
# (and LAPACK's copy of its blocks), so its working set stays near 512 KiB,
# within a typical L2 cache, whatever the count and the space
_SUB_BLOCK_BYTES = 1 << 19
#: one-sided Kolmogorov-Smirnov threshold at the 99% level is
#: sqrt(-ln(0.005)/2)/sqrt(n); the verification band widens it by 1.5x to
#: absorb binning.
KS99_COEFF = float(np.sqrt(-np.log(0.005) / 2.0))
KS_BAND = 1.5


@dataclass
class RadialHistogram:
    """Per-coordinate histograms of the sorted radial spectrum.

    ``edges[i]`` and ``counts[i]`` describe coordinate i of the chamber
    vector; ``density[i]`` is counts normalized to unit area under the bin
    rule.
    """

    space: str
    sample_count: int
    edges: list[np.ndarray]
    counts: list[np.ndarray]
    density: list[np.ndarray]
    seed: int


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def sample_p_gaussian(d: SpaceDescriptor, seed: int) -> np.ndarray:
    """One Gaussian draw on p; bit-reproducible for a fixed integer seed >= 0."""
    return random_p_element(d, _chunk_rng(_check_int("seed", seed, 0), 0))


def sample_radial_batch(
    d: SpaceDescriptor, count: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Chamber coordinates of ``count`` independent Gaussian draws on p.

    Deterministic in (count, seed) and independent of ``threads``.
    ContractViolation unless ``count`` and ``threads`` are integers >= 1 and
    ``seed`` an integer >= 0.
    """
    count = _check_int("count", count, 1)
    seed = _check_int("seed", seed, 0)
    threads = _check_int("threads", threads, 1)
    table = geometry(d)._block_table
    # draws per sub-block: as many as the budget holds, at least one and at
    # most a chunk
    draws = max(1, min(CHUNK_SIZE, _SUB_BLOCK_BYTES // (8 * (d.dim_p + len(table[0])))))
    out = np.empty((count, d.real_rank))
    n_chunks = (count + CHUNK_SIZE - 1) // CHUNK_SIZE

    def run_chunk(c: int) -> None:
        rng, stop = _chunk_rng(seed, c), min(count, (c + 1) * CHUNK_SIZE)
        cuts = [*range(c * CHUNK_SIZE, stop, draws), stop]
        # one set of normals and blocks per chunk, refilled by each sub-block
        size = min(draws, stop - cuts[0])
        normals, blocks = np.empty((size, d.dim_p)), np.empty((size, len(table[0])))
        for lo, hi in zip(cuts, cuts[1:]):
            g = rng.standard_normal(out=normals[: hi - lo])
            out[lo:hi] = radial_coords_batch(d, _assemble(table, g, out=blocks[: hi - lo]))

    if threads > 1 and n_chunks > 1:
        # imported here: it costs every `import cartanflow` several ms
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, range(n_chunks)))  # re-raises a chunk's error
    else:
        for c in range(n_chunks):
            run_chunk(c)
    return out


def radial_histogram(
    d: SpaceDescriptor, count: int, bins: int, seed: int, threads: int = 1
) -> RadialHistogram:
    """Histogram the sorted radial spectrum of Gaussian draws.

    One histogram per chamber coordinate; bin edges span the observed
    range (anchored at 0 where the chamber is one-sidedly nonnegative).
    ContractViolation unless ``bins`` is an integer >= 2 (and the arguments
    pass ``sample_radial_batch``'s checks).
    """
    bins = _check_int("bins", bins, 2)
    qs = sample_radial_batch(d, count, seed, threads)
    edges, counts, dens = [], [], []
    for i in range(d.real_rank):
        col = qs[:, i]
        lo = 0.0 if (not d.trace_constrained and col.min() >= 0.0) else float(col.min())
        hi = float(col.max())
        if hi <= lo:
            hi = lo + 1.0
        e = np.linspace(lo, hi, bins + 1)
        c, _ = np.histogram(col, bins=e)
        edges.append(e)
        counts.append(c)
        width = np.diff(e)
        dens.append(c / (count * width))
    return RadialHistogram(
        space=d.label(), sample_count=count, edges=edges, counts=counts, density=dens, seed=seed
    )


# ---------------------------------------------------------------------------
# theoretical density on the chamber


@lru_cache(maxsize=None)
def _log_chamber_integral(d: SpaceDescriptor) -> float:
    """Closed-form log of the chamber integral of prod |alpha(q)|^m_alpha * exp(-q^T G q / 2).

    The multiplicities are read from ``_root_system``.  The A-type classes
    (ai, a2, aii), with G = c (I + 1 1^T) and one root multiplicity beta,
    take Mehta's integral over the trace-zero eigenvalues.  The BC-type
    classes, with G = g I and multiplicities beta, s, l of e_i +- e_j, e_i,
    2 e_i, take the Laguerre-Selberg integral after x_i = q_i^2 (Macdonald,
    SIAM J. Math. Anal. 13 (1982); Forrester-Warnaar, Bull. AMS 45 (2008)).
    Raises ``ConsistencyError`` if the Gram matrix has another shape.
    Memoized per descriptor (a failure is not cached).
    """
    geo = geometry(d)
    a_type, beta, s, ell = _root_system(d)
    r, lg = d.real_rank, math.lgamma
    shape = np.eye(r) + (1.0 if a_type == "A" else 0.0)
    g = geo.gram[0, 0] / shape[0, 0]
    if not (g > 0 and np.max(np.abs(geo.gram - g * shape)) <= 1e-12 * g):
        raise ConsistencyError(f"{d.label()}: Gram matrix is not a multiple of the assumed shape")
    if a_type == "A":
        n = r + 1
        log_z = (
            -((n - 1) / 2 + beta * n * (n - 1) / 4) * math.log(g)
            + (n - 1) / 2 * math.log(2 * math.pi) - math.log(n) / 2 - lg(n + 1)
            + sum(lg(1 + j * beta / 2) - lg(1 + beta / 2) for j in range(1, n + 1))
        )
    else:
        a = s + ell
        log_z = (
            r * ell * math.log(2) - lg(r + 1)
            + (r * a / 2 + beta * r * (r - 1) / 2) * math.log(2 / g) - r / 2 * math.log(2 * g)
            + sum(
                lg((a + 1) / 2 + j * beta / 2) + lg(1 + (j + 1) * beta / 2) - lg(1 + beta / 2)
                for j in range(r)
            )
        )
        if not d.has_sign_flip_weyl:
            log_z += math.log(2)  # so(n,n): the last coordinate takes either sign
    return log_z


def theoretical_radial_density(d: SpaceDescriptor, q) -> float:
    """Probability density of the radial spectrum of the Gaussian ensemble,
    normalized to unit mass over the chamber: one log-domain formula,
    exp(sum m_alpha log|alpha(q)| - q^T G q / 2 - log Z), so that neither
    the root product nor Z has to be a double.  0.0 outside the chamber, on
    a wall and where q^T G q overflows.  ContractViolation unless q is a
    finite vector of the real rank's length."""
    q = _radial_vector(d, q)
    if not chamber_contains(d, q, tol=1e-12):
        return 0.0
    log_z = _log_chamber_integral(d)
    geo = geometry(d)
    coeffs, mults = geo.root_table
    with np.errstate(over="ignore", divide="ignore"):  # q G q beyond the doubles; log 0 on a wall
        half = 0.5 * q @ geo.gram @ q
        if half == math.inf:
            return 0.0  # the weight outruns every power of |q|
        return float(np.exp(mults @ np.log(np.abs(coeffs @ q)) - half - log_z))


def _lower_gamma(k: float, x: np.ndarray) -> np.ndarray:
    """Regularized lower incomplete gamma P(k, x), elementwise on x >= 0,
    for an integer or half-integer order k > 0 (the rank-1 orders (a + 1)/2
    have integer multiplicity sums a).

    Steps up the recurrence P(o + 1, x) = P(o, x) - x^o e^{-x} / Gamma(o + 1)
    (DLMF 8.8.5) from P(0, x) = 1 or P(1/2, x) = erf(sqrt x).
    """
    o = k % 1.0
    if o:
        start = np.vectorize(math.erf, otypes=[float])(np.sqrt(x))
        term = np.sqrt(x) / math.gamma(1.5)
    else:
        start, term = np.ones_like(x), np.ones_like(x)
    total = np.zeros_like(x)
    while o < k:
        total += term
        o += 1.0
        term = term * x / o
    return start - np.exp(-x) * total


def theoretical_radial_cdf(d: SpaceDescriptor, x: np.ndarray) -> np.ndarray:
    """Cumulative distribution of the single radial coordinate (rank 1).

    Every root is a multiple of q, so the density is proportional to
    |q|^a exp(-g q^2 / 2) with a the sum of the root multiplicities and
    g = G_11: a regularized lower incomplete gamma of order (a + 1)/2 in
    g x^2 / 2 on the chamber q >= 0.  bdi(1,1) has no roots and the whole
    line as its chamber: a Gaussian, 1/2 erfc(-sqrt(g) x / sqrt 2).
    """
    if d.real_rank != 1:
        raise ContractViolation("theoretical CDF implemented for real rank 1")
    geo = geometry(d)
    g, a = geo.gram[0, 0], float(np.sum(geo.root_table[1]))
    x = _finite_array("x", x, None, float)
    if not (d.has_sign_flip_weyl or d.trace_constrained):
        return 0.5 * np.vectorize(math.erfc, otypes=[float])(-math.sqrt(g / 2) * x)
    # P is 1.0 wherever e^{-g x^2 / 2} is 0.0 (g x^2 / 2 above 745.2); capping
    # g x^2 / 2 at 750 keeps that value and the recurrence's powers finite
    return _lower_gamma((a + 1) / 2, g * np.clip(x, 0.0, math.sqrt(1500.0 / g)) ** 2 / 2)


def ks_distance(d: SpaceDescriptor, hist: RadialHistogram) -> float:
    """Sup distance between the binned empirical CDF and the theoretical
    CDF at the bin edges (rank-1 classes)."""
    if d.real_rank != 1:
        raise ContractViolation("KS comparison implemented for real rank 1")
    edges = hist.edges[0]
    emp = np.concatenate([[0.0], np.cumsum(hist.counts[0]) / hist.sample_count])
    theo = theoretical_radial_cdf(d, edges)
    return float(np.max(np.abs(emp - theo)))


def verify_density(
    d: SpaceDescriptor, count: int = 100_000, bins: int = 64, seed: int = 7, threads: int = 1
) -> dict:
    """Bundle of the density cross-checks used by the CLI.

    Always checks, exactly, that the numeric density is the closed form
    times ``density_constant`` (the bracket rows of C are the positive
    roots repeated by multiplicity); for rank-1 classes additionally runs
    the Monte Carlo Kolmogorov-Smirnov comparison against the normalized
    density.  ContractViolation unless ``count`` and ``threads`` are integers
    >= 1, ``bins`` one >= 2 and ``seed`` one >= 0, at every rank.
    """
    count = _check_int("count", count, 1)
    bins = _check_int("bins", bins, 2)
    seed = _check_int("seed", seed, 0)
    threads = _check_int("threads", threads, 1)
    result: dict = {"space": d.label(), "count": count, "bins": bins, "seed": seed}
    try:
        result["density_constant"] = density_constant(d)
        result["constant_ratio_ok"] = True
    except ConsistencyError as exc:
        result["density_constant"] = None
        result["constant_ratio_ok"] = False
        result["constant_ratio_error"] = str(exc)
    if d.real_rank == 1:
        hist = radial_histogram(d, count, bins, seed, threads)
        ks = ks_distance(d, hist)
        threshold = KS_BAND * KS99_COEFF / np.sqrt(count)
        result["ks_statistic"] = ks
        result["threshold"] = float(threshold)
        result["ks_ok"] = bool(ks <= threshold)
        result["pass"] = bool(result["constant_ratio_ok"] and result["ks_ok"])
    else:
        result["ks_statistic"] = None
        result["threshold"] = None
        result["note"] = "KS comparison runs for real-rank-1 classes only"
        result["pass"] = bool(result["constant_ratio_ok"])
    return result
