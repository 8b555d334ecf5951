"""Gaussian Monte Carlo on p and verification of the radial densities.

Sampling X = sum_i g_i b_i over a trace-form-orthonormal basis of p with
independent standard normals g_i draws from the K-invariant density
proportional to exp(-trace_form(X, X)/2).  The pushforward of that
measure to the Weyl chamber has density

    rho(q) * exp(-q^T G q / 2) / Z

with rho the slice density, G the Gram matrix of the radial generators
and Z the chamber normalization.  rho is a product of root values
prod |alpha(q)|^m_alpha, so Z is Mehta's integral (ai, a2, aii) or the
Laguerre-Selberg integral (aiii, bdi, cii, diii, ci) in closed form.

Reproducibility contract: work is split into fixed-size chunks; chunk c
derives its generator from ``SeedSequence(seed, spawn_key=(c,))``, so the
merged sample stream is bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .linalg import ConsistencyError, ContractViolation
from .radial import chamber_contains, radial_coords_batch
from .reduction import closed_form_density, density_constant
from .spaces import SpaceDescriptor, geometry

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
    if seed < 0:
        raise ContractViolation(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))


def sample_p_gaussian(d: SpaceDescriptor, seed: int) -> np.ndarray:
    """One Gaussian draw on p; bit-reproducible for a fixed seed >= 0."""
    geo = geometry(d)
    rng = _chunk_rng(int(seed), 0)
    return geo.p_from_coords(rng.standard_normal(d.dim_p))


def sample_radial_batch(
    d: SpaceDescriptor, count: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Chamber coordinates of ``count`` independent Gaussian draws on p.

    Deterministic in (count, seed) and independent of ``threads``.
    """
    if count < 1:
        raise ContractViolation("count must be >= 1")
    basis = geometry(d)._p_stack
    n_chunks = (count + CHUNK_SIZE - 1) // CHUNK_SIZE

    def run_chunk(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, count - c * CHUNK_SIZE)
        g = _chunk_rng(int(seed), c).standard_normal((size, d.dim_p))
        Xs = np.tensordot(g, basis, axes=([1], [0]))
        return radial_coords_batch(d, Xs)

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run_chunk, range(n_chunks)))
    else:
        parts = [run_chunk(c) for c in range(n_chunks)]
    return np.concatenate(parts, axis=0)


def radial_histogram(
    d: SpaceDescriptor, count: int, bins: int, seed: int, threads: int = 1
) -> RadialHistogram:
    """Histogram the sorted radial spectrum of Gaussian draws.

    One histogram per chamber coordinate; bin edges span the observed
    range (anchored at 0 where the chamber is one-sidedly nonnegative).
    """
    if bins < 2:
        raise ContractViolation("bins must be >= 2")
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


def _weight(d: SpaceDescriptor, q: np.ndarray) -> float:
    G = geometry(d).gram
    return float(np.exp(-0.5 * q @ G @ q))


def _unnormalized(d: SpaceDescriptor, q: np.ndarray) -> float:
    return closed_form_density(d, q) * _weight(d, q)


def _chamber_ranges(d: SpaceDescriptor):
    """nquad integration ranges over the chamber.

    Variables are ordered innermost-first: x_0 = q_rank, ...,
    x_{rank-1} = q_1; each range callable receives the outer variables.
    """
    rank = d.real_rank

    def make_range(j: int):
        def rng_fn(*outer):
            upper = outer[0] if outer else np.inf
            if d.trace_constrained:
                lower = -sum(outer) / (j + 2)
            elif d.kind == "bdi" and d.m == d.n and j == 0:
                lower = -outer[0] if outer else -np.inf
            else:
                lower = 0.0
            return (lower, upper)

        return rng_fn

    return [make_range(j) for j in range(rank)]


def _chamber_integral(d: SpaceDescriptor) -> float:
    """Closed-form chamber integral of prod |alpha(q)|^m_alpha * exp(-q^T G q / 2).

    The A-type classes (ai, a2, aii), with G = c (I + 1 1^T) and one root
    multiplicity beta, take Mehta's integral over the trace-zero
    eigenvalues.  The BC-type classes, with G = g I and multiplicities
    beta, s, l of e_i +- e_j, e_i, 2 e_i, take the Laguerre-Selberg
    integral after x_i = q_i^2 (Macdonald, SIAM J. Math. Anal. 13 (1982);
    Forrester-Warnaar, Bull. AMS 45 (2008)).
    """
    geo = geometry(d)
    coeffs, mults = geo.root_table
    r, lg = d.real_rank, math.lgamma
    shape = np.eye(r) + (1.0 if d.trace_constrained else 0.0)
    g = geo.gram[0, 0] / shape[0, 0]
    if not (g > 0 and np.max(np.abs(geo.gram - g * shape)) <= 1e-12 * g):
        raise ConsistencyError(f"{d.label()}: Gram matrix is not a multiple of the assumed shape")
    # multiplicity per root family, keyed (nonzero coefficients, largest
    # |coefficient|): (2, 1) e_i +- e_j, (1, 1) e_i, (1, 2) 2 e_i; A-type has one
    keys = zip(np.count_nonzero(coeffs, axis=1), np.max(np.abs(coeffs), axis=1))
    found = {((0, 0) if d.trace_constrained else k, m) for k, m in zip(keys, mults.tolist())}
    mult = dict(found)
    if len(mult) < len(found) or not set(mult) <= {(0, 0), (2, 1), (1, 1), (1, 2)}:
        raise ConsistencyError(f"{d.label()}: root multiplicities do not fit Mehta or Selberg")
    if d.trace_constrained:
        n, beta = r + 1, mult[(0, 0)]
        log_z = (
            -((n - 1) / 2 + beta * n * (n - 1) / 4) * math.log(g)
            + (n - 1) / 2 * math.log(2 * math.pi) - math.log(n) / 2 - lg(n + 1)
            + sum(lg(1 + j * beta / 2) - lg(1 + beta / 2) for j in range(1, n + 1))
        )
    else:
        beta, s, ell = (mult.get(f, 0.0) for f in ((2, 1), (1, 1), (1, 2)))
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
    try:
        return math.exp(log_z)
    except OverflowError:
        msg = f"{d.label()}: chamber integral overflows (log Z = {log_z:.1f})"
        raise ConsistencyError(msg) from None


def _normalizer(d: SpaceDescriptor) -> float:
    """Chamber integral Z of ``_unnormalized``."""
    # the classical aiii density leaves out the factor 2 of each long root 2 q_i
    kappa = 0.5**d.real_rank if d.kind == "aiii" else 1.0
    return kappa * _chamber_integral(d)


def theoretical_radial_density(d: SpaceDescriptor, q) -> float:
    """Probability density of the radial spectrum of the Gaussian ensemble,
    normalized to unit mass over the chamber."""
    q = np.asarray(q, dtype=float)
    if not chamber_contains(d, q, tol=1e-12):
        return 0.0
    return _unnormalized(d, q) / _normalizer(d)


def theoretical_radial_cdf(d: SpaceDescriptor, x: np.ndarray) -> np.ndarray:
    """Cumulative distribution of the single radial coordinate (rank 1)."""
    if d.real_rank != 1:
        raise ContractViolation("theoretical CDF implemented for real rank 1")
    Z = _normalizer(d)
    lo, _ = _chamber_ranges(d)[0]()
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    if np.isfinite(lo):
        prev_x, acc = float(lo), 0.0
    else:
        # far-left anchor; the Gaussian weight makes the truncated tail
        # negligible
        prev_x, acc = float(min(x.min(), 0.0) - 12.0), 0.0
    order = np.argsort(x)
    for i in order:
        xi = float(x[i])
        if xi <= prev_x:
            out[i] = acc
            continue
        seg, _ = integrate.quad(lambda t: _unnormalized(d, np.array([t])), prev_x, xi)
        acc += seg
        prev_x = xi
        out[i] = acc
    return np.clip(out / Z, 0.0, 1.0)


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

    Always verifies that the numeric and closed-form densities agree up to
    a constant; for rank-1 classes additionally runs the Monte Carlo
    Kolmogorov-Smirnov comparison against the normalized density.
    """
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
