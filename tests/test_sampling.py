import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from cartanflow import (
    ContractViolation,
    basis_of,
    make_space,
    radial_histogram,
    sample_p_gaussian,
    sample_radial_batch,
    theoretical_radial_density,
    trace_form,
    verify_density,
)
from cartanflow.radial import radial_coords_batch
from cartanflow.reduction import random_chamber_point
from cartanflow import sampling
from cartanflow.linalg import ConsistencyError
from cartanflow.sampling import (
    CHUNK_SIZE,
    _SUB_BLOCK_BYTES,
    _log_chamber_integral,
    theoretical_radial_cdf,
)
from cartanflow.spaces import (
    _assemble,
    _root_system,
    _spectral_block,
    check_p_membership,
    geometry,
    random_k_element,
)

from conftest import (
    REPRESENTATIVES,
    exact_p_assembly,
    parameter_grid,
    reference_log_chamber_integral,
    reference_p_rows,
    reference_radial_density,
    reference_root_families,
    reference_root_table,
    reference_sample_radial_batch,
    root_system_grid,
)
from test_spaces import BASIS_CASES

KS_CASES = [("aiii", 2, 1), ("bdi", 2, 1), ("ai", 0, 2), ("a2", 0, 2)]


def chamber_ranges(d):
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


def quad_radial_cdf(d, x):
    """Rank-1 CDF by adaptive quadrature of the normalized density from the
    chamber's lower end: the oracle for the closed-form CDF."""
    lo, _ = chamber_ranges(d)[0]()
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
        seg, _ = integrate.quad(lambda t: theoretical_radial_density(d, [t]), prev_x, xi)
        acc += seg
        prev_x = xi
        out[i] = acc
    return np.clip(out, 0.0, 1.0)


def test_sample_deterministic_and_in_p():
    d = make_space("aiii", 2, 1)
    X1 = sample_p_gaussian(d, 42)
    X2 = sample_p_gaussian(d, 42)
    assert np.array_equal(X1, X2)
    check_p_membership(d, X1)
    assert not np.array_equal(X1, sample_p_gaussian(d, 43))


def test_gaussian_norm_moment():
    # E[trace_form(X, X)] = dim p with chi-square fluctuations
    d = make_space("aiii", 2, 1)
    count = 100_000
    rng = np.random.default_rng(0)
    coeff = rng.standard_normal((count, d.dim_p))
    vals = np.sum(coeff**2, axis=1)
    mean = float(np.mean(vals))
    assert abs(mean - d.dim_p) <= 3 * np.sqrt(2 * d.dim_p / count)


def chunk_normals(d, count, seed):
    """The sampler's normals, regenerated chunk by chunk from its seeds."""
    return np.concatenate([
        sampling._chunk_rng(seed, c).standard_normal((min(CHUNK_SIZE, count - lo), d.dim_p))
        for c, lo in enumerate(range(0, count, CHUNK_SIZE))
    ])


@pytest.mark.parametrize("case", REPRESENTATIVES + [
    ("aiii", 8, 8), ("cii", 2, 2), ("bdi", 1, 1), ("bdi", 3, 3),
])
def test_sampler_norm_identity_per_draw(case, monkeypatch):
    # p has a trace-form orthonormal basis, so tr X^2 = |x|^2 for the drawn
    # coordinates x, and tr X^2 = q^T G q: exact for every draw, here across
    # a chunk boundary (worst seen 2.9e-15, ai(3)).  The root product's
    # degree, sum m_alpha = dim p - rank, is asserted by criterion 4.
    d = make_space(*case)
    count, seed, G = 10_000, 7, geometry(d).gram
    x2 = np.sum(chunk_normals(d, count, seed) ** 2, axis=1)

    def residuals():
        q = sample_radial_batch(d, count, seed)
        return np.abs(np.sum((q @ G) * q, axis=1) - x2) / x2

    assert residuals().max() <= 1e-13
    # a sampler scaled by 1.01 fails on every draw
    monkeypatch.setattr(sampling, "radial_coords_batch",
                        lambda d, B: 1.01 * radial_coords_batch(d, B))
    assert residuals().min() > 1e-13


def test_basis_projections_uncorrelated():
    d = make_space("ai", 0, 3)
    geo = geometry(d)
    rng = np.random.default_rng(5)
    coeff = rng.standard_normal((50_000, d.dim_p))
    cov = coeff[:, 0] @ coeff[:, 1] / coeff.shape[0]
    assert abs(cov) <= 3 / np.sqrt(coeff.shape[0])


def test_shard_independence_bit_identical():
    d = make_space("aiii", 2, 1)
    a = sample_radial_batch(d, 30_000, seed=7, threads=1)
    b = sample_radial_batch(d, 30_000, seed=7, threads=4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_block_sampler_matches_dense_path(case, seed):
    # the oracle builds every draw as a full N x N matrix from the same
    # chunk generator; the sampler builds only the spectral block
    d = make_space(*case)
    count = 2000
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    Xs = np.tensordot(rng.standard_normal((count, d.dim_p)), np.array(basis_of(d, "p")),
                      axes=([1], [0]))
    dense = radial_coords_batch(d, Xs)
    q = sample_radial_batch(d, count, seed)
    if d.kind in ("ai", "a2", "aii"):
        # the sampler and the dense product sum a diagonal's contributors in
        # different orders
        assert np.max(np.abs(q - dense)) <= 1e-13 * np.max(np.abs(dense))
    else:
        assert np.array_equal(q, dense)
    blocks = np.ascontiguousarray(_spectral_block(d, Xs))
    assert np.array_equal(radial_coords_batch(d, blocks), dense)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("case", BASIS_CASES)
def test_seeded_draw_is_the_basis_order_sum(case, seed):
    # sum_a g_a B_a from +0.0 zeros over basis_of(d, "p"), one member at a
    # time in basis order, with the normals of the draw's generator
    d = make_space(*case)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    want = exact_p_assembly(d, rng.standard_normal((1, d.dim_p)), block=False)[0]
    assert sample_p_gaussian(d, seed).tobytes() == want.tobytes()


def sub_block_draws(d):
    """The sampler's draws per sub-block: as many as ``_SUB_BLOCK_BYTES``
    holds of the draw's normals and block entries, at least one and at
    most a chunk."""
    width = d.dim_p + len(geometry(d)._block_table[0])
    return max(1, min(CHUNK_SIZE, _SUB_BLOCK_BYTES // (8 * width)))


def boundary_counts(d):
    """Counts at the space's own sub-block boundary: one draw short of a
    sub-block, one sub-block, one draw more, and a chunk whose last
    sub-block holds one draw (no space tested here has one-draw sub-blocks)."""
    draws = sub_block_draws(d)
    return {
        "draws-1": draws - 1,
        "draws": draws,
        "draws+1": draws + 1,
        "one-draw rest": (CHUNK_SIZE - 1) // draws * draws + 1,
    }


@pytest.mark.parametrize(
    "case, draws",
    [(("aiii", 2, 1), 8192), (("bdi", 3, 3), 2427), (("cii", 2, 2), 1365), (("ci", 0, 6), 574),
     (("diii", 0, 8), 356), (("a2", 0, 12), 152), (("aiii", 8, 8), 256), (("aiii", 24, 24), 28)],
)
def test_sub_blocks_fill_the_byte_budget(monkeypatch, case, draws):
    # the sampler reduces each chunk in sub-blocks of 512 KiB of normals and
    # block entries, so their draw count falls as the space grows (the
    # sample-density spaces and aiii(24,24)); a chunk ends in its rest
    d = make_space(*case)
    assert sub_block_draws(d) == draws
    sizes, reduce = [], sampling.radial_coords_batch
    monkeypatch.setattr(
        sampling, "radial_coords_batch", lambda d, B: sizes.append(len(B)) or reduce(d, B)
    )
    sample_radial_batch(d, CHUNK_SIZE + 3, 1)
    full, rest = divmod(CHUNK_SIZE, draws)
    assert sizes == [draws] * full + [rest] * (rest > 0) + [3]


@pytest.mark.parametrize(
    "count",
    [1, 1023, 1025, 8191, 8193, 3 * CHUNK_SIZE + 5, "draws-1", "draws", "draws+1", "one-draw rest"],
)
@pytest.mark.parametrize("case", REPRESENTATIVES + [("a2", 0, 4)])
def test_sub_block_stream_matches_chunk_reference(case, count):
    # a chunk streamed through sub-blocks gives the bytes of the whole chunk
    # at once, at one and two threads, at fixed counts and at the space's
    # own sub-block boundary (a name of ``boundary_counts``).  The A-type
    # diagonals sum several contributors, which a BLAS product orders by its
    # row count: those cases take the exact assembly
    d = make_space(*case)
    count = boundary_counts(d).get(count, count)
    real, exact = d.kind in ("bdi", "ai"), d.trace_constrained
    want = reference_sample_radial_batch(d, count, 3, real=real, exact=exact)
    for threads in (1, 2):
        assert np.array_equal(sample_radial_batch(d, count, 3, threads), want)


@pytest.mark.parametrize("count", [1100, 20_000])
@pytest.mark.parametrize(
    "case", [("bdi", 2, 1), ("bdi", 3, 1), ("ai", 0, 2), ("bdi", 3, 3), ("ai", 0, 6), ("a2", 0, 5)]
)
def test_sub_block_stream_within_ulps_of_complex_chunk_reference(case, count):
    # against the complex product over whole chunks: the real rank-1 norm of
    # bdi and ai can differ from the complex one by an ulp, and the sampler
    # sums an A-type diagonal's contributors in basis order, BLAS in its own
    d = make_space(*case)
    q, want = sample_radial_batch(d, count, 13), reference_sample_radial_batch(d, count, 13)
    if d.real_rank == 1:
        assert np.all(np.abs(q - want) <= 8 * np.finfo(float).eps * np.abs(want))
    else:
        assert np.max(np.abs(q - want)) <= 4e-15 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize(
    "case", sorted(set(REPRESENTATIVES) | {("a2", 0, 5), ("a2", 0, 11), ("ai", 0, 11)})
)
def test_sample_prefix_is_the_prefix_of_a_larger_sample(case):
    # the output depends on (count, seed) only: the first n of 8192 draws are
    # the n draws, whatever sub-blocks each count splits into (a BLAS product
    # summed the A-type diagonals in an order that depends on its row count)
    d = make_space(*case)
    full = sample_radial_batch(d, CHUNK_SIZE, 3)
    bounds = [n for n in boundary_counts(d).values() if n <= CHUNK_SIZE]
    for n in (1, 2, 17, 476, 1025, 1500, 5000, *bounds):
        assert np.array_equal(sample_radial_batch(d, n, 3), full[:n]), n


@pytest.mark.slow
@pytest.mark.parametrize("case", [("aiii", 16, 16), ("aiii", 24, 24), ("bdi", 24, 24)])
def test_large_gathered_blocks_equal_the_product(case):
    # every block entry of these classes has one contributor, so the gather
    # is the product's bytes, signed zeros included, at the sampler's
    # sub-block size and at 1024 rows
    d = make_space(*case)
    for rows in (sub_block_draws(d), 1024):
        g = np.random.default_rng(17).standard_normal((rows, d.dim_p))
        got = _assemble(geometry(d)._block_table, g)
        want = (g @ reference_p_rows(d)[0]).view(complex).reshape(got.shape)
        assert got.tobytes() == want.tobytes(), rows


@pytest.mark.parametrize("case", REPRESENTATIVES + [("a2", 0, 4), ("bdi", 1, 1)])
def test_assembly_into_a_buffer_is_the_allocating_assembly(case):
    # the sampler refills one buffer per chunk: a NaN-filled one must come
    # out with the bytes of a fresh assembly, for a full and a short run of
    # rows, and for bdi(1,1)'s one-member p basis
    d = make_space(*case)
    table = geometry(d)._block_table
    g = np.random.default_rng(5).standard_normal((7, d.dim_p))
    buf = np.full((7, len(table[0])), np.nan)
    for rows in (7, 3):
        got = _assemble(table, g[:rows], out=buf[:rows])
        assert np.shares_memory(got, buf)
        assert got.tobytes() == _assemble(table, g[:rows]).tobytes()


def assert_peak_is_one_sub_block_per_worker(case):
    """Beside the result, a worker holds one sub-block's normals and blocks,
    at most _SUB_BLOCK_BYTES, and LAPACK's copy of the blocks with the
    spectra, at most that again: the bound allows two budgets per worker.
    Two chunks keep both workers busy at once."""
    import tracemalloc

    d = make_space(*case)
    count = 2 * CHUNK_SIZE
    sample_radial_batch(d, 2, seed=1, threads=2)  # geometry and thread pool import
    for threads in (1, 2):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sample_radial_batch(d, count, seed=1, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count * d.real_rank + threads * 2 * _SUB_BLOCK_BYTES, threads


def test_sampler_peak_memory_is_one_sub_block_per_worker():
    # measured for a2(12): 2.0 MB (1 thread) and 3.2 MB (2 threads);
    # 1024-draw sub-blocks peaked at 5.3 MB with one thread
    assert_peak_is_one_sub_block_per_worker(("a2", 0, 12))


@pytest.mark.slow
def test_sampler_peak_memory_is_one_sub_block_per_worker_at_aiii_24_24():
    # measured: 3.7 MB (1 thread) and 4.4 MB (2 threads); 1024-draw
    # sub-blocks peaked at 22 MB with one thread
    assert_peak_is_one_sub_block_per_worker(("aiii", 24, 24))


def test_histogram_counts_and_density():
    d = make_space("bdi", 2, 1)
    hist = radial_histogram(d, 20_000, 32, seed=3)
    counts = hist.counts[0]
    assert counts.sum() == 20_000
    area = float(np.sum(hist.density[0] * np.diff(hist.edges[0])))
    assert area == pytest.approx(1.0, abs=1e-6)


def test_histogram_multirank_marginals():
    d = make_space("aiii", 3, 2)
    hist = radial_histogram(d, 5000, 16, seed=2)
    assert len(hist.edges) == 2 and len(hist.counts) == 2
    for i in range(2):
        assert hist.counts[i].sum() == 5000
        area = float(np.sum(hist.density[i] * np.diff(hist.edges[i])))
        assert area == pytest.approx(1.0, abs=1e-6)


def test_histogram_single_sample():
    d = make_space("aiii", 2, 1)
    hist = radial_histogram(d, 1, 4, seed=9)
    assert hist.counts[0].sum() == 1


def test_histogram_validation():
    d = make_space("aiii", 2, 1)
    with pytest.raises(ContractViolation):
        radial_histogram(d, 10, 1, seed=0)
    with pytest.raises(ContractViolation):
        sample_radial_batch(d, 0, seed=0)


def test_k_invariance_of_radial_samples():
    # histograms of q from X and from Ad(k) X agree within Monte Carlo error
    d = make_space("aiii", 2, 1)
    rng = np.random.default_rng(17)
    k = random_k_element(d, rng)
    qs = sample_radial_batch(d, 20_000, seed=23)
    coeff = np.random.default_rng(
        np.random.SeedSequence(23, spawn_key=(0,))
    ).standard_normal((8192, d.dim_p))
    Xs = np.tensordot(coeff, np.array(basis_of(d, "p")), axes=([1], [0]))
    Xk = np.einsum("ij,bjk,lk->bil", k, Xs, k.conj())
    qa = radial_coords_batch(d, Xs)
    qb = radial_coords_batch(d, Xk)
    assert np.max(np.abs(np.sort(qa[:, 0]) - np.sort(qb[:, 0]))) <= 1e-8


# every rank-1 and rank-2 case of the grid, plus ci(3), the cheapest rank 3
DENSITY_ORACLE_CASES = [
    c for c in parameter_grid(4) if make_space(*c).real_rank <= 2
] + [("ci", 0, 3)]


@pytest.mark.parametrize("case", DENSITY_ORACLE_CASES)
def test_theoretical_density_integrates_to_one(case):
    # nquad over the chamber is the oracle for the closed-form normalizer
    d = make_space(*case)
    val, _ = integrate.nquad(
        lambda *xs: theoretical_radial_density(d, xs[::-1]),
        chamber_ranges(d),
        opts={"epsabs": 1e-12, "epsrel": 1e-9},
    )
    assert val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("case", [("ai", 0, 6), ("ci", 0, 5), ("bdi", 5, 5)])
def test_theoretical_density_beyond_rank_four(case, rng):
    d = make_space(*case)
    for _ in range(5):
        rho = theoretical_radial_density(d, random_chamber_point(d, rng))
        assert np.isfinite(rho) and rho > 0


def test_chamber_integral_rejects_unexpected_shape(monkeypatch):
    # a non-scalar Gram matrix
    d = make_space("ci", 0, 2)
    monkeypatch.setattr(geometry(d), "gram", np.array([[2.0, 0.1], [0.1, 2.0]]))
    with pytest.raises(ConsistencyError):
        _log_chamber_integral.__wrapped__(d)  # past the per-descriptor cache


@pytest.mark.parametrize("case", root_system_grid())
def test_chamber_integral_matches_family_decode_reference(case):
    d = make_space(*case)
    assert _log_chamber_integral(d).hex() == reference_log_chamber_integral(d).hex()


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_density_is_the_reference_quotient_on_the_grid(case):
    # the log-domain density against the direct quotient of the reference
    # root table, Gram matrix and chamber integral at three seeded chamber
    # points; 0.0 on a wall (alpha = e1 - e2 at rank >= 2, q = 0 at rank 1)
    # and outside the chamber (the coordinates reversed, or q negated);
    # bdi(1,1) has no walls and the whole line as its chamber
    d = make_space(*case)
    rng = np.random.default_rng(2008)
    walls = len(reference_root_table(d)[1]) > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            q = random_chamber_point(d, rng)
            rho = theoretical_radial_density(d, q)
            assert rho == pytest.approx(reference_radial_density(d, q), rel=1e-12, abs=0.0)
            if walls:
                wall = np.concatenate([q[:1], q[:-1]]) if d.real_rank > 1 else 0.0 * q
                outside = q[::-1] if d.real_rank > 1 else -q
                assert theoretical_radial_density(d, wall) == 0.0
                assert theoretical_radial_density(d, outside) == 0.0


@pytest.mark.parametrize("case", root_system_grid())
def test_family_decode_of_reference_table_gives_root_system(case):
    # _log_chamber_integral reads beta, s, l from _root_system; the decode of the
    # per-kind table it ran before must find the same numbers (beta only
    # where e_i +- e_j exist, at rank >= 2)
    d = make_space(*case)
    a_type, beta, s, ell = _root_system(d)
    decoded = reference_root_families(d, *reference_root_table(d))
    if a_type == "A":
        assert decoded == {(0, 0): beta}
    else:
        want = {(2, 1): beta if d.real_rank >= 2 else 0, (1, 1): s, (1, 2): ell}
        assert decoded == {family: mult for family, mult in want.items() if mult}


def test_import_does_not_load_scipy_integrate():
    # every CLI process pays the package import; quadrature lives in the tests
    import cartanflow

    src = os.path.dirname(os.path.dirname(cartanflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cartanflow; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


def test_import_loads_neither_thread_pool_nor_scipy():
    # the thread pool is imported by a multi-threaded sample only
    import cartanflow

    src = os.path.dirname(os.path.dirname(cartanflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, cartanflow; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_negative_seed_rejected():
    d = make_space("aiii", 2, 1)
    with pytest.raises(ContractViolation):
        sample_p_gaussian(d, -1)
    with pytest.raises(ContractViolation):
        sample_radial_batch(d, 10, seed=-1)


def test_density_vanishes_on_walls_and_outside():
    d = make_space("aiii", 3, 2)
    assert theoretical_radial_density(d, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert theoretical_radial_density(d, np.array([1.0, 2.0])) == 0.0  # outside chamber


@pytest.mark.parametrize(
    "case, q",
    [(("aiii", 3, 2), [1e100, 1.0]), (("aiii", 2, 1), [1e160]), (("a2", 0, 3), [1e160, 0.0]),
     (("bdi", 3, 3), [1e120, 1.0, 0.5])],
)
def test_density_far_in_the_tail_is_zero(case, q):
    # the root product overflows where the Gaussian weight underflows
    assert theoretical_radial_density(make_space(*case), q) == 0.0


@pytest.mark.parametrize("m", [16, 20])
def test_density_where_the_root_product_leaves_the_doubles(m):
    # q along (1, ..., 0.05) with q G q / 2 = 700, where the root product
    # overflows (the density is e^-185.76 at aiii(16,16), e^-71.47 at
    # aiii(20,20)), against q0 on the same ray with q0 G q0 / 2 = 100, where
    # the direct quotient of the reference holds, by the scaling law
    # rho(t u) = rho(t0 u) (t / t0)^M exp(-(t^2 - t0^2) u G u / 2),
    # M the sum of the multiplicities
    d = make_space("aiii", m, m)
    geo = geometry(d)
    u = np.linspace(1.0, 0.05, d.real_rank)
    uGu = u @ geo.gram @ u
    t, t0 = math.sqrt(1400.0 / uGu), math.sqrt(200.0 / uGu)
    direct = reference_radial_density(d, t0 * u)
    assert theoretical_radial_density(d, t0 * u) == pytest.approx(direct, rel=1e-12, abs=0.0)
    want = (math.log(direct) + geo.root_table[1].sum() * math.log(t / t0)
            - (t * t - t0 * t0) * uGu / 2)
    assert math.log(theoretical_radial_density(d, t * u)) == pytest.approx(want, abs=1e-10)


def test_density_where_the_chamber_integral_leaves_the_doubles():
    # Z is e^1009.8 at aiii(24,24); the density of its own seeded draws
    # (e^9.6 to e^15.9 here) is finite, and follows the scaling law above
    # from q to 0.9 q
    d = make_space("aiii", 24, 24)
    geo = geometry(d)
    with pytest.raises(OverflowError):
        math.exp(_log_chamber_integral(d))
    M = geo.root_table[1].sum()
    for q in sample_radial_batch(d, 5, 1):
        rho, rho9 = theoretical_radial_density(d, q), theoretical_radial_density(d, 0.9 * q)
        assert 5.0 < math.log(rho) < 20.0
        want = math.log(rho) + M * math.log(0.9) + 0.19 * (q @ geo.gram @ q) / 2
        assert math.log(rho9) == pytest.approx(want, abs=1e-10)


def test_mode_of_rank_one_density():
    # q^3 exp(-q^2) peaks at sqrt(3/2)
    d = make_space("aiii", 2, 1)
    qs = np.linspace(0.8, 1.6, 4001)
    vals = [theoretical_radial_density(d, np.array([q])) for q in qs]
    assert qs[int(np.argmax(vals))] == pytest.approx(np.sqrt(1.5), abs=1e-3)


def test_cdf_monotone_and_normalized():
    d = make_space("ai", 0, 2)
    x = np.linspace(0, 6, 40)
    cdf = theoretical_radial_cdf(d, x)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


RANK_ONE_CASES = [c for c in parameter_grid(4) if make_space(*c).real_rank == 1]


@pytest.mark.parametrize("case", RANK_ONE_CASES)
def test_closed_form_cdf_matches_quadrature(case):
    d = make_space(*case)
    x = np.concatenate([np.linspace(-3.0, 5.0, 65), [1e-3, 7.5]])
    assert np.max(np.abs(theoretical_radial_cdf(d, x) - quad_radial_cdf(d, x))) <= 1e-12


@pytest.mark.parametrize("case", RANK_ONE_CASES)
def test_cdf_far_in_the_tail_is_one(case):
    # g x^2 / 2 overflows from x ~ 1e154 on
    x = np.array([1e155, 1e200, 1e300, np.finfo(float).max])
    assert (theoretical_radial_cdf(make_space(*case), x) == 1.0).all()


@pytest.mark.parametrize("case", RANK_ONE_CASES)
def test_closed_form_cdf_matches_scipy_special(case):
    # scipy.special is the oracle for the incomplete gamma and normal CDF
    from scipy.special import gammainc, ndtr

    d = make_space(*case)
    geo = geometry(d)
    g, a = geo.gram[0, 0], float(np.sum(geo.root_table[1]))
    x = np.concatenate([np.linspace(-3.0, 8.0, 221), [0.0, 1e-8, 1e-3, 30.0]])
    if d.kind == "bdi" and d.m == d.n:
        ref = ndtr(np.sqrt(g) * x)
    else:
        ref = gammainc((a + 1) / 2, g * np.maximum(x, 0.0) ** 2 / 2)
    assert np.max(np.abs(theoretical_radial_cdf(d, x) - ref)) <= 1e-14


def test_verify_density_does_not_load_scipy_special():
    # the rank-1 CDF is closed form; every verify-density process would
    # otherwise pay the scipy.special import
    import cartanflow

    src = os.path.dirname(os.path.dirname(cartanflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["verify-density", "--class", "aiii", "--m", "2", "--n", "1"]
    code = (
        "import sys; from cartanflow.cli import main; "
        f"rc = main({argv!r}); print(rc, 'scipy.special' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("case", KS_CASES)
def test_ks_verification(case):
    d = make_space(*case)
    res = verify_density(d, count=100_000, bins=64, seed=7)
    assert res["constant_ratio_ok"]
    assert res["ks_statistic"] <= res["threshold"]
    assert res["pass"]


def test_verify_density_higher_rank_skips_ks():
    res = verify_density(make_space("aiii", 3, 2), count=100, bins=8, seed=1)
    assert res["ks_statistic"] is None
    assert res["constant_ratio_ok"] and res["pass"]
