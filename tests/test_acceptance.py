"""Acceptance suite: one test per stated criterion, with a PASS line each.

Criterion 10 is split: the canonicalization properties (10a) and the
pattern constraint count (10b).  For su(m,n) the centralizer
M = Z_K(a) sits inside S(U(m) x U(n)), so dim M = (m-n)^2 + n - 1: the
stated figure (m-n)^2 + n, the dimension of U(m-n) x T^n, is one too
large because of the determinant condition.  A slice pattern pins one
real dimension per dimension of a generic M-orbit on a-perp, which is
dim M - s with s = (m-2n)^2 the generic stabilizer dimension when
m - n > n (s = 0 otherwise).  10b checks the count against that orbit
dimension, measured as a numeric commutator rank.
"""

import time

import numpy as np
import pytest

from cartanflow import (
    basis_of,
    commutator,
    compare_with_oracle,
    density_constant,
    embed_radial,
    jacobian_density,
    make_space,
    moment_map,
    numeric_roots,
    project_k,
    project_p,
    radial_decompose,
    random_p_element,
    restricted_roots,
    trace_form,
    verify_density,
)
from cartanflow.dynamics import PhasePoint
from cartanflow.linalg import ConsistencyError, frobenius
from cartanflow.radial import (
    SliceCoords,
    exact_slice_constraint_count,
    exact_slice_reduce,
    slice_contains,
)
from cartanflow.reduction import _check_root_multiset, a_q_matrix, random_chamber_point
from cartanflow.sampling import sample_radial_batch
from cartanflow.spaces import RestrictedRoot, geometry

from conftest import (
    REPRESENTATIVES,
    centralizer_orbit_dimension,
    parameter_grid,
    reference_ratio_spread,
)

GRID = parameter_grid(4)


def _random_g0(d, rng):
    k_basis = basis_of(d, "k")
    X = sum(c * b for c, b in zip(rng.standard_normal(d.dim_p), basis_of(d, "p")))
    if k_basis:
        X = X + sum(c * b for c, b in zip(rng.standard_normal(d.dim_k), k_basis))
    return X


def test_criterion_1_cartan_consistency():
    rng = np.random.default_rng(1001)
    eps = np.finfo(float).eps
    for case in GRID:
        d = make_space(*case)
        a_basis = basis_of(d, "a")
        for A in a_basis:
            for B in a_basis:
                assert np.linalg.norm(commutator(A, B)) <= 1e-12
        for M in basis_of(d, "m_centralizer"):
            for A in a_basis:
                assert np.linalg.norm(commutator(M, A)) <= 1e-12
        for _ in range(100):
            X = _random_g0(d, rng)
            Xk, Xp = project_k(d, X), project_p(d, X)
            scale = max(1.0, float(np.max(np.abs(X))))
            assert np.max(np.abs((Xk + Xp) - X)) <= 4 * eps * scale
            assert abs(trace_form(Xk, Xp)) <= 1e-12 * max(1.0, frobenius(X) ** 2)
    print(f"\n[criterion 1] PASS Cartan consistency on {len(GRID)} parameter sets")


def test_criterion_2_radial_round_trip():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for case in GRID:
        d = make_space(*case)
        for _ in range(100):
            X = random_p_element(d, rng)
            q, k = radial_decompose(d, X)
            H = embed_radial(d, q)
            rec = frobenius(k @ H @ k.conj().T - X) / max(frobenius(X), 1e-14)
            worst = max(worst, rec)
            assert rec <= 1e-9
    print(f"\n[criterion 2] PASS radial round trip, worst residual {worst:.2e}")


DENSITY_CASES = [
    ("aiii", 2, 1),
    ("aiii", 3, 1),
    ("aiii", 3, 2),
    ("aiii", 4, 2),
    ("bdi", 2, 1),
    ("bdi", 3, 2),
    ("bdi", 4, 2),
]


def test_criterion_3_density_identity():
    for case in DENSITY_CASES:
        d = make_space(*case)
        _, spread = reference_ratio_spread(d, None, samples=100, seed=715)
        assert spread <= 1e-8, f"{d.label()}: ratio spread {spread:.2e}"
        c = density_constant(d)
        assert c > 0
    # negative control: a corrupted multiplicity table must fail, both the
    # exact multiset check and the reference Monte Carlo
    d = make_space("aiii", 3, 2)
    corrupted = [
        RestrictedRoot(r.coeffs, r.multiplicity + (1 if i == 0 else 0))
        for i, r in enumerate(restricted_roots(d))
    ]
    geo = geometry(d)
    coeffs = np.array([r.coeffs for r in corrupted], dtype=float)
    mults = np.array([r.multiplicity for r in corrupted], dtype=float)
    with pytest.raises(ConsistencyError, match="multiplicity table inconsistent$"):
        _check_root_multiset(geo.bracket_coeffs, geo.e_coords, coeffs, mults, d.label())
    _, spread = reference_ratio_spread(d, corrupted, samples=100, seed=715)
    assert spread > 1e-8
    print(f"\n[criterion 3] PASS density identity on {len(DENSITY_CASES)} cases + negative control")


def test_criterion_4_root_table_oracle():
    for case in GRID:
        d = make_space(*case)
        table = {r.coeffs: r.multiplicity for r in restricted_roots(d)}
        numeric = {r.coeffs: r.multiplicity for r in numeric_roots(d)}
        assert table == numeric, d.label()
        assert sum(table.values()) == d.dim_p - d.real_rank
    print(f"\n[criterion 4] PASS root tables equal the numeric oracle on {len(GRID)} sets")


def test_criterion_5_a_q_selfadjoint_with_root_spectrum():
    rng = np.random.default_rng(1005)
    for case in REPRESENTATIVES:
        d = make_space(*case)
        geo = geometry(d)
        roots = restricted_roots(d)
        for _ in range(100):
            q = random_chamber_point(d, rng)
            A = a_q_matrix(d, q)
            assert np.linalg.norm(A.matrix - A.matrix.T) <= 1e-10
            expected = []
            for r in roots:
                expected.extend([r.value(geo.e_coords) * r.value(q)] * r.multiplicity)
            got = np.sort(np.linalg.eigvalsh(A.matrix))
            if expected:
                assert np.max(np.abs(got - np.sort(expected))) <= 1e-8
    print("\n[criterion 5] PASS A_q symmetric with root-product spectrum (8 classes x 100)")


def test_criterion_6_change_of_variables():
    rng = np.random.default_rng(1006)
    for case in [("aiii", 3, 2), ("bdi", 3, 2)]:
        d = make_space(*case)
        geo = geometry(d)
        dim = len(basis_of(d, "a_perp"))
        for _ in range(20):
            q = random_chamber_point(d, rng)
            H = embed_radial(d, q)
            eps = 1e-6
            jac = np.zeros((dim, dim))
            for a in range(dim):
                c = np.zeros(dim)
                c[a] = eps
                plus = commutator(geo.aperp_from_coords(c), H)
                minus = commutator(geo.aperp_from_coords(-c), H)
                jac[:, a] = geo.zk_coords((plus - minus) / (2 * eps))
            fd = abs(np.linalg.det(jac))
            target = jacobian_density(d, q)
            assert abs(fd - target) <= 1e-6 * max(target, 1e-14)
    print("\n[criterion 6] PASS finite-difference Jacobian matches the slice density")


ORACLE_CASES = [("aiii", 2, 1), ("aiii", 3, 2), ("ai", 0, 3), ("a2", 0, 3)]


def test_criterion_7_level_dynamics_oracle():
    from cartanflow import integrate_reduced, reduce_phase_point

    for case in ORACLE_CASES:
        d = make_space(*case)
        rng = np.random.default_rng(101)
        start = PhasePoint(random_p_element(d, rng), random_p_element(d, rng))
        report = compare_with_oracle(d, start, 1.0, 1000)
        assert report.truncated is None, f"{d.label()} hit a wall"
        assert report.max_deviation <= 1e-6, f"{d.label()} deviation {report.max_deviation:.2e}"
        state, _ = reduce_phase_point(d, start)
        traj = integrate_reduced(d, state, 1.0, 1000)
        H0 = traj.energies[0]
        assert np.max(np.abs(traj.energies - H0)) <= 1e-8 * max(1.0, abs(H0))
        assert np.max(np.abs(traj.l_spectra - traj.l_spectra[0])) <= 1e-8
    print("\n[criterion 7] PASS reduced flow matches the direct flow on 4 classes")


def test_criterion_8_moment_map_conservation():
    rng = np.random.default_rng(1008)
    for case in REPRESENTATIVES:
        d = make_space(*case)
        for _ in range(10):
            X = random_p_element(d, rng)
            Y = random_p_element(d, rng)
            X /= max(frobenius(X), 1e-14)
            Y /= max(frobenius(Y), 1e-14)
            mu0 = moment_map(d, Y, X)
            for t in (0.5, 1.0, 10.0):
                assert frobenius(moment_map(d, Y, X + t * Y) - mu0) <= 1e-12
    print("\n[criterion 8] PASS moment map conserved along the direct flow")


KS_CASES = [("aiii", 2, 1), ("bdi", 2, 1), ("ai", 0, 2), ("a2", 0, 2)]


def test_criterion_9_monte_carlo_densities():
    start = time.perf_counter()
    for case in KS_CASES:
        d = make_space(*case)
        res = verify_density(d, count=100_000, bins=64, seed=7, threads=1)
        assert res["constant_ratio_ok"], d.label()
        assert res["ks_statistic"] <= res["threshold"], (
            f"{d.label()}: KS {res['ks_statistic']:.4f} > {res['threshold']:.4f}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"single-threaded run took {elapsed:.1f}s"
    for case in KS_CASES:
        d = make_space(*case)
        a = sample_radial_batch(d, 100_000, seed=7, threads=1)
        b = sample_radial_batch(d, 100_000, seed=7, threads=4)
        assert np.array_equal(a, b), f"{d.label()}: sharded run not bit-identical"
    print(f"\n[criterion 9] PASS Monte Carlo densities in {elapsed:.1f}s, shard-identical")


SLICE_CASES = [("aiii", 2, 1), ("aiii", 3, 1), ("aiii", 3, 2)]


def _random_slice(d, rng):
    geo = geometry(d)
    rank = d.real_rank
    q = np.sort(np.abs(rng.standard_normal(rank)))[::-1] + 0.3 * np.arange(rank, 0, -1)
    p = rng.standard_normal(rank)
    r = geo.aperp_from_coords(rng.standard_normal(len(basis_of(d, "a_perp"))))
    return SliceCoords(q, p, r)


def test_criterion_10a_exact_slice_canonicalization():
    rng = np.random.default_rng(1010)
    for case in SLICE_CASES:
        d = make_space(*case)
        for _ in range(100):
            s = _random_slice(d, rng)
            elem, m_elem = exact_slice_reduce(d, s)
            rc = elem.coords.r
            assert abs(frobenius(rc) - frobenius(s.r)) <= 1e-10
            assert np.array_equal(elem.coords.q, s.q)
            assert np.array_equal(elem.coords.p, s.p)
            elem2, _ = exact_slice_reduce(d, elem.coords)
            assert frobenius(elem2.coords.r - rc) <= 1e-10
            assert slice_contains(d, elem.coords).ok
        # slice_contains accepts exactly the canonical outputs: a generic
        # non-canonical element must be rejected
        s = _random_slice(d, rng)
        if not slice_contains(d, s).ok:
            elem, _ = exact_slice_reduce(d, s)
            assert slice_contains(d, elem.coords).ok
    print("\n[criterion 10a] PASS exact slice idempotent, norm-preserving, self-consistent")


def test_criterion_10b_constraint_count_group_dimension():
    """The su(m,n) slice pattern imposes one real constraint per orbit dimension.

    Group dimension: M = Z_K(a) is U(m-n) x T^n cut by the determinant
    condition of S(U(m) x U(n)), so dim M = (m-n)^2 + n - 1; the stated
    (m-n)^2 + n counts U(m-n) x T^n and exceeds it by exactly that one
    condition.  Orbit dimension: when m - n > n a generic M-orbit on
    a-perp has stabilizer U(m-2n), of dimension s = (m-2n)^2, and s = 0
    otherwise; the real rank of xi -> [xi, r] over the centralizer basis
    at a generic r must equal dim M - s.  Count: the pattern codimension
    from exact_slice_constraint_count equals that orbit dimension, since
    no pattern can pin more real dimensions than the orbit has and a
    canonicalization that pins fewer leaves a continuous freedom.
    """
    for case in SLICE_CASES:
        d = make_space(*case)
        m, n = d.m, d.n
        dim_m = len(basis_of(d, "m_centralizer"))
        assert dim_m == (m - n) ** 2 + n - 1, (
            f"{d.label()}: centralizer basis has {dim_m} elements, "
            f"expected (m-n)^2 + n - 1 = {(m - n) ** 2 + n - 1}"
        )
        # the stated (m-n)^2 + n counts U(m-n) x T^n; the determinant
        # condition takes exactly one dimension away
        stated = (m - n) ** 2 + n
        assert stated == dim_m + 1
        s = (m - 2 * n) ** 2 if m - n > n else 0
        orbit = centralizer_orbit_dimension(d)
        assert orbit == dim_m - s, (
            f"{d.label()}: numeric orbit dimension {orbit}, expected dim M - s = {dim_m - s}"
        )
        count = exact_slice_constraint_count(d)
        assert count == orbit, (
            f"{d.label()}: pattern codimension {count} differs from the orbit dimension {orbit}"
        )
    print("\n[criterion 10b] PASS constraint count equals dim M - s, the centralizer orbit dimension")
