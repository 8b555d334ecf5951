import numpy as np
import pytest

from cartanflow import (
    ContractViolation,
    basis_of,
    commutator,
    make_space,
    numeric_roots,
    project_k,
    project_p,
    random_k_element,
    random_p_element,
    restricted_roots,
    trace_form,
)
from cartanflow.spaces import _project, check_membership, geometry

from conftest import REPRESENTATIVES, _gram_schmidt, parameter_grid


def random_g0(d, rng):
    geo = geometry(d)
    X = sum(c * b for c, b in zip(rng.standard_normal(d.dim_p), geo.p_basis))
    if geo.k_basis:
        X = X + sum(c * b for c, b in zip(rng.standard_normal(d.dim_k), geo.k_basis))
    return X


def test_make_space_examples():
    d = make_space("aiii", 2, 1)
    assert d.ambient_dim == 3 and d.real_rank == 1
    d = make_space("ai", 0, 3)
    assert d.ambient_dim == 3 and d.real_rank == 2
    with pytest.raises(ContractViolation):
        make_space("aiii", 1, 2)
    with pytest.raises(ContractViolation):
        make_space("nope", 1, 1)
    with pytest.raises(ContractViolation):
        make_space("ai", 0, 1)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_projections_split_and_orthogonality(case, rng):
    d = make_space(*case)
    eps = np.finfo(float).eps
    for _ in range(10):
        X = random_g0(d, rng)
        Xk, Xp = project_k(d, X), project_p(d, X)
        # p is the complement of k in the same arithmetic: reassembly is
        # exact to the final rounding (one ulp per entry)
        assert np.max(np.abs((Xk + Xp) - X)) <= 4 * eps * max(1.0, np.max(np.abs(X)))
        assert abs(trace_form(Xk, Xp)) <= 1e-12 * max(1.0, np.linalg.norm(X) ** 2)
        # Pythagoras under the trace form (negative on k, positive on p)
        assert trace_form(X, X) == pytest.approx(
            trace_form(Xk, Xk) + trace_form(Xp, Xp), rel=1e-10, abs=1e-10
        )


def test_projection_fixes_sides(rng):
    d = make_space("aiii", 2, 1)
    geo = geometry(d)
    Xp = random_p_element(d, rng)
    assert np.allclose(project_p(d, Xp), Xp)
    assert np.allclose(project_k(d, Xp), 0.0)
    Xk = sum(c * b for c, b in zip(rng.standard_normal(d.dim_k), geo.k_basis))
    assert np.allclose(project_k(d, Xk), Xk)
    assert np.allclose(project_p(d, Xk), 0.0)


def test_membership_error_names_relation():
    d = make_space("bdi", 2, 1)
    bad = np.eye(3) * 1j
    with pytest.raises(ContractViolation, match="reality"):
        check_membership(d, bad)
    d2 = make_space("aiii", 2, 1)
    with pytest.raises(ContractViolation, match="pseudo-unitarity|tracelessness"):
        check_membership(d2, np.eye(3, dtype=complex))


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_basis_orthonormality_and_dimensions(case):
    d = make_space(*case)
    for which in ("k", "p", "a", "a_perp", "m_centralizer", "zk_perp"):
        basis = basis_of(d, which)
        for i, A in enumerate(basis):
            for j, B in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                got = abs(trace_form(A, B))
                assert got == pytest.approx(expected, abs=1e-12)
    assert len(basis_of(d, "p")) == d.dim_p
    assert len(basis_of(d, "a")) == d.real_rank
    assert len(basis_of(d, "a_perp")) == d.dim_p - d.real_rank
    assert len(basis_of(d, "zk_perp")) == d.dim_p - d.real_rank


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_membership_rejects_non_finite(bad):
    d = make_space("aiii", 2, 1)
    X = np.zeros((3, 3), dtype=complex)
    X[0, 2] = X[2, 0] = bad
    with pytest.raises(ContractViolation, match="non-finite"):
        check_membership(d, X)


def test_root_split_rejects_bases_that_are_not_root_adapted(monkeypatch):
    # negative control: a random rotation of the root step's eigenvectors
    # mixes root spaces, and the build must refuse the non-diagonal map
    import cartanflow.spaces as spaces
    from cartanflow.linalg import ConsistencyError

    def rotated(stack, He, Hg):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((len(stack), len(stack))))
        return Q

    monkeypatch.setattr(spaces, "_root_step", rotated)
    with pytest.raises(ConsistencyError, match="not diag"):
        spaces.SpaceGeometry(make_space("aiii", 3, 2)).bracket_coeffs


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_root_table_cached_read_only_and_restricted_roots_fresh(case):
    d = make_space(*case)
    coeffs, mults = geometry(d).root_table
    assert coeffs is geometry(d).root_table[0]
    assert not coeffs.flags.writeable and not mults.flags.writeable
    roots = restricted_roots(d)
    assert roots is not restricted_roots(d)
    roots.clear()
    assert [(tuple(c), m) for c, m in zip(coeffs.astype(int).tolist(), mults)] == [
        (r.coeffs, r.multiplicity) for r in restricted_roots(d)
    ]


def test_basis_selector_validation():
    with pytest.raises(ContractViolation):
        basis_of(make_space("ai", 0, 3), "nonsense")


def test_trivial_centralizers_empty():
    assert basis_of(make_space("ai", 0, 3), "m_centralizer") == []
    assert basis_of(make_space("ci", 0, 3), "m_centralizer") == []


def test_aiii_radial_generator_pattern():
    # single radial generator of aiii(2,1): off-diagonal column (0, 1)^T
    d = make_space("aiii", 2, 1)
    H = geometry(d).embed_radial(np.array([1.0]))
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2] = expected[2, 1] = 1.0
    assert np.allclose(H, expected)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_a_is_abelian_and_m_commutes(case):
    d = make_space(*case)
    geo = geometry(d)
    for A in geo.a_basis:
        for B in geo.a_basis:
            assert np.linalg.norm(commutator(A, B)) <= 1e-12
    for M in geo.m_basis:
        for A in geo.a_basis:
            assert np.linalg.norm(commutator(M, A)) <= 1e-12


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_zk_perp_orthogonal_to_centralizer(case):
    d = make_space(*case)
    geo = geometry(d)
    for Z in geo.zk_perp_basis:
        for M in geo.m_basis:
            assert abs(trace_form(Z, M)) <= 1e-12


@pytest.mark.parametrize("case", parameter_grid(3))
def test_root_tables_match_numeric_oracle(case):
    d = make_space(*case)
    table = {r.coeffs: r.multiplicity for r in restricted_roots(d)}
    numeric = {r.coeffs: r.multiplicity for r in numeric_roots(d)}
    assert table == numeric
    assert sum(table.values()) == d.dim_p - d.real_rank


def test_specific_root_tables():
    t = {r.coeffs: r.multiplicity for r in restricted_roots(make_space("aiii", 2, 1))}
    assert t == {(1,): 2, (2,): 1}
    t = {r.coeffs: r.multiplicity for r in restricted_roots(make_space("aiii", 3, 1))}
    assert t == {(1,): 4, (2,): 1}
    t = {r.coeffs: r.multiplicity for r in restricted_roots(make_space("bdi", 2, 1))}
    assert t == {(1,): 1}
    t = {r.coeffs: r.multiplicity for r in restricted_roots(make_space("ai", 0, 2))}
    assert t == {(2,): 1}
    t = {r.coeffs: r.multiplicity for r in restricted_roots(make_space("a2", 0, 2))}
    assert t == {(2,): 2}


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_random_k_element_is_in_k(case, rng):
    d = make_space(*case)
    k = random_k_element(d, rng)
    N = d.ambient_dim
    assert np.linalg.norm(k.conj().T @ k - np.eye(N)) <= 1e-9
    # Ad(k) must preserve p: check on a random p element via membership
    from cartanflow.spaces import check_p_membership

    X = random_p_element(d, rng)
    check_p_membership(d, k @ X @ k.conj().T, rtol=1e-8)


BASIS_CASES = parameter_grid(4) + [
    ("aiii", 8, 8), ("diii", 0, 8), ("cii", 4, 3), ("ci", 0, 6),
    ("aii", 0, 6), ("ai", 0, 8), ("a2", 0, 12), ("bdi", 8, 8),
]


def unit_list(N):
    """Hermitian units one at a time, in the order of the stacked build."""
    out = []
    for i in range(N):
        for j in range(i, N):
            E = np.zeros((N, N), dtype=complex)
            if i == j:
                E[i, i] = 1.0
                out.append(E)
            else:
                E[i, j] = E[j, i] = 1.0
                out.append(E / np.sqrt(2))
                F = np.zeros((N, N), dtype=complex)
                F[i, j], F[j, i] = 1j, -1j
                out.append(F / np.sqrt(2))
    return out


@pytest.mark.parametrize("case", BASIS_CASES)
def test_stacked_bases_match_unit_by_unit_gram_schmidt(case):
    # reference: each unit projected alone, then sequential modified
    # Gram-Schmidt; same count, order and signs to the last bits
    d = make_space(*case)
    geo = geometry(d)
    units = unit_list(d.ambient_dim)
    ref = {
        "p": _gram_schmidt([_project(d, U[None], True)[0] for U in units]),
        "k": _gram_schmidt([_project(d, 1j * U[None], False)[0] for U in units]),
        "a": _gram_schmidt(geo.a_embed),
    }
    for which, stack in (("p", geo._p_stack), ("k", geo._k_stack), ("a", geo._a_stack)):
        assert len(stack) == len(ref[which])
        want = np.array(ref[which]).reshape(stack.shape)
        assert np.max(np.abs(stack - want), initial=0.0) <= 1e-15
        assert not stack.flags.writeable
        assert all(not M.flags.writeable for M in getattr(geo, f"{which}_basis"))
    if d.kind in ("aiii", "bdi", "cii", "diii", "ci"):
        assert np.array_equal(geo._p_stack, np.array(ref["p"]))
