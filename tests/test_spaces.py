import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cartanflow

from cartanflow import (
    ConsistencyError,
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
from cartanflow import spaces
from cartanflow.spaces import (
    _conjugations,
    check_k_group_membership,
    check_membership,
    geometry,
)

from conftest import (
    REPRESENTATIVES,
    TRACE_CORRECTED,
    _ad_rows,
    _gram_schmidt,
    assert_matches_unit_basis,
    assert_orthonormal,
    parameter_grid,
    reference_check_k_group_membership,
    reference_gram,
    reference_has_sign_flip_weyl,
    reference_numeric_roots,
    reference_orthonormalize,
    reference_project,
    reference_relations,
    reference_restricted_roots,
    reference_root_step,
    reference_root_table,
    reference_trace_constrained,
    reference_unit_basis,
    reference_unit_entries,
    root_system_grid,
)


def random_g0(d, rng):
    k_basis = basis_of(d, "k")
    X = sum(c * b for c, b in zip(rng.standard_normal(d.dim_p), basis_of(d, "p")))
    if k_basis:
        X = X + sum(c * b for c, b in zip(rng.standard_normal(d.dim_k), k_basis))
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
    Xp = random_p_element(d, rng)
    assert np.allclose(project_p(d, Xp), Xp)
    assert np.allclose(project_k(d, Xp), 0.0)
    Xk = sum(c * b for c, b in zip(rng.standard_normal(d.dim_k), basis_of(d, "k")))
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
    # in every block mixes root spaces, and the build must refuse the
    # non-diagonal map
    import cartanflow.spaces as spaces
    from cartanflow.linalg import ConsistencyError

    def rotated(A):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal(A.shape))
        return np.linalg.eigvalsh(A), Q

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
    a_basis = basis_of(d, "a")
    for A in a_basis:
        for B in a_basis:
            assert np.linalg.norm(commutator(A, B)) <= 1e-12
    for M in basis_of(d, "m_centralizer"):
        for A in a_basis:
            assert np.linalg.norm(commutator(M, A)) <= 1e-12


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_zk_perp_orthogonal_to_centralizer(case):
    d = make_space(*case)
    for Z in basis_of(d, "zk_perp"):
        for M in basis_of(d, "m_centralizer"):
            assert abs(trace_form(Z, M)) <= 1e-12


@pytest.mark.parametrize("case", parameter_grid(3))
def test_root_tables_match_numeric_oracle(case):
    d = make_space(*case)
    table = {r.coeffs: r.multiplicity for r in restricted_roots(d)}
    numeric = {r.coeffs: r.multiplicity for r in numeric_roots(d)}
    assert table == numeric
    assert sum(table.values()) == d.dim_p - d.real_rank


@pytest.mark.parametrize("case", root_system_grid())
def test_root_system_matches_kind_by_kind_reference(case):
    # the table generated from (type, beta, s, l) against the per-kind loops
    d = make_space(*case)
    roots = restricted_roots(d)
    assert roots == reference_restricted_roots(d)
    assert all(type(x) is int for r in roots for x in (*r.coeffs, r.multiplicity))
    coeffs, mults = geometry(d).root_table
    want_coeffs, want_mults = reference_root_table(d)
    assert coeffs.shape == want_coeffs.shape and coeffs.tobytes() == want_coeffs.tobytes()
    assert mults.tobytes() == want_mults.tobytes()
    assert d.has_sign_flip_weyl == reference_has_sign_flip_weyl(d)
    assert d.trace_constrained == reference_trace_constrained(d)


def test_gram_matches_generator_by_generator_loop():
    # sums of small integers: one stacked einsum cannot move a bit
    for case in root_system_grid():
        d = make_space(*case)
        G = geometry(d).gram
        assert G.flags.c_contiguous and G.tobytes() == reference_gram(d).tobytes(), case


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


@pytest.mark.parametrize("case", REPRESENTATIVES + [("bdi", 1, 1)])
def test_random_k_element_is_in_k(case, rng):
    d = make_space(*case)
    k = random_k_element(d, rng)
    N = d.ambient_dim
    assert np.linalg.norm(k.conj().T @ k - np.eye(N)) <= 1e-9
    if d.dim_k == 0:  # bdi(1,1): K is the identity alone
        assert np.array_equal(k, np.eye(N))
    # Ad(k) must preserve p: check on a random p element via membership
    from cartanflow.spaces import check_p_membership

    X = random_p_element(d, rng)
    check_p_membership(d, k @ X @ k.conj().T, rtol=1e-8)


def _assert_matches_expm(case):
    # scipy.linalg.expm of the same k element, summed from the public k basis,
    # is the oracle for the eigh form of the exponential
    from scipy.linalg import expm

    d = make_space(*case)
    N = d.ambient_dim
    kb = np.array(basis_of(d, "k")).reshape(d.dim_k, N, N)
    for seed in (1, 2):
        for scale in (0.3, 1.0, 5.0):
            k = random_k_element(d, np.random.default_rng(seed), scale)
            c = scale * np.random.default_rng(seed).standard_normal(d.dim_k)
            assert np.abs(k - expm(np.einsum("i,ijk->jk", c, kb))).max() <= 1e-13, (seed, scale)
            check_k_group_membership(d, k)
            if d.kind in ("bdi", "ai"):  # K is real: the imaginary part is dropped
                assert not k.imag.any()


@pytest.mark.parametrize("case", REPRESENTATIVES + [("bdi", 1, 1)])
def test_random_k_element_matches_expm(case):
    _assert_matches_expm(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_random_k_element_matches_expm_on_the_grid(case):
    _assert_matches_expm(case)


@pytest.mark.parametrize("case", [("bdi", 3, 2), ("ai", 0, 4)])
def test_random_k_element_refuses_an_imaginary_part_on_a_real_k(case, monkeypatch):
    # eigenvalues shifted by 1e-9 turn exp(A) into exp(A) e^{-1e-9 i}: an
    # imaginary part far above rounding, which must not be dropped silently
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda M: (eigh(M)[0] + 1e-9, eigh(M)[1]))
    with pytest.raises(ConsistencyError, match="imaginary part"):
        random_k_element(make_space(*case), np.random.default_rng(1))


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
        "p": _gram_schmidt([reference_project(d, U[None], True)[0] for U in units]),
        "k": _gram_schmidt([reference_project(d, 1j * U[None], False)[0] for U in units]),
        "a": _gram_schmidt(geo.a_embed),
    }
    p, k = np.array(basis_of(d, "p")), geo._stack("k")
    for which, stack in (("p", p), ("k", k), ("a", geo._a_stack)):
        assert len(stack) == len(ref[which])
        want = np.array(ref[which]).reshape(stack.shape)
        assert np.max(np.abs(stack - want), initial=0.0) <= 1e-15
    assert not geo._a_stack.flags.writeable
    assert not any(a.flags.writeable for t in (geo._p_entries, geo._k_entries) for a in t)
    if d.kind in ("aiii", "bdi", "cii", "diii", "ci"):
        assert np.array_equal(p, np.array(ref["p"]))


def _built(geo) -> dict[str, np.ndarray]:
    block = spaces._assemble(geo._block_table, np.eye(geo.descriptor.dim_p))
    return {"p": geo._stack("p"), "k": geo._stack("k"), "a": geo._a_stack,
            "m": geo._stack("m_centralizer"), "zk_perp": geo._stack("zk_perp"),
            "a_perp": geo._stack("a_perp"), "C": geo.bracket_coeffs, "block": block}


def _assert_matches_reference_build(d, got, monkeypatch):
    # reference: p and k from the dense unit build, fed to the library as
    # entry triplets, a from the Gram-Schmidt that projects every candidate,
    # and the split and spectral blocks read from them.  p, k and the blocks
    # as ``assert_matches_unit_basis`` says: the trace-corrected members
    # within 4 eps, p and the blocks by value (the dense averages leave -0.0
    # on p where the entry lists never write one), k byte for byte.  C and a
    # byte for byte, and m, zk-perp and a-perp too where k is byte for byte
    # the reference's: a candidate whose support no earlier candidate
    # touches skips only sums of exact zeros.  Where k is not (the
    # trace-corrected k of aiii and a2), the root-space projectors are
    # compared in test_root_split.py
    monkeypatch.setattr(spaces.SpaceGeometry, "_unit_basis",
                        lambda geo, onto_p: reference_unit_entries(geo.descriptor, onto_p))
    ref = spaces.SpaceGeometry(d)
    want = _built(ref)
    want["p"], want["k"] = reference_unit_basis(d, True), reference_unit_basis(d, False)
    want["a"] = reference_orthonormalize(np.stack(ref.a_embed))
    monkeypatch.undo()
    same_k = got["k"].tobytes() == want["k"].tobytes()
    assert same_k or d.kind in TRACE_CORRECTED[False]
    for name, stack in got.items():
        assert stack.shape == want[name].shape, name
        if name in ("p", "k", "block"):
            assert_matches_unit_basis(d, name != "k", stack, want[name], exact=name == "k")
        elif name in ("a", "C") or same_k:
            assert stack.tobytes() == want[name].tobytes(), name
    assert_orthonormal(got["p"])
    assert_orthonormal(got["k"])


@pytest.mark.parametrize("case", BASIS_CASES)
def test_bases_and_root_split_match_reference_gram_schmidt_bytewise(case, monkeypatch):
    d = make_space(*case)
    _assert_matches_reference_build(d, _built(spaces.SpaceGeometry(d)), monkeypatch)


def _root_vectors(d, seed):
    geo = geometry(d)
    Z, He = geo._stack("zk_perp"), geo.embed_radial(geo.e_coords)
    Hg = geo.embed_radial(spaces._generic_point(d.real_rank, seed))
    return Z, reference_root_step(Z, He, Hg)


@pytest.mark.parametrize("case", BASIS_CASES)
def test_numeric_roots_match_eigenvector_by_eigenvector_reference(case):
    d = make_space(*case)
    for seed in (spaces._ROOT_SEED, 7):
        got = numeric_roots(d, seed)
        assert got == reference_numeric_roots(d, *_root_vectors(d, seed))
        assert all(type(x) is int for r in got for x in r.coeffs)


def _fit(d, Z):
    # the members of Z as they are, measured densely: per member v,
    # w_i = A_i[v, v] and the residual max_i |A_i e_v - w_i e_v|, with
    # A_i = <ad(H(E)) Z_j, ad(H_i) Z_k>
    geo = geometry(d)
    Ve = _ad_rows(Z, geo.embed_radial(geo.e_coords))
    A = np.array([Ve @ _ad_rows(Z, Hi).T for Hi in geo.a_embed])  # (rank, n, n)
    w = np.diagonal(A, axis1=1, axis2=2).T
    resid = np.linalg.norm(A - np.eye(len(Z)) * w.T[:, None, :], axis=1).max(axis=0)
    return spaces._fit_roots(d, w, resid)


def _fit_errors(d, Z) -> list[str]:
    messages = []
    for fit in (lambda: _fit(d, Z), lambda: reference_numeric_roots(d, Z, np.eye(len(Z)))):
        with pytest.raises(ConsistencyError) as exc:
            fit()
        messages.append(str(exc.value))
    return messages


@pytest.mark.parametrize("case", [("aiii", 2, 1), ("aiii", 3, 2), ("bdi", 3, 2), ("cii", 2, 1),
                                  ("ai", 0, 3), ("diii", 0, 5), ("ci", 0, 2), ("aii", 0, 3)])
def test_root_fit_raises_like_the_reference(case):
    d = make_space(*case)
    geo = geometry(d)
    Z, C = geo._stack("zk_perp"), geo.bracket_coeffs
    eye = np.eye(len(Z))
    # the members of zk-perp are root vectors already
    assert _fit(d, Z) == reference_numeric_roots(d, Z, eye) == restricted_roots(d)
    # rotating Z_0 by 45 degrees with a member of another root leaves two
    # vectors that are not: both fits fail at eigenvector 0, in the same words
    j = next(j for j in range(len(C)) if not any(np.array_equal(s * C[j], C[0]) for s in (1, -1)))
    Z[0], Z[j] = (Z[0] + Z[j]) / np.sqrt(2), (Z[0] - Z[j]) / np.sqrt(2)
    got, want = _fit_errors(d, Z)
    assert got == want and "root fit residual" in got and got.endswith("eigenvector 0")
    # a zero member has alpha(E)^2 = 0
    Z = geo._stack("zk_perp")
    Z[1] = 0.0
    got, want = _fit_errors(d, Z)
    assert got == want and "eigenvector 1 has nonpositive alpha(E)^2 = 0.000e+00" in got


@pytest.mark.slow
@pytest.mark.parametrize("case", [("aiii", 16, 16), ("aii", 0, 16)])
def test_large_bases_and_numeric_roots_match_references(case, monkeypatch):
    d = make_space(*case)
    _assert_matches_reference_build(d, _built(geometry(d)), monkeypatch)
    assert numeric_roots(d) == reference_numeric_roots(d, *_root_vectors(d, spaces._ROOT_SEED))


def test_basis_of_returns_writeable_copies_detached_from_the_cache():
    # all but a are the stacks their build step makes, assembled afresh from
    # the cached index tables; bdi(1,1) has no k, zk-perp, a-perp or m
    for case in (("aiii", 3, 2), ("bdi", 1, 1)):
        d = make_space(*case)
        geo = geometry(d)
        stacks = {which: geo._stack(which)
                  for which in ("k", "p", "a_perp", "m_centralizer", "zk_perp")}
        stacks["a"] = geo._a_stack
        rest = d.dim_p - d.real_rank
        dims = {"k": d.dim_k, "p": d.dim_p, "a": d.real_rank, "a_perp": rest,
                "m_centralizer": d.dim_k - rest, "zk_perp": rest}
        for which, stack in stacks.items():
            got = basis_of(d, which)
            assert len(got) == len(stack) == dims[which], (case, which)
            assert all(M.flags.writeable for M in got)
            assert np.array(got).tobytes() == stack.tobytes()
            if got:
                got[0][...] = 7.0
                assert np.array(basis_of(d, which)).tobytes() == stack.tobytes()


def test_cold_geometry_path_imports_no_scipy():
    # the geometry-cold benchmark calls for aiii(3,2) in a fresh interpreter:
    # importing SciPy would cost more than the whole cold build, and numpy.ma
    # (which the first np.unique imports) about a quarter of it
    code = """if True:
        import sys
        import cartanflow as cf

        d = cf.make_space("aiii", 3, 2)
        for which in ("p", "k", "a_perp", "m_centralizer", "zk_perp"):
            cf.basis_of(d, which)
        cf.numeric_roots(d)
        cf.density_constant(d)
        start = cf.PhasePoint(cf.sample_p_gaussian(d, 1), cf.sample_p_gaussian(d, 2))
        state, _ = cf.reduce_phase_point(d, start)
        cf.reduced_vector_field(d, state)
        cf.theoretical_radial_density(d, state.q)
        print(sorted(m for m in sys.modules
                     if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"]))
    """
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter with this checkout's ``src`` first
    on the path."""
    src = str(Path(cartanflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)


# one seeded run of every subcommand, as the bare-runtime CI job runs them
NO_SCIPY_ARGVS = [
    ["spaces", "list"],
    ["decompose", "--class", "aiii", "--m", "3", "--n", "2", "--seed", "1", "--exact-slice"],
    ["density", "--class", "aiii", "--m", "3", "--n", "2", "--q", "1.5,0.5"],
    ["sample", "--class", "aiii", "--m", "2", "--n", "1", "--count", "2000", "--bins", "8",
     "--seed", "1"],
    ["flow", "--class", "bdi", "--m", "3", "--n", "2", "--steps", "50", "--t-max", "0.2",
     "--seed", "1", "--compare"],
    ["verify-density", "--class", "aiii", "--m", "2", "--n", "1", "--count", "2000", "--bins",
     "8", "--seed", "1"],
]


def test_runtime_paths_run_with_scipy_blocked():
    # SciPy is a test oracle, not a dependency: with every import of it made
    # to fail, K elements and each subcommand still run
    code = f"""if True:
        import sys
        sys.modules["scipy"] = None  # "import scipy..." now raises ImportError
        import numpy as np
        import cartanflow as cf
        from cartanflow.cli import main
        from cartanflow.spaces import check_k_group_membership

        for case in (("bdi", 3, 2), ("cii", 2, 1)):
            d = cf.make_space(*case)
            check_k_group_membership(d, cf.random_k_element(d, np.random.default_rng(1)))
        codes = [main(argv) for argv in {NO_SCIPY_ARGVS!r}]
        print(codes)
    """
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([0] * len(NO_SCIPY_ARGVS)), proc.stderr


def test_bare_runtime_job_runs_the_scipy_blocked_commands():
    workflow = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
    job = workflow.read_text().split("\n  bare-runtime:\n")[1]
    lines = {ln.strip() for ln in job.splitlines()}
    assert "run: python -m pip install ." in lines
    for argv in NO_SCIPY_ARGVS:
        assert "cartanflow " + " ".join(argv) in lines, argv


def _message(check, *args) -> str | None:
    try:
        check(*args)
    except ContractViolation as exc:
        return str(exc)
    return None


def _fix_prefix(table, E, count, anti_hermitian):
    """E made to satisfy the first ``count`` entries' g0 relations, or
    their K conditions on the Lie algebra when ``anti_hermitian``."""
    for _, _, M, s in table[:count]:
        E = (E + (M(E) if s > 0 or anti_hermitian else -M(E).conj().T)) / 2.0
    return E


@pytest.mark.parametrize("case", parameter_grid(3))
def test_membership_messages_match_kind_by_kind_reference(case, monkeypatch):
    from scipy.linalg import expm

    d = make_space(*case)
    N = d.ambient_dim
    rng = np.random.default_rng(909)
    table = _conjugations(d)
    X, k = random_g0(d, rng), random_k_element(d, rng)
    inputs = []
    for count in range(len(table) + 1):
        for eps in (1e-6, 1e-2):
            E = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            inputs.append(("g0", X + eps * _fix_prefix(table, E, count, False)))
            A = _fix_prefix(table, (E - E.conj().T) / 2.0, count, True)
            inputs.append(("K", k @ expm(eps * A)))
    inputs += [("g0", X + 1e-6 * np.eye(N)), ("g0", X), ("K", k), ("K", k + 1e-6),
               ("K", 1j * k), ("K", k @ np.diag(np.exp(1e-3j * np.arange(N))))]
    wants = []
    with monkeypatch.context() as mp:
        mp.setattr(spaces, "_relations", reference_relations)
        for which, Y in inputs:
            if which == "g0":
                wants.append(_message(check_membership, d, Y))
            else:
                wants.append(_message(reference_check_k_group_membership, d, Y))
    for (which, Y), want in zip(inputs, wants):
        check = check_membership if which == "g0" else check_k_group_membership
        assert _message(check, d, Y) == want, (which, want)
    for relation, condition, _, _ in table:  # every entry was reached
        assert any(f"the {relation} relation" in (w or "") for w in wants)
        assert any(f"the {condition} condition" in (w or "") for w in wants)


@pytest.mark.parametrize("case", parameter_grid(3))
def test_bases_and_k_elements_are_fixed_by_each_conjugation(case):
    d = make_space(*case)
    p, kb = basis_of(d, "p"), basis_of(d, "k")
    k = random_k_element(d, np.random.default_rng(31))
    for name, _, M, s in _conjugations(d):
        for X in p:
            assert np.linalg.norm(M(X) - s * X) <= 1e-12, name
        for X in kb:
            assert np.linalg.norm(M(X) - X) <= 1e-12, name
        assert np.linalg.norm(M(k) - k) <= 1e-12, name
    # and against the kind-by-kind relations, which do not read the table
    for X in (*p, *kb):
        assert all(resid <= 1e-12 for _, resid in reference_relations(d, X))
    reference_check_k_group_membership(d, k, rtol=1e-12)
