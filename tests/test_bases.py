"""The p and k bases built from entry lists, and the brackets taken by index,
against the dense products they replace."""

import numpy as np
import pytest

from cartanflow import ConsistencyError, PhasePoint, basis_of, make_space, sample_radial_batch
from cartanflow import random_p_element, reduce_phase_point, spaces
from cartanflow.cli import main
from cartanflow.reduction import r_from_l
from cartanflow.spaces import _ad_entries, geometry

from conftest import assert_matches_unit_basis, assert_orthonormal, reference_unit_basis
from conftest import _real_rows, reference_member_sum, root_system_grid
from test_spaces import BASIS_CASES


def _assert_matches_dense_reference(d):
    # by count and order; the trace-corrected members within 4 eps, every
    # other one by value on the p side, where the dense averages leave -0.0
    # that the entry lists never write, and byte for byte on the k side
    geo = spaces.SpaceGeometry(d)
    for onto_p in (True, False):
        stack = geo._stack("p" if onto_p else "k")
        assert_matches_unit_basis(d, onto_p, stack, reference_unit_basis(d, onto_p),
                                  exact=not onto_p)
        assert_orthonormal(stack)


@pytest.mark.parametrize("case", BASIS_CASES)
def test_bases_match_dense_unit_stack(case):
    _assert_matches_dense_reference(make_space(*case))


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_bases_match_dense_unit_stack_on_the_grid(case):
    _assert_matches_dense_reference(make_space(*case))


@pytest.mark.slow
def test_large_bases_match_dense_unit_stack():
    _assert_matches_dense_reference(make_space("bdi", 24, 24))


@pytest.mark.slow
@pytest.mark.parametrize("case", [("bdi", 24, 24), ("aiii", 24, 24)])
def test_no_dense_p_or_k_stack_is_cached(case):
    # after the p basis, a cold split and one sampler batch, and no flow, p,
    # k, m, zk-perp and a-perp live only as entry triplets, and the p block
    # as the sampler's index table: no dense stack or row block of any of them
    d = make_space(*case)
    basis_of(d, "p")
    basis_of(d, "a_perp")  # the split, which reads the k triplets
    sample_radial_batch(d, 1024, 1)
    geo, N = geometry(d), d.ambient_dim
    dz = d.dim_p - d.real_rank
    cached = [a for value in vars(geo).values()
              for b in (value if isinstance(value, (tuple, list)) else [value])
              for a in (b if isinstance(b, tuple) else [b])
              if isinstance(a, np.ndarray)]
    dense = ((d.dim_p, N, N), (d.dim_k, N, N), (dz, N, N), (d.dim_k - dz, N, N),
             (dz, 2 * N * N))
    assert cached and not [a.shape for a in cached if a.shape in dense]
    tables = (geo._p_entries, geo._k_entries, geo._block_table[:5])
    table_bytes = sum(a.nbytes for t in tables for a in t)
    assert table_bytes < 0.01 * 16 * (d.dim_p + d.dim_k) * N * N


def _assert_sums_are_member_order_sums(d):
    # p, zk-perp and a-perp through their public sums, k as random_k_element
    # scatters it, at one row and three, with -0.0 and 0.0 among the
    # coefficients: the bytes of zeros plus one member's terms at a time
    geo = geometry(d)
    square = (d.ambient_dim,) * 2
    bases = [(geo._p_entries, d.dim_p, geo.p_from_coords),
             (geo._k_entries, d.dim_k, lambda c: spaces._scatter(geo._k_entries, c, square)),
             (geo._root_split[1], d.dim_p - d.real_rank, geo.zk_from_coords),
             (geo._root_split[2], d.dim_p - d.real_rank, geo.aperp_from_coords)]
    rng = np.random.default_rng(29)
    for entries, dim, total in bases:
        c = rng.standard_normal((3, dim))
        c.ravel()[::5], c.ravel()[2::7] = -0.0, 0.0
        want = reference_member_sum(entries, c, square)
        assert total(c).tobytes() == want.tobytes()
        assert total(c[0]).tobytes() == want[0].tobytes()


@pytest.mark.parametrize("case", BASIS_CASES[::6] + [("bdi", 1, 1), ("a2", 0, 4)])
def test_sums_over_a_basis_are_member_order_sums(case):
    _assert_sums_are_member_order_sums(make_space(*case))


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_sums_over_a_basis_are_member_order_sums_on_the_grid(case):
    _assert_sums_are_member_order_sums(make_space(*case))


@pytest.mark.parametrize("case", [("aiii", 3, 2), ("ai", 0, 4)])
def test_only_the_sampler_block_is_cached_as_an_index_table(case, monkeypatch):
    # a seeded decompose, a checked flow, r_from_l and a sampler batch on a
    # fresh geometry build one index table, the sampler's block; every
    # other sum scatters from the triplets
    d = make_space(*case)
    made = []
    index_table = spaces._index_table
    monkeypatch.setattr(spaces, "_index_table", lambda *a: made.append(index_table(*a)) or made[-1])
    monkeypatch.setitem(spaces._GEOMETRY_CACHE, d, spaces.SpaceGeometry(d))
    space = ["--class", d.kind, "--m", str(d.m), "--n", str(d.n)]
    assert main(["decompose", *space, "--seed", "3"]) == 0
    assert main(["flow", *space, "--seed", "3", "--compare"]) == 0
    rng = np.random.default_rng(3)
    state = reduce_phase_point(d, PhasePoint(random_p_element(d, rng),
                                             random_p_element(d, rng)))[0]
    r_from_l(d, state.q, state.l)
    sample_radial_batch(d, 64, 1)
    geo = geometry(d)
    assert len(made) == 1
    assert [name for name, value in vars(geo).items() if value is made[0]] == ["_block_table"]


def _dense(entries, n, N):
    """The stack of n N x N matrices that (op, member, column, value)
    entries of one op describe."""
    _, member, col, val = entries
    rows = np.zeros((n, 2 * N * N))
    rows[member, col] = val
    return rows.view(complex).reshape(n, N, N)


@pytest.mark.parametrize("case", BASIS_CASES)
def test_bracket_by_index_matches_the_products(case):
    # every value, zeros included, against BH - HB, on the k basis (from its
    # table) and on dense random matrices, for each generator alone and for
    # a stack of them
    d = make_space(*case)
    geo = geometry(d)
    rng = np.random.default_rng(17)
    N = d.ambient_dim
    X = rng.standard_normal((5, N, N)) + 1j * rng.standard_normal((5, N, N))
    member, col = np.nonzero(_real_rows(X))
    stacks = [(geo._stack("k"), geo._k_entries),
              (X, (member, col, _real_rows(X)[member, col]))]
    gens = [*geo.a_embed, geo.embed_radial(geo.e_coords),
            geo.embed_radial(spaces._generic_point(d.real_rank, spaces._ROOT_SEED))]
    for B, entries in stacks:
        together = _ad_entries(entries, gens)
        assert np.all(together[3] != 0)
        for i, H in enumerate(gens):
            want = B @ H - H @ B
            alone = _ad_entries(entries, [H])
            assert np.array_equal(_dense(alone, len(B), N), want)
            assert all(np.array_equal(x[together[0] == i], y)
                       for x, y in zip(together[1:], alone[1:]))


def test_bracket_by_index_rejects_two_entries_in_a_row():
    entries = (np.zeros(0, int), np.zeros(0, int), np.zeros(0))
    H = np.zeros((3, 3), dtype=complex)
    H[0, 1] = H[0, 2] = 1.0
    for bad in (H, H.T, 1j * np.eye(3)):
        with pytest.raises(ConsistencyError, match="one nonzero per row and column"):
            _ad_entries(entries, [np.eye(3), bad])


@pytest.mark.parametrize("case", [("aiii", 3, 2), ("bdi", 3, 2), ("cii", 2, 1), ("ai", 0, 3),
                                  ("aii", 0, 3), ("diii", 0, 4), ("ci", 0, 2)])
def test_dropping_a_conjugation_from_the_index_table_raises(case, monkeypatch):
    d = make_space(*case)
    maps = spaces._conjugation_maps(d)
    assert len(maps) == len(spaces._conjugations(d)) >= 1
    for i in range(len(maps)):
        monkeypatch.setattr(spaces, "_conjugation_maps", lambda _, i=i: maps[:i] + maps[i + 1 :])
        for name in ("_p_entries", "_k_entries"):
            with pytest.raises(ConsistencyError, match="theory says"):
                getattr(spaces.SpaceGeometry(d), name)
    monkeypatch.undo()
    _assert_matches_dense_reference(d)


def test_index_table_rejects_a_conjugation_that_is_no_signed_permutation(monkeypatch):
    d = make_space("aiii", 2, 1)
    table = spaces._conjugations(d)
    bad = ((*table[0][:2], lambda X: X + X.T, -1),)
    monkeypatch.setattr(spaces, "_conjugations", lambda _: bad)
    with pytest.raises(ConsistencyError, match="not a signed permutation"):
        spaces._conjugation_maps.__wrapped__(d)


@pytest.mark.parametrize("order, match", [
    ([1, 0, 2], None),  # swaps rows 0 and 1, inside one block of Γ
    ([2, 1, 0], "do not commute pairwise"),  # swaps rows 0 and 2, across the blocks of Γ
    ([1, 2, 0], "not an involution"),  # a 3-cycle
])
def test_conjugation_maps_reject_maps_that_are_no_commuting_involutions(order, match, monkeypatch):
    # the orbit sums span the fixed space only of commuting involutions: the
    # class's conjugations with X -> PXP added, P a permutation matrix
    d = make_space("aiii", 2, 1)
    P = np.eye(3)[order]
    table = (*spaces._conjugations(d), ("PXP", "PXP", lambda X: P @ X @ P.T, 1))
    monkeypatch.setattr(spaces, "_conjugations", lambda _: table)
    if match is None:
        assert len(spaces._conjugation_maps.__wrapped__(d)) == 2
    else:
        with pytest.raises(ConsistencyError, match=match):
            spaces._conjugation_maps.__wrapped__(d)


def test_p_and_k_tables_build_without_dense_stacks():
    # dense (dim, 2 N^2) rows of the kept candidates would peak at 82.4 MB
    # at aiii(24,24); the build from entry lists stays under a tenth of that
    import tracemalloc

    geo = spaces.SpaceGeometry(make_space("aiii", 24, 24))
    tracemalloc.start()
    try:
        geo._p_entries, geo._k_entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.1e6
