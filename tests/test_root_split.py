"""The centralizer split taken one support component of k at a time, against
the dense split over all of k that it replaced (``reference_root_split``)."""

import numpy as np
import pytest

from cartanflow import density_constant, make_space, numeric_roots, restricted_roots
from cartanflow import spaces
from cartanflow.reduction import jacobian_density, random_chamber_point
from cartanflow.spaces import _real_rows, basis_of, geometry

from conftest import reference_root_split, reference_unit_entries, root_system_grid
from test_spaces import BASIS_CASES


def _span_gap(A: np.ndarray, B: np.ndarray) -> float:
    """The largest sine of a principal angle between the real spans of two
    orthonormal stacks of one length: the spectral norm of what is left of
    B after projecting it onto A."""
    a, b = _real_rows(A), _real_rows(B)
    return float(np.linalg.norm(b - (b @ a.T) @ a, ord=2)) if len(b) else 0.0


def _assert_matches_dense_split(d):
    geo = geometry(d)
    m, Z, R, C = geo._root_split
    m_ref, Z_ref, R_ref, C_ref = reference_root_split(d)
    for got, want in ((m, m_ref), (Z, Z_ref), (R, R_ref), (C, C_ref)):
        assert got.shape == want.shape
    # C by value and in the reference's row order; its zeros are +0.0
    assert np.array_equal(C, C_ref) and not np.signbit(C[C == 0]).any()
    assert _span_gap(m_ref, m) <= 1e-12
    # zk-perp and a-perp may turn inside a root space, not across one
    rows_of: dict[tuple, list[int]] = {}
    for k, row in enumerate(map(tuple, C.tolist())):
        rows_of.setdefault(row, []).append(k)
    for rows in rows_of.values():
        assert _span_gap(Z_ref[rows], Z[rows]) <= 1e-10
        assert _span_gap(R_ref[rows], R[rows]) <= 1e-10
    rng = np.random.default_rng(3)
    for _ in range(3):
        q = random_chamber_point(d, rng)
        assert jacobian_density(d, q) == float(np.prod(np.abs(C_ref @ q)))
    for seed in (spaces._ROOT_SEED, 7):
        assert numeric_roots(d, seed) == restricted_roots(d)
    assert geo.bracket_residual <= 1e-12


@pytest.mark.parametrize("case", BASIS_CASES + [("bdi", 1, 1)])
def test_component_split_matches_dense_split(case):
    _assert_matches_dense_split(make_space(*case))


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_component_split_matches_dense_split_on_the_grid(case):
    _assert_matches_dense_split(make_space(*case))


def _projector(stack: np.ndarray) -> np.ndarray:
    rows = _real_rows(stack)
    return rows.T @ rows


@pytest.mark.parametrize("case", BASIS_CASES)
def test_root_space_projectors_do_not_follow_the_bits_of_k(case, monkeypatch):
    # the trace-corrected members of k (aiii, a2) move by rounding with the
    # grouping of their Gram-Schmidt sums, and Z and R may then turn inside
    # a root space by up to 1.414; the projector onto each root space, sum
    # of z z^T over the rows of one C row, does not, nor does that onto m
    d = make_space(*case)
    got = spaces.SpaceGeometry(d)._root_split
    monkeypatch.setattr(spaces.SpaceGeometry, "_unit_basis",
                        lambda geo, onto_p: reference_unit_entries(geo.descriptor, onto_p))
    want = spaces.SpaceGeometry(d)._root_split
    assert np.array_equal(got[3], want[3])
    assert np.max(np.abs(_projector(got[0]) - _projector(want[0])), initial=0.0) <= 1e-12
    rows_of: dict[tuple, list[int]] = {}
    for k, row in enumerate(map(tuple, got[3].tolist())):
        rows_of.setdefault(row, []).append(k)
    for rows in rows_of.values():
        for i in (1, 2):  # zk-perp, a-perp
            gap = _projector(got[i][rows]) - _projector(want[i][rows])
            assert np.max(np.abs(gap), initial=0.0) <= 1e-12


def test_component_split_is_exactly_sparse():
    # each Z_k is a combination of the members of one support component:
    # its entries off that component's entries are exact zeros
    d = make_space("aiii", 8, 8)
    geo = geometry(d)
    Z = geo._zk_stack
    k_rows = _real_rows(geo._stack(onto_p=False))
    nz = _real_rows(Z) != 0
    touched = (k_rows != 0).any(axis=0)
    assert not nz[:, ~touched].any()
    assert nz.sum(axis=1).max() <= 16  # of 512 real columns


def test_cold_split_reads_the_k_basis_once(monkeypatch):
    # the split reads the cached k entry triplets: the k basis is built
    # once, and never assembled as a dense stack
    d = make_space("aiii", 3, 2)
    calls = []
    unit_basis, assemble = spaces.SpaceGeometry._unit_basis, spaces._assemble
    monkeypatch.setattr(spaces.SpaceGeometry, "_unit_basis",
                        lambda geo, onto_p: calls.append(onto_p) or unit_basis(geo, onto_p))
    monkeypatch.setattr(spaces, "_assemble", lambda *a, **k: calls.append("assemble")
                        or assemble(*a, **k))
    monkeypatch.setitem(spaces._GEOMETRY_CACHE, d, spaces.SpaceGeometry(d))
    assert len(basis_of(d, "a_perp")) == d.dim_p - d.real_rank
    assert calls == [False]


@pytest.mark.slow
def test_aiii_32_32_builds_cold(monkeypatch):
    # the dense split failed its bracket check here (1.45e-9 against 1e-9);
    # the component split forms no dense dim k x dim k matrix: every eigh
    # block is at most N wide
    d = make_space("aiii", 32, 32)
    widths = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: widths.append(A.shape[-1]) or eigh(A))
    monkeypatch.setitem(spaces._GEOMETRY_CACHE, d, spaces.SpaceGeometry(d))
    geo = geometry(d)
    geo._p_table, geo._k_table
    assert geo.bracket_coeffs.shape == (d.dim_p - d.real_rank, d.real_rank)
    assert geo.bracket_residual <= 1e-11
    assert density_constant.__wrapped__(d) == 2.0**d.real_rank  # the rows of C are the roots
    assert numeric_roots(d) == restricted_roots(d)
    assert widths and max(widths) <= d.ambient_dim
