"""The centralizer split taken one support component of k at a time, against
the dense split over all of k that it replaced (``reference_root_split``)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cartanflow

from cartanflow import density_constant, make_space, numeric_roots, restricted_roots
from cartanflow import spaces
from cartanflow.reduction import jacobian_density, random_chamber_point
from cartanflow.spaces import _SPLIT, basis_of, geometry

from conftest import _real_rows, reference_root_split, reference_unit_entries, root_system_grid
from test_spaces import BASIS_CASES


def _span_gap(A: np.ndarray, B: np.ndarray) -> float:
    """The largest sine of a principal angle between the real spans of two
    orthonormal stacks of one length: the spectral norm of what is left of
    B after projecting it onto A."""
    a, b = _real_rows(A), _real_rows(B)
    return float(np.linalg.norm(b - (b @ a.T) @ a, ord=2)) if len(b) else 0.0


def _assert_matches_dense_split(d):
    geo = geometry(d)
    (m, Z, R), C = (geo._stack(which) for which in _SPLIT), geo.bracket_coeffs
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


def _pivot_margin(entries: tuple) -> float:
    """The least distance of an entry's modulus from half its row's largest,
    relative to that largest, over the nonzero entries of a basis given by
    entry triplets: how far the entries stay from the sign rule's threshold."""
    member, _, val = entries
    top = np.zeros(member[-1] + 1 if len(member) else 0)
    np.maximum.at(top, member, np.abs(val))
    return np.min(np.abs(np.abs(val) / top[member] - 0.5), initial=0.5)


def _assert_split_ignores_the_bits_of_k(d, monkeypatch):
    # the trace-corrected members of k (aiii, a2) move by rounding with the
    # grouping of their Gram-Schmidt sums; with the fixed sign of each Z_k,
    # Z and R, built from the reference k, move by as little.  The
    # projector onto m, sum of z z^T over its members, moves as little too
    geo = spaces.SpaceGeometry(d)
    got = [geo._stack(which) for which in _SPLIT] + [geo.bracket_coeffs]
    monkeypatch.setattr(spaces.SpaceGeometry, "_unit_basis",
                        lambda geo, onto_p: reference_unit_entries(geo.descriptor, onto_p))
    ref = spaces.SpaceGeometry(d)
    want = [ref._stack(which) for which in _SPLIT] + [ref.bracket_coeffs]
    assert np.array_equal(got[3], want[3])
    # every entry of a Z_k has the row's largest modulus or is rounding
    # noise, so the pivot of the sign rule (first entry above half the
    # largest) is no tie: on the grid the margin is 0.5 to within 7e-14
    for split in (geo, ref):
        assert _pivot_margin(split._root_split[1]) >= 0.4
    assert np.max(np.abs(_projector(got[0]) - _projector(want[0])), initial=0.0) <= 1e-12
    for i in (1, 2):  # zk-perp, a-perp
        assert got[i].shape == want[i].shape
        assert np.max(np.abs(got[i] - want[i]), initial=0.0) <= 1e-13


@pytest.mark.parametrize("case", BASIS_CASES)
def test_root_space_projectors_do_not_follow_the_bits_of_k(case, monkeypatch):
    _assert_split_ignores_the_bits_of_k(make_space(*case), monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_root_vectors_do_not_follow_the_bits_of_k_on_the_grid(case, monkeypatch):
    _assert_split_ignores_the_bits_of_k(make_space(*case), monkeypatch)


def test_component_split_is_exactly_sparse():
    # each Z_k is a combination of the members of one support component:
    # its entries off that component's entries are exact zeros
    d = make_space("aiii", 8, 8)
    geo = geometry(d)
    k_rows = _real_rows(geo._stack("k"))
    nz = _real_rows(geo._stack("zk_perp")) != 0
    touched = (k_rows != 0).any(axis=0)
    assert not nz[:, ~touched].any()
    assert nz.sum(axis=1).max() <= 16  # of 512 real columns


def test_cold_split_reads_the_k_basis_once(monkeypatch):
    # the split reads the cached k entry triplets: the k basis is built
    # once, and never assembled or scattered as a dense stack
    d = make_space("aiii", 3, 2)
    calls = []
    unit_basis, assemble, scatter = (spaces.SpaceGeometry._unit_basis, spaces._assemble,
                                     spaces._scatter)
    monkeypatch.setattr(spaces.SpaceGeometry, "_unit_basis",
                        lambda geo, onto_p: calls.append(onto_p) or unit_basis(geo, onto_p))
    monkeypatch.setattr(spaces, "_assemble", lambda *a, **k: calls.append("assemble")
                        or assemble(*a, **k))
    monkeypatch.setattr(spaces, "_scatter", lambda *a: calls.append("scatter") or scatter(*a))
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
    geo._p_entries, geo._k_entries
    assert geo.bracket_coeffs.shape == (d.dim_p - d.real_rank, d.real_rank)
    assert geo.bracket_residual <= 1e-11
    assert density_constant.__wrapped__(d) == 2.0**d.real_rank  # the rows of C are the roots
    assert numeric_roots(d) == restricted_roots(d)
    assert widths and max(widths) <= d.ambient_dim


@pytest.mark.slow
def test_aiii_40_40_builds_cold_below_200_mb():
    # a cold p, k, split and numeric_roots in a fresh interpreter: the dense
    # m, zk-perp and a-perp stacks once set a 705 MB peak here; as entry
    # triplets the build stays well below 200 MB.  The peak is the child's
    # VmHWM, not its ru_maxrss: Linux carries the high-water mark of the
    # spawning process (pytest, some 300 MB into the suite) across exec
    code = """if True:
        import cartanflow as cf
        from cartanflow.spaces import geometry

        d = cf.make_space("aiii", 40, 40)
        geo = geometry(d)
        geo._p_entries, geo._k_entries
        residual = geo.bracket_residual
        assert cf.numeric_roots(d) == cf.restricted_roots(d)
        with open("/proc/self/status") as status:
            kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
        print(kb / 1024.0, residual)
    """
    src = str(Path(cartanflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    peak_mb, residual = map(float, proc.stdout.split())
    assert peak_mb < 200.0
    assert residual <= 1e-11
