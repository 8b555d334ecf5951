import numpy as np
import pytest

from cartanflow import (
    ContractViolation,
    chamber_contains,
    embed_radial,
    exact_slice_reduce,
    make_space,
    radial_decompose,
    random_k_element,
    random_p_element,
    slice_contains,
    trace_form,
)
from cartanflow.linalg import commutator, frobenius
from cartanflow.radial import (
    SliceCoords,
    exact_slice_constraint_count,
    radial_coords,
    radial_coords_batch,
)
from cartanflow.spaces import check_k_group_membership, geometry

from conftest import REPRESENTATIVES, centralizer_orbit_dimension

DECOMPOSE_CASES = REPRESENTATIVES + [
    ("aiii", 3, 2),
    ("aiii", 2, 2),
    ("bdi", 3, 3),
    ("bdi", 4, 2),
    ("cii", 2, 2),
    ("ai", 0, 2),
    ("aii", 0, 3),
    ("diii", 0, 4),
    ("diii", 0, 5),
    ("ci", 0, 3),
    ("a2", 0, 2),
]


def random_chamber(d, rng, gap=0.25):
    r = d.real_rank
    if d.trace_constrained:
        lam = np.sort(rng.standard_normal(r + 1))[::-1] + gap * np.arange(r + 1, 0, -1)
        lam -= np.mean(lam)
        return lam[:r]
    return np.sort(np.abs(rng.standard_normal(r)))[::-1] + gap * np.arange(r, 0, -1)


def random_aperp(d, rng):
    geo = geometry(d)
    return geo.aperp_from_coords(rng.standard_normal(len(geo.a_perp_basis)))


def test_embed_radial_zero_and_norm():
    d = make_space("aiii", 2, 1)
    assert np.allclose(embed_radial(d, np.zeros(1)), 0.0)
    H = embed_radial(d, np.array([1.5]))
    assert trace_form(H, H) == pytest.approx(2 * 1.5**2)  # class constant 2
    with pytest.raises(ContractViolation):
        embed_radial(d, np.zeros(2))


@pytest.mark.parametrize("case", DECOMPOSE_CASES)
def test_radial_round_trip(case, rng):
    d = make_space(*case)
    for _ in range(8):
        X = random_p_element(d, rng)
        q, k = radial_decompose(d, X)
        assert chamber_contains(d, q, tol=1e-12)
        H = embed_radial(d, q)
        rec = frobenius(k @ H @ k.conj().T - X) / max(frobenius(X), 1e-14)
        assert rec <= 1e-9
        check_k_group_membership(d, k, rtol=1e-9)


@pytest.mark.parametrize("case", DECOMPOSE_CASES)
def test_radial_identity_on_chamber_points(case, rng):
    d = make_space(*case)
    q0 = random_chamber(d, rng)
    q, _ = radial_decompose(d, embed_radial(d, q0))
    assert np.max(np.abs(q - q0)) <= 1e-10 * max(1.0, np.max(np.abs(q0)))


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_radial_k_invariance(case, rng):
    d = make_space(*case)
    X = random_p_element(d, rng)
    q1, _ = radial_decompose(d, X)
    k = random_k_element(d, rng)
    q2, _ = radial_decompose(d, k @ X @ k.conj().T)
    assert np.max(np.abs(q1 - q2)) <= 1e-9 * max(1.0, np.max(np.abs(q1)))


def test_aiii_q_is_singular_values(rng):
    d = make_space("aiii", 3, 2)
    X = random_p_element(d, rng)
    q, _ = radial_decompose(d, X)
    s = np.linalg.svd(X[:3, 3:], compute_uv=False)
    assert np.allclose(q, s)


def test_ai_q_is_sorted_spectrum(rng):
    d = make_space("ai", 0, 3)
    X = random_p_element(d, rng)
    q, _ = radial_decompose(d, X)
    lam = np.sort(np.linalg.eigvalsh(X))[::-1]
    assert np.allclose(q, lam[:2])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_radial_round_trip_is_scale_invariant(scale, rng):
    # regression: cluster detection must be relative to the matrix scale
    for case in [("ci", 0, 4), ("cii", 3, 3), ("aiii", 3, 2)]:
        d = make_space(*case)
        X = random_p_element(d, rng) * scale
        q, k = radial_decompose(d, X)
        rec = frobenius(k @ embed_radial(d, q) @ k.conj().T - X) / frobenius(X)
        assert rec <= 1e-9
        check_k_group_membership(d, k, rtol=1e-8)


def test_radial_degenerate_chamber_points():
    # repeated and zero coordinates, including the zero matrix
    for case in [("aiii", 3, 2), ("ci", 0, 3), ("diii", 0, 4), ("aii", 0, 3), ("cii", 2, 2)]:
        d = make_space(*case)
        r = d.real_rank
        grids = [np.ones(r), np.zeros(r)]
        if r > 1:
            grids.append(np.concatenate([np.ones(r - 1), [0.0]]))
        for qv in grids:
            X = embed_radial(d, qv.astype(float))
            q, k = radial_decompose(d, X)
            assert len(q) == r
            assert frobenius(k @ embed_radial(d, q) @ k.conj().T - X) <= 1e-9
            check_k_group_membership(d, k, rtol=1e-8)


# values 3e-8 apart fall inside one cluster of the structured factorizations
NEAR_EQUAL_POINTS = [
    (("aii", 0, 3), (0.5 + 3e-8, 0.5)),
    (("aii", 0, 4), (1.0 + 3e-8, 1.0, -0.5)),
    (("cii", 2, 2), (1.0 + 3e-8, 1.0)),
    (("cii", 3, 2), (1.0 + 3e-8, 1.0)),
    (("diii", 0, 4), (1.0 + 3e-8, 1.0)),
    (("diii", 0, 5), (1.0 + 3e-8, 1.0)),
    (("ci", 0, 2), (1.0 + 3e-8, 1.0)),
    (("ci", 0, 3), (1.0 + 3e-8, 1.0, 1.0 - 3e-8)),
]


@pytest.mark.parametrize("case, q0", NEAR_EQUAL_POINTS)
def test_radial_round_trip_at_near_equal_values(case, q0, rng):
    # each pair of a cluster keeps its own value, and k stays unitary
    d = make_space(*case)
    q0 = np.array(q0)
    for _ in range(10):
        k0 = random_k_element(d, rng)
        X = k0 @ embed_radial(d, q0) @ k0.conj().T
        q, k = radial_decompose(d, X)
        assert frobenius(k @ embed_radial(d, q) @ k.conj().T - X) <= 1e-12
        assert np.max(np.abs(q - q0)) <= 1e-12
        assert frobenius(k.conj().T @ k - np.eye(d.ambient_dim)) <= 1e-12


def test_radial_rejects_non_p():
    d = make_space("aiii", 2, 1)
    with pytest.raises(ContractViolation):
        radial_decompose(d, 1j * np.eye(3))


@pytest.mark.parametrize("case", DECOMPOSE_CASES)
def test_batch_coords_match_single(case, rng):
    d = make_space(*case)
    Xs = np.stack([random_p_element(d, rng) for _ in range(5)])
    qb = radial_coords_batch(d, Xs)
    for i in range(5):
        q, _ = radial_decompose(d, Xs[i])
        assert np.max(np.abs(qb[i] - q)) <= 1e-10 * max(1.0, np.max(np.abs(q)))
        assert np.max(np.abs(radial_coords(d, Xs[i]) - q)) <= 1e-10 * max(1.0, np.max(np.abs(q)))


# ---------------------------------------------------------------------------
# exact slice

SLICE_CASES = [
    ("aiii", 2, 1),
    ("aiii", 3, 1),
    ("aiii", 3, 2),
    ("aiii", 2, 2),
    ("aiii", 4, 2),
    ("bdi", 3, 1),
    ("bdi", 4, 2),
    ("bdi", 5, 2),
    ("bdi", 2, 1),
]


@pytest.mark.parametrize("case", SLICE_CASES)
def test_exact_slice_reduce_properties(case, rng):
    d = make_space(*case)
    geo = geometry(d)
    for _ in range(10):
        s = SliceCoords(
            q=random_chamber(d, rng),
            p=rng.standard_normal(d.real_rank),
            r=random_aperp(d, rng),
        )
        elem, m_elem = exact_slice_reduce(d, s)
        rc = elem.coords.r
        # m_elem lies in M = Z_K(a)
        check_k_group_membership(d, m_elem, rtol=1e-10)
        for A in geo.a_embed:
            assert frobenius(commutator(m_elem, A)) <= 1e-10
        # the canonical form is exactly Ad(m_elem) r
        assert frobenius(m_elem @ s.r @ m_elem.conj().T - rc) <= 1e-10
        # invariants
        assert abs(frobenius(rc) - frobenius(s.r)) <= 1e-10
        assert np.array_equal(elem.coords.q, s.q)
        assert np.array_equal(elem.coords.p, s.p)
        assert slice_contains(d, elem.coords).ok
        # idempotence
        elem2, _ = exact_slice_reduce(d, elem.coords)
        assert frobenius(elem2.coords.r - rc) <= 1e-10


def test_pair_components_carry_the_advertised_roots():
    # the component canonicalized first is the difference root: its
    # ad(H(q))^2 eigenfactor is (q1-q2)^2, the fallback's is (q1+q2)^2
    d = make_space("aiii", 3, 2)
    geo = geometry(d)
    q = np.array([2.0, 0.7])
    H = geo.embed_radial(q)

    def pair_element(z_minus, z_plus):
        u = z_minus + z_plus
        v = np.conj(z_minus - z_plus)
        X = np.zeros((5, 5), dtype=complex)
        X[2, 4] = u
        X[4, 2] = np.conj(u)
        X[1, 3] = v
        X[3, 1] = np.conj(v)
        return X

    for z, expected in [((1.0, 0.0), (q[0] - q[1]) ** 2), ((0.0, 1.0), (q[0] + q[1]) ** 2)]:
        el = pair_element(*z)
        lam = frobenius(commutator(commutator(el, H), H)) / frobenius(el)
        assert lam == pytest.approx(expected, rel=1e-12)


def test_exact_slice_rotates_flag_vector_to_its_norm(rng):
    # aiii(3,1): the single short-root C^2 vector lands on (|v|, 0)
    d = make_space("aiii", 3, 1)
    for _ in range(10):
        r = random_aperp(d, rng)
        s = SliceCoords(np.array([1.3]), np.zeros(1), r)
        elem, _ = exact_slice_reduce(d, s)
        v_orig = r[:2, 3]
        v_canon = elem.coords.r[:2, 3]
        assert abs(v_canon[0] - np.linalg.norm(v_orig)) <= 1e-10
        assert abs(v_canon[1]) <= 1e-10


def test_exact_slice_wall_rejected(rng):
    d = make_space("aiii", 3, 2)
    s = SliceCoords(q=np.array([1.0, 1.0]), p=np.zeros(2), r=random_aperp(d, rng))
    with pytest.raises(ContractViolation, match="wall"):
        exact_slice_reduce(d, s)


def test_exact_slice_only_for_supported_kinds(rng):
    d = make_space("cii", 2, 1)
    s = SliceCoords(q=np.array([1.0]), p=np.zeros(1), r=random_aperp(d, rng))
    with pytest.raises(ContractViolation):
        exact_slice_reduce(d, s)


def test_exact_slice_degenerate_flag(rng):
    # zero short-root block: all flag pivots vanish and are flagged
    d = make_space("aiii", 3, 1)
    geo = geometry(d)
    r = random_aperp(d, rng)
    r[:2, :] = 0.0
    r[:, :2] = 0.0  # keep Hermitian: kill the flag rows and their mirrors
    # re-project to a-perp to stay in the space
    r = geo.aperp_from_coords(geo.aperp_coords(r))
    s = SliceCoords(q=np.array([1.0]), p=np.zeros(1), r=r)
    elem, _ = exact_slice_reduce(d, s)
    assert elem.degenerate == (0,)


def test_slice_contains_diagnoses_negative_pivot(rng):
    d = make_space("aiii", 3, 1)
    s = SliceCoords(
        q=np.array([1.0]), p=np.zeros(1), r=random_aperp(d, rng)
    )
    elem, _ = exact_slice_reduce(d, s)
    r_bad = elem.coords.r.copy()
    r_bad[0, 3] *= -1.0  # flip the flag pivot (and mirror for Hermiticity)
    r_bad[3, 0] *= -1.0
    check = slice_contains(d, SliceCoords(elem.coords.q, elem.coords.p, r_bad))
    assert not check.ok and "pivot" in check.violation


def test_slice_contains_bdi_rejects_complex(rng):
    d = make_space("bdi", 4, 2)
    r = random_aperp(d, rng)
    s = SliceCoords(np.array([2.0, 1.0]), np.zeros(2), r)
    elem, _ = exact_slice_reduce(d, s)
    # start from canonical, inject an imaginary part on a generic slot
    r_bad = elem.coords.r.copy()
    r_bad[0, 4] += 0.1j
    r_bad[4, 0] += -0.1j
    check = slice_contains(d, SliceCoords(elem.coords.q, elem.coords.p, r_bad))
    assert not check.ok


def test_constraint_counts_match_orbit_dimensions():
    # real codimension of the canonical pattern = generic orbit dimension
    assert exact_slice_constraint_count(make_space("aiii", 2, 1)) == 1
    assert exact_slice_constraint_count(make_space("aiii", 3, 1)) == 3
    assert exact_slice_constraint_count(make_space("aiii", 3, 2)) == 2
    assert exact_slice_constraint_count(make_space("aiii", 4, 2)) == 5
    assert exact_slice_constraint_count(make_space("bdi", 4, 2)) == 1
    assert exact_slice_constraint_count(make_space("bdi", 2, 1)) == 0
    assert exact_slice_constraint_count(make_space("bdi", 3, 1)) == 1
    # bdi: one real equation per entry below each flag pivot
    assert exact_slice_constraint_count(make_space("bdi", 4, 1)) == 2
    assert exact_slice_constraint_count(make_space("bdi", 5, 1)) == 3
    assert exact_slice_constraint_count(make_space("bdi", 5, 2)) == 3
    assert exact_slice_constraint_count(make_space("bdi", 6, 2)) == 5
    assert exact_slice_constraint_count(make_space("bdi", 6, 3)) == 3
    # and every count against the numeric orbit rank
    for case in SLICE_CASES + [("bdi", 4, 1), ("bdi", 5, 1), ("bdi", 6, 2), ("bdi", 6, 3)]:
        d = make_space(*case)
        assert exact_slice_constraint_count(d) == centralizer_orbit_dimension(d), d.label()
