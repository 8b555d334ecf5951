import numpy as np
import pytest

from cartanflow import (
    ContractViolation,
    basis_of,
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
from cartanflow.sampling import sample_radial_batch
from cartanflow.spaces import (
    _quaternionic_j,
    _spectral_block,
    check_k_group_membership,
    geometry,
)

from conftest import (
    REPRESENTATIVES,
    centralizer_orbit_dimension,
    exact_p_assembly,
    parameter_grid,
    reference_chamber_contains,
    reference_check_slice_coords,
    reference_p_rows,
    reference_radial_coords_batch,
    reference_root_table,
    root_system_grid,
)

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
    return geo.aperp_from_coords(rng.standard_normal(len(basis_of(d, "a_perp"))))


def test_embed_radial_zero_and_norm():
    d = make_space("aiii", 2, 1)
    assert np.allclose(embed_radial(d, np.zeros(1)), 0.0)
    H = embed_radial(d, np.array([1.5]))
    assert trace_form(H, H) == pytest.approx(2 * 1.5**2)  # class constant 2
    with pytest.raises(ContractViolation):
        embed_radial(d, np.zeros(2))


CHAMBER_CASES = [
    ("aiii", 2, 1), ("aiii", 2, 2), ("aiii", 4, 3), ("bdi", 1, 1), ("bdi", 3, 1),
    ("bdi", 2, 2), ("bdi", 3, 3), ("cii", 3, 2), ("ai", 0, 4), ("a2", 0, 3),
    ("aii", 0, 3), ("diii", 0, 4), ("diii", 0, 7), ("ci", 0, 1), ("ci", 0, 3),
]


def chamber_probes(d, rng, tol):
    """Points in, on and off the chamber: small-integer lattice points (many
    on walls), the same sorted and with absolute values, each pushed off by
    up to 3 tol per coordinate, Gaussian points and radial samples."""
    r = d.real_rank
    lattice = rng.integers(-3, 4, size=(200, r)).astype(float)
    descending = -np.sort(-lattice, axis=1)
    lattice = np.concatenate([lattice, descending, -np.sort(-np.abs(lattice), axis=1)])
    scale = rng.choice([0.3, 1.0, 3.0], size=(len(lattice), 1))
    nudge = tol * scale * rng.integers(-1, 2, size=lattice.shape)
    gauss = rng.standard_normal((200, r))
    return np.concatenate([lattice, lattice + nudge, gauss, -np.sort(-np.abs(gauss), axis=1),
                           sample_radial_batch(d, 64, seed=17)])


@pytest.mark.parametrize("tol", [1e-12, 0.0])
@pytest.mark.parametrize("case", CHAMBER_CASES)
def test_chamber_contains_matches_kind_by_kind_reference(case, tol):
    # alpha(q) >= -tol over every positive root against the per-kind
    # inequalities; they can part only where some |alpha(q)| lies in
    # (0, 2 rank tol]: each per-kind inequality is a simple root or, where
    # 2 e_i is the only root on e_i, half of one
    d = make_space(*case)
    coeffs, _ = reference_root_table(d)
    band = 2 * d.real_rank * tol
    agree = on_wall = inside = 0
    for q in chamber_probes(d, np.random.default_rng(4242), tol):
        vals = coeffs @ q
        if not np.all((vals == 0) | (np.abs(vals) > band)):
            continue
        want = reference_chamber_contains(d, q, tol)
        assert chamber_contains(d, q, tol) == want, q
        agree += 1
        inside += want
        on_wall += want and bool(np.any(vals == 0))
    assert agree >= 600 and inside >= 100
    if len(coeffs):  # bdi(1,1) has no roots: its chamber is the whole line
        assert agree - inside >= 100 and on_wall >= 20


def test_chamber_contains_tolerance_band_and_malformed_q():
    d = make_space("aiii", 2, 2)
    q = np.array([1.0, -7e-13])
    # the per-kind test reads q_2 >= -tol; the long root 2 e_2 reads -1.4e-12
    assert reference_chamber_contains(d, q, tol=1e-12)
    assert not chamber_contains(d, q, tol=1e-12)
    assert chamber_contains(d, q, tol=2e-12)
    for bad in ([1.0], [1.0, 0.5, 0.2], [[1.0, 0.5]], [np.nan, 0.5], [np.inf, 0.5]):
        assert chamber_contains(d, bad) is False
    for bad in ([1 + 2j, 0.0], "ab"):
        with pytest.raises(ContractViolation, match="radial vector"):
            chamber_contains(d, bad)


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


EXTREME_SCALES = [1e-300, 1e-200, 1e200, 1e300]
EXTREME_SCALE_CASES = REPRESENTATIVES + [
    ("cii", 2, 2),
    ("cii", 4, 3),
    ("diii", 0, 4),
    ("diii", 0, 5),
    ("ci", 0, 3),
]


def _check_decompose_at_scale(case, scale):
    # the squares of the entries leave the normal doubles at these scales, so
    # no step may go through a Gram product B B† or a plain sum of squares
    d = make_space(*case)
    X = random_p_element(d, np.random.default_rng(17)) * scale
    q, k = radial_decompose(d, X)
    check_k_group_membership(d, k)
    top = np.max(np.abs(X))  # the residual read at unit scale
    R = (k @ embed_radial(d, q) @ k.conj().T - X) / top
    assert np.linalg.norm(R) <= 1e-12 * np.linalg.norm(X / top)
    qc = radial_coords(d, X)
    assert np.max(np.abs(q - qc)) <= 1e-13 * np.max(np.abs(qc))


@pytest.mark.parametrize("scale", EXTREME_SCALES)
@pytest.mark.parametrize("case", EXTREME_SCALE_CASES)
def test_radial_decompose_at_extreme_scales(case, scale):
    _check_decompose_at_scale(case, scale)


@pytest.mark.slow
@pytest.mark.parametrize("scale", EXTREME_SCALES)
@pytest.mark.parametrize("case", root_system_grid())
def test_radial_decompose_at_extreme_scales_on_grid(case, scale):
    _check_decompose_at_scale(case, scale)


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


# every rank-1 space of the grid, plus the representatives and the rank > 1
# real spaces, whose spectral step left the complex LAPACK routines
SPECTRAL_CASES = sorted(
    set(REPRESENTATIVES)
    | {c for c in parameter_grid(4) if make_space(*c).real_rank == 1}
    | {c for c in parameter_grid(4) if c[0] in ("bdi", "ai")}
)
EPS = np.finfo(float).eps


def _draws(d, count: int, seed: int) -> np.ndarray:
    """Gaussian p elements built as the sampler's dense oracle builds them."""
    rng = np.random.default_rng(seed)
    return np.tensordot(rng.standard_normal((count, d.dim_p)), np.array(basis_of(d, "p")), axes=1)


def _assert_matches_reference(d, q, ref):
    assert q.shape == ref.shape and np.isfinite(q).all()
    if d.real_rank == 1:
        # a norm against LAPACK's singular value or eigenvalue
        assert np.all(np.abs(q - ref) <= 8 * EPS * np.abs(ref))
    elif d.kind in ("bdi", "ai"):
        # real against complex LAPACK: the same values up to rounding
        assert np.max(np.abs(q - ref)) <= 4e-15 * max(1.0, np.max(np.abs(ref)))
    else:
        # every other route is the reference's own LAPACK call
        assert np.array_equal(q, ref)


def _sampler_blocks(d, count: int, seed: int) -> np.ndarray:
    """The blocks ``sample_radial_batch`` hands the spectral step: the exact
    assembly for the A-type classes, whose diagonals sum several
    contributors, and the product for the others."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    g = rng.standard_normal((count, d.dim_p))
    if d.trace_constrained:
        return exact_p_assembly(d, g)
    rows, shape = reference_p_rows(d)
    return (g @ rows).view(complex).reshape(count, *shape)


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_step_matches_per_class_reference(case):
    d = make_space(*case)
    Xs = _draws(d, 300, seed=41)
    blocks = np.ascontiguousarray(_spectral_block(d, Xs))
    _assert_matches_reference(d, radial_coords_batch(d, Xs), reference_radial_coords_batch(d, Xs))
    assert np.array_equal(radial_coords_batch(d, blocks), radial_coords_batch(d, Xs))
    q = sample_radial_batch(d, 300, seed=5)
    _assert_matches_reference(d, q, reference_radial_coords_batch(d, _sampler_blocks(d, 300, 5)))


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_step_is_finite_at_extreme_scales(case, scale):
    # the squares of 1e200 overflow and those of 1e-200 underflow: the
    # rank-1 norm divides such blocks by their largest entry first
    d = make_space(*case)
    blocks = np.ascontiguousarray(_spectral_block(d, _draws(d, 50, seed=43)))
    q = radial_coords_batch(d, blocks * scale)
    assert np.isfinite(q).all()
    # rescaled and plain blocks in one batch: each row as on its own
    mixed = np.concatenate([blocks * scale, blocks])
    assert np.array_equal(
        radial_coords_batch(d, mixed), np.concatenate([q, radial_coords_batch(d, blocks)])
    )
    if d.real_rank > 1 and not (d.has_sign_flip_weyl or d.trace_constrained):
        # so(n,n): the reference's det overflows (1e200) or underflows to 0
        # and drops the last coordinate (1e-200); q is homogeneous of degree 1
        _assert_matches_reference(d, q / scale, reference_radial_coords_batch(d, blocks))
        return
    ref = reference_radial_coords_batch(d, blocks * scale)
    assert np.isfinite(ref).all()
    _assert_matches_reference(d, q / scale, ref / scale)


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_step_of_zero_blocks(case):
    d = make_space(*case)
    N = d.ambient_dim
    for Xs in (np.zeros((3, N, N), dtype=complex), np.full((3, N, N), complex(-0.0, -0.0))):
        q = radial_coords_batch(d, Xs)
        assert np.array_equal(q, reference_radial_coords_batch(d, Xs))
        assert not np.any(q)
        if d.real_rank == 1:
            assert not np.signbit(q).any()


def test_bdi_11_coordinate_keeps_its_sign():
    # so(1,1) has no Weyl element that flips q: the block itself is q
    d = make_space("bdi", 1, 1)
    for q0 in (-0.7, 0.0, 2.5):
        X = embed_radial(d, [q0])
        assert radial_coords(d, X)[0] == q0
        assert radial_decompose(d, X)[0][0] == pytest.approx(q0, abs=1e-15)
    Xs = _draws(d, 200, seed=47)
    q = radial_coords_batch(d, Xs)
    assert np.array_equal(np.sign(q[:, 0]), np.sign(_spectral_block(d, Xs)[:, 0, 0].real))
    assert (q < 0).any() and (q > 0).any()
    assert np.array_equal(q, reference_radial_coords_batch(d, Xs))


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


@pytest.mark.parametrize("case", SLICE_CASES + REPRESENTATIVES)
def test_slice_verdicts_match_one_matrix_at_a_time_reference(case, rng, monkeypatch):
    # r in a-perp, then pushed along a by half and by twice the threshold,
    # and far off it; q of the wrong length
    import cartanflow.radial as radial

    d = make_space(*case)
    a_basis = basis_of(d, "a")
    inputs = []
    for A in a_basis:
        r0 = random_aperp(d, rng)
        bound = 1e-10 * max(frobenius(r0), 1.0)
        for push in (0.0, 0.5 * bound, 2.0 * bound, 1e-3):
            p = rng.standard_normal(d.real_rank)
            inputs.append(SliceCoords(random_chamber(d, rng), p, r0 + push * A))
    inputs.append(SliceCoords(np.zeros(d.real_rank + 1), np.zeros(d.real_rank), r0))

    def verdicts():
        out = []
        for s in inputs:
            out.append(slice_contains(d, s))
            if d.kind in ("aiii", "bdi"):
                try:
                    out.append(exact_slice_reduce(d, s)[0].coords.r.tobytes())
                except ContractViolation as exc:
                    out.append(str(exc))
        return out

    got = verdicts()
    assert sum(not v.ok for v in got if hasattr(v, "ok")) >= 2 * len(a_basis) + 1
    monkeypatch.setattr(radial, "_check_slice_coords", reference_check_slice_coords)
    assert verdicts() == got


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


@pytest.mark.parametrize("case, expected", [
    (("aiii", 3, 1), (0,)),
    (("aiii", 5, 2), (0, 1)),
    (("aiii", 2, 2), ()),
    (("bdi", 3, 1), (0,)),
    (("bdi", 5, 2), (0, 1)),
    (("bdi", 4, 2), (0, 1)),
    # one flag row: SO(1) is trivial, so bdi runs no flag reduction
    (("bdi", 3, 2), ()),
])
def test_exact_slice_degenerate_flag_on_every_branch(case, expected, rng):
    # zero the flag rows and their mirrors: every pivot of the flag
    # reduction vanishes and is flagged, with a spare row or without
    d = make_space(*case)
    geo = geometry(d)
    k = d.m - d.n
    r = random_aperp(d, rng)
    r[:k, :] = 0.0
    r[:, :k] = 0.0
    r = geo.aperp_from_coords(geo.aperp_coords(r))
    s = SliceCoords(q=random_chamber(d, rng), p=np.zeros(d.real_rank), r=r)
    elem, _ = exact_slice_reduce(d, s)
    assert elem.degenerate == expected
    assert slice_contains(d, elem.coords).ok


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


@pytest.mark.parametrize("which, u", [("difference", -1.0), ("sum", 1j)])
def test_slice_contains_diagnoses_the_torus_pattern(which, u, rng):
    # aiii(3,3) has no flag rows.  Pair 0 reads u = B[2, 1] and v = B[1, 0]:
    # v = conj(u) designates z- = u, and v = -conj(u) makes z- vanish and
    # designates z+ = u; neither u is real nonnegative
    d = make_space("aiii", 3, 3)
    r = random_aperp(d, rng)
    B = r[:3, 3:]
    B[2, 1] = u
    B[1, 0] = np.conj(u) if which == "difference" else -np.conj(u)
    r[3:, :3] = B.conj().T
    s = SliceCoords(random_chamber(d, rng), np.zeros(3), r)
    check = slice_contains(d, s)
    assert not check.ok
    assert check.violation == (
        f"designated {which}-root component of adjacent pair 0 is not real nonnegative"
    )
    elem, _ = exact_slice_reduce(d, s)
    assert slice_contains(d, elem.coords).ok


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


@pytest.mark.parametrize("case", [("cii", 4, 3), ("aii", 0, 6)])
def test_quaternionic_j_is_cached_read_only_and_decompositions_unchanged(case, monkeypatch):
    import cartanflow.radial as radial

    d = make_space(*case)
    J = _quaternionic_j(d)
    assert _quaternionic_j(d) is J and not J.flags.writeable
    X = random_p_element(d, np.random.default_rng(31))
    q, k = radial_decompose(d, X)
    monkeypatch.setattr(radial, "_quaternionic_j", _quaternionic_j.__wrapped__)
    q0, k0 = radial_decompose(d, X)
    assert q.tobytes() == q0.tobytes() and k.tobytes() == k0.tobytes()
