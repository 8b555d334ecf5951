import math
import warnings

import numpy as np
import pytest

from cartanflow import (
    ContractViolation,
    basis_of,
    a_q_matrix,
    closed_form_density,
    commutator,
    compare_with_oracle,
    dagger,
    density_constant,
    jacobian_density,
    l_from_slice,
    make_space,
    moment_map,
    project_k,
    project_p,
    r_from_l,
    random_k_element,
    random_p_element,
    restricted_roots,
    trace_form,
)
from cartanflow.dynamics import PhasePoint, _slice_point, direct_flow, integrate_reduced
from cartanflow.dynamics import reduce_phase_point
from cartanflow.linalg import ConsistencyError, frobenius
from cartanflow.radial import SliceCoords, chamber_contains, embed_radial, exact_slice_reduce
from cartanflow.radial import radial_coords, radial_decompose, slice_contains
from cartanflow.sampling import theoretical_radial_cdf, theoretical_radial_density
from cartanflow.reduction import ReducedState, _check_root_multiset, random_chamber_point
from cartanflow.spaces import (
    check_k_group_membership,
    check_membership,
    check_p_membership,
    geometry,
    numeric_roots,
    root_values,
    wall_distance,
)

from conftest import (
    GEOMETRY_COLD,
    REPRESENTATIVES,
    dense_aperp_basis,
    parameter_grid,
    reference_ratio_spread,
)


def random_aperp(d, rng):
    geo = geometry(d)
    return geo.aperp_from_coords(rng.standard_normal(len(basis_of(d, "a_perp"))))


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_moment_map_basics(case, rng):
    d = make_space(*case)
    X = random_p_element(d, rng)
    assert np.allclose(moment_map(d, X, X), 0.0)
    q1 = random_chamber_point(d, rng)
    q2 = random_chamber_point(d, rng)
    assert np.allclose(moment_map(d, embed_radial(d, q1), embed_radial(d, q2)), 0.0)
    # result is anti-Hermitian (lands in k)
    Y = random_p_element(d, rng)
    mu = moment_map(d, X, Y)
    assert frobenius(mu + mu.conj().T) <= 1e-12 * max(1.0, frobenius(mu))


def test_moment_map_block_diagonal_for_aiii(rng):
    d = make_space("aiii", 3, 2)
    mu = moment_map(d, random_p_element(d, rng), random_p_element(d, rng))
    assert frobenius(mu[:3, 3:]) <= 1e-12
    assert frobenius(mu[3:, :3]) <= 1e-12


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_moment_map_equivariance(case, rng):
    d = make_space(*case)
    X, Y = random_p_element(d, rng), random_p_element(d, rng)
    k = random_k_element(d, rng)
    lhs = moment_map(d, k @ X @ k.conj().T, k @ Y @ k.conj().T)
    rhs = k @ moment_map(d, X, Y) @ k.conj().T
    assert frobenius(lhs - rhs) <= 1e-10 * max(1.0, frobenius(rhs))


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_l_from_slice_lands_in_zk_perp(case, rng):
    d = make_space(*case)
    q = random_chamber_point(d, rng)
    r = random_aperp(d, rng)
    l = l_from_slice(d, SliceCoords(q, np.zeros(d.real_rank), r))
    for M in basis_of(d, "m_centralizer"):
        assert abs(trace_form(l, M)) <= 1e-10 * max(1.0, frobenius(l))
    assert frobenius(l + l.conj().T) <= 1e-12 * max(1.0, frobenius(l))
    # trivial cases
    assert np.allclose(l_from_slice(d, SliceCoords(q, np.zeros(d.real_rank), 0 * r)), 0.0)
    assert np.allclose(
        l_from_slice(d, SliceCoords(0 * q, np.zeros(d.real_rank), r)), 0.0
    )


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_r_from_l_round_trip(case, rng):
    d = make_space(*case)
    if d.dim_p == d.real_rank:
        pytest.skip("a-perp is trivial")
    q = random_chamber_point(d, rng)
    r = random_aperp(d, rng)
    l = l_from_slice(d, SliceCoords(q, np.zeros(d.real_rank), r))
    r2 = r_from_l(d, q, l)
    assert frobenius(r2 - r) <= 1e-9 * max(1.0, frobenius(r))
    assert np.allclose(r_from_l(d, q, 0 * l), 0.0)


def test_r_from_l_wall_rejected(rng):
    d = make_space("aiii", 3, 2)
    l = l_from_slice(
        d, SliceCoords(np.array([2.0, 1.0]), np.zeros(2), random_aperp(d, rng))
    )
    with pytest.raises(ContractViolation, match="wall"):
        r_from_l(d, np.array([1.0, 1.0]), l)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_a_q_symmetric_with_root_eigenvalues(case, rng):
    d = make_space(*case)
    geo = geometry(d)
    for _ in range(5):
        q = random_chamber_point(d, rng)
        A = a_q_matrix(d, q)
        assert np.linalg.norm(A.matrix - A.matrix.T) <= 1e-10
        expect = []
        for r in restricted_roots(d):
            expect.extend([r.value(geo.e_coords) * r.value(q)] * r.multiplicity)
        got = np.sort(np.linalg.eigvalsh(A.matrix))
        assert np.max(np.abs(got - np.sort(expect))) <= 1e-8 if expect else True
    assert np.allclose(a_q_matrix(d, 0 * q).matrix, 0.0)


def test_jacobian_density_wall_zero_and_ratio():
    d = make_space("aiii", 2, 1)
    assert jacobian_density(d, np.array([0.0])) == pytest.approx(0.0, abs=1e-12)
    # scaling with exponent 2(m-n)+1 = 3
    j1 = jacobian_density(d, np.array([1.0]))
    j2 = jacobian_density(d, np.array([2.0]))
    assert j2 / j1 == pytest.approx(8.0, rel=1e-12)


def test_jacobian_density_vanishes_exactly_on_walls():
    # zero on every wall type, small but positive just off the wall
    d = make_space("aiii", 3, 2)
    assert jacobian_density(d, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert jacobian_density(d, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    near = jacobian_density(d, np.array([1.0, 1.0 - 1e-6]))
    assert 0 < near < jacobian_density(d, np.array([2.0, 1.0]))
    d2 = make_space("ai", 0, 3)
    assert jacobian_density(d2, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    assert jacobian_density(d2, np.array([1.0, 1.0 + 1e-7])) > 0


def test_closed_form_values():
    assert closed_form_density(make_space("aiii", 2, 1), np.array([2.0])) == pytest.approx(8.0)
    assert closed_form_density(make_space("bdi", 3, 2), np.array([2.0, 1.0])) == pytest.approx(6.0)
    d = make_space("aiii", 3, 2)
    assert closed_form_density(d, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-14)


def test_densities_on_a_wall_beyond_the_doubles():
    # at aiii(3,2), q = (1e308, 1e308) lies on the wall e1 - e2 while
    # e1 + e2 overflows: the densities are 0.0, not 0 * inf; off the walls,
    # at q = (1e200, 1e100), the products leave the doubles: inf.  No warning
    d = make_space("aiii", 3, 2)
    wall, far = [1e308, 1e308], [1e200, 1e100]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert jacobian_density(d, wall) == closed_form_density(d, wall) == 0.0
        assert theoretical_radial_density(d, wall) == 0.0
        assert chamber_contains(d, wall) and wall_distance(d, wall) == 0.0
        assert math.inf in root_values(d, wall).tolist()
        assert jacobian_density(d, far) == closed_form_density(d, far) == math.inf


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_closed_form_weyl_invariance(case, rng):
    d = make_space(*case)
    q = random_chamber_point(d, rng)
    val = closed_form_density(d, q)
    if d.trace_constrained:
        # permutation of the full eigenvalue vector, re-expressed in the
        # reduced coordinates
        lam = np.concatenate([q, [-np.sum(q)]])
        perm = rng.permutation(len(lam))
        q2 = lam[perm][: d.real_rank]
        assert closed_form_density(d, q2) == pytest.approx(val, rel=1e-9)
    else:
        perm = rng.permutation(d.real_rank)
        q2 = q[perm]
        assert closed_form_density(d, q2) == pytest.approx(val, rel=1e-9)
        if d.has_sign_flip_weyl:
            q3 = q.copy()
            q3[0] = -q3[0]
            assert closed_form_density(d, q3) == pytest.approx(val, rel=1e-9)


@pytest.mark.parametrize("case", list(dict.fromkeys(parameter_grid(4) + GEOMETRY_COLD)))
def test_density_constant_is_constant(case):
    # exact, and equal to the reference Monte Carlo mean over seeded points
    d = make_space(*case)
    c = density_constant(d)
    assert c == (2.0 ** d.real_rank if d.kind == "aiii" else 1.0)
    mean, _ = reference_ratio_spread(d, None, samples=100, seed=715)
    assert c == pytest.approx(mean, rel=1e-8)


def test_density_constant_negative_control():
    # the exact check on a corrupted table: one multiplicity raised by one,
    # then one coefficient of the first root changed
    geo = geometry(make_space("aiii", 3, 2))
    C, e = geo.bracket_coeffs, geo.e_coords
    coeffs, mults = geo.root_table
    _check_root_multiset(C, e, coeffs, mults, "aiii(3,2)")
    bumped = mults.copy()
    bumped[0] += 1
    changed = coeffs.copy()
    changed[0, 0] += 1
    for table in [(coeffs, bumped), (changed, mults)]:
        with pytest.raises(ConsistencyError, match="multiplicity table inconsistent$"):
            _check_root_multiset(C, e, *table, "aiii(3,2)")


def test_jacobian_matches_finite_difference(rng):
    # independent oracle: assemble the Jacobian of r -> [r, H(q)] column by
    # column with central differences at the matrix level
    from cartanflow.linalg import commutator

    for case in [("aiii", 3, 2), ("bdi", 3, 2)]:
        d = make_space(*case)
        geo = geometry(d)
        q = random_chamber_point(d, rng)
        H = embed_radial(d, q)
        dim = len(basis_of(d, "a_perp"))
        eps = 1e-6
        Jac = np.zeros((dim, dim))
        for a in range(dim):
            c = np.zeros(dim)
            c[a] = eps
            plus = commutator(geo.aperp_from_coords(c), H)
            minus = commutator(geo.aperp_from_coords(-c), H)
            Jac[:, a] = geo.zk_coords((plus - minus) / (2 * eps))
        fd = abs(np.linalg.det(Jac))
        assert fd == pytest.approx(jacobian_density(d, q), rel=1e-6)


@pytest.mark.parametrize("case", parameter_grid(4))
def test_jacobian_density_matches_dense_gram_oracle(case):
    # |det| of r -> [r, H(q)] from a-perp built without root adaptation:
    # [a-perp, a] is orthogonal to the centralizer, so the Gram determinant
    # of the images needs no zk-perp basis
    from cartanflow.linalg import commutator

    d = make_space(*case)
    aperp = dense_aperp_basis(d)
    rng = np.random.default_rng(4242)
    for _ in range(20):
        q = random_chamber_point(d, rng)
        H = embed_radial(d, q)
        imgs = np.array([commutator(R, H).ravel() for R in aperp]).reshape(len(aperp), H.size)
        gram = (imgs.conj() @ imgs.T).real
        oracle = float(np.sqrt(np.linalg.det(gram)))
        assert jacobian_density(d, q) == pytest.approx(oracle, rel=1e-9)


@pytest.mark.parametrize("bad", [[1.0, 0.5, 0.2], [[1.0, 0.5]], [np.nan, 0.5], [0.5, np.inf]])
@pytest.mark.parametrize(
    "entry",
    [jacobian_density, closed_form_density, root_values, wall_distance, a_q_matrix, embed_radial],
)
def test_q_taking_entry_points_reject_malformed_q(entry, bad):
    with pytest.raises(ContractViolation, match="radial vector"):
        entry(make_space("aiii", 3, 2), bad)


def _complex_q_calls(d, s):
    """Each q- or p-taking entry point, called with a complex array where it
    takes a real one."""
    z = np.array([2 + 1j, 0.5])
    state = reduce_phase_point(d, PhasePoint(random_p_element(d, np.random.default_rng(3)),
                                             random_p_element(d, np.random.default_rng(4))))[0]
    return {
        "jacobian_density": lambda: jacobian_density(d, z),
        "closed_form_density": lambda: closed_form_density(d, z),
        "root_values": lambda: root_values(d, z),
        "r_from_l": lambda: r_from_l(d, z, l_from_slice(d, s)),
        "theoretical_radial_density": lambda: theoretical_radial_density(d, z),
        "integrate_reduced q": lambda: integrate_reduced(
            d, ReducedState(state.q + 0j, state.p, state.l), 0.1, 2),
        "integrate_reduced p": lambda: integrate_reduced(
            d, ReducedState(state.q, state.p + 1j, state.l), 0.1, 2),
    }


@pytest.mark.parametrize(
    "entry",
    ["jacobian_density", "closed_form_density", "root_values", "r_from_l",
     "theoretical_radial_density", "integrate_reduced q", "integrate_reduced p"],
)
def test_real_entry_points_reject_complex_arrays(entry):
    # a complex array is not cut to its real part, even with zero imaginary parts
    d, s = _aiii_slice_coords()
    with pytest.raises(ContractViolation, match="must be real"):
        _complex_q_calls(d, s)[entry]()


def test_q_beyond_the_doubles_is_a_contract_violation():
    with pytest.raises(ContractViolation, match="radial vector"):
        jacobian_density(make_space("aiii", 3, 2), [10**400, 0.5])


def _verdict(check):
    """slice_contains reports malformed coordinates as a failed check."""
    if not check:
        raise ContractViolation(check.violation)


def _aiii_slice_coords():
    d = make_space("aiii", 3, 2)
    rng = np.random.default_rng(12)
    s, _ = _slice_point(d, PhasePoint(random_p_element(d, rng), random_p_element(d, rng)))
    return d, exact_slice_reduce(d, s)[0].coords  # on the slice: slice_contains says ok


_NAN2 = np.array([np.nan, 0.5])
_RNG = np.random.default_rng(5)
_RANDOM_L = _RNG.standard_normal((5, 5)) + 1j * _RNG.standard_normal((5, 5))
_MALFORMED_CALLS = {
    "slice_contains nan q": lambda d, s: _verdict(slice_contains(d, SliceCoords(_NAN2, s.p, s.r))),
    "slice_contains nan p": lambda d, s: _verdict(slice_contains(d, SliceCoords(s.q, _NAN2, s.r))),
    "exact_slice_reduce nan p": lambda d, s: exact_slice_reduce(d, SliceCoords(s.q, _NAN2, s.r)),
    "l_from_slice nan r": lambda d, s: l_from_slice(d, SliceCoords(s.q, s.p, np.nan * s.r)),
    "r_from_l nan l": lambda d, s: r_from_l(d, s.q, np.nan * l_from_slice(d, s)),
    "r_from_l 3x3 l": lambda d, s: r_from_l(d, s.q, np.zeros((3, 3), dtype=complex)),
    # an l off zk-perp: no r maps to it
    "r_from_l l plus m": lambda d, s: r_from_l(
        d, s.q, l_from_slice(d, s) + basis_of(d, "m_centralizer")[0]),
    "r_from_l Hermitian l": lambda d, s: r_from_l(d, s.q, 1j * l_from_slice(d, s)),
    "r_from_l random l": lambda d, s: r_from_l(d, s.q, _RANDOM_L),
    "density nan q": lambda d, s: theoretical_radial_density(d, _NAN2),
    "density short q": lambda d, s: theoretical_radial_density(d, [1.0]),
    "cdf nan": lambda d, s: theoretical_radial_cdf(make_space("aiii", 2, 1), np.array([np.nan])),
    "direct_flow nan t": lambda d, s: direct_flow(PhasePoint(s.r, s.r), np.nan),
    "numeric_roots seed -1": lambda d, s: numeric_roots(d, seed=-1),
    "numeric_roots seed 1.5": lambda d, s: numeric_roots(d, seed=1.5),
    "make_space m 2.7": lambda d, s: make_space("aiii", 2.7, 1),
    "check_k nan k": lambda d, s: check_k_group_membership(d, np.full((5, 5), np.nan)),
    # a tolerance, scale or wall margin that is not a finite real number
    # (>= 0 but for the scale); with a NaN tolerance every residual passes
    "check_membership rtol nan": lambda d, s: check_membership(d, _RANDOM_L, rtol=np.nan),
    "check_p_membership rtol nan": lambda d, s: check_p_membership(d, _RANDOM_L, rtol=np.nan),
    "check_k rtol nan": lambda d, s: check_k_group_membership(d, _RANDOM_L, rtol=np.nan),
    # the scale of a huge matrix stays finite, or every residual would pass
    "check_p_membership non-member x1e200": lambda d, s: check_p_membership(d, 1e200 * _RANDOM_L),
    # -r has negative flag pivots: it fails the pattern at the default tolerance
    "slice_contains tol nan": lambda d, s: _verdict(
        slice_contains(d, SliceCoords(s.q, s.p, -s.r), tol=np.nan)),
    "chamber_contains tol inf": lambda d, s: chamber_contains(d, [-5.0, 2.0], tol=np.inf),
    "chamber_contains tol -1": lambda d, s: chamber_contains(d, s.q, tol=-1.0),
    "random_k_element scale nan": lambda d, s: random_k_element(
        d, np.random.default_rng(1), scale=np.nan),
    "random_k_element scale inf": lambda d, s: random_k_element(
        d, np.random.default_rng(1), scale=np.inf),
    "random_chamber_point min_wall nan": lambda d, s: random_chamber_point(
        d, np.random.default_rng(1), min_wall=np.nan),
    "random_chamber_point min_wall -1": lambda d, s: random_chamber_point(
        d, np.random.default_rng(1), min_wall=-1.0),
    # a generator that is not a numpy.random.Generator
    "random_k_element rng 5": lambda d, s: random_k_element(d, 5),
    "random_p_element rng 5": lambda d, s: random_p_element(d, 5),
    "random_chamber_point rng None": lambda d, s: random_chamber_point(d, None),
    # a matrix that is not numeric
    "radial_decompose str": lambda d, s: radial_decompose(d, "abc"),
    "radial_coords str": lambda d, s: radial_coords(d, "abc"),
    "reduce_phase_point str": lambda d, s: reduce_phase_point(d, PhasePoint("a", "b")),
    "compare_with_oracle str": lambda d, s: compare_with_oracle(d, PhasePoint("a", "b"), 0.1, 2),
    "direct_flow str": lambda d, s: direct_flow(PhasePoint("a", "b"), 1.0),
    "moment_map str": lambda d, s: moment_map(d, "abc", "abc"),
    "project_k str": lambda d, s: project_k(d, "abc"),
    "project_p str": lambda d, s: project_p(d, "abc"),
    "commutator str": lambda d, s: commutator("abc", "abc"),
    "trace_form str": lambda d, s: trace_form("abc", "abc"),
    "dagger str": lambda d, s: dagger("abc"),
}


@pytest.mark.parametrize("which", list(_MALFORMED_CALLS))
def test_entry_points_reject_non_finite_and_malformed_input(which):
    d, s = _aiii_slice_coords()
    assert slice_contains(d, s)
    with pytest.raises(ContractViolation):
        _MALFORMED_CALLS[which](d, s)
