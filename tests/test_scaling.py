"""X -> 2^j X is an exact symmetry of every geometric entry point.

The radial coordinates q and momenta p are homogeneous of degree 1 in
(X, Y), the transverse momentum r too, the angular momentum l = [r, H(q)]
and the energy of degree 2, and the slice densities of degree
dim p - rank.  A flow started from (2^j X, 2^j Y) is the same flow in
units scaled by 2^j, over the same times.  Every tolerance is relative to
its own input (a residual of X to frobenius(X), the wall test to
max_i |q_i|), so no verdict changes with j, and multiplying by a power of
two is exact in floating point: each result at 2^j X is the scaled result
bit for bit.  One exception is LAPACK's own rescaling.  ``eigvalsh``
multiplies a matrix whose norm lies outside about [1e-146, 1e146] by a
factor that is not a power of two before it reduces it.  At j = +-300 the
matrices l of a trajectory, of norm 2^(+-600) |l|, lie outside, so their
logged spectra agree with the scaled ones to 1e-13 relative, not bit for
bit.  At every j, an eigenvalue of l that is rounding noise, below 1e-13 of
the largest, is not determined, and ``eigvalsh`` need not scale it: on
aiii(10,1) at j = 40 one comes out as -2.1e-64 times the largest, against
2.3e-64 unscaled.  Such eigenvalues are held to the same 1e-13 relative to
the largest.
"""

import numpy as np
import pytest

from cartanflow import (
    ContractViolation,
    PhasePoint,
    closed_form_density,
    compare_with_oracle,
    exact_slice_reduce,
    jacobian_density,
    make_space,
    radial_coords,
    radial_decompose,
    reduce_phase_point,
)
from cartanflow.dynamics import _slice_point
from cartanflow.radial import radial_coords_batch
from cartanflow.reduction import r_from_l
from cartanflow.spaces import check_membership, check_p_membership, random_p_element

from conftest import REPRESENTATIVES, root_system_grid

JS = (1, -1, 40, -40, 300, -300)
# below 2^-1022 a scaled density is subnormal and loses bits
_TINY = np.finfo(float).tiny


def _start(d):
    rng = np.random.default_rng(2)
    return PhasePoint(random_p_element(d, rng), random_p_element(d, rng))


def _non_members(d, X):
    """iX, which is anti-Hermitian, hence not in p, and a complex Gaussian
    matrix, which lies in no g0."""
    rng = np.random.default_rng(5)
    N = d.ambient_dim
    return 1j * X, rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))


def _assert_oracle_scales(got, base, c, exact_spectra):
    traj, ref = got.trajectory, base.trajectory
    assert traj.aborted == ref.aborted and got.truncated == base.truncated
    for a, b in ((got.times, base.times), (traj.q, c * ref.q), (traj.p, c * ref.p),
                 (traj.l, c * c * ref.l), (traj.energies, c * c * ref.energies),
                 (got.deviations, c * base.deviations)):
        assert np.array_equal(a, b)
    want = c * c * ref.l_spectra
    if exact_spectra:
        # an eigenvalue that is rounding noise of the largest is not
        # determined, and need not scale exactly
        resolved = np.abs(want) > 1e-13 * np.abs(want).max(axis=1, keepdims=True)
        assert np.array_equal(traj.l_spectra[resolved], want[resolved])
    assert np.abs(traj.l_spectra - want).max() <= 1e-13 * np.abs(want).max()


def _assert_power_of_two_symmetry(case):
    d = make_space(*case)
    start = _start(d)
    X, Y = start.X, start.Y
    q, k = radial_decompose(d, X)
    coords = radial_coords_batch(d, np.stack([X, Y]))
    state, k_slice = reduce_phase_point(d, start)
    r = r_from_l(d, state.q, state.l)
    report = compare_with_oracle(d, start, 0.25, 40)
    # Y = X: a free flow along a ray, whose r is the rounding of k†Yk
    ray = compare_with_oracle(d, PhasePoint(X, X), 0.25, 40)
    degree = d.dim_p - d.real_rank
    densities = [(f, f(d, q)) for f in (jacobian_density, closed_form_density)]
    exact_slice = d.kind in ("aiii", "bdi")
    if exact_slice:
        canon, m_elem = exact_slice_reduce(d, _slice_point(d, start)[0])
        ray_canon, _ = exact_slice_reduce(d, _slice_point(d, PhasePoint(X, X))[0])
    non_members = _non_members(d, X)
    for j in JS:
        c = 2.0**j
        cX, cY = c * X, c * Y
        check_p_membership(d, cX)
        for bad in non_members:
            with pytest.raises(ContractViolation):
                check_p_membership(d, c * bad)
            with pytest.raises(ContractViolation):
                radial_decompose(d, c * bad)
        with pytest.raises(ContractViolation):
            check_membership(d, c * non_members[1])
        q2, k2 = radial_decompose(d, cX)
        assert np.array_equal(q2, c * q) and np.array_equal(k2, k)
        assert np.array_equal(radial_coords(d, cX), c * coords[0])
        assert np.array_equal(radial_coords_batch(d, np.stack([cX, cY])), c * coords)
        s2, k2 = reduce_phase_point(d, PhasePoint(cX, cY))
        assert np.array_equal(k2, k_slice)
        assert np.array_equal(s2.q, c * state.q) and np.array_equal(s2.p, c * state.p)
        assert np.array_equal(s2.l, c * c * state.l)
        assert np.array_equal(r_from_l(d, s2.q, s2.l), c * r)
        _assert_oracle_scales(compare_with_oracle(d, PhasePoint(cX, cY), 0.25, 40), report, c,
                              exact_spectra=abs(j) <= 40)
        _assert_oracle_scales(compare_with_oracle(d, PhasePoint(cX, cX), 0.25, 40), ray, c,
                              exact_spectra=abs(j) <= 40)
        for f, base in densities:
            with np.errstate(over="ignore", under="ignore"):
                want = np.ldexp(base, j * degree)
            if _TINY <= want < np.inf:
                assert f(d, c * q) == want, f.__name__
        if exact_slice:
            canon2, m_elem2 = exact_slice_reduce(d, _slice_point(d, PhasePoint(cX, cY))[0])
            assert np.array_equal(canon2.coords.r, c * canon.coords.r)
            assert np.array_equal(m_elem2, m_elem)
            assert canon2.degenerate == canon.degenerate
            ray_canon2, _ = exact_slice_reduce(d, _slice_point(d, PhasePoint(cX, cX))[0])
            assert np.array_equal(ray_canon2.coords.r, c * ray_canon.coords.r)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_power_of_two_scaling_is_exact(case):
    _assert_power_of_two_symmetry(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", root_system_grid())
def test_power_of_two_scaling_is_exact_on_grid(case):
    _assert_power_of_two_symmetry(case)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_start_at_1e_minus_9_runs_as_the_unit_start(case):
    # 1e-9 is no power of two, so the scaled run agrees to rounding only;
    # with an absolute wall floor of 1e-7 this start was refused
    d = make_space(*case)
    start = _start(d)
    base = compare_with_oracle(d, start, 0.25, 40)
    small = compare_with_oracle(d, PhasePoint(1e-9 * start.X, 1e-9 * start.Y), 0.25, 40)
    assert small.truncated is None and base.truncated is None
    scale = np.abs(base.trajectory.q).max()
    assert np.abs(small.trajectory.q / 1e-9 - base.trajectory.q).max() <= 1e-13 * scale
