"""Properties of the radial decomposition and the slice density at
degenerate chamber points, and of the sharded Gaussian sampler.

Chamber points are drawn from the grid {-3, ..., 3}/2 and mapped into the
closed chamber, so repeated and zero coordinates (points on the walls) are
common; each point is conjugated by exp of a random element of k.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartanflow import (
    ContractViolation,
    chamber_contains,
    closed_form_density,
    density_constant,
    embed_radial,
    jacobian_density,
    make_space,
    radial_coords,
    radial_decompose,
    radial_histogram,
    random_k_element,
    sample_p_gaussian,
    sample_radial_batch,
    verify_density,
)
from cartanflow.linalg import frobenius
from cartanflow.sampling import CHUNK_SIZE

from conftest import REPRESENTATIVES

# every class, with the m = n edge cases and the D-type chamber of bdi(n,n)
ROUND_TRIP_CASES = [
    ("aiii", 2, 1), ("aiii", 3, 2), ("aiii", 2, 2),
    ("bdi", 2, 1), ("bdi", 3, 2), ("bdi", 2, 2), ("bdi", 3, 3),
    ("cii", 2, 1), ("cii", 2, 2), ("cii", 3, 2),
    ("ai", 0, 3), ("ai", 0, 4), ("a2", 0, 3), ("aii", 0, 3),
    ("diii", 0, 4), ("diii", 0, 5), ("ci", 0, 2), ("ci", 0, 3),
]


def grid_chamber_point(d, ints):
    """Map grid values into the closed chamber by the Weyl group."""
    x = np.asarray(ints, dtype=float) / 2.0
    if d.trace_constrained:
        lam = np.sort(x)[::-1]
        return (lam - np.mean(lam))[: d.real_rank]
    q = np.sort(np.abs(x))[::-1]
    if not d.has_sign_flip_weyl:
        # so(n,n): only even sign changes, so the last coordinate keeps the
        # sign of the product
        q[-1] *= np.prod(np.sign(x))
    return q


@st.composite
def grid_points(draw):
    d = make_space(*draw(st.sampled_from(ROUND_TRIP_CASES)))
    size = d.real_rank + (1 if d.trace_constrained else 0)
    return d, draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))


@st.composite
def degenerate_points(draw):
    d, ints = draw(grid_points())
    return d, grid_chamber_point(d, ints), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(degenerate_points())
def test_round_trip_at_degenerate_points(case):
    d, q0, seed = case
    assert chamber_contains(d, q0, tol=1e-12)
    k0 = random_k_element(d, np.random.default_rng(seed))
    X = k0 @ embed_radial(d, q0) @ k0.conj().T
    q, k = radial_decompose(d, X)
    residual = frobenius(k @ embed_radial(d, q) @ k.conj().T - X)
    assert residual <= 1e-12 * max(1.0, frobenius(X)), (d.label(), q0, residual)
    assert np.max(np.abs(q - q0)) <= 1e-12 * max(1.0, np.max(np.abs(q0))), (d.label(), q0, q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid_points())
def test_radial_coords_weyl_invariant(case):
    # H(x) at an unsorted, signed x has the chamber representative of x as
    # its radial coordinates
    d, ints = case
    x = np.asarray(ints, dtype=float) / 2.0
    if d.trace_constrained:
        x = (x - np.mean(x))[: d.real_rank]
    q0 = grid_chamber_point(d, ints)
    q = radial_coords(d, embed_radial(d, x))
    assert np.max(np.abs(q - q0)) <= 1e-12 * max(1.0, np.max(np.abs(q0))), (d.label(), x, q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(grid_points())
def test_density_identity_at_grid_points(case):
    # both sides vanish exactly on the walls, where root values are exact
    d, ints = case
    q = grid_chamber_point(d, ints)
    jac = jacobian_density(d, q)
    closed = closed_form_density(d, q)
    assert np.isclose(jac, density_constant(d) * closed, rtol=1e-10, atol=0.0), (d.label(), q)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(REPRESENTATIVES),
    st.integers(CHUNK_SIZE - 1, 2 * CHUNK_SIZE + 1),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3, 4]),
)
def test_sample_stream_independent_of_threads(case, count, seed, threads):
    d = make_space(*case)
    one = sample_radial_batch(d, count, seed, threads=1)
    assert np.array_equal(one, sample_radial_batch(d, count, seed, threads=threads))


# the integer arguments of each sampler entry point, and for each argument a
# valid value and the least value allowed
SAMPLER_ARGS = {
    sample_radial_batch: ("count", "seed", "threads"),
    radial_histogram: ("count", "bins", "seed", "threads"),
    verify_density: ("count", "bins", "seed", "threads"),
    sample_p_gaussian: ("seed",),
}
VALID_ARG = {"count": 5, "bins": 4, "seed": 0, "threads": 1}
LEAST_ARG = {"count": 1, "bins": 2, "seed": 0, "threads": 1}
NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def bad_sampler_call(draw):
    """An entry point, its valid keyword arguments and one of them replaced
    by a value that is no integer, a bool, or an integer below the least."""
    fn, names = draw(st.sampled_from(list(SAMPLER_ARGS.items())))
    name = draw(st.sampled_from(names))
    below = st.integers(max_value=LEAST_ARG[name] - 1)
    bad = draw(st.one_of(
        below,
        below.filter(lambda v: v >= -(2**63)).map(np.int64),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-10.0, 10.0).map(np.float64),
        st.sampled_from([None, "3", 2 + 0j, [2]]),
    ))
    kwargs = {n: VALID_ARG[n] for n in names}
    kwargs[name] = bad
    return fn, kwargs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bad_sampler_call())
def test_sampler_entry_points_reject_bad_integers(call):
    # no value here starts a thread: every bad threads value is below 1 or
    # no integer
    fn, kwargs = call
    with pytest.raises(ContractViolation):
        fn(make_space("aiii", 2, 1), **kwargs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(NUMPY_INTS),
    st.integers(1, 100),
    st.integers(2, 20),
    st.integers(0, 127),
    st.integers(1, 3),
)
def test_sampler_entry_points_accept_numpy_integers(t, count, bins, seed, threads):
    d = make_space("aiii", 2, 1)
    q = sample_radial_batch(d, count, seed, threads)
    assert np.array_equal(sample_radial_batch(d, t(count), t(seed), t(threads)), q)
    hist = radial_histogram(d, t(count), t(bins), t(seed), t(threads))
    want = radial_histogram(d, count, bins, seed, threads)
    assert all(np.array_equal(a, b) for a, b in zip(hist.density, want.density))
    res = verify_density(d, t(count), t(bins), t(seed), t(threads))
    assert res == verify_density(d, count, bins, seed, threads)
    assert np.array_equal(sample_p_gaussian(d, t(seed)), sample_p_gaussian(d, seed))
