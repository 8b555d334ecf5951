import numpy as np
import pytest

from cartanflow import make_space
from cartanflow.linalg import commutator
from cartanflow.spaces import geometry

# one representative per class, small enough for fast tests
REPRESENTATIVES = [
    ("aiii", 2, 1),
    ("bdi", 2, 1),
    ("cii", 2, 1),
    ("ai", 0, 3),
    ("aii", 0, 2),
    ("diii", 0, 3),
    ("ci", 0, 2),
    ("a2", 0, 3),
]

# the full parameter grid with m, n <= 4 used by the acceptance suite
def parameter_grid(max_mn: int = 4):
    cases = []
    for kind in ("aiii", "bdi", "cii"):
        for n in range(1, max_mn + 1):
            for m in range(n, max_mn + 1):
                cases.append((kind, m, n))
    for kind in ("ai", "a2", "aii", "diii"):
        for n in range(2, max_mn + 1):
            cases.append((kind, 0, n))
    for n in range(1, max_mn + 1):
        cases.append(("ci", 0, n))
    return cases


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def spaces(cases):
    return [make_space(*c) for c in cases]


def centralizer_orbit_dimension(d, seed: int = 1010) -> int:
    """Real dimension of the M = Z_K(a) orbit through a random r in a-perp.

    The numeric rank of the real matrix whose columns are vec([xi_i, r])
    (real and imaginary parts stacked) for xi_i in the centralizer basis,
    at a seeded Gaussian r in a-perp.  Independent of the slice code in
    ``cartanflow.radial``.
    """
    geo = geometry(d)
    if not geo.m_basis:
        return 0
    rng = np.random.default_rng(seed)
    r = geo.aperp_from_coords(rng.standard_normal(len(geo.a_perp_basis)))
    cols = [commutator(xi, r).ravel() for xi in geo.m_basis]
    A = np.stack([np.concatenate([c.real, c.imag]) for c in cols], axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    # singular values are O(1) or at round-off (~1e-16), so a relative
    # cut far from both separates them
    return int(np.sum(sv > 1e-8 * sv[0]))


def dense_aperp_basis(d) -> list:
    """a-perp without root adaptation: the p basis projected off a, then
    Gram-Schmidt orthonormalized.  Reference for the diagonal bracket map."""
    from cartanflow.spaces import _gram_schmidt

    geo = geometry(d)
    reduced = []
    for P in geo.p_basis:
        Q = P.copy()
        for A in geo.a_basis:
            Q = Q - np.vdot(A, Q).real * A
        reduced.append(Q)
    basis = _gram_schmidt(reduced)
    assert len(basis) == d.dim_p - d.real_rank
    return basis

