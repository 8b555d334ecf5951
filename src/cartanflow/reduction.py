"""Moment map, angular momentum, the radial bracket operator and slice densities.

The commutator [X2, X1] of two Hermitian p elements is anti-Hermitian and
is the conserved quantity generating the K symmetry.  On slice
coordinates it restricts to l(q, p, r) = [r, H(q)], a linear isomorphism
from a-perp onto the orthocomplement of the centralizer algebra inside k
whenever q avoids the chamber walls.  Its absolute determinant in
orthonormal bases is the slice density: the Jacobian that converts the
phase-space Liouville measure to dq dp dl, and simultaneously the weight
of the radial image of any K-invariant measure on p.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ConsistencyError, ContractViolation, _check_real, _finite_array, commutator
from .linalg import _check_generator, as_cmat, frobenius
from .radial import SliceCoords, _near_wall
from .spaces import (
    MEMBERSHIP_RTOL,
    SpaceDescriptor,
    _radial_vector,
    _real_flat,
    check_p_membership,
    geometry,
    wall_distance,
)

__all__ = [
    "ReducedState",
    "AqOperator",
    "moment_map",
    "l_from_slice",
    "r_from_l",
    "a_q_matrix",
    "jacobian_density",
    "closed_form_density",
    "density_constant",
    "random_chamber_point",
]


@dataclass(frozen=True)
class ReducedState:
    """Reduced phase point: radial position q, radial momentum p and
    angular-momentum matrix l in the orthocomplement of the centralizer
    algebra inside k."""

    q: np.ndarray
    p: np.ndarray
    l: np.ndarray


@dataclass(frozen=True)
class AqOperator:
    """Matrix of ad(H(e)) o ad(H(q)) on the centralizer orthocomplement,
    in the fixed root-adapted orthonormal basis.  Diagonal; its entries are
    the products alpha(e) * alpha(q) over positive roots with multiplicity."""

    matrix: np.ndarray
    q: np.ndarray
    e: np.ndarray


def moment_map(d: SpaceDescriptor, X1, X2) -> np.ndarray:
    """[X2, X1] for X1, X2 in p; the result lies in k."""
    X1, X2 = as_cmat(X1, "X1"), as_cmat(X2, "X2")
    check_p_membership(d, X1)
    check_p_membership(d, X2)
    return commutator(X2, X1)


def l_from_slice(d: SpaceDescriptor, s: SliceCoords) -> np.ndarray:
    """Angular momentum l = [r, H(q)] of slice coordinates."""
    N = d.ambient_dim
    return commutator(_finite_array("r", s.r, (N, N), complex), geometry(d).embed_radial(s.q))


def _zk_perp_coords(d: SpaceDescriptor, l) -> np.ndarray:
    """The zk-perp coordinates of l; ContractViolation unless l is a finite
    N x N matrix within MEMBERSHIP_RTOL |l|_F of zk-perp."""
    geo, N = geometry(d), d.ambient_dim
    l = _finite_array("l", l, (N, N), complex)
    lc = geo.zk_coords(l)
    off = _real_flat(l - geo.zk_from_coords(lc))  # l minus its projection
    if frobenius(off) > MEMBERSHIP_RTOL * frobenius(l):
        raise ContractViolation("l has a component outside zk-perp; it must lie in zk-perp")
    return lc


def r_from_l(d: SpaceDescriptor, q, l) -> np.ndarray:
    """Invert r -> [r, H(q)] at a chamber-interior point.

    Raises for q on or near a wall, where the map is singular, and for an l
    off zk-perp, which no r maps to.
    """
    geo = geometry(d)
    q = _radial_vector(d, q)
    if _near_wall(d, q):
        raise ContractViolation(
            "q lies on or near a chamber wall: the bracket map is singular there"
        )
    return geo.aperp_from_coords(_zk_perp_coords(d, l) / (geo.bracket_coeffs @ q))


def a_q_matrix(d: SpaceDescriptor, q) -> AqOperator:
    """The operator ad(H(e)) o ad(H(q)) on the centralizer orthocomplement,
    with e the fixed generic chamber point (rank, rank-1, ..., 1)."""
    geo = geometry(d)
    q = _radial_vector(d, q)
    C = geo.bracket_coeffs
    A = np.diag((C @ geo.e_coords) * (C @ q))
    return AqOperator(matrix=A, q=q.copy(), e=geo.e_coords.copy())


def jacobian_density(d: SpaceDescriptor, q) -> float:
    """|det| of r -> [r, H(q)] between orthonormal bases of a-perp and the
    centralizer orthocomplement: the product of the measured diagonal
    |C q| in the root-adapted bases.  0.0 exactly on the chamber walls, even
    where another factor is inf, and inf where the product leaves the
    doubles."""
    C = geometry(d).bracket_coeffs
    with np.errstate(over="ignore"):
        vals = np.abs(C @ _radial_vector(d, q))
        return float(np.prod(vals)) if vals.all() else 0.0


def _kappa(d: SpaceDescriptor) -> float:
    """The constant factor of ``closed_form_density``."""
    return 0.5**d.real_rank if d.kind == "aiii" else 1.0


def closed_form_density(d: SpaceDescriptor, q) -> float:
    """Closed-form slice density: kappa * prod |alpha(q)|^mult(alpha).

    kappa = 2^-rank for su(m,n), whose classical expression
    prod q_i^(2(m-n)+1) * prod (q_i^2-q_j^2)^2 leaves out the factor 2 of
    each long root 2 q_i; kappa = 1 for every other class (the classical
    so(m,n) expression is already the root product, its long roots having
    multiplicity 0).  jacobian_density is 1/kappa times this, as
    ``density_constant`` checks.  0.0 on the chamber walls and inf beyond
    the doubles, as ``jacobian_density``.
    """
    q = _radial_vector(d, q)
    coeffs, mults = geometry(d).root_table
    with np.errstate(over="ignore"):
        vals = np.abs(coeffs @ q)
        return _kappa(d) * float(np.prod(vals**mults)) if vals.all() else 0.0


def random_chamber_point(
    d: SpaceDescriptor, rng: np.random.Generator, min_wall: float = 1e-3
) -> np.ndarray:
    """A generic chamber-interior point, resampled away from the walls.
    ContractViolation unless ``rng`` is a ``numpy.random.Generator`` and
    ``min_wall`` a finite real number >= 0."""
    rng = _check_generator("rng", rng)
    min_wall = _check_real("min_wall", min_wall, 0.0)
    rank, trace, flips = d.real_rank, d.trace_constrained, d.has_sign_flip_weyl
    for _ in range(200):
        if trace:
            lam = np.sort(rng.standard_normal(rank + 1))[::-1]
            q = (lam - np.mean(lam))[:rank]
        else:
            q = np.sort(np.abs(rng.standard_normal(rank)))[::-1]
            if not flips and rng.random() < 0.5:
                q[-1] = -q[-1]
        if wall_distance(d, q) > min_wall:
            return q
    raise ConsistencyError("could not sample a chamber point away from the walls")


def _check_root_multiset(
    C: np.ndarray, e: np.ndarray, coeffs: np.ndarray, mults: np.ndarray, label: str
) -> None:
    """Raise unless the rows of C, each signed to be positive at e, are the
    rows of ``coeffs`` repeated by ``mults``.  Every root has |alpha(e)| >= 1,
    so the sign of a row is never in doubt."""
    rows = Counter(map(tuple, (C * np.sign(C @ e)[:, None]).tolist()))
    roots = Counter(map(tuple, np.repeat(coeffs, mults.astype(int), axis=0).tolist()))
    if rows != roots:
        raise ConsistencyError(
            f"{label}: {sum((rows - roots).values())} bracket rows and "
            f"{sum((roots - rows).values())} roots counted by multiplicity have no "
            "partner; multiplicity table inconsistent"
        )


@lru_cache(maxsize=None)
def density_constant(d: SpaceDescriptor) -> float:
    """The ratio jacobian_density / closed_form_density, exactly 1/kappa.

    jacobian_density is prod |C q| over the rows of the bracket
    coefficients C, and closed_form_density is kappa times
    prod |alpha(q)|^mult(alpha).  The two products are the same polynomial
    when the rows of C, up to sign, are the positive roots, each repeated
    by its multiplicity (the polar-coordinates Jacobian on p; Helgason,
    Groups and Geometric Analysis, ch. I sec. 5).  That multiset identity is
    checked exactly; a mismatch means a wrong multiplicity table and raises
    ``ConsistencyError``.  Memoized per descriptor (a failure is not cached).
    """
    geo = geometry(d)
    _check_root_multiset(geo.bracket_coeffs, geo.e_coords, *geo.root_table, d.label())
    return 1.0 / _kappa(d)
