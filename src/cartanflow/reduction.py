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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import ConsistencyError, ContractViolation, commutator
from .radial import WALL_TOL, SliceCoords
from .spaces import (
    RestrictedRoot,
    SpaceDescriptor,
    _radial_vector,
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
    X1, X2 = np.asarray(X1, dtype=complex), np.asarray(X2, dtype=complex)
    check_p_membership(d, X1)
    check_p_membership(d, X2)
    return commutator(X2, X1)


def l_from_slice(d: SpaceDescriptor, s: SliceCoords) -> np.ndarray:
    """Angular momentum l = [r, H(q)] of slice coordinates."""
    geo = geometry(d)
    return commutator(np.asarray(s.r, dtype=complex), geo.embed_radial(s.q))


def r_from_l(d: SpaceDescriptor, q, l) -> np.ndarray:
    """Invert r -> [r, H(q)] at a chamber-interior point.

    Raises for q on or near a wall, where the map is singular.
    """
    geo = geometry(d)
    q = np.asarray(q, dtype=float)
    if wall_distance(d, q) <= WALL_TOL:
        raise ContractViolation(
            "q lies on or near a chamber wall: the bracket map is singular there"
        )
    lc = geo.zk_coords(np.asarray(l, dtype=complex))
    return geo.aperp_from_coords(lc / (geo.bracket_coeffs @ q))


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
    |C q| in the root-adapted bases.  Vanishes exactly on the chamber walls."""
    C = geometry(d).bracket_coeffs
    return float(np.prod(np.abs(C @ _radial_vector(d, q))))


def _root_product(coeffs: np.ndarray, mults: np.ndarray, q: np.ndarray) -> float:
    return float(np.prod(np.abs(coeffs @ q) ** mults))


def closed_form_density(
    d: SpaceDescriptor, q, roots: list[RestrictedRoot] | None = None
) -> float:
    """Closed-form slice density: kappa * prod |alpha(q)|^mult(alpha).

    kappa = 2^-rank for su(m,n), whose classical expression
    prod q_i^(2(m-n)+1) * prod (q_i^2-q_j^2)^2 leaves out the factor 2 of
    each long root 2 q_i; kappa = 1 for every other class (the classical
    so(m,n) expression is already the root product, its long roots having
    multiplicity 0).  ``roots`` overrides the multiplicity table (used by
    consistency checks).
    """
    q = _radial_vector(d, q)
    if roots is None:
        coeffs, mults = geometry(d).root_table
    else:
        coeffs = np.array([r.coeffs for r in roots], dtype=float).reshape(len(roots), len(q))
        mults = np.array([r.multiplicity for r in roots])
    kappa = 0.5**d.real_rank if d.kind == "aiii" else 1.0
    return kappa * _root_product(coeffs, mults, q)


def random_chamber_point(
    d: SpaceDescriptor, rng: np.random.Generator, min_wall: float = 1e-3
) -> np.ndarray:
    """A generic chamber-interior point, resampled away from the walls."""
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


def _ratio_spread(
    d: SpaceDescriptor,
    roots: list[RestrictedRoot] | None,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """(mean ratio, relative spread) of jacobian/closed over random points."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        q = random_chamber_point(d, rng)
        closed = closed_form_density(d, q, roots=roots)
        if closed <= 0:
            continue
        ratios.append(jacobian_density(d, q) / closed)
    ratios = np.array(ratios)
    mean = float(np.mean(ratios))
    spread = float((np.max(ratios) - np.min(ratios)) / abs(mean))
    return mean, spread


# the seeded chamber points of density_constant and the constancy it requires
_RATIO_SAMPLES, _RATIO_SEED, _RATIO_RTOL = 100, 715, 1e-8


@lru_cache(maxsize=None)
def density_constant(d: SpaceDescriptor) -> float:
    """The q-independent ratio jacobian_density / closed_form_density.

    Estimated at ``_RATIO_SAMPLES`` seeded random chamber points and
    required to be constant to ``_RATIO_RTOL``; a non-constant ratio
    signals a wrong multiplicity table and raises ``ConsistencyError``.
    Memoized per descriptor (a failure is not cached).
    """
    mean, spread = _ratio_spread(d, None, _RATIO_SAMPLES, _RATIO_SEED)
    if not np.isfinite(mean) or spread > _RATIO_RTOL:
        raise ConsistencyError(
            f"{d.label()}: jacobian/closed density ratio varies by {spread:.3e} "
            f"(> {_RATIO_RTOL:.1e}); multiplicity table inconsistent"
        )
    return mean
