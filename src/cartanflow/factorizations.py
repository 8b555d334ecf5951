"""Structured matrix factorizations used by the radial decompositions.

Plain eigendecomposition and SVD ignore the antiunitary symmetries of the
quaternionic, complex-symmetric and complex-antisymmetric classes, so the
factors they return do not land in the right compact groups.  The
routines here post-process LAPACK spectral data with the relevant
antiunitary map phi to produce structured factors:

* ``takagi``:            complex symmetric B    = U diag(s) U^T
* ``antisym_canonical``: complex antisymmetric B = U (pairwise J-blocks) U^T
* ``quaternionic_eigh``: Hermitian X with X J = J conj(X):  X = U D U†,
  D = diag(d, d) in the half/half ordering, U J = J conj(U)
* ``quaternionic_svd``:  B with B J_R = J_L conj(B):  B = U S V† with
  structured U, V and pairwise-equal singular values.

All four share one kernel, ``_resolve``: it groups the descending values
into near-equal clusters, picks vectors inside each cluster's eigenspace
one at a time, and hands each pick to the routine's partner rule.  With
phi^2 = +1 (Takagi) the rule returns the phi-fixed combination of u and
phi(u); with phi^2 = -1 (the other three) it returns the Kramers pair
(u, phi(u)), which is automatically orthogonal.  A routine differs from
the others only in its partner rule and its column order.  Each takes its
vectors and values from one LAPACK call, ``eigh`` of X or the SVD of B: no
Gram matrix B B†, whose squares leave the doubles long before B does.

All spectra are returned descending.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .linalg import ContractViolation

__all__ = ["takagi", "antisym_canonical", "quaternionic_eigh", "quaternionic_svd"]

# Cluster/zero detection threshold on the values, relative to the largest.
# The vectors of values closer than this are ill-determined (their error
# grows as eps over the gap), and exact zeros surface at eps times the
# scale, so such values are grouped and their vectors resolved together;
# each vector (or pair) picked in a group keeps its own value, in order.
_PAIR_TOL = 1e-7


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group indices of a descending array into near-equal clusters: a value
    joins the current cluster when it lies within ``tol`` of the cluster's
    last value, so the gaps chain and no near-equal pair is split."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and abs(values[groups[-1][-1]] - v) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def _project_off(v: np.ndarray, chosen: list[np.ndarray]) -> np.ndarray:
    for _ in range(2):
        for c in chosen:
            v = v - np.vdot(c, v) * c
    return v


def _pick_independent(cols: np.ndarray, chosen: list[np.ndarray]) -> np.ndarray:
    """First column of ``cols`` with a healthy component off ``chosen``
    (residual norm above 0.5, else the largest), normalized.  The residual
    is projected off twice, so the result is orthonormal to ``chosen`` to
    round-off.  Columns that lie in the span of ``chosen`` up to round-off
    leave residuals of that size and are never taken."""
    best, best_norm = None, -1.0
    for i in range(cols.shape[1]):
        v = _project_off(cols[:, i], chosen)
        nrm = np.linalg.norm(v)
        if nrm > 0.5:
            return v / nrm
        if nrm > best_norm:
            best, best_norm = v, nrm
    if best is None or best_norm < 1e-8:
        raise ContractViolation("degenerate subspace: no independent vector found")
    return best / best_norm


def _resolve(
    W: np.ndarray,
    values: np.ndarray,
    tol: float,
    make: Callable[[np.ndarray, float], list[np.ndarray]],
) -> list[tuple[float, list[np.ndarray]]]:
    """Structured vectors for the descending ``values`` with eigenvectors W.

    Values chained by gaps within ``tol`` form one cluster; its columns of
    W are resolved together.  Each pick is a unit vector of the
    cluster's span orthogonal to the vectors already chosen there, and
    ``make(u, value)`` returns it with its partners (or their combination).
    A pick takes the cluster's value at the position of its first vector,
    so near-equal values keep their order.  Returns one ``(value,
    vectors)`` per pick, in order.
    """
    picks: list[tuple[float, list[np.ndarray]]] = []
    for grp in _cluster(values, tol):
        sub = W[:, grp]
        chosen: list[np.ndarray] = []
        while len(chosen) < len(grp):
            value = values[grp[len(chosen)]]
            vectors = make(_pick_independent(sub, chosen), value)
            chosen.extend(vectors)
            picks.append((value, vectors))
    return picks


def takagi(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Autonne-Takagi factorization of a complex symmetric matrix.

    Returns ``(U, s)`` with unitary U and descending s >= 0 such that
    ``B = U @ diag(s) @ U.T``.  Built on the SVD of B, which gives the
    left singular vectors and the values in one call: on each singular
    subspace the antiunitary map phi(w) = B conj(w)/s squares to +1, so
    phi-fixed vectors exist and are exactly the Takagi columns.
    """
    B = np.asarray(B, dtype=complex)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ContractViolation("takagi needs a square matrix")
    W, s, _ = np.linalg.svd(B)
    tol = _PAIR_TOL * (float(s[0]) if n else 0.0)

    def phi_fixed(u: np.ndarray, sigma: float) -> list[np.ndarray]:
        if sigma <= tol:
            return [u]  # the null space of B: any orthonormal vector will do
        # orthogonality to the previously chosen phi-fixed columns is
        # automatic, so no re-projection (which would break phi-fixedness)
        phiu = (B @ u.conj()) / sigma
        t1 = u + phiu
        t2 = 1j * (u - phiu)
        t = t1 if np.linalg.norm(t1) >= np.linalg.norm(t2) else t2
        return [t / np.linalg.norm(t)]

    cols = [t for _, (t,) in _resolve(W, s, tol, phi_fixed)]
    U = np.column_stack(cols) if n else np.zeros((0, 0), dtype=complex)
    return U, s


def antisym_canonical(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical congruence form of a complex antisymmetric matrix.

    Returns ``(U, s)`` with unitary U and descending s >= 0 of length
    floor(n/2) such that ``B = U @ Sigma @ U.T`` where Sigma consists of
    diagonal 2x2 blocks ``[[0, s_k], [-s_k, 0]]`` (plus a zero row/column
    for odd n).  Here phi(w) = B conj(w)/s squares to -1, giving the
    quaternionic pairing of the singular subspaces.
    """
    B = np.asarray(B, dtype=complex)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ContractViolation("antisym_canonical needs a square matrix")
    W, sv, _ = np.linalg.svd(B)
    tol = _PAIR_TOL * (float(sv[0]) if n else 0.0)

    def kramers(u: np.ndarray, sigma: float) -> list[np.ndarray]:
        # automatically orthogonal to u, phi(v) = -u; the null space takes u alone
        return [u, (B @ u.conj()) / sigma] if sigma > tol else [u]

    picks = _resolve(W, sv, tol, kramers)
    pairs = [(sigma, vs) for sigma, vs in picks if len(vs) == 2]
    # column order (phi(u), u) gives +s at (2k-1, 2k); the null space comes last
    cols = [w for _, (u, v) in pairs for w in (v, u)]
    cols += [vs[0] for _, vs in picks if len(vs) == 1]
    svals = [sigma for sigma, _ in pairs] + [0.0] * (n // 2 - len(pairs))
    U = np.column_stack(cols) if n else np.zeros((0, 0), dtype=complex)
    return U, np.array(svals)


def quaternionic_eigh(X: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with X J = J conj(X).

    Returns ``(d, U)`` with d descending of length N/2 and U unitary with
    ``U J = J conj(U)`` such that ``X = U @ diag(d, d) @ U†`` in the
    half/half column ordering (column j pairs with column N/2 + j).
    """
    X = np.asarray(X, dtype=complex)
    w, W = np.linalg.eigh(X)
    w, W = w[::-1], W[:, ::-1]
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    # the Kramers partner J conj(u) is automatically orthogonal to u
    picks = _resolve(W, w, _PAIR_TOL * scale, lambda u, _: [u, J @ u.conj()])
    U = np.column_stack([u for _, (u, _) in picks] + [v for _, (_, v) in picks])
    return np.array([value for value, _ in picks]), U


def quaternionic_svd(
    B: np.ndarray, J_left: np.ndarray, J_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Structured SVD of B with B J_right = J_left conj(B).

    Returns ``(U, s, V)`` with s descending of length cols/2 and
    ``B = U @ Sigma @ V†`` where Sigma carries (s, s) on the diagonal in
    the half/half ordering (column j pairs with column half+j).

    Partner columns are ``v2 = sgn * J_right conj(v)`` where ``sgn`` is
    read off J_right so that V satisfies the group relation
    ``V J_right = J_right conj(V)``; the induced left partners
    ``u2 = B v2 / s`` then automatically satisfy the matching relation on
    the paired slots.  The leftover left columns (rows > cols) take the
    partners ``u2 = J_left conj(u)``.
    """
    B = np.asarray(B, dtype=complex)
    rows, cols = B.shape
    hr, hc = rows // 2, cols // 2
    sgn = float(np.real(J_right[hc, 0])) if hc else 1.0
    _, s, Vh = np.linalg.svd(B)
    W = Vh.conj().T
    sv = np.zeros(cols)
    sv[: len(s)] = s
    tol = _PAIR_TOL * (float(sv[0]) if cols else 0.0)
    picks = _resolve(W, sv, tol, lambda v, _: [v, sgn * (J_right @ v.conj())])
    V = np.column_stack([v for _, (v, _) in picks] + [v2 for _, (_, v2) in picks])
    # left pairs B v / s on the nonzero singular values; the slots of the
    # zero ones and the rows > cols tail are filled from the identity
    u_pairs = [
        [B @ v / sigma, B @ v2 / sigma] if sigma > tol else None for sigma, (v, v2) in picks
    ]
    u_pairs += [None] * (hr - hc)
    chosen = [u for pair in u_pairs if pair for u in pair]
    eye = np.eye(rows, dtype=complex)
    for i, pair in enumerate(u_pairs):
        if pair is None:
            u = _pick_independent(eye, chosen)
            # zero singular values keep the paired-slot sign convention of
            # the B-derived partners; the tail takes J_left's own pairing
            u_pairs[i] = [u, (sgn if i < hc else 1.0) * (J_left @ u.conj())]
            chosen.extend(u_pairs[i])
    U = np.column_stack([u for u, _ in u_pairs] + [u2 for _, u2 in u_pairs])
    return U, np.array([sigma for sigma, _ in picks]), V
