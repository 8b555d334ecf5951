"""Structured matrix factorizations used by the radial decompositions.

Plain eigendecomposition and SVD ignore the antiunitary symmetries of the
quaternionic, complex-symmetric and complex-antisymmetric classes, so the
factors they return do not land in the right compact groups.  The
routines here post-process LAPACK spectral data with the relevant
antiunitary map phi (a conjugation intertwiner with phi^2 = +-1) to
produce structured factors:

* ``takagi``:            complex symmetric B    = U diag(s) U^T
* ``antisym_canonical``: complex antisymmetric B = U (pairwise J-blocks) U^T
* ``quaternionic_eigh``: Hermitian X with X J = J conj(X):  X = U D U†,
  D = diag(d, d) in the half/half ordering, U J = J conj(U)
* ``quaternionic_svd``:  B with B J_R = J_L conj(B):  B = U S V† with
  structured U, V and pairwise-equal singular values.

All spectra are returned descending.
"""

from __future__ import annotations

import numpy as np

from .linalg import ContractViolation

__all__ = ["takagi", "antisym_canonical", "quaternionic_eigh", "quaternionic_svd"]

# Cluster/zero detection threshold on singular values, relative to the
# largest.  Singular values come from LAPACK's SVD (exact zeros surface at
# machine eps times the scale); the singular vectors are eigenvectors of
# the Gram matrix, whose eigenvalues are the squares, so values closer than
# this are grouped and their vectors resolved together; each vector (or
# pair) picked in a group keeps its own value, in order.
_PAIR_TOL = 1e-7


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group indices of a descending array into near-equal clusters."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and abs(values[groups[-1][0]] - v) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def _project_off(v: np.ndarray, chosen: list[np.ndarray]) -> np.ndarray:
    for _ in range(2):
        for c in chosen:
            v = v - np.vdot(c, v) * c
    return v


def _orthonormalize_against(v: np.ndarray, chosen: list[np.ndarray]) -> np.ndarray:
    v = _project_off(v, chosen)
    nrm = np.linalg.norm(v)
    return v / nrm if nrm > 1e-12 else np.zeros_like(v)


def _pick_independent(cols: np.ndarray, chosen: list[np.ndarray]) -> np.ndarray:
    """First column of ``cols`` with a healthy component off ``chosen``
    (residual norm above 0.5, else the largest), normalized.  Columns that
    lie in the span of ``chosen`` up to round-off leave residuals of that
    size and are never taken."""
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


def takagi(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Autonne-Takagi factorization of a complex symmetric matrix.

    Returns ``(U, s)`` with unitary U and descending s >= 0 such that
    ``B = U @ diag(s) @ U.T``.  Built on the eigendecomposition of the
    positive semidefinite B B†: on each singular subspace the antiunitary
    map phi(w) = B conj(w)/s squares to +1, so phi-fixed vectors exist and
    are exactly the Takagi columns.  The values themselves come from the
    SVD of B, which keeps a zero singular value at machine precision.
    """
    B = np.asarray(B, dtype=complex)
    n = B.shape[0]
    if B.shape != (n, n):
        raise ContractViolation("takagi needs a square matrix")
    W = np.linalg.eigh(B @ B.conj().T)[1][:, ::-1]
    s = np.linalg.svd(B, compute_uv=False)
    scale = float(s[0]) if n else 0.0
    cols: list[np.ndarray] = [None] * n
    order = 0
    for grp in _cluster(s, _PAIR_TOL * scale):
        sub = W[:, grp]
        chosen: list[np.ndarray] = []
        if s[grp[0]] <= _PAIR_TOL * scale:
            for i in range(len(grp)):
                v = _pick_independent(sub, chosen)
                chosen.append(v)
        else:
            while len(chosen) < len(grp):
                sigma = s[grp[len(chosen)]]  # the k-th column picked takes the k-th value
                u = _pick_independent(sub, chosen)
                u = _orthonormalize_against(u, chosen)
                u /= np.linalg.norm(u)
                # phi-fixed combination; orthogonality to the previously
                # chosen phi-fixed columns is automatic, so no re-projection
                # (which would break phi-fixedness).
                phiu = (B @ u.conj()) / sigma
                t1 = u + phiu
                t2 = 1j * (u - phiu)
                t = t1 if np.linalg.norm(t1) >= np.linalg.norm(t2) else t2
                chosen.append(t / np.linalg.norm(t))
        for v in chosen:
            cols[order] = v
            order += 1
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
    W = np.linalg.eigh(B @ B.conj().T)[1][:, ::-1]
    sv = np.linalg.svd(B, compute_uv=False)
    scale = float(sv[0]) if n else 0.0
    cols: list[np.ndarray] = []
    svals: list[float] = []
    kernel: list[np.ndarray] = []
    for grp in _cluster(sv, _PAIR_TOL * scale):
        sub = W[:, grp]
        if sv[grp[0]] <= _PAIR_TOL * scale:
            chosen: list[np.ndarray] = []
            for i in range(len(grp)):
                v = _pick_independent(sub, chosen)
                chosen.append(v)
            kernel.extend(chosen)
            continue
        chosen = []
        while len(chosen) < len(grp):
            sigma = sv[grp[len(chosen)]]  # the k-th pair picked takes the k-th value pair
            u = _pick_independent(sub, chosen)
            u = _orthonormalize_against(u, chosen)
            u /= np.linalg.norm(u)
            v = (B @ u.conj()) / sigma  # automatically orthogonal to u, phi(v) = -u
            chosen.extend([u, v])
            cols.extend([v, u])  # column order (phi(u), u) gives +s at (2k-1, 2k)
            svals.append(sigma)
    cols.extend(kernel)
    svals.extend([0.0] * (n // 2 - len(svals)))
    U = np.column_stack(cols) if n else np.zeros((0, 0), dtype=complex)
    return U, np.array(svals)


def quaternionic_eigh(X: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with X J = J conj(X).

    Returns ``(d, U)`` with d descending of length N/2 and U unitary with
    ``U J = J conj(U)`` such that ``X = U @ diag(d, d) @ U†`` in the
    half/half column ordering (column j pairs with column N/2 + j).
    """
    X = np.asarray(X, dtype=complex)
    N = X.shape[0]
    h = N // 2
    w, W = np.linalg.eigh(X)
    w, W = w[::-1], W[:, ::-1]
    scale = float(np.max(np.abs(w))) if N else 0.0
    first: list[np.ndarray] = []
    second: list[np.ndarray] = []
    d: list[float] = []
    for grp in _cluster(w, _PAIR_TOL * scale):
        sub = W[:, grp]
        chosen: list[np.ndarray] = []
        while len(chosen) < len(grp):
            d.append(w[grp[len(chosen)]])  # the k-th pair picked takes the k-th value pair
            u = _pick_independent(sub, chosen)
            u = _orthonormalize_against(u, chosen)
            u /= np.linalg.norm(u)
            v = J @ u.conj()  # Kramers partner, automatically orthogonal
            chosen.extend([u, v])
            first.append(u)
            second.append(v)
    U = np.column_stack(first + second)
    return np.array(d), U


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
    W = np.linalg.eigh(B.conj().T @ B)[1][:, ::-1]
    sv = np.zeros(cols)
    sv[: min(rows, cols)] = np.linalg.svd(B, compute_uv=False)
    scale = float(sv[0]) if cols else 0.0
    v_first: list[np.ndarray] = []
    v_second: list[np.ndarray] = []
    u_first: list[np.ndarray] = []
    u_second: list[np.ndarray] = []
    svals: list[float] = []
    for grp in _cluster(sv, _PAIR_TOL * scale):
        sub = W[:, grp]
        chosen: list[np.ndarray] = []
        while len(chosen) < len(grp):
            sigma = sv[grp[len(chosen)]]  # the k-th pair picked takes the k-th value pair
            v = _pick_independent(sub, chosen)
            v = _orthonormalize_against(v, chosen)
            v /= np.linalg.norm(v)
            v2 = sgn * (J_right @ v.conj())
            chosen.extend([v, v2])
            v_first.append(v)
            v_second.append(v2)
            svals.append(sigma)
            if sigma > _PAIR_TOL * scale:
                u = (B @ v) / sigma
                u_first.append(u)
                u_second.append((B @ v2) / sigma)
            else:
                u_first.append(None)
                u_second.append(None)
    # Left columns for zero singular values keep the paired-slot sign
    # convention (same as B-derived partners); extra row dimensions take
    # J_left's own pairing.
    needed = [i for i, u in enumerate(u_first) if u is None]
    present = [u for u in u_first + u_second if u is not None]
    chosen = list(present)
    eye = np.eye(rows, dtype=complex)
    for i in needed:
        u = _pick_independent(eye, chosen)
        u = _orthonormalize_against(u, chosen)
        u /= np.linalg.norm(u)
        u2 = sgn * (J_left @ u.conj())
        chosen.extend([u, u2])
        u_first[i], u_second[i] = u, u2
    tail: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(hr - hc):
        u = _pick_independent(eye, chosen)
        u = _orthonormalize_against(u, chosen)
        u /= np.linalg.norm(u)
        u2 = J_left @ u.conj()
        chosen.extend([u, u2])
        tail.append((u, u2))
    u_cols = u_first + [t[0] for t in tail] + u_second + [t[1] for t in tail]
    U = np.column_stack(u_cols)
    V = np.column_stack(v_first + v_second)
    return U, np.array(svals), V
