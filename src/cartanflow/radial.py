"""Radial (KAK) decomposition and exact-slice canonicalization.

Every Hermitian member X of p is conjugate under the compact group K to a
unique point H(q) with q in the closed positive Weyl chamber of the
radial subspace; ``radial_decompose`` computes (q, k) with
``k H(q) k† = X`` and k inside K.  For the two classes whose centralizer
group M = Z_K(a) acts nontrivially with a worked-out canonical pattern
(aiii and bdi), ``exact_slice_reduce`` removes the residual M freedom
from the transverse coordinate r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import factorizations as fac
from .linalg import ContractViolation, _check_real, _finite_array, _numeric_array, as_cmat
from .linalg import _frobenius_norms, frobenius
from .spaces import (
    SpaceDescriptor,
    _quaternionic_j,
    _real_flat,
    _spectral_block,
    check_p_membership,
    geometry,
    wall_distance,
)

__all__ = [
    "WALL_TOL",
    "SliceCoords",
    "ExactSliceElement",
    "SliceCheck",
    "chamber_contains",
    "embed_radial",
    "radial_decompose",
    "radial_coords",
    "exact_slice_reduce",
    "slice_contains",
]

# Chamber points closer than this to a wall count as degenerate for the
# exact-slice reduction; orbit structure jumps on the walls.
WALL_TOL = 1e-8


@dataclass(frozen=True)
class SliceCoords:
    """Slice coordinates (q, p, r): radial position, radial momentum and
    transverse momentum r in a-perp (as a matrix)."""

    q: np.ndarray
    p: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class ExactSliceElement:
    """Canonicalized slice coordinates plus the degenerate positions.

    ``degenerate`` lists the flag columns whose pivot came out at zero
    (non-generic input: the canonical pattern still holds but with c_i = 0).
    """

    coords: SliceCoords
    degenerate: tuple[int, ...] = ()


@dataclass(frozen=True)
class SliceCheck:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# chamber


def chamber_contains(d: SpaceDescriptor, q, tol: float = 1e-12) -> bool:
    """Whether q lies in the closed positive Weyl chamber of the class:
    alpha(q) >= -tol for every positive root.  False for a q of the wrong
    length or with non-finite entries; ContractViolation for one that is
    not a real numeric array, or unless ``tol`` is a finite real number >= 0."""
    tol = _check_real("tol", tol, 0.0)
    q = _numeric_array("radial vector", q, float)
    if q.shape != (d.real_rank,) or not all(map(math.isfinite, q.tolist())):
        return False
    with np.errstate(over="ignore"):  # a root value beyond the doubles is inf
        return bool((geometry(d).root_table[0] @ q >= -tol).all())


def embed_radial(d: SpaceDescriptor, q) -> np.ndarray:
    """The radial element H(q) of a with pattern coordinates q."""
    return geometry(d).embed_radial(q)


# ---------------------------------------------------------------------------
# per-class radial decomposition


def _assemble_k(d: SpaceDescriptor, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    N = d.ambient_dim
    k = np.zeros((N, N), dtype=complex)
    t = k1.shape[0]
    k[:t, :t] = k1
    k[t:, t:] = k2
    return k


def radial_decompose(d: SpaceDescriptor, X) -> tuple[np.ndarray, np.ndarray]:
    """Chamber coordinates and compact factor of a p element.

    Returns ``(q, k)`` with q in the closed chamber and k in K such that
    ``k @ H(q) @ k† = X``.
    """
    X = as_cmat(X, "X")
    check_p_membership(d, X)
    kind, m, n = d.kind, d.m, d.n

    if kind == "aiii":
        B = _spectral_block(d, X)
        U, s, Vh = np.linalg.svd(B, full_matrices=True)
        k1 = U[:, ::-1]
        k2 = Vh.conj().T
        det = np.linalg.det(k1) * np.linalg.det(k2)
        if m > n:
            k1[:, 0] /= det
        else:
            phase = np.exp(-0.5j * np.angle(det))
            k1[:, m - 1] *= phase
            k2[:, 0] *= phase
        return s.copy(), _assemble_k(d, k1, k2)

    if kind == "bdi":
        B = _spectral_block(d, X).real
        U, s, Vh = np.linalg.svd(B, full_matrices=True)
        q = s.copy()
        k1 = U[:, ::-1]
        k2 = Vh.T
        if np.linalg.det(k1) < 0:
            if m > n:
                k1[:, 0] = -k1[:, 0]
            else:
                k1[:, m - 1] = -k1[:, m - 1]
                k2[:, 0] = -k2[:, 0]
        if np.linalg.det(k2) < 0:
            if m > n:
                # flip a singular pair jointly, then restore det(k1) with a
                # spare column that multiplies a zero row of the pattern
                k1[:, m - 1] = -k1[:, m - 1]
                k2[:, 0] = -k2[:, 0]
                k1[:, 0] = -k1[:, 0]
            else:
                # so(n,n): only even sign flips exist; the last radial
                # coordinate absorbs the sign
                k2[:, n - 1] = -k2[:, n - 1]
                q[n - 1] = -q[n - 1]
        return q, _assemble_k(d, (k1 + 0j), (k2 + 0j))

    if kind == "cii":
        B = _spectral_block(d, X)
        Jf = _quaternionic_j(d)
        JL, JR = Jf[: 2 * m, : 2 * m].real, Jf[2 * m :, 2 * m :].real
        U, s, V = fac.quaternionic_svd(B, JL, JR)
        # the rows of H(q)'s block: spare first halves, the pairs' second
        # and then first halves in reverse, spare second halves
        order = np.concatenate([
            np.arange(n, m), np.arange(m + n - 1, m - 1, -1),
            np.arange(n - 1, -1, -1), np.arange(m + n, 2 * m),
        ])
        return s.copy(), _assemble_k(d, U[:, order], V)

    if kind in ("ai", "a2"):
        w, U = np.linalg.eigh(X)
        w, U = w[::-1], U[:, ::-1].copy()
        q = w[: d.real_rank].copy()
        det = np.linalg.det(U)
        if kind == "ai":
            U = U.real + 0j
            if np.linalg.det(U.real) < 0:
                U[:, -1] = -U[:, -1]
        else:
            U[:, -1] /= det
        return q, U

    if kind == "aii":
        dvals, U = fac.quaternionic_eigh(X, _quaternionic_j(d))
        return dvals[: d.real_rank].copy(), U

    if kind == "diii":
        B = _spectral_block(d, X)
        U, s = fac.antisym_canonical(B)
        return s.copy(), _assemble_k(d, U, U.conj())

    if kind == "ci":
        B = _spectral_block(d, X)
        U, s = fac.takagi(B)
        return s.copy(), _assemble_k(d, U, U.conj())

    raise ContractViolation(f"unknown kind {kind!r}")


def radial_coords(d: SpaceDescriptor, X) -> np.ndarray:
    """Chamber coordinates only: the membership check, then the spectral
    step of ``radial_coords_batch`` without building the compact factor."""
    X = as_cmat(X, "X")
    check_p_membership(d, X)
    return radial_coords_batch(d, X[None])[0]


def radial_coords_batch(d: SpaceDescriptor, Xs: np.ndarray) -> np.ndarray:
    """Vectorized chamber coordinates for a stack of p elements.

    ``Xs`` holds either N x N p elements or their spectral blocks, the
    region ``_spectral_block`` cuts out and the only one read here; the
    trailing shape tells the two apart (for ai, a2 and aii the block is the
    whole matrix); blocks of bdi and ai may come real.  No membership
    checks; intended for the Monte Carlo sampler, which builds the blocks
    from the p basis by design.

    Each case takes the cheapest exact kernel.  At rank 1, H(q) = q H_1 and
    K acts on the block by unitaries, so q = |B|_F / |block(H_1)|_F, with
    no LAPACK call.  The real classes bdi and ai read the real part of the
    block (their imaginary part is zero): a real norm, SVD or eigvalsh.
    """
    kind, n, N = d.kind, d.n, d.ambient_dim
    B = _spectral_block(d, Xs) if Xs.shape[-2:] == (N, N) else Xs
    if kind in ("bdi", "ai"):
        B = B.real
    if d.real_rank == 1:
        c = frobenius(_spectral_block(d, geometry(d).a_embed[0]))
        if not (d.has_sign_flip_weyl or d.trace_constrained):
            # bdi(1,1): no Weyl element flips the sign, so q keeps it (+ 0.0
            # turns a -0.0 entry into 0.0, the value sign(B) |B| gives)
            return B.reshape(len(B), 1) / c + 0.0
        return _frobenius_norms(B)[:, None] / c
    if kind in ("aiii", "bdi"):
        s = np.linalg.svd(B, compute_uv=False)
        if not d.has_sign_flip_weyl:
            # so(n,n): only even sign flips are available, so the last
            # coordinate carries sign(det B) (times the parity of the
            # antidiagonal pattern permutation); slogdet's sign, as det
            # overflows or underflows to 0 at extreme scales
            parity = (-1.0) ** (n * (n - 1) // 2)
            s[:, -1] *= parity * np.linalg.slogdet(B)[0]
        return s
    if kind == "cii":
        return np.linalg.svd(B, compute_uv=False)[:, 0::2]
    if kind in ("ai", "a2"):
        w = np.linalg.eigvalsh(B)[:, ::-1]
        return w[:, : d.real_rank]
    if kind == "aii":
        w = np.linalg.eigvalsh(B)[:, ::-1]
        d2 = 0.5 * (w[:, 0::2] + w[:, 1::2])
        return d2[:, : d.real_rank]
    if kind == "diii":
        s = np.linalg.svd(B, compute_uv=False)
        return s[:, 0::2][:, : d.real_rank]
    if kind == "ci":
        return np.linalg.svd(B, compute_uv=False)
    raise ContractViolation(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# exact slice (aiii and bdi)

_EXACT_SLICE_KINDS = ("aiii", "bdi")
_PATTERN_TOL = 1e-10


def _check_slice_coords(d: SpaceDescriptor, s: SliceCoords) -> np.ndarray:
    geo = geometry(d)
    wrong = "q and p must have length equal to the real rank"
    for name, v in (("q", s.q), ("p", s.p)):
        _finite_array(name, v, (d.real_rank,), float, wrong)
    r = np.asarray(s.r, dtype=complex)
    check_p_membership(d, r)
    # Re<A, r> for every member A of the a basis, in one product
    along_a = _real_flat(geo._a_stack) @ _real_flat(r)
    if np.max(np.abs(along_a)) > 1e-10 * max(frobenius(r), 1.0):
        raise ContractViolation("r has a component along a; it must lie in a-perp")
    return r


def _flag_columns(d: SpaceDescriptor, B: np.ndarray) -> np.ndarray:
    """The short-root block: rows 1..m-n of the off-diagonal block."""
    return B[: d.m - d.n, :]


def _pair_entries(d: SpaceDescriptor, B: np.ndarray, i: int) -> tuple[complex, complex]:
    """S-block entries carrying the (f_i - f_{i+1}, f_i + f_{i+1}) pair
    (0-indexed i).  Rows are counted inside the full block B."""
    m, n = d.m, d.n
    u = B[m - 1 - i, i + 1]  # row paired with phase s_i, column i+1
    v = B[m - 2 - i, i]  # row paired with phase s_{i+1}, column i
    return complex(u), complex(v)


def exact_slice_reduce(d: SpaceDescriptor, s: SliceCoords) -> tuple[ExactSliceElement, np.ndarray]:
    """Canonicalize the transverse coordinate under the centralizer group.

    Returns the canonical slice element and the group element m_elem in
    M = Z_K(a) with ``m_elem r m_elem† = canonical.r``.  Requires q
    strictly inside the chamber (all roots bounded away from zero by the
    wall tolerance); wall points have jumping orbit types and are refused.

    aiii: a unitary flag reduction of the m-n short-root rows makes column
    i have a nonnegative real pivot at row i with zeros below, and the
    centralizer torus makes one designated difference-root component per
    adjacent pair real nonnegative.  bdi: the real flag reduction by
    SO(m-n).  The canonical element has the same q, p and norm of r.
    """
    if d.kind not in _EXACT_SLICE_KINDS:
        raise ContractViolation(
            f"exact-slice canonicalization covers {_EXACT_SLICE_KINDS}, not {d.kind}"
        )
    r = _check_slice_coords(d, s)
    q = np.asarray(s.q, dtype=float)
    if not chamber_contains(d, q, tol=0.0) or wall_distance(d, q) <= WALL_TOL:
        raise ContractViolation(
            "q lies on or near a chamber wall: the centralizer orbit is degenerate"
        )
    m, n, N = d.m, d.n, d.ambient_dim
    B = _spectral_block(d, r).copy()
    scale = max(frobenius(r), 1.0)
    mu = min(n, m - n)
    degenerate: list[int] = []

    if d.kind == "aiii":
        # flag reduction of the short-root columns
        W = np.eye(m - n, dtype=complex)
        if m > n:
            F = _flag_columns(d, B)
            Q, R = np.linalg.qr(F, mode="complete")
            W = Q.conj().T
            for j in range(mu):
                piv = R[j, j]
                if abs(piv) > _PATTERN_TOL * scale:
                    W[j, :] *= np.conj(piv) / abs(piv)
                else:
                    degenerate.append(j)
        # torus phases from the designated adjacent-pair components (rows
        # below the flag block, untouched by W)
        deltas = np.zeros(max(n - 1, 0))
        for i in range(n - 1):
            u, v = _pair_entries(d, B, i)
            z_minus = 0.5 * (u + np.conj(v))
            z_plus = 0.5 * (u - np.conj(v))
            if abs(z_minus) > _PATTERN_TOL * scale:
                deltas[i] = -np.angle(z_minus)
            elif abs(z_plus) > _PATTERN_TOL * scale:
                deltas[i] = -np.angle(z_plus)
        sph = np.zeros(n)
        for i in range(n - 1):
            sph[i + 1] = sph[i] - deltas[i]
        # assemble m_elem = diag(Phi W, tail, D)
        phi = np.zeros(m - n)
        phi[:mu] = sph[:mu]
        A_block = np.zeros((m, m), dtype=complex)
        if m > n:
            A_block[: m - n, : m - n] = np.diag(np.exp(1j * phi)) @ W
        tail = np.exp(1j * sph[::-1])  # row m-1-j carries phase s_j
        A_block[m - n :, m - n :] = np.diag(tail)
        D_block = np.diag(np.exp(1j * sph))
        m_elem = _assemble_k(d, A_block, D_block)
        # determinant correction by a scalar: acts trivially on r
        m_elem = m_elem * np.exp(-1j * np.angle(np.linalg.det(m_elem)) / N)
    else:  # bdi
        W = np.eye(m - n)
        if m - n >= 2:
            F = _flag_columns(d, B).real
            Q, R = np.linalg.qr(F, mode="complete")
            W = Q.T
            for j in range(mu):
                piv = R[j, j]
                if abs(piv) > _PATTERN_TOL * scale:
                    if piv < 0:
                        W[j, :] = -W[j, :]
                else:
                    degenerate.append(j)
            if np.linalg.det(W) < 0:
                if m - n > mu:
                    W[mu, :] = -W[mu, :]
                else:
                    # no spare row: the last pivot keeps a free sign
                    W[mu - 1, :] = -W[mu - 1, :]
        A_block = np.eye(m, dtype=complex)
        A_block[: m - n, : m - n] = W
        m_elem = _assemble_k(d, A_block, np.eye(n, dtype=complex))

    r_canon = m_elem @ r @ m_elem.conj().T
    coords = SliceCoords(q=q.copy(), p=np.asarray(s.p, dtype=float).copy(), r=r_canon)
    return ExactSliceElement(coords, tuple(degenerate)), m_elem


def exact_slice_constraint_count(d: SpaceDescriptor) -> int:
    """Real codimension of the canonical pattern (constraints imposed).

    aiii: the flag reduction pins 1 + 2(m-n-j) real dimensions for each
    pivot column j <= min(n, m-n), and the torus pins one phase per
    adjacent root pair (n-1 of them).  bdi: the real flag reduction by
    SO(m-n) pins the m-n-j entries below the pivot of each column
    j <= min(n, m-n).  Pivot signs are inequalities, and the determinant
    obstruction on the last sign when there is no spare row is a discrete
    condition; neither counts toward the codimension.
    """
    m, n = d.m, d.n
    mu = min(n, m - n)
    if d.kind == "aiii":
        flag = sum(1 + 2 * (m - n - j) for j in range(1, mu + 1))
        return flag + (n - 1)
    if d.kind == "bdi":
        return sum(m - n - j for j in range(1, mu + 1))
    raise ContractViolation(f"no exact-slice pattern for {d.kind}")


def slice_contains(d: SpaceDescriptor, s: SliceCoords, tol: float = _PATTERN_TOL) -> SliceCheck:
    """Whether the coordinates satisfy the canonical slice pattern.

    For aiii/bdi this checks the flag and torus constraints produced by
    ``exact_slice_reduce``; for every other class the centralizer pattern
    is not part of the canonicalization scope and membership of r in
    a-perp is the whole condition.  The first violated position is named.
    ContractViolation unless ``tol`` is a finite real number >= 0.
    """
    tol = _check_real("tol", tol, 0.0)
    try:
        r = _check_slice_coords(d, s)
    except ContractViolation as exc:
        return SliceCheck(False, str(exc))
    if d.kind not in _EXACT_SLICE_KINDS:
        return SliceCheck(True)
    m, n = d.m, d.n
    B = _spectral_block(d, r)
    scale = max(frobenius(r), 1.0)
    mu = min(n, m - n)
    if d.kind == "bdi" and frobenius(r.imag) > tol * scale:
        return SliceCheck(False, "bdi slice entries must be real")
    for j in range(mu):
        piv = B[j, j]
        if abs(piv.imag) > tol * scale:
            return SliceCheck(False, f"flag pivot at row {j}, column {j} is not real")
        below = B[j + 1 : m - n, j]
        if below.size and np.max(np.abs(below)) > tol * scale:
            return SliceCheck(False, f"flag column {j} has nonzero entries below its pivot")
        sign_fixed = d.kind == "aiii" or (m - n > n) or j < mu - 1
        if sign_fixed and piv.real < -tol * scale:
            return SliceCheck(False, f"flag pivot at column {j} is negative")
    if d.kind == "aiii":
        for i in range(n - 1):
            u, v = _pair_entries(d, B, i)
            z_minus = 0.5 * (u + np.conj(v))
            z_plus = 0.5 * (u - np.conj(v))
            target, which = (
                (z_minus, "difference") if abs(z_minus) > tol * scale else (z_plus, "sum")
            )
            if abs(target) > tol * scale and (
                abs(target.imag) > tol * scale or target.real < -tol * scale
            ):
                return SliceCheck(
                    False,
                    f"designated {which}-root component of adjacent pair {i} "
                    "is not real nonnegative",
                )
    return SliceCheck(True)
