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
    MEMBERSHIP_RTOL,
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

# Chamber points closer than this, relative to max_i |q_i|, to a wall count
# as degenerate for the exact-slice reduction, the bracket map and the
# reduced flow; orbit structure jumps on the walls.  The scale max_i |q_i|
# stays finite wherever q is, unlike max |alpha(q)| or |q|_G, and takes a
# power of two exactly, so q -> 2^j q keeps every verdict.
WALL_TOL = 1e-8


def _near_wall(d: SpaceDescriptor, q: np.ndarray) -> bool:
    """min |alpha(q)| <= WALL_TOL max_i |q_i| for a finite radial vector q:
    true on every wall, the zero vector included."""
    return bool(wall_distance(d, q) <= WALL_TOL * np.abs(q).max())


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
    alpha(q) >= -tol for every positive root.  ``tol`` is absolute, the one
    tolerance not relative to its input: a verdict within tol of a wall can
    change under q -> 2^j q.  False for a q of the wrong length or with
    non-finite entries; ContractViolation for one that is not a real
    numeric array, or unless ``tol`` is a finite real number >= 0."""
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

    if kind in ("aiii", "bdi"):
        B = _spectral_block(d, X)
        U, s, Vh = np.linalg.svd(B.real if kind == "bdi" else B, full_matrices=True)
        q, k1, k2 = s, U[:, ::-1], Vh.conj().T
        if kind == "aiii":
            det = np.linalg.det(k1) * np.linalg.det(k2)
            if m > n:
                k1[:, 0] /= det
            else:
                phase = np.exp(-0.5j * np.angle(det))
                k1[:, m - 1] *= phase
                k2[:, 0] *= phase
            return q, _assemble_k(d, k1, k2)
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
        return q, _assemble_k(d, k1 + 0j, k2 + 0j)

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

    if kind in ("diii", "ci"):
        canonical = fac.antisym_canonical if kind == "diii" else fac.takagi
        U, s = canonical(_spectral_block(d, X))
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
    if np.max(np.abs(along_a)) > MEMBERSHIP_RTOL * frobenius(r):
        raise ContractViolation("r has a component along a; it must lie in a-perp")
    return r


def _pair_components(d: SpaceDescriptor, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The difference- and sum-root components (z-, z+) of every adjacent
    pair (f_i - f_{i+1}, f_i + f_{i+1}), i = 0..n-2, read from the entries
    u = B[m-1-i, i+1] and v = B[m-2-i, i] of the full block B."""
    m, i = d.m, np.arange(d.n - 1)
    u, v = B[m - 1 - i, i + 1], B[m - 2 - i, i]
    return 0.5 * (u + np.conj(v)), 0.5 * (u - np.conj(v))


def exact_slice_reduce(d: SpaceDescriptor, s: SliceCoords) -> tuple[ExactSliceElement, np.ndarray]:
    """Canonicalize the transverse coordinate under the centralizer group.

    Returns the canonical slice element and the group element m_elem in
    M = Z_K(a) with ``m_elem r m_elem† = canonical.r``.  Requires q
    strictly inside the chamber (all roots bounded away from zero by the
    wall tolerance); wall points have jumping orbit types and are refused.

    One flag reduction serves both classes: the QR of the m-n short-root
    rows of the block (their real part for bdi) gives column j a pivot at
    row j with zeros below, and each pivot is made real nonnegative by a
    phase (aiii, U(m-n)) or a sign (bdi, SO(m-n)).  bdi needs two rows, as
    SO(1) is trivial, and keeps det = 1 by flipping the first spare row,
    or the last pivot row when there is none.  aiii then spends the
    centralizer torus on making one designated component per adjacent
    root pair real nonnegative.  The canonical element has the same q, p
    and norm of r.
    """
    if d.kind not in _EXACT_SLICE_KINDS:
        raise ContractViolation(
            f"exact-slice canonicalization covers {_EXACT_SLICE_KINDS}, not {d.kind}"
        )
    r = _check_slice_coords(d, s)
    q = np.asarray(s.q, dtype=float)
    if not chamber_contains(d, q, tol=0.0) or _near_wall(d, q):
        raise ContractViolation(
            "q lies on or near a chamber wall: the centralizer orbit is degenerate"
        )
    m, n, N = d.m, d.n, d.ambient_dim
    real = d.kind == "bdi"
    B = _spectral_block(d, r)
    tol = _PATTERN_TOL * frobenius(r)
    mu = min(n, m - n)
    W = np.eye(m - n, dtype=float if real else complex)
    degenerate: tuple[int, ...] = ()
    if m - n > real:  # bdi needs two rows: SO(1) is trivial
        Q, R = np.linalg.qr(B[: m - n].real if real else B[: m - n], mode="complete")
        W = Q.conj().T
        piv = R.diagonal()
        ok = np.abs(piv) > tol
        W[np.flatnonzero(ok)] *= (np.conj(piv[ok]) / np.abs(piv[ok]))[:, None]
        degenerate = tuple(np.flatnonzero(~ok).tolist())
        if real and np.linalg.det(W) < 0:
            # flip the first spare row, else the last pivot's free sign
            j = mu if m - n > mu else mu - 1
            W[j] = -W[j]

    if real:
        m_elem = np.eye(N, dtype=complex)
        m_elem[: m - n, : m - n] = W
    else:
        # torus phases from the designated adjacent-pair components (rows
        # below the flag block, untouched by W); 0.0 - cumsum keeps a zero
        # phase +0.0
        z_minus, z_plus = _pair_components(d, B)
        z = np.where(np.abs(z_minus) > tol, z_minus, z_plus)
        deltas = np.where(np.abs(z) > tol, -np.angle(z), 0.0)
        sph = np.concatenate(([0.0], 0.0 - np.cumsum(deltas)))
        # assemble m_elem = diag(Phi W, tail, D); row m-1-j of the tail
        # carries phase s_j.  Phi W stays a matrix product, whose rounding
        # a row scaling does not reproduce
        phi = np.pad(sph[:mu], (0, m - n - mu))
        A_block = np.zeros((m, m), dtype=complex)
        A_block[: m - n, : m - n] = np.diag(np.exp(1j * phi)) @ W
        A_block[m - n :, m - n :] = np.diag(np.exp(1j * sph[::-1]))
        m_elem = _assemble_k(d, A_block, np.diag(np.exp(1j * sph)))
        # determinant correction by a scalar: acts trivially on r
        m_elem = m_elem * np.exp(-1j * np.angle(np.linalg.det(m_elem)) / N)

    r_canon = m_elem @ r @ m_elem.conj().T
    coords = SliceCoords(q=q.copy(), p=np.asarray(s.p, dtype=float).copy(), r=r_canon)
    return ExactSliceElement(coords, degenerate), m_elem


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
    tol *= frobenius(r)
    mu = min(n, m - n)
    if d.kind == "bdi" and frobenius(r.imag) > tol:
        return SliceCheck(False, "bdi slice entries must be real")
    for j in range(mu):
        piv = B[j, j]
        if abs(piv.imag) > tol:
            return SliceCheck(False, f"flag pivot at row {j}, column {j} is not real")
        below = B[j + 1 : m - n, j]
        if below.size and np.max(np.abs(below)) > tol:
            return SliceCheck(False, f"flag column {j} has nonzero entries below its pivot")
        sign_fixed = d.kind == "aiii" or (m - n > n) or j < mu - 1
        if sign_fixed and piv.real < -tol:
            return SliceCheck(False, f"flag pivot at column {j} is negative")
    if d.kind == "aiii":
        z_minus, z_plus = _pair_components(d, B)
        difference = np.abs(z_minus) > tol
        z = np.where(difference, z_minus, z_plus)
        bad = (np.abs(z) > tol) & ((np.abs(z.imag) > tol) | (z.real < -tol))
        if bad.any():
            i = int(np.argmax(bad))
            which = "difference" if difference[i] else "sum"
            return SliceCheck(
                False,
                f"designated {which}-root component of adjacent pair {i} "
                "is not real nonnegative",
            )
    return SliceCheck(True)
