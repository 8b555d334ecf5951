"""Registry of the eight noncompact matrix symmetric-space classes.

Each class is realized inside the N x N complex matrices so that the
Cartan involution is X -> -X†: the compact part k0 consists of the
anti-Hermitian members and p0 of the Hermitian ones.  A descriptor knows
its defining relations (pseudo-unitarity, reality, quaternionic or
(skew-)orthogonal structure, tracelessness), a distinguished maximal
Abelian subspace of p0 with explicit "radial" generators, and the table
of positive restricted roots with their real multiplicities.

The heavy lifting (orthonormal bases of k, p, a, the centralizer algebra
of a inside k, and root-adapted bases of its orthocomplement and of a-perp,
in which the bracket map r -> [r, H(q)] is the diagonal of root values) is
computed numerically once per descriptor and cached.

Supported kinds::

    aiii  su(m,n)            N = m+n        rank n
    bdi   so(m,n)            N = m+n        rank n
    cii   sp(m,n) quaternionic, complex embedding   N = 2m+2n, rank n
    ai    sl(n,R)            N = n          rank n-1
    aii   sl(n,H) = su*(2n)  N = 2n         rank n-1
    diii  so*(2n)            N = 2n         rank floor(n/2)
    ci    sp(n,R)            N = 2n         rank n
    a2    sl(n,C)/su(n)      N = n          rank n-1
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ConsistencyError, ContractViolation, as_cmat, frobenius

__all__ = [
    "KINDS",
    "TWO_PARAM_KINDS",
    "SpaceDescriptor",
    "RestrictedRoot",
    "make_space",
    "geometry",
    "check_membership",
    "project_k",
    "project_p",
    "basis_of",
    "restricted_roots",
    "numeric_roots",
    "root_values",
    "wall_distance",
    "random_p_element",
    "random_k_element",
]

KINDS = ("aiii", "bdi", "cii", "ai", "aii", "diii", "ci", "a2")
TWO_PARAM_KINDS = ("aiii", "bdi", "cii")

MEMBERSHIP_RTOL = 1e-10
_GS_TOL = 1e-10
# seed of the generic radial point that separates the restricted-root spaces
_ROOT_SEED = 20260809
_BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class SpaceDescriptor:
    """One symmetric-space class with its integer parameters."""

    kind: str
    m: int
    n: int

    @property
    def ambient_dim(self) -> int:
        k, m, n = self.kind, self.m, self.n
        if k in ("aiii", "bdi"):
            return m + n
        if k == "cii":
            return 2 * (m + n)
        if k in ("ai", "a2"):
            return n
        return 2 * n  # aii, diii, ci

    @property
    def real_rank(self) -> int:
        k, n = self.kind, self.n
        if k in ("aiii", "bdi", "cii"):
            return n
        if k in ("ai", "a2", "aii"):
            return n - 1
        if k == "diii":
            return n // 2
        return n  # ci

    @property
    def dim_p(self) -> int:
        k, m, n = self.kind, self.m, self.n
        return {
            "aiii": 2 * m * n,
            "bdi": m * n,
            "cii": 4 * m * n,
            "ai": n * (n + 1) // 2 - 1,
            "a2": n * n - 1,
            "aii": 2 * n * n - n - 1,
            "diii": n * (n - 1),
            "ci": n * (n + 1),
        }[k]

    @property
    def dim_k(self) -> int:
        k, m, n = self.kind, self.m, self.n
        return {
            "aiii": m * m + n * n - 1,
            "bdi": (m * (m - 1) + n * (n - 1)) // 2,
            "cii": m * (2 * m + 1) + n * (2 * n + 1),
            "ai": n * (n - 1) // 2,
            "a2": n * n - 1,
            "aii": n * (2 * n + 1),
            "diii": n * n,
            "ci": n * n,
        }[k]

    @property
    def has_sign_flip_weyl(self) -> bool:
        """Whether the restricted Weyl group contains all sign changes.

        For so(n,n) only products of an even number of flips occur, so the
        last radial coordinate keeps a free sign there.
        """
        if self.kind == "bdi" and self.m == self.n:
            return False
        return self.kind in ("aiii", "bdi", "cii", "diii", "ci")

    @property
    def trace_constrained(self) -> bool:
        """Radial coordinates carry an implied last eigenvalue -sum(q)."""
        return self.kind in ("ai", "a2", "aii")

    def label(self) -> str:
        if self.kind in TWO_PARAM_KINDS:
            return f"{self.kind}({self.m},{self.n})"
        return f"{self.kind}({self.n})"


@dataclass(frozen=True)
class RestrictedRoot:
    """Positive restricted root as an integer functional on radial coordinates.

    ``value(q) = coeffs . q``; ``multiplicity`` is the real dimension the
    root space contributes to a-perp.
    """

    coeffs: tuple[int, ...]
    multiplicity: int

    def value(self, q: np.ndarray) -> float:
        return float(np.dot(self.coeffs, q))


def make_space(kind: str, m: int = 0, n: int = 1) -> SpaceDescriptor:
    """Validate parameters and build a descriptor."""
    if kind not in KINDS:
        raise ContractViolation(f"unknown symmetric-space kind {kind!r}; choose from {KINDS}")
    m, n = int(m), int(n)
    if kind in TWO_PARAM_KINDS:
        if not (m >= n >= 1):
            raise ContractViolation(f"{kind} requires m >= n >= 1, got (m,n)=({m},{n})")
    else:
        if m != 0:
            raise ContractViolation(f"{kind} takes a single parameter n; m must be 0, got {m}")
        minimum = {"ai": 2, "a2": 2, "aii": 2, "diii": 2, "ci": 1}[kind]
        if n < minimum:
            raise ContractViolation(f"{kind} requires n >= {minimum} (positive real rank)")
    return SpaceDescriptor(kind, m, n)


# ---------------------------------------------------------------------------
# structure matrices


def _gamma(d: SpaceDescriptor) -> np.ndarray:
    """Signature matrix diag(I, -I) for the pseudo-unitary classes."""
    N = d.ambient_dim
    if d.kind in ("aiii", "bdi"):
        top = d.m
    elif d.kind == "cii":
        top = 2 * d.m
    else:  # diii, ci embedded in u(n, n)
        top = d.n
    g = np.ones(N)
    g[top:] = -1.0
    return np.diag(g).astype(complex)


def _plain_j(h: int) -> np.ndarray:
    """Standard complex structure [[0, -I], [I, 0]] of size 2h."""
    J = np.zeros((2 * h, 2 * h))
    J[:h, h:] = -np.eye(h)
    J[h:, :h] = np.eye(h)
    return J.astype(complex)


def _cii_j(d: SpaceDescriptor) -> np.ndarray:
    """Quaternionic structure for sp(m,n) in the radial-friendly ordering.

    Inside the U(2m) factor the pairing matches the centralizer torus:
    rows 1..m-n pair with rows m+n+1..2m and rows m-n+j pair with m+j.
    The U(2n) factor uses the plain pairing j <-> n+j.
    """
    m, n = d.m, d.n
    Jm = np.zeros((2 * m, 2 * m))
    for k in range(m - n):
        Jm[m + n + k, k] = 1.0
        Jm[k, m + n + k] = -1.0
    for j in range(n):
        Jm[m + j, m - n + j] = 1.0
        Jm[m - n + j, m + j] = -1.0
    # Opposite sign on the right factor: the radial pattern requires the two
    # block pairings to multiply to -1.
    Jn = -_plain_j(n).real
    J = np.zeros((2 * (m + n), 2 * (m + n)))
    J[: 2 * m, : 2 * m] = Jm
    J[2 * m :, 2 * m :] = Jn
    return J.astype(complex)


def _quaternionic_j(d: SpaceDescriptor) -> np.ndarray:
    if d.kind == "cii":
        return _cii_j(d)
    return _plain_j(d.n)  # aii


def _sym_form(d: SpaceDescriptor) -> np.ndarray:
    """Bilinear form fixed by the group: symmetric for so*, skew for sp(n,R)."""
    n = d.n
    S = np.zeros((2 * n, 2 * n))
    S[:n, n:] = np.eye(n)
    S[n:, :n] = np.eye(n) if d.kind == "diii" else -np.eye(n)
    return S.astype(complex)


# ---------------------------------------------------------------------------
# membership


def check_membership(d: SpaceDescriptor, X, rtol: float = MEMBERSHIP_RTOL) -> None:
    """Raise unless X lies in the ambient real Lie algebra g0 of the class.

    The error names the first violated defining relation.
    """
    X = as_cmat(X)
    N = d.ambient_dim
    if X.shape != (N, N):
        raise ContractViolation(f"{d.label()} lives in {N}x{N} matrices, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ContractViolation("matrix has non-finite entries")
    scale = max(frobenius(X), 1.0)
    for name, residual in _relations(d, X):
        if residual > rtol * scale:
            raise ContractViolation(
                f"matrix violates the {name} relation of {d.label()} "
                f"(residual {residual:.3e} at tolerance {rtol:.1e})"
            )


def _relations(d: SpaceDescriptor, X: np.ndarray):
    k = d.kind
    if k in ("aiii", "bdi", "cii", "diii", "ci"):
        G = _gamma(d)
        yield "pseudo-unitarity (X†Γ + ΓX = 0)", frobenius(X.conj().T @ G + G @ X)
    if k in ("bdi", "ai"):
        yield "reality", frobenius(X.imag)
    if k in ("aii", "cii"):
        J = _quaternionic_j(d)
        yield "quaternionic structure (XJ = JX̄)", frobenius(X @ J - J @ X.conj())
    if k == "diii":
        S = _sym_form(d)
        yield "complex-orthogonal structure (XᵀS + SX = 0)", frobenius(X.T @ S + S @ X)
    if k == "ci":
        S = _sym_form(d)
        yield "symplectic structure (XᵀΩ + ΩX = 0)", frobenius(X.T @ S + S @ X)
    if k in ("aiii", "ai", "a2", "aii"):
        yield "tracelessness", abs(np.trace(X))


def check_p_membership(d: SpaceDescriptor, X, rtol: float = MEMBERSHIP_RTOL) -> None:
    X = as_cmat(X)
    check_membership(d, X, rtol)
    scale = max(frobenius(X), 1.0)
    if frobenius(X - X.conj().T) > rtol * scale:
        raise ContractViolation(f"matrix is not Hermitian, hence not in p of {d.label()}")


def check_k_membership(d: SpaceDescriptor, X, rtol: float = MEMBERSHIP_RTOL) -> None:
    X = as_cmat(X)
    check_membership(d, X, rtol)
    scale = max(frobenius(X), 1.0)
    if frobenius(X + X.conj().T) > rtol * scale:
        raise ContractViolation(f"matrix is not anti-Hermitian, hence not in k of {d.label()}")


def check_k_group_membership(d: SpaceDescriptor, k, rtol: float = 1e-9) -> None:
    """Raise unless k lies in the compact group K of the class.

    Checks unitarity plus the structural relations: block-diagonality for
    the pseudo-unitary classes, reality for bdi/ai, the quaternionic
    intertwining for aii/cii, preservation of the bilinear form for
    diii/ci, and the determinant conditions of the special groups.
    """
    k = as_cmat(k)
    N = d.ambient_dim
    if k.shape != (N, N):
        raise ContractViolation(f"K of {d.label()} lives in {N}x{N} matrices")
    scale = max(frobenius(k), 1.0)

    def _req(name: str, resid: float) -> None:
        if resid > rtol * scale:
            raise ContractViolation(
                f"matrix violates the {name} condition of K for {d.label()} "
                f"(residual {resid:.3e})"
            )

    _req("unitarity", frobenius(k.conj().T @ k - np.eye(N)))
    if d.kind in ("aiii", "bdi", "cii", "diii", "ci"):
        G = _gamma(d)
        _req("block-diagonality", frobenius(k @ G - G @ k))
    if d.kind in ("bdi", "ai"):
        _req("reality", frobenius(k.imag))
    if d.kind in ("aii", "cii"):
        J = _quaternionic_j(d)
        _req("quaternionic structure", frobenius(k @ J - J @ k.conj()))
    if d.kind in ("diii", "ci"):
        S = _sym_form(d)
        _req("bilinear-form preservation", frobenius(k.T @ S @ k - S))
    if d.kind in ("aiii", "ai", "a2", "aii", "cii", "diii", "ci"):
        _req("unit determinant", abs(np.linalg.det(k) - 1.0))
    if d.kind == "bdi":
        m = d.m
        _req("unit determinant of the first factor", abs(np.linalg.det(k[:m, :m]) - 1.0))
        _req("unit determinant of the second factor", abs(np.linalg.det(k[m:, m:]) - 1.0))


def project_k(d: SpaceDescriptor, X) -> np.ndarray:
    """Anti-Hermitian (compact) component of a g0 element."""
    X = as_cmat(X)
    check_membership(d, X)
    return (X - X.conj().T) / 2.0


def project_p(d: SpaceDescriptor, X) -> np.ndarray:
    """Hermitian component; computed as X - project_k(X) so the two parts
    reassemble X exactly in floating point."""
    X = as_cmat(X)
    check_membership(d, X)
    return X - (X - X.conj().T) / 2.0


# ---------------------------------------------------------------------------
# radial generators (the distinguished maximal Abelian subspace of p)


def _embed_offdiag(top: int, N: int, B: np.ndarray) -> np.ndarray:
    X = np.zeros((N, N), dtype=complex)
    X[:top, top:] = B
    X[top:, :top] = B.conj().T
    return X


def _a_generators(d: SpaceDescriptor) -> list[np.ndarray]:
    """Matrices H_i with H(q) = sum_i q_i H_i spanning the radial subspace."""
    k, m, n, N = d.kind, d.m, d.n, d.ambient_dim
    rank = d.real_rank
    gens: list[np.ndarray] = []
    if k in ("aiii", "bdi"):
        for j in range(1, n + 1):
            B = np.zeros((m, n), dtype=complex)
            B[m - j, j - 1] = 1.0  # lower-left antidiagonal slot of column j
            gens.append(_embed_offdiag(m, N, B))
    elif k == "cii":
        for j in range(1, n + 1):
            B = np.zeros((2 * m, 2 * n), dtype=complex)
            B[m + n - j, j - 1] = 1.0
            B[m - j, n + j - 1] = 1.0  # paired slot: a_{j+n} = a_j
            gens.append(_embed_offdiag(2 * m, N, B))
    elif k in ("ai", "a2"):
        for j in range(rank):
            v = np.zeros(n)
            v[j], v[-1] = 1.0, -1.0
            gens.append(np.diag(v).astype(complex))
    elif k == "aii":
        for j in range(rank):
            v = np.zeros(n)
            v[j], v[-1] = 1.0, -1.0
            gens.append(np.diag(np.concatenate([v, v])).astype(complex))
    elif k == "diii":
        for j in range(rank):
            B = np.zeros((n, n), dtype=complex)
            B[2 * j, 2 * j + 1] = 1.0
            B[2 * j + 1, 2 * j] = -1.0
            gens.append(_embed_offdiag(n, N, B))
    else:  # ci
        for j in range(n):
            B = np.zeros((n, n), dtype=complex)
            B[j, j] = 1.0
            gens.append(_embed_offdiag(n, N, B))
    return gens


# ---------------------------------------------------------------------------
# restricted root tables


def _trace_class_root_coeffs(n: int) -> list[tuple[int, ...]]:
    """Functionals f_i - f_j on the reduced coordinates of sl-type classes.

    Coordinates are the first n-1 eigenvalues; the last eigenvalue is
    -sum(q), so f_i - f_n picks up +1 on every coordinate.
    """
    rank = n - 1
    out = []
    for i in range(rank):
        for j in range(i + 1, rank):
            c = [0] * rank
            c[i], c[j] = 1, -1
            out.append(tuple(c))
    for i in range(rank):
        c = [1] * rank
        c[i] = 2
        out.append(tuple(c))  # f_i - f_n
    return out


def restricted_roots(d: SpaceDescriptor) -> list[RestrictedRoot]:
    """Positive restricted roots with real multiplicities (table data)."""
    k, m, n, rank = d.kind, d.m, d.n, d.real_rank
    roots: list[RestrictedRoot] = []

    def unit(i: int, v: int = 1) -> tuple[int, ...]:
        c = [0] * rank
        c[i] = v
        return tuple(c)

    def pair(i: int, j: int, sj: int) -> tuple[int, ...]:
        c = [0] * rank
        c[i], c[j] = 1, sj
        return tuple(c)

    if k in ("aiii", "bdi", "cii"):
        mult_pair = {"aiii": 2, "bdi": 1, "cii": 4}[k]
        mult_short = {"aiii": 2 * (m - n), "bdi": m - n, "cii": 4 * (m - n)}[k]
        mult_long = {"aiii": 1, "bdi": 0, "cii": 3}[k]
        for i in range(rank):
            for j in range(i + 1, rank):
                roots.append(RestrictedRoot(pair(i, j, -1), mult_pair))
                roots.append(RestrictedRoot(pair(i, j, +1), mult_pair))
        if mult_short:
            roots.extend(RestrictedRoot(unit(i), mult_short) for i in range(rank))
        if mult_long:
            roots.extend(RestrictedRoot(unit(i, 2), mult_long) for i in range(rank))
    elif k in ("ai", "a2", "aii"):
        mult = {"ai": 1, "a2": 2, "aii": 4}[k]
        roots = [RestrictedRoot(c, mult) for c in _trace_class_root_coeffs(n)]
    elif k == "diii":
        for i in range(rank):
            for j in range(i + 1, rank):
                roots.append(RestrictedRoot(pair(i, j, -1), 4))
                roots.append(RestrictedRoot(pair(i, j, +1), 4))
        roots.extend(RestrictedRoot(unit(i, 2), 1) for i in range(rank))
        if n % 2 == 1:
            roots.extend(RestrictedRoot(unit(i), 4) for i in range(rank))
    else:  # ci
        for i in range(rank):
            for j in range(i + 1, rank):
                roots.append(RestrictedRoot(pair(i, j, -1), 1))
                roots.append(RestrictedRoot(pair(i, j, +1), 1))
        roots.extend(RestrictedRoot(unit(i, 2), 1) for i in range(rank))
    roots.sort(key=lambda r: r.coeffs)
    return roots


def root_values(d: SpaceDescriptor, q: np.ndarray) -> np.ndarray:
    """alpha(q) over the positive roots, in table order."""
    return geometry(d).root_table[0] @ np.asarray(q, dtype=float)


def wall_distance(d: SpaceDescriptor, q: np.ndarray) -> float:
    """min_alpha |alpha(q)|: zero exactly on the chamber walls."""
    vals = root_values(d, q)
    return float(np.min(np.abs(vals))) if vals.size else np.inf


# ---------------------------------------------------------------------------
# numeric basis machinery


def _vec_rows(stack: np.ndarray) -> np.ndarray:
    """One real row per matrix of a stack: dot products of rows are the
    Frobenius real inner products of the matrices."""
    flat = stack.reshape(-1, stack.shape[-1] ** 2)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _ad_rows(stack: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``_vec_rows`` of the commutators [B, H] over a stack of matrices B."""
    return _vec_rows(stack @ H - H @ stack)


def _generic_point(rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(rank) + np.linspace(0.5, 1.5, rank)


def _root_step(stack: np.ndarray, He: np.ndarray, Hg: np.ndarray) -> np.ndarray:
    """Eigenvectors (columns) of ad(He) ad(Hg) on the span of an orthonormal
    stack of k elements.  The maps are self-adjoint and commute, so the
    product is symmetric; at a generic g its eigenspaces are root spaces."""
    A = _ad_rows(stack, He) @ _ad_rows(stack, Hg).T
    _, vecs = np.linalg.eigh((A + A.T) / 2.0)
    return vecs


def _orthonormalize(stack: np.ndarray, tol: float = _GS_TOL) -> np.ndarray:
    """Order-preserving Gram-Schmidt on a stack of matrices under the
    Frobenius real inner product (which equals the trace form on Hermitians
    and its negative on anti-Hermitians).  Each candidate is projected off
    the whole kept stack with one matrix-vector product per pass, in two
    passes ("twice is enough": Giraud, Langou and Rozloznik, 2005); members
    left with norm at most ``tol`` are dependent and dropped."""
    rows = _vec_rows(stack)
    rows = rows[rows.any(axis=1)]  # exact zeros stay zero: drop them up front
    kept = np.empty_like(rows)
    k = 0
    for v in rows:
        for _ in range(2):
            v = v - kept[:k].T @ (kept[:k] @ v)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            kept[k] = v / nrm
            k += 1
    half, side = rows.shape[1] // 2, stack.shape[-1]
    return (kept[:k, :half] + 1j * kept[:k, half:]).reshape(k, side, side)


def _hermitian_units(N: int) -> np.ndarray:
    """Stack of the trace-form-orthonormal Hermitian units: E_ii, then
    (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2, over i <= j row by row."""
    i, j = np.triu_indices(N)
    off = i != j
    width = 1 + off  # an off-diagonal pair gives two units
    first = np.cumsum(width) - width
    units = np.zeros((N * N, N, N), dtype=complex)
    units[first[~off], i[~off], i[~off]] = 1.0
    s, a, b = first[off], i[off], j[off]
    units[s, a, b] = units[s, b, a] = 1.0 / np.sqrt(2)
    units[s + 1, a, b], units[s + 1, b, a] = 1j / np.sqrt(2), -1j / np.sqrt(2)
    return units


def _project(d: SpaceDescriptor, X: np.ndarray, onto_p: bool) -> np.ndarray:
    """Project a stack of Hermitian (resp. anti-Hermitian) matrices onto p
    (resp. k) of the class by averaging over each defining relation."""
    k, N = d.kind, d.ambient_dim
    if k in ("aiii", "bdi", "cii", "diii", "ci"):
        G = _gamma(d)
        X = (X + (-1.0 if onto_p else 1.0) * (G @ X @ G)) / 2.0
    if k in ("bdi", "ai"):
        X = (X + X.conj()) / 2.0
    if k in ("aii", "cii"):
        J = _quaternionic_j(d)
        X = (X + J @ X.conj() @ -J) / 2.0
    if k in ("diii", "ci"):
        S = _sym_form(d)
        X = (X - np.linalg.inv(S) @ X.transpose(0, 2, 1) @ S) / 2.0
    if k in ("aiii", "ai", "a2", "aii"):
        X = X - (np.trace(X, axis1=1, axis2=2) / N)[:, None, None] * np.eye(N)
    return X


class SpaceGeometry:
    """Cached numeric Cartan data for one descriptor.

    Bases are orthonormal for the trace form on the p side and its
    negative on the k side; with that convention all coordinate maps are
    plain Euclidean dot products against the basis.
    """

    def __init__(self, descriptor: SpaceDescriptor):
        self.descriptor = descriptor

    # -- bases ------------------------------------------------------------

    def _unit_basis(self, onto_p: bool) -> np.ndarray:
        """Read-only orthonormal stack of p, from the Hermitian units, or of
        k, from the anti-Hermitian ones."""
        d = self.descriptor
        units = _hermitian_units(d.ambient_dim)
        stack = _orthonormalize(_project(d, units if onto_p else 1j * units, onto_p))
        name, want = ("p", d.dim_p) if onto_p else ("k", d.dim_k)
        if len(stack) != want:
            raise ConsistencyError(
                f"{d.label()}: built {len(stack)} {name}-basis elements, theory says {want}"
            )
        stack.flags.writeable = False
        return stack

    @cached_property
    def _p_stack(self) -> np.ndarray:
        return self._unit_basis(onto_p=True)

    @cached_property
    def _k_stack(self) -> np.ndarray:
        return self._unit_basis(onto_p=False)

    @cached_property
    def _a_stack(self) -> np.ndarray:
        stack = _orthonormalize(np.stack(self.a_embed))
        stack.flags.writeable = False
        return stack

    @property
    def p_basis(self) -> list[np.ndarray]:
        return list(self._p_stack)

    @property
    def k_basis(self) -> list[np.ndarray]:
        return list(self._k_stack)

    @property
    def a_basis(self) -> list[np.ndarray]:
        return list(self._a_stack)

    @cached_property
    def a_embed(self) -> list[np.ndarray]:
        return _a_generators(self.descriptor)

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix of the radial generators under the trace form."""
        H = self.a_embed
        r = len(H)
        G = np.empty((r, r))
        for i in range(r):
            for j in range(r):
                G[i, j] = np.einsum("ij,ji->", H[i], H[j]).real
        return G

    @cached_property
    def gram_inv(self) -> np.ndarray:
        return np.linalg.inv(self.gram)

    @cached_property
    def _root_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Root-adapted bases: stacks of m, zk-perp and a-perp, and C.

        m is the kernel of ad(H(e))^2 on k (every root has |alpha(e)| >= 1).
        zk-perp holds the eigenvectors Z_k of ad(H(e)) ad(H(g)) on the rest
        of k at the seeded generic g, each in one restricted-root space;
        a-perp holds the partners R_k = [Z_k, H(e)] / |alpha_k(e)|.  There
        r -> [r, H(q)] is diag(C q), C[k, i] = <Z_k, [R_k, H_i]> being the
        integer coefficients of the root of Z_k.  The measured map is checked
        to be such a diagonal; C keeps the integers, dropping rounding noise.
        """
        d = self.descriptor
        rank = d.real_rank
        want = d.dim_p - rank
        kb = self._k_stack
        He = self.embed_radial(self.e_coords)
        Ve = _ad_rows(kb, He)
        lam, U = np.linalg.eigh(Ve @ Ve.T)
        rest = lam >= 0.5
        m = np.tensordot(U[:, ~rest].T, kb, axes=1)
        k_rest = np.tensordot(U[:, rest].T, kb, axes=1)
        if len(k_rest) != want:
            raise ConsistencyError(
                f"{d.label()}: dim zk-perp {len(k_rest)} does not match dim a-perp {want}"
            )
        Hg = self.embed_radial(_generic_point(rank, _ROOT_SEED))
        Z = np.tensordot(_root_step(k_rest, He, Hg).T, k_rest, axes=1)
        R = Z @ He - He @ Z
        R /= np.linalg.norm(R, axis=(1, 2))[:, None, None]
        C = np.empty((want, rank))
        for i, Hi in enumerate(self.a_embed):
            B = R @ Hi - Hi @ R  # [R_k, H_i] lies in zk-perp and should be C_ki Z_k
            C[:, i] = np.rint(np.einsum("kab,kab->k", Z.conj(), B).real)
            resid = np.linalg.norm(B - C[:, i, None, None] * Z, axis=(1, 2))
            if np.max(resid, initial=0.0) > _BRACKET_TOL:
                raise ConsistencyError(
                    f"{d.label()}: bracket map with generator {i} is not diag(C q) with "
                    f"integer C in the root-adapted bases (deviation {np.max(resid):.3e})"
                )
        return m, Z, R, C

    @property
    def m_basis(self) -> list[np.ndarray]:
        return list(self._root_split[0])

    @property
    def zk_perp_basis(self) -> list[np.ndarray]:
        return list(self._root_split[1])

    @property
    def a_perp_basis(self) -> list[np.ndarray]:
        return list(self._root_split[2])

    @property
    def bracket_coeffs(self) -> np.ndarray:
        """C with r -> [r, H(q)] equal to diag(C q) from a-perp to zk-perp."""
        return self._root_split[3]

    # -- coordinates -------------------------------------------------------

    @property
    def _ap_stack(self) -> np.ndarray:
        return self._root_split[2]

    @property
    def _zk_stack(self) -> np.ndarray:
        return self._root_split[1]

    def coords(self, basis_stack: np.ndarray, X: np.ndarray) -> np.ndarray:
        if basis_stack.shape[0] == 0:
            return np.zeros(0)
        return np.einsum("aij,ij->a", basis_stack.conj(), X).real

    def from_coords(self, basis_stack: np.ndarray, c: np.ndarray) -> np.ndarray:
        N = self.descriptor.ambient_dim
        if basis_stack.shape[0] == 0:
            return np.zeros((N, N), dtype=complex)
        return np.einsum("a,aij->ij", c, basis_stack)

    def aperp_coords(self, X) -> np.ndarray:
        return self.coords(self._ap_stack, X)

    def aperp_from_coords(self, c) -> np.ndarray:
        return self.from_coords(self._ap_stack, c)

    def zk_coords(self, X) -> np.ndarray:
        return self.coords(self._zk_stack, X)

    def zk_from_coords(self, c) -> np.ndarray:
        return self.from_coords(self._zk_stack, c)

    def p_coords(self, X) -> np.ndarray:
        return self.coords(self._p_stack, X)

    def p_from_coords(self, c) -> np.ndarray:
        return self.from_coords(self._p_stack, c)

    def embed_radial(self, q: np.ndarray) -> np.ndarray:
        d = self.descriptor
        q = np.asarray(q, dtype=float)
        if q.shape != (d.real_rank,):
            raise ContractViolation(
                f"radial vector must have length {d.real_rank}, got shape {q.shape}"
            )
        N = d.ambient_dim
        H = np.zeros((N, N), dtype=complex)
        for qi, Hi in zip(q, self.a_embed):
            H = H + qi * Hi
        return H

    def a_pattern_coords(self, X: np.ndarray) -> np.ndarray:
        """Radial-pattern coordinates of the a-component of a p element."""
        b = np.array([np.einsum("ij,ji->", Hi, X).real for Hi in self.a_embed])
        return self.gram_inv @ b

    @cached_property
    def e_coords(self) -> np.ndarray:
        """The fixed generic radial point (rank, rank-1, ..., 1)."""
        r = self.descriptor.real_rank
        return np.arange(r, 0, -1, dtype=float)

    @cached_property
    def root_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (coefficients, multiplicities) of ``restricted_roots``."""
        roots = restricted_roots(self.descriptor)
        coeffs = np.array([r.coeffs for r in roots], dtype=float).reshape(
            len(roots), self.descriptor.real_rank
        )
        mults = np.array([r.multiplicity for r in roots], dtype=float)
        coeffs.flags.writeable = mults.flags.writeable = False
        return coeffs, mults


_GEOMETRY_CACHE: dict[SpaceDescriptor, SpaceGeometry] = {}
_GEOMETRY_LOCK = threading.Lock()


def geometry(d: SpaceDescriptor) -> SpaceGeometry:
    """Per-descriptor cached geometry (thread-safe, built once)."""
    geo = _GEOMETRY_CACHE.get(d)
    if geo is None:
        with _GEOMETRY_LOCK:
            geo = _GEOMETRY_CACHE.get(d)
            if geo is None:
                geo = SpaceGeometry(d)
                _GEOMETRY_CACHE[d] = geo
    return geo


def basis_of(d: SpaceDescriptor, which: str) -> list[np.ndarray]:
    """Orthonormal basis of a named subspace.

    ``which`` is one of ``k, p, a, a_perp, m_centralizer, zk_perp``.  The
    centralizer selector returns an empty list for classes whose
    centralizer group is discrete (that is not an error).
    """
    geo = geometry(d)
    table = {
        "k": lambda: geo.k_basis,
        "p": lambda: geo.p_basis,
        "a": lambda: geo.a_basis,
        "a_perp": lambda: geo.a_perp_basis,
        "m_centralizer": lambda: geo.m_basis,
        "zk_perp": lambda: geo.zk_perp_basis,
    }
    if which not in table:
        raise ContractViolation(f"unknown subspace selector {which!r}")
    return [M.copy() for M in table[which]()]


# ---------------------------------------------------------------------------
# numeric restricted-root oracle


def numeric_roots(d: SpaceDescriptor, seed: int = _ROOT_SEED) -> list[RestrictedRoot]:
    """Recover the restricted roots from the bracket geometry alone.

    Reruns the root step on zk-perp at its own seeded generic g, measures
    on each eigenvector the diagonal alpha(E)*alpha_i of ad(H(E)) o ad(H_i)
    and its residual, and fits integer coefficient vectors.  Serves as an
    independent oracle for the tabulated roots.
    """
    geo = geometry(d)
    Z = geo._zk_stack
    e = geo.e_coords
    He = geo.embed_radial(e)
    vecs = _root_step(Z, He, geo.embed_radial(_generic_point(d.real_rank, seed)))
    Ve = _ad_rows(Z, He)
    A_i = [Ve @ _ad_rows(Z, Hi).T for Hi in geo.a_embed]
    found: dict[tuple[int, ...], int] = {}
    for idx, v in enumerate(vecs.T):
        w = np.array([v @ (A @ v) for A in A_i])
        resid = max(np.linalg.norm(A @ v - wi * v) for A, wi in zip(A_i, w))
        s2 = float(np.dot(w, e))
        if s2 <= 0:
            raise ConsistencyError(
                f"{d.label()}: eigenvector {idx} has nonpositive alpha(E)^2 = {s2:.3e}"
            )
        c = w / np.sqrt(s2)
        c_int = np.rint(c)
        fit = max(resid, float(np.max(np.abs(c - c_int))))
        if fit > 1e-6:
            raise ConsistencyError(
                f"{d.label()}: root fit residual {fit:.3e} exceeds 1e-6 for eigenvector {idx}"
            )
        if np.dot(c_int, e) < 0:
            c_int = -c_int
        key = tuple(int(x) for x in c_int)
        found[key] = found.get(key, 0) + 1
    roots = [RestrictedRoot(c, mult) for c, mult in found.items()]
    roots.sort(key=lambda r: r.coeffs)
    return roots


# ---------------------------------------------------------------------------
# random elements (Gaussian on p, Haar-ish on K via the exponential)


def random_p_element(d: SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    geo = geometry(d)
    coeff = rng.standard_normal(d.dim_p)
    return geo.p_from_coords(coeff)


def random_k_element(d: SpaceDescriptor, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A group element of K, as exp of a random k-algebra element."""
    from scipy.linalg import expm

    geo = geometry(d)
    if not geo.k_basis:
        return np.eye(d.ambient_dim, dtype=complex)
    xi = sum(c * b for c, b in zip(scale * rng.standard_normal(d.dim_k), geo.k_basis))
    return expm(xi)
