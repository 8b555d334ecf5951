"""Registry of the eight noncompact matrix symmetric-space classes.

Each class is realized inside the N x N complex matrices so that the
Cartan involution is X -> -X†: the compact part k0 consists of the
anti-Hermitian members and p0 of the Hermitian ones.  The class is cut
out by a short table of conjugations M with signs s (``_conjugations``):
the signature Γ (M(X) = ΓXΓ, s = -1), complex conjugation (s = +1), the
quaternionic J (M(X) = -JX̄J, s = +1) and the bilinear form S
(M(X) = SᵀX̄S, s = -1).  k0 is the anti-Hermitian X with M(X) = X, p0 the
Hermitian X with M(X) = s X and K the unitary k with M(k) = k, for every
entry; aiii, ai, a2 and aii are traceless besides, and K has unit
determinant.  A descriptor also knows a distinguished maximal Abelian
subspace of p0 with explicit "radial" generators and its restricted root
system, written once per class as (type, β, s, ℓ) (``_root_system``):
type A with multiplicity β, or type BC with multiplicities β, s, ℓ on
e_i ± e_j, e_i, 2 e_i.  The table of positive roots is generated from it.

The heavy lifting (orthonormal bases of k, p, a, the centralizer algebra
of a inside k, and root-adapted bases of its orthocomplement and of a-perp,
in which the bracket map r -> [r, H(q)] is the diagonal of root values) is
computed numerically once per descriptor and cached.  The matrices this
touches are almost all zeros: Γ, J, S and every radial generator have at
most one nonzero entry per row and column.  So the p and k bases start
from the Hermitian units as (index, value) entry lists, each conjugation
moves the entries by an index map read once from its matrix, and only the
few candidates with a trace go dense; brackets with a radial generator are
taken by index as well.

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

import math
import threading
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

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
# classes whose g0 lies in sl(N, C)
_TRACELESS = ("aiii", "ai", "a2", "aii")


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
        """Whether the restricted Weyl group contains all sign changes: the
        root system is BC-type with a root e_i or 2 e_i.  so(n,n) has
        neither, so only products of an even number of flips occur and the
        last radial coordinate keeps a free sign there.
        """
        a_type, _, s, ell = _root_system(self)
        return a_type == "BC" and s + ell > 0

    @property
    def trace_constrained(self) -> bool:
        """Radial coordinates carry an implied last eigenvalue -sum(q): the
        root system is A-type."""
        return _root_system(self)[0] == "A"

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


def _split(d: SpaceDescriptor) -> int | None:
    """Row where the block split of the class falls: p sits in the
    off-diagonal blocks [:top, top:] and [top:, :top] of aiii, bdi, cii,
    diii and ci (the last two embedded in u(n, n)); None for ai, a2 and
    aii, whose p fills the whole matrix."""
    return {"aiii": d.m, "bdi": d.m, "cii": 2 * d.m, "diii": d.n, "ci": d.n}.get(d.kind)


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


@lru_cache(maxsize=None)
def _quaternionic_j(d: SpaceDescriptor) -> np.ndarray:
    """The quaternionic structure of cii or aii, read-only.  Built once per
    descriptor."""
    J = _cii_j(d) if d.kind == "cii" else _plain_j(d.n)  # aii
    J.flags.writeable = False
    return J


def _sym_form(d: SpaceDescriptor) -> np.ndarray:
    """Bilinear form fixed by the group: symmetric for so*, skew for sp(n,R)."""
    n = d.n
    S = np.zeros((2 * n, 2 * n))
    S[:n, n:] = np.eye(n)
    S[n:, :n] = np.eye(n) if d.kind == "diii" else -np.eye(n)
    return S.astype(complex)


@lru_cache(maxsize=None)
def _conjugations(d: SpaceDescriptor) -> tuple[tuple[str, str, Callable, int], ...]:
    """The defining conjugations of the class, as (g0 relation, K condition,
    M, s) in check order.  K is the unitary k with M(k) = k, k0 the
    anti-Hermitian X with M(X) = X and p0 the Hermitian X with M(X) = s X;
    so X lies in g0 when M(X) = X (s = +1) or M(X) = -X† (s = -1).  M acts
    on a matrix or on a stack.  Built once per descriptor."""
    kind, top = d.kind, _split(d)
    table: list[tuple[str, str, Callable, int]] = []
    if top is not None:
        G = np.diag(np.where(np.arange(d.ambient_dim) < top, 1.0, -1.0)).astype(complex)
        table.append(("pseudo-unitarity (X†Γ + ΓX = 0)", "block-diagonality",
                      lambda X: G @ X @ G, -1))
    if kind in ("bdi", "ai"):
        table.append(("reality", "reality", np.conj, 1))
    if kind in ("aii", "cii"):
        J = _quaternionic_j(d)
        table.append(("quaternionic structure (XJ = JX̄)", "quaternionic structure",
                      lambda X: J @ X.conj() @ -J, 1))
    if kind in ("diii", "ci"):
        S = _sym_form(d)
        relation = ("complex-orthogonal structure (XᵀS + SX = 0)" if kind == "diii"
                    else "symplectic structure (XᵀΩ + ΩX = 0)")
        table.append((relation, "bilinear-form preservation",
                      lambda X: S.T @ X.conj() @ S, -1))
    return tuple(table)


def _fixed_residual(M: Callable, X: np.ndarray, target: np.ndarray) -> float:
    """|M(X) - target|, halved for complex conjugation so that it reads
    |Im X| when the target is X."""
    return frobenius(M(X) - target) / (2.0 if M is np.conj else 1.0)


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
    for name, _, M, s in _conjugations(d):
        yield name, _fixed_residual(M, X, X if s > 0 else -X.conj().T)
    if d.kind in _TRACELESS:
        yield "tracelessness", abs(np.trace(X))


def check_p_membership(d: SpaceDescriptor, X, rtol: float = MEMBERSHIP_RTOL) -> None:
    X = as_cmat(X)
    check_membership(d, X, rtol)
    scale = max(frobenius(X), 1.0)
    if frobenius(X - X.conj().T) > rtol * scale:
        raise ContractViolation(f"matrix is not Hermitian, hence not in p of {d.label()}")


def check_k_group_membership(d: SpaceDescriptor, k, rtol: float = 1e-9) -> None:
    """Raise unless k lies in the compact group K of the class.

    Checks unitarity, that k is fixed by each defining conjugation
    (block-diagonality, reality, the quaternionic structure, preservation
    of the bilinear form), and unit determinant: of each of bdi's two
    diagonal factors, of the whole matrix for every other class.
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
    for _, name, M, _ in _conjugations(d):
        _req(name, _fixed_residual(M, k, k))
    if d.kind == "bdi":
        m = d.m
        _req("unit determinant of the first factor", abs(np.linalg.det(k[:m, :m]) - 1.0))
        _req("unit determinant of the second factor", abs(np.linalg.det(k[m:, m:]) - 1.0))
    else:
        _req("unit determinant", abs(np.linalg.det(k) - 1.0))


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


def _spectral_block(d: SpaceDescriptor, X: np.ndarray) -> np.ndarray:
    """The region of a p element (or of a stack) that the spectral step
    reads: the off-diagonal block [:top, top:] of ``_split`` for aiii, bdi,
    cii, diii and ci, whose other entries it mirrors or leaves zero, and the
    whole matrix for ai, a2 and aii."""
    top = _split(d)
    return X if top is None else X[..., :top, top:]


def _a_generators(d: SpaceDescriptor) -> list[np.ndarray]:
    """Matrices H_i with H(q) = sum_i q_i H_i spanning the radial subspace."""
    k, m, n, N, top = d.kind, d.m, d.n, d.ambient_dim, _split(d)
    gens: list[np.ndarray] = []
    for j in range(d.real_rank):
        if top is None:  # ai, a2, aii: trace-free diagonals
            v = np.zeros(n)
            v[j], v[-1] = 1.0, -1.0
            gens.append(np.diag(np.tile(v, 2 if k == "aii" else 1)).astype(complex))
            continue
        H = np.zeros((N, N), dtype=complex)
        B = H[:top, top:]  # a view: the generator is B and its mirror
        if k in ("aiii", "bdi"):
            B[m - 1 - j, j] = 1.0  # lower-left antidiagonal slot of column j
        elif k == "cii":
            B[m + n - 1 - j, j] = 1.0
            B[m - 1 - j, n + j] = 1.0  # paired slot: a_{j+n} = a_j
        elif k == "diii":
            B[2 * j, 2 * j + 1], B[2 * j + 1, 2 * j] = 1.0, -1.0
        else:  # ci
            B[j, j] = 1.0
        H[top:, :top] = B.conj().T
        gens.append(H)
    return gens


# ---------------------------------------------------------------------------
# restricted root tables


@lru_cache(maxsize=None)
def _root_system(d: SpaceDescriptor) -> tuple[str, int, int, int]:
    """The restricted root system of the class as (type, β, s, ℓ): type A
    with multiplicity β on every root, or type BC with β on e_i ± e_j, s on
    e_i and ℓ on 2 e_i (Helgason, ch. X, Table VI).  The root table, the
    chamber, the Weyl flags and the normalizer are read from here."""
    m, n = d.m, d.n
    return {
        "ai": ("A", 1, 0, 0),
        "a2": ("A", 2, 0, 0),
        "aii": ("A", 4, 0, 0),
        "aiii": ("BC", 2, 2 * (m - n), 1),
        "bdi": ("BC", 1, m - n, 0),
        "cii": ("BC", 4, 4 * (m - n), 3),
        "diii": ("BC", 4, 4 * (n % 2), 1),
        "ci": ("BC", 1, 0, 1),
    }[d.kind]


def restricted_roots(d: SpaceDescriptor) -> list[RestrictedRoot]:
    """Positive restricted roots with real multiplicities, generated from
    ``_root_system`` and sorted by coefficients.

    A-type: f_i - f_j (i < j) over the rank + 1 trace-free eigenvalues,
    the last being -sum(q).  BC-type: e_i ± e_j (i < j), then e_i and
    2 e_i where their multiplicity is nonzero.
    """
    a_type, beta, s, ell = _root_system(d)
    e = np.eye(d.real_rank, dtype=int)
    if a_type == "A":
        f = np.vstack([e, -e.sum(axis=0)])
        table = [(f[i] - f[j], beta) for i, j in combinations(range(len(f)), 2)]
    else:
        table = [(e[i] + sign * e[j], beta)
                 for i, j in combinations(range(len(e)), 2) for sign in (-1, 1)]
        table += [(k * e[i], mult) for k, mult in ((1, s), (2, ell)) if mult for i in range(len(e))]
    roots = [RestrictedRoot(tuple(c.tolist()), mult) for c, mult in table]
    return sorted(roots, key=lambda r: r.coeffs)


def _radial_vector(d: SpaceDescriptor, q) -> np.ndarray:
    """q as a float vector; ContractViolation unless it has the length of
    the real rank and finite entries."""
    q = np.asarray(q, dtype=float)
    if q.shape != (d.real_rank,):
        raise ContractViolation(
            f"radial vector must have length {d.real_rank}, got shape {q.shape}"
        )
    if not all(map(math.isfinite, q.tolist())):  # faster than np.isfinite at this size
        raise ContractViolation("radial vector has non-finite entries")
    return q


def root_values(d: SpaceDescriptor, q: np.ndarray) -> np.ndarray:
    """alpha(q) over the positive roots, in table order."""
    return geometry(d).root_table[0] @ _radial_vector(d, q)


def wall_distance(d: SpaceDescriptor, q: np.ndarray) -> float:
    """min_alpha |alpha(q)|: zero exactly on the chamber walls."""
    return float(np.abs(root_values(d, q)).min(initial=np.inf))


# ---------------------------------------------------------------------------
# numeric basis machinery


def _vec_rows(stack: np.ndarray) -> np.ndarray:
    """One real row per matrix of a stack: dot products of rows are the
    Frobenius real inner products of the matrices."""
    flat = stack.reshape(-1, stack.shape[-1] ** 2)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _from_vec_rows(rows: np.ndarray, N: int) -> np.ndarray:
    """The (len(rows), N, N) complex stack whose ``_vec_rows`` are ``rows``."""
    return (rows[:, : N * N] + 1j * rows[:, N * N :]).reshape(-1, N, N)


def _ad_rows(stack: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``_vec_rows`` of the commutators [B, H] over a stack of matrices B."""
    X = stack @ H
    X -= H @ stack
    return _vec_rows(X)


def _bracket(stack: np.ndarray, H: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The commutators [B, H] = BH - HB over a stack of matrices B, for an H
    with at most one nonzero entry per row and column (every radial
    generator), by index: an entry h at (a, b) makes column b of BH from
    column a of B and row a of HB from row b, both times h.  Every nonzero
    value is that of the two products, and [B, H] vanishes off the rows and
    columns H touches.  Written into ``out`` when given."""
    rows, cols = np.nonzero(H)
    entries = list(zip(rows.tolist(), cols.tolist(), H[rows, cols].tolist()))
    if len(set(rows.tolist())) < len(rows) or len(set(cols.tolist())) < len(cols):
        raise ConsistencyError("bracket by index needs at most one nonzero per row and column")
    if out is None:
        out = np.zeros_like(stack)
    else:
        out[...] = 0.0
    for a, b, h in entries:
        out[..., b] = stack[..., a] * h
    for a, b, h in entries:
        out[..., a, :] -= h * stack[..., b, :]
    return out


def _bracket_support(H: np.ndarray) -> np.ndarray:
    """Columns of ``_vec_rows`` on which [B, H] can be nonzero: the entries
    in a row or a column that H touches, real parts then imaginary ones."""
    nz = H != 0
    cols = np.flatnonzero(nz.any(axis=1)[:, None] | nz.any(axis=0)[None, :])
    return np.concatenate([cols, H.size + cols])


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


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """Read-only real view (dim, 2 size) of a contiguous stack of matrices,
    one row per member with its real and imaginary parts interleaved.  Row
    dot products are Frobenius real inner products, so for an orthonormal
    stack the coordinates Re<B_a, X> are one product with the transposed
    rows and sum_a c_a B_a is one product with the rows."""
    # the explicit width keeps an empty stack (bdi(1,1) has no zk-perp) reshapable
    rows = stack.reshape(len(stack), math.prod(stack.shape[1:])).view(float)
    rows.flags.writeable = False
    return rows


def _real_flat(X) -> np.ndarray:
    """Real view of a matrix (or a stack) matching ``_real_rows``."""
    X = np.ascontiguousarray(X, dtype=complex)
    return X.reshape(X.shape[:-2] + (-1,)).view(float)


@lru_cache(maxsize=None)
def _unit_entries(N: int, anti: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The trace-form-orthonormal Hermitian units as entry lists, one row
    per unit: E_ii, then (E_ij + E_ji)/sqrt2 and i(E_ij - E_ji)/sqrt2, over
    i <= j row by row; with ``anti``, i times each of them.  A row holds the
    columns of the unit's nonzero real coordinates in the layout of
    ``_vec_rows`` (real parts, then imaginary parts) and their values; E_ii
    pads its second slot with the column 2 N^2, which no coordinate has, and
    the value 0.  Read-only, built once per N."""
    i, j = np.triu_indices(N)
    off = i != j
    width = 1 + off  # an off-diagonal pair gives two units
    first = np.cumsum(width) - width
    half = N * N
    cols = np.full((half, 2), 2 * half)
    vals = np.zeros((half, 2))
    cols[first[~off], 0], vals[first[~off], 0] = i[~off] * (N + 1), 1.0
    s, a, b = first[off], i[off], j[off]
    cols[s] = cols[s + 1] = np.stack([a * N + b, b * N + a], axis=1)
    cols[s + 1] += half
    vals[s] = 1.0 / np.sqrt(2)
    vals[s + 1] = (1j / np.sqrt(2)).imag, (-1j / np.sqrt(2)).imag
    if anti:  # i x moves a real part x to the imaginary ones, an imaginary part x to -x real
        real = cols < half
        cols = np.where(real, cols + half, np.where(cols < 2 * half, cols - half, cols))
        vals = np.where(real, vals, -vals)
    cols.flags.writeable = vals.flags.writeable = False
    return cols, vals


def _fill(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, at=None) -> np.ndarray:
    """Write entry lists (see ``_unit_entries``) into zero rows of the
    ``_vec_rows`` layout, skipping the padding: list j into row at[j], or
    row j without ``at``.  Returns the rows."""
    r, slot = np.nonzero(vals)
    rows[r if at is None else at[r], cols[r, slot]] = vals[r, slot]
    return rows


def _scatter(cols: np.ndarray, vals: np.ndarray, N: int) -> np.ndarray:
    """The (len(cols), N, N) complex stack of entry lists."""
    return _from_vec_rows(_fill(np.zeros((len(cols), 2 * N * N)), cols, vals), N)


def _traceless(X: np.ndarray) -> np.ndarray:
    """X - tr(X)/N over a stack of N x N matrices."""
    N = X.shape[-1]
    return X - (np.trace(X, axis1=1, axis2=2) / N)[:, None, None] * np.eye(N)


@lru_cache(maxsize=None)
def _conjugation_maps(d: SpaceDescriptor) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
    """Each conjugation of ``_conjugations`` as (dest, sign, s): M moves the
    real coordinate c of ``_vec_rows`` to dest[c] with the factor sign[c].
    Read once per descriptor by applying M to one matrix whose entry a,b is
    (1 + i)(aN + b + 1): G, J and S are signed permutations, so M(X) has
    entry f X_cd or f conj(X_cd) at each position, with f = +-1.  The
    padding column 2 N^2 maps to itself with factor 0.  dest is None for a
    conjugation that keeps every entry in place (Γ, complex conjugation)."""
    N = d.ambient_dim
    half = N * N
    here = np.arange(half)
    probe = (1.0 + 1.0j) * (here + 1.0)
    maps = []
    for _, _, M, s in _conjugations(d):
        out = M(probe.reshape(N, N)).reshape(-1)
        flip = out.imag[0] != out.real[0]  # M conjugates
        if not (np.array_equal(np.sort(np.abs(out.real)), probe.real)
                and np.array_equal(out.imag, -out.real if flip else out.real)):
            raise ConsistencyError(
                f"{d.label()}: a defining conjugation is not a signed permutation"
            )
        src = np.abs(out.real).astype(np.intp) - 1
        sign = np.sign(out.real)
        dest = np.empty(2 * half + 1, dtype=np.intp)
        factor = np.zeros(2 * half + 1)
        dest[src], dest[half + src], dest[-1] = here, half + here, 2 * half
        factor[src], factor[half + src] = sign, -sign if flip else sign
        dest.flags.writeable = factor.flags.writeable = False
        maps.append((None if np.array_equal(src, here) else dest, factor, s))
    return tuple(maps)


def _project_entries(d: SpaceDescriptor, cols: np.ndarray, vals: np.ndarray, onto_p: bool):
    """Project a stack of Hermitian (with ``onto_p``) or anti-Hermitian
    matrices, given as entry lists (see ``_unit_entries``), onto p or k of
    the class by averaging over each defining conjugation, X -> (X + s M(X))/2
    onto p and (X + M(X))/2 onto k: each conjugation moves the entries by its
    index map, and each position takes (x + s m)/2 with the values x and m
    the dense stacks hold there (0 where they hold none), so every nonzero
    value is the one the dense average computes.  In the traceless classes
    the candidates with a nonzero trace (from the E_ii) are made dense and
    lose tr/N by ``_traceless``.
    Returns the entry lists, sorted by column with the padding last and cut
    to the widest row, and the mask of the trace-corrected rows."""
    N = d.ambient_dim
    half, pad = N * N, 2 * N * N
    at = np.arange(len(cols))[:, None]
    corrected = np.zeros(len(cols), dtype=bool)
    for dest, factor, s in _conjugation_maps(d):
        c = s if onto_p else 1
        if dest is None:
            vals = (vals + c * (factor[cols] * vals)) / 2.0
            continue
        mcols, mvals = dest[cols], factor[cols] * vals
        hit = mcols[:, None, :] == cols[:, :, None]  # hit[r, x, y]: M moves slot y onto slot x
        x = (vals + c * np.where(hit.any(axis=2), mvals[at, hit.argmax(axis=2)], 0.0)) / 2.0
        alone = ~hit.any(axis=1) & (mvals != 0)
        cols = np.concatenate([cols, np.where(alone, mcols, pad)], axis=1)
        vals = np.concatenate([x, np.where(alone, c * mvals, 0.0) / 2.0], axis=1)
    if d.kind in _TRACELESS:
        diag = np.where((cols % half) % (N + 1) == 0, vals, 0.0)
        real = cols < half
        dense = np.flatnonzero((diag.sum(axis=1, where=real) != 0)
                               | (diag.sum(axis=1, where=~real) != 0))
        if dense.size:
            rows = _vec_rows(_traceless(_scatter(cols[dense], vals[dense], N)))
            row, col = np.nonzero(rows)
            count = np.bincount(row, minlength=len(dense))
            slot = np.arange(len(row)) - (np.cumsum(count) - count)[row]
            grow = max(int(count.max()) - cols.shape[1], 0)
            cols = np.concatenate([cols, np.full((len(cols), grow), pad)], axis=1)
            vals = np.concatenate([vals, np.zeros((len(vals), grow))], axis=1)
            cols[dense], vals[dense] = pad, 0.0
            cols[dense[row], slot], vals[dense[row], slot] = col, rows[row, col]
            corrected[dense] = True
    cols = np.where(vals != 0, cols, pad)
    order = np.argsort(cols, axis=1, kind="stable")
    width = max(int(np.count_nonzero(vals, axis=1).max(initial=0)), 1)
    return cols[at, order[:, :width]], vals[at, order[:, :width]], corrected


def _gram_schmidt_rows(kept: np.ndarray, at: np.ndarray, alone: np.ndarray,
                       rows: np.ndarray) -> int:
    """Order-preserving Gram-Schmidt of the candidate ``rows`` (``_vec_rows``
    layout, so dot products are the Frobenius real inner products: the trace
    form on Hermitians, its negative on anti-Hermitians), in order: row j is
    meant for ``kept[at[j]]``, after the kept rows written above it.  Unless
    ``alone[j]`` (no row before it shares a nonzero column, so its
    projections would be sums of exact zeros) it is projected off all kept
    rows above it with one matrix-vector product per pass, in two passes
    ("twice is enough": Giraud, Langou and Rozloznik, 2005); it is kept if
    its norm is above ``_GS_TOL``.  A dropped row moves the rows below it up
    by one.  Returns the number of kept rows."""
    k = len(kept)
    for target, lone, v in zip(at.tolist(), alone.tolist(), rows):
        i = target - (len(kept) - k)
        if not lone:
            for _ in range(2):
                v = v - kept[:i].T @ (kept[:i] @ v)
        nrm = math.sqrt(v @ v)  # np.linalg.norm's arithmetic for a real vector
        if nrm > _GS_TOL:
            kept[i] = v / nrm
        else:  # dependent: the rows below it move up by one
            kept[i : k - 1] = kept[i + 1 : k]
            k -= 1
    return k


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
        k, from the anti-Hermitian ones: the stack ``_gram_schmidt_rows``
        makes of the projected units (``_project_entries``), built from their
        entry lists in candidate order.

        A candidate that is the first to touch each of its columns is
        ``_gram_schmidt_rows``'s "alone" case; all of these are normalized
        in one step.  A candidate that is an exact multiple of the fresh
        candidate that first touched its columns, on the same support, lies
        in the kept span: its two-pass residual is rounding noise far below
        ``_GS_TOL``, so it is dropped.  The rest, the trace-corrected
        candidates in practice, run ``_gram_schmidt_rows`` against all rows
        kept before them."""
        d = self.descriptor
        N = d.ambient_dim
        half = N * N
        cols, vals, dense = _project_entries(d, *_unit_entries(N, anti=not onto_p), onto_p)
        live = vals[:, 0] != 0
        # exact zeros stay zero: drop them up front
        cols, vals, dense = cols[live], vals[live], dense[live]
        n = len(cols)
        row, slot = np.nonzero(vals)
        col = cols[row, slot]
        first = np.full(2 * half, n)  # first[c]: the first candidate touching column c
        np.minimum.at(first, col, row)
        fresh = np.ones(n, dtype=bool)
        fresh[row[first[col] < row]] = False
        slow = dense.copy()
        if not fresh.all():
            src = first[cols[:, 0]]
            multiple = fresh[src] & (cols == cols[src]).all(axis=1)
            multiple &= (vals == (vals[:, 0] / vals[src, 0])[:, None] * vals[src]).all(axis=1)
            slow |= ~(fresh | multiple)
        norms = np.sqrt(np.sum(vals * vals, axis=1))
        alone = fresh & ~slow & (norms > _GS_TOL)
        at = np.cumsum(alone | slow) - 1  # stack row of each candidate if no slow one drops
        kept = np.zeros((np.count_nonzero(alone | slow), 2 * half))
        _fill(kept, cols[alone], vals[alone] / norms[alone, None], at[alone])
        k = len(kept)
        if slow.any():
            k = _gram_schmidt_rows(kept, at[slow], fresh[slow],
                                   _fill(np.zeros((slow.sum(), 2 * half)), cols[slow], vals[slow]))
        stack = _from_vec_rows(kept[:k], N)
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
    def _block_rows(self) -> np.ndarray:
        """``_real_rows`` of the p stack cut to its spectral block: the blocks
        of sum_a c_a B_a are one real product with these rows."""
        return _real_rows(np.ascontiguousarray(_spectral_block(self.descriptor, self._p_stack)))

    @cached_property
    def _block_gather(self) -> tuple:
        """``_block_rows`` as an index table, for building blocks without a
        product: per column, its first contributing basis row ``src`` and that
        row's entry ``val`` (entry 0 where no row contributes); for the
        columns ``cols`` with further contributors (the A-type diagonals),
        one level per further contributor in basis order, rows ``more_src``
        and entries ``more_val``, padded with entry 0; last, the block shape."""
        rows = self._block_rows
        nz = rows != 0
        src = np.argmax(nz, axis=0)  # row 0 for an empty column, whose entry is 0
        val = rows[src, np.arange(rows.shape[1])]
        cols = np.flatnonzero(nz.sum(axis=0) > 1)
        further = [np.flatnonzero(nz[:, c])[1:] for c in cols]
        levels = max(map(len, further), default=0)
        more_src = np.zeros((levels, len(cols)), dtype=np.intp)
        more_val = np.zeros((levels, len(cols)))
        for k, (c, r) in enumerate(zip(cols, further)):
            more_src[: len(r), k], more_val[: len(r), k] = r, rows[r, c]
        for a in (src, val, cols, more_src, more_val):
            a.flags.writeable = False
        shape = _spectral_block(self.descriptor, self._p_stack).shape[1:]
        return src, val, cols, more_src, more_val, shape

    @cached_property
    def _a_stack(self) -> np.ndarray:
        """Read-only orthonormal stack of a: ``_gram_schmidt_rows`` on the
        radial generators in order, a generator that shares no nonzero entry
        with an earlier one being "alone"."""
        rows = _vec_rows(np.stack(self.a_embed))
        rows = rows[rows.any(axis=1)]  # exact zeros stay zero: drop them up front
        support = rows != 0
        seen = np.zeros_like(support)  # seen[r]: the columns some row before r touches
        np.logical_or.accumulate(support[:-1], axis=0, out=seen[1:])
        kept = np.empty_like(rows)
        k = _gram_schmidt_rows(kept, np.arange(len(rows)), ~(support & seen).any(axis=1), rows)
        stack = _from_vec_rows(kept[:k], self.descriptor.ambient_dim)
        stack.flags.writeable = False
        return stack

    @cached_property
    def a_embed(self) -> list[np.ndarray]:
        return _a_generators(self.descriptor)

    @cached_property
    def gram(self) -> np.ndarray:
        """Gram matrix of the radial generators under the trace form."""
        H = np.stack(self.a_embed)
        return np.einsum("aij,bji->ab", H, H).real.copy()  # contiguous, not a view

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
        R = Z @ He
        R -= He @ Z
        R /= np.linalg.norm(R, axis=(1, 2))[:, None, None]
        C = np.empty((want, rank))
        Zc, B, CZ = Z.conj(), np.empty_like(Z), np.empty_like(Z)
        flat = _real_rows(B)  # a view: row norms of B as it is written
        for i, Hi in enumerate(self.a_embed):
            _bracket(R, Hi, out=B)  # [R_k, H_i] lies in zk-perp and should be C_ki Z_k
            C[:, i] = np.rint(np.einsum("kab,kab->k", Zc, B).real)
            B -= np.multiply(C[:, i, None, None], Z, out=CZ)
            resid = np.sqrt(np.einsum("kj,kj->k", flat, flat))
            if np.max(resid, initial=0.0) > _BRACKET_TOL:
                raise ConsistencyError(
                    f"{d.label()}: bracket map with generator {i} is not diag(C q) with "
                    f"integer C in the root-adapted bases (deviation {np.max(resid):.3e})"
                )
        return m, Z, R, C

    @property
    def bracket_coeffs(self) -> np.ndarray:
        """C with r -> [r, H(q)] equal to diag(C q) from a-perp to zk-perp."""
        return self._root_split[3]

    # -- coordinates -------------------------------------------------------

    @property
    def _zk_stack(self) -> np.ndarray:
        return self._root_split[1]

    @cached_property
    def _ap_rows(self) -> np.ndarray:
        return _real_rows(self._root_split[2])

    @cached_property
    def _zk_rows(self) -> np.ndarray:
        return _real_rows(self._zk_stack)

    def _from_rows(self, rows: np.ndarray, c) -> np.ndarray:
        """sum_a c_a B_a, batched over the leading axes of ``c``."""
        c = np.asarray(c, dtype=float)
        N = self.descriptor.ambient_dim
        return (c @ rows).view(complex).reshape(c.shape[:-1] + (N, N))

    def aperp_coords(self, X) -> np.ndarray:
        return _real_flat(X) @ self._ap_rows.T

    def aperp_from_coords(self, c) -> np.ndarray:
        return self._from_rows(self._ap_rows, c)

    def zk_coords(self, X) -> np.ndarray:
        return _real_flat(X) @ self._zk_rows.T

    def zk_from_coords(self, c) -> np.ndarray:
        return self._from_rows(self._zk_rows, c)

    def p_from_coords(self, c) -> np.ndarray:
        # einsum, not a matmul: the seeded draws of sample_p_gaussian keep its summation order
        return np.einsum("a,aij->ij", c, self._p_stack)

    def embed_radial(self, q: np.ndarray) -> np.ndarray:
        d = self.descriptor
        q = _radial_vector(d, q)
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
        "k": lambda: geo._k_stack,
        "p": lambda: geo._p_stack,
        "a": lambda: geo._a_stack,
        "a_perp": lambda: geo._root_split[2],
        "m_centralizer": lambda: geo._root_split[0],
        "zk_perp": lambda: geo._root_split[1],
    }
    if which not in table:
        raise ContractViolation(f"unknown subspace selector {which!r}")
    return list(table[which]().copy())  # one copy of the cached stack, detached from it


# ---------------------------------------------------------------------------
# numeric restricted-root oracle


def numeric_roots(d: SpaceDescriptor, seed: int = _ROOT_SEED) -> list[RestrictedRoot]:
    """Recover the restricted roots from the bracket geometry alone.

    Reruns the root step on zk-perp at its own seeded generic g and fits
    integer roots to the eigenvectors it finds (``_fit_roots``).  Serves as
    an independent oracle for the tabulated roots.
    """
    geo = geometry(d)
    Z = geo._zk_stack
    He = geo.embed_radial(geo.e_coords)
    Hg = geo.embed_radial(_generic_point(d.real_rank, seed))
    return _fit_roots(d, Z, _root_step(Z, He, Hg))


def _fit_roots(d: SpaceDescriptor, Z: np.ndarray, vecs: np.ndarray) -> list[RestrictedRoot]:
    """Positive roots with multiplicities of the vectors sum_j v_j Z_j, one
    per column v of ``vecs``; ConsistencyError at the first column that is
    no root vector.

    A_i = <ad(H(E)) Z_j, ad(H_i) Z_k> should have each v as an eigenvector
    with eigenvalue w_i = alpha(E) alpha_i, so that w / alpha(E), with
    alpha(E)^2 = w.E, is an integer vector.  All columns are measured
    together, one generator at a time: one product A_i V, its diagonal
    V^T A_i V and its residual columns A_i v - w_i v, whose norms keep a
    running maximum.  Holding every A_i V at once would raise the peak
    memory.
    """
    geo = geometry(d)
    e = geo.e_coords
    Ve = _ad_rows(Z, geo.embed_radial(e))
    w = np.empty((vecs.shape[1], d.real_rank))
    resid = np.zeros(vecs.shape[1])
    B = np.empty_like(Z)
    for i, Hi in enumerate(geo.a_embed):
        on = _bracket_support(Hi)  # ad(H_i) Z_k vanishes elsewhere
        AV = (Ve[:, on] @ _vec_rows(_bracket(Z, Hi, out=B))[:, on].T) @ vecs
        w[:, i] = np.einsum("jk,jk->k", vecs, AV)
        resid = np.maximum(resid, np.linalg.norm(AV - vecs * w[:, i], axis=0))
    s2 = w @ e
    c = w / np.sqrt(np.where(s2 > 0, s2, 1.0))[:, None]
    c_int = np.rint(c)
    fit = np.maximum(resid, np.max(np.abs(c - c_int), axis=1))
    bad = np.flatnonzero((s2 <= 0) | (fit > 1e-6))
    if bad.size:
        idx = bad[0]
        if s2[idx] <= 0:
            raise ConsistencyError(
                f"{d.label()}: eigenvector {idx} has nonpositive alpha(E)^2 = {s2[idx]:.3e}"
            )
        raise ConsistencyError(
            f"{d.label()}: root fit residual {fit[idx]:.3e} exceeds 1e-6 for eigenvector {idx}"
        )
    c_int[c_int @ e < 0] *= -1
    found = Counter(map(tuple, c_int.astype(int).tolist()))
    return sorted((RestrictedRoot(c, mult) for c, mult in found.items()), key=lambda r: r.coeffs)


# ---------------------------------------------------------------------------
# random elements (Gaussian on p, Haar-ish on K via the exponential)


def random_p_element(d: SpaceDescriptor, rng: np.random.Generator) -> np.ndarray:
    geo = geometry(d)
    coeff = rng.standard_normal(d.dim_p)
    return geo.p_from_coords(coeff)


def random_k_element(d: SpaceDescriptor, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A group element of K, as exp of a random k-algebra element."""
    from scipy.linalg import expm

    return expm(np.tensordot(scale * rng.standard_normal(d.dim_k), geometry(d)._k_stack, axes=1))
