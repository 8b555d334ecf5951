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
most one nonzero entry per row and column.  So every basis but that of a
is entry triplets (member, column, value) from build to use: X -> X† and
each conjugation move the real coordinates by a signed index map read once
from its matrix, p and k are the signed orbit sums of the group of these
maps, the few sums with a trace lose it on the diagonal, and Gram-Schmidt
runs among those alone, over the diagonal; brackets with a radial
generator are taken by index as well, and m, zk-perp and a-perp keep the
nonzero entries of their combinations of k, one support component at a
time.  A sum over a basis is one scatter of its triplets; only the
sampler's p blocks keep an index table.

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
from .linalg import _check_generator, _check_int, _check_real, _finite_array

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
_SPLIT = ("m_centralizer", "zk_perp", "a_perp")  # the split's bases, in ``_root_split`` order
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
    m, n = _check_int("m", m, 0), _check_int("n", n, 1)
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

    The error names the first violated defining relation.  ContractViolation
    also unless ``rtol`` is a finite real number >= 0.
    """
    rtol = _check_real("rtol", rtol, 0.0)
    N = d.ambient_dim
    X = _finite_array("matrix", X, (N, N), complex)
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
    ContractViolation also unless ``rtol`` is a finite real number >= 0.
    """
    rtol = _check_real("rtol", rtol, 0.0)
    N = d.ambient_dim
    k = _finite_array("k", k, (N, N), complex)
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
    X = as_cmat(X, "X")
    check_membership(d, X)
    return (X - X.conj().T) / 2.0


def project_p(d: SpaceDescriptor, X) -> np.ndarray:
    """Hermitian component; computed as X - project_k(X) so the two parts
    reassemble X exactly in floating point."""
    X = as_cmat(X, "X")
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
    return _finite_array("radial vector", q, (d.real_rank,), float)


def root_values(d: SpaceDescriptor, q: np.ndarray) -> np.ndarray:
    """alpha(q) over the positive roots, in table order; +-inf where one
    leaves the doubles."""
    q = _radial_vector(d, q)
    with np.errstate(over="ignore"):
        return geometry(d).root_table[0] @ q


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


def _generic_point(rank: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(rank) + np.linspace(0.5, 1.5, rank)


def _real_flat(X) -> np.ndarray:
    """Real view of a matrix, or one row per matrix of a stack, copied to be
    contiguous if need be: the entries row by row, real and imaginary parts
    interleaved, so that dot products are Frobenius real inner products."""
    X = np.ascontiguousarray(X, dtype=complex)
    return X.reshape(X.shape[:-2] + (-1,)).view(float)


def _index_table(entries: tuple, shape: tuple) -> tuple:
    """A basis given by entry triplets (member, column, value), the columns
    in the layout of ``_real_flat`` of members of ``shape``, as a read-only
    index table for ``_assemble``: per column, the first contributing member
    ``src`` and its entry ``val`` (0 where none contributes); for the columns
    ``cols`` with more (the diagonals of p for ai, a2 and aii, which sum
    several trace-corrected members), one level per further one in member
    order, members ``more_src`` and entries ``more_val`` padded with member 0
    and the entry 0; last, ``shape``."""
    member, col, value = entries
    width = 2 * math.prod(shape)
    order = np.lexsort((member, col))  # by column, then by member
    member, col, value = member[order], col[order], value[order]
    count = np.bincount(col, minlength=width)
    level = np.arange(len(col)) - (np.cumsum(count) - count)[col]
    top = level == 0
    src, val = np.zeros(width, dtype=np.intp), np.zeros(width)
    src[col[top]], val[col[top]] = member[top], value[top]
    cols = np.flatnonzero(count > 1)
    more_src = np.zeros((max(int(count.max(initial=0)) - 1, 0), len(cols)), dtype=np.intp)
    more_val = np.zeros(more_src.shape)
    at = (level[~top] - 1, (np.cumsum(count > 1) - 1)[col[~top]])  # level, place in cols
    more_src[at], more_val[at] = member[~top], value[~top]
    for a in (src, val, cols, more_src, more_val):
        a.flags.writeable = False
    return src, val, cols, more_src, more_val, shape


def _assemble(table: tuple, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_a g[i, a] B_a over the basis B of an ``_index_table``, one matrix per
    row of ``g``, by index with no BLAS call: each entry is its first contributor's
    term plus the further ones in basis order, whatever the number of rows.
    ``out``, a C-contiguous float array of shape (len(g), number of real
    entries), receives the entries if given; the result is a view of it."""
    src, val, cols, more_src, more_val, shape = table
    B = np.empty((len(g), len(src))) if out is None else out
    # every index is in range; mode="raise" would gather into a buffer first
    np.take(g, src, axis=1, mode="clip", out=B)
    B *= val
    B += 0.0  # an empty entry reads +0.0, as in a sum from zero, not g * 0 = -0.0
    sub = B[:, cols]
    for s, v in zip(more_src, more_val):
        sub += g[:, s] * v
    B[:, cols] = sub
    return B.view(complex).reshape(len(g), *shape)


def _scatter(entries: tuple, c, shape: tuple) -> np.ndarray:
    """sum_a c_a B_a over a basis given by entry triplets (member, column,
    value) sorted by member, for one coefficient row or a stack of rows: one
    ``np.bincount``, row i's columns offset by i times the 2 prod(shape) real
    entries of a member.  Each column's terms add in member order from +0.0."""
    member, col, val = entries
    c = np.asarray(c, dtype=float)
    rows = c.reshape(math.prod(c.shape[:-1]), c.shape[-1])
    width = 2 * math.prod(shape)
    at = (col + width * np.arange(len(rows))[:, None]).ravel()
    B = np.bincount(at, (rows[:, member] * val).ravel(), minlength=len(rows) * width)
    return B.view(complex).reshape(c.shape[:-1] + shape)


def _coords(entries: tuple, X) -> np.ndarray:
    """Re<B_a, X> over a basis given by entry triplets sorted by member, for
    a matrix X or a stack: a gather of X at the triplets, summed per member."""
    member, col, val = entries
    terms = _real_flat(X)[..., col] * val
    if not len(member):  # bdi(1,1) has no zk-perp
        return terms
    starts = np.flatnonzero(member[1:] != member[:-1]) + 1
    return np.add.reduceat(terms, np.concatenate(([0], starts)), axis=-1)


def _ad_entries(entries: tuple, Hs) -> tuple[np.ndarray, ...]:
    """The commutators [B, H] = BH - HB over a basis given by entry triplets
    (member, column, value), for each real H of ``Hs`` with at most one
    nonzero per row and column (every radial generator), by index: an entry
    h at (a, b) makes column b of BH from column a of B and row a of HB from
    row b, both times h.  Two terms at one position are summed and exact
    zeros dropped, so every value is that of the two products and the
    entries are the nonzero pattern of the bracket rows.  Returns (op,
    member, column, value), op the place of H in ``Hs``, sorted by op,
    member and column."""
    member, col, val = entries
    Hs = np.asarray(Hs)
    nH, N = len(Hs), Hs.shape[-1]
    if ((np.count_nonzero(Hs, axis=1) > 1).any() or (np.count_nonzero(Hs, axis=2) > 1).any()
            or np.iscomplexobj(Hs) and Hs.imag.any()):
        raise ConsistencyError(
            "bracket by index needs a real H with at most one nonzero per row and column"
        )
    i, a, b = np.nonzero(Hs)
    to_col, to_row = np.full((nH, N), -1), np.full((nH, N), -1)
    to_col[i, a], to_row[i, b] = b, a  # column a of B goes to column b, row b to row a
    by_col, by_row = np.zeros((nH, N)), np.zeros((nH, N))
    by_col[i, a], by_row[i, b] = Hs[i, a, b].real, -Hs[i, a, b].real
    x, y = (col // 2) // N, (col // 2) % N  # real and imaginary parts interleave
    ri, re = np.nonzero(to_col[:, y] >= 0)
    li, le = np.nonzero(to_row[:, x] >= 0)
    op = np.concatenate([ri, li])
    member = np.concatenate([member[re], member[le]])
    col = np.concatenate([col[re] + 2 * (to_col[ri, y[re]] - y[re]),
                          col[le] + 2 * N * (to_row[li, x[le]] - x[le])])
    val = np.concatenate([val[re] * by_col[ri, y[re]], val[le] * by_row[li, x[le]]])
    key = (op * (int(member.max(initial=0)) + 1) + member) * (2 * N * N) + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    val = np.add.reduceat(val[order], start) if len(start) else val
    start = order[start[val != 0]]
    return op[start], member[start], col[start], val[val != 0]


def _components(n: int, member: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Per member of n, the least member of its connected component, two
    members being joined when they share a column: each pass gives every
    member the least label over the columns it touches, then follows the
    labels one link further."""
    label = np.arange(n)
    low = np.empty(int(col.max(initial=-1)) + 1, dtype=label.dtype)
    while True:
        low.fill(n)
        np.minimum.at(low, col, label[member])
        new = label.copy()
        np.minimum.at(new, member, low[col])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _blocks(n: int, entries: tuple, nops: int, joined: int) -> list:
    """The members of a basis of n, split into the connected components of
    the nonzero pattern of their rows under the operators op < ``joined``,
    and grouped by size.  ``entries`` are (op, member, column, value) over
    ``nops`` operators; a member with no entry is in no component, one that
    no joining operator touches is a component alone.  Members of two
    components share no column under the joining operators, so the Gram
    matrices of those rows are block diagonal, with exact zeros off the
    blocks.  Returns, per component size s from the least, the members
    (G, s) of its G components in basis order, the rows (nops, G, s, w) of
    every operator, dense over the w columns that any of them touches in
    the component, in column order and zero-padded, and those columns
    (G, w), padded with 0."""
    op, member, col, val = entries
    link = op < joined
    label = _components(n, member[link], col[link])
    touched = np.zeros(n, dtype=bool)
    touched[member] = True
    live = np.flatnonzero(touched)
    size = np.bincount(label[live], minlength=n)
    order = live[np.lexsort((live, label[live], size[label[live]]))]
    new = np.diff(label[order], prepend=-1) != 0
    first = np.flatnonzero(new)
    comp = np.zeros(n, dtype=np.intp)  # component of each member, numbered in order
    comp[order] = np.cumsum(new) - 1
    pos = np.zeros(n, dtype=np.intp)  # place of each member in its component
    pos[order] = np.arange(len(order)) - first[comp[order]]
    keep = touched[member]
    op, member, col, val = op[keep], member[keep], col[keep], val[keep]
    # local columns: per component, the distinct columns it touches, in order
    c = comp[member]
    key = c * (int(col.max(initial=0)) + 1) + col
    by = np.argsort(key, kind="stable")
    fresh = np.diff(key[by], prepend=-1) != 0
    local = np.empty(len(col), dtype=np.intp)
    local[by] = np.cumsum(fresh) - 1
    width = np.bincount(c[by[fresh]], minlength=len(first))
    local -= (np.cumsum(width) - width)[c]
    csize = size[label[order[first]]]
    edges = np.flatnonzero(np.diff(csize, prepend=0, append=0))
    groups = []
    for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
        s, G = int(csize[lo]), hi - lo
        at = (c >= lo) & (c < hi)
        rows = np.zeros((nops, G, s, int(width[lo:hi].max())))
        rows[op[at], c[at] - lo, pos[member[at]], local[at]] = val[at]
        cols = np.zeros(rows.shape[1:4:2], dtype=np.intp)
        cols[c[at] - lo, local[at]] = col[at]
        groups.append((order[first[lo] : first[lo] + G * s].reshape(G, s), rows, cols))
    return groups


def _root_step(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvector columns of a stack of blocks of the
    symmetric ad(He) ad(Hg) on the part of k that is not m.  The two maps
    are self-adjoint and commute, so at a generic g the eigenspaces are root
    spaces."""
    return np.linalg.eigh(A)


def _split_entries(parts: list) -> tuple[np.ndarray, ...]:
    """One basis of the split as read-only entry triplets (member, column,
    value) sorted by member and column.  A part is rows (G, r, w) over the
    columns (G, w) of G components (``_blocks``) and their eigenvalues
    (G, r); the rows of all parts are the members in order of eigenvalue
    (stably), as in one eigendecomposition, and their nonzero entries the
    triplets."""
    mu = np.concatenate([ev.ravel() for *_, ev in parts] + [np.zeros(0)])
    row = np.empty(len(mu), dtype=np.intp)
    row[np.argsort(mu, kind="stable")] = np.arange(len(mu))
    found, start = [(np.zeros(0, dtype=np.intp),) * 2 + (np.zeros(0),)], 0
    for rows, cols, ev in parts:
        g, k, j = np.nonzero(rows)
        found.append((row[start + g * rows.shape[1] + k], cols[g, j], rows[g, k, j]))
        start += ev.size
    member, col, val = (np.concatenate(x) for x in zip(*found))
    order = np.lexsort((col, member))
    entries = member[order], col[order], val[order]
    for a in entries:
        a.flags.writeable = False
    return entries


@lru_cache(maxsize=None)
def _transpose_map(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The conjugate transpose X -> X† as (dest, sign) on the real
    coordinates of ``_real_flat``: coordinate c moves to dest[c] with the
    factor sign[c], entry a,b to b,a with its imaginary part negated.
    Read-only, built once per N."""
    c = np.arange(2 * N * N)
    at, part = c // 2, c % 2
    dest = 2 * (at % N * N + at // N) + part
    sign = 1.0 - 2.0 * part
    dest.flags.writeable = sign.flags.writeable = False
    return dest, sign


def _compose(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The signed permutation a after b, each given as (dest, sign)."""
    return a[0][b[0]], b[1] * a[1][b[0]]


@lru_cache(maxsize=None)
def _conjugation_maps(d: SpaceDescriptor) -> tuple[tuple[np.ndarray, np.ndarray, int], ...]:
    """Each conjugation of ``_conjugations`` as (dest, sign, s): M moves the
    real coordinate c of ``_real_flat`` to dest[c] with the factor sign[c].
    Read once per descriptor by applying M to one matrix whose entry a,b is
    (1 + i)(aN + b + 1): G, J and S are signed permutations, so M(X) has
    entry f X_cd or f conj(X_cd) at each position, with f = +-1.
    ConsistencyError unless the maps and the conjugate transpose are
    involutions that commute pairwise: p and k are then the fixed spaces of
    the abelian group they generate, which ``_orbit_sums`` spans."""
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
        dest = np.empty(2 * half, dtype=np.intp)
        factor = np.empty(2 * half)
        dest[2 * src], dest[2 * src + 1] = 2 * here, 2 * here + 1
        factor[2 * src], factor[2 * src + 1] = sign, -sign if flip else sign
        dest.flags.writeable = factor.flags.writeable = False
        maps.append((dest, factor, s))
    gens = [m[:2] for m in maps] + [_transpose_map(N)]
    one = (np.arange(2 * half), np.ones(2 * half))
    if not all(np.array_equal(x, y) for g in gens for x, y in zip(_compose(g, g), one)):
        raise ConsistencyError(f"{d.label()}: a defining conjugation is not an involution")
    if not all(np.array_equal(x, y) for g, h in combinations(gens, 2)
               for x, y in zip(_compose(g, h), _compose(h, g))):
        raise ConsistencyError(
            f"{d.label()}: the defining conjugations and X -> X† do not commute pairwise"
        )
    return tuple(maps)


def _orbit_sums(d: SpaceDescriptor, onto_p: bool):
    """The candidates of the p basis (``onto_p``) or of k as unsorted entry
    triplets (candidate, column, value) in the layout of ``_real_flat``, and
    the mask of the trace-corrected candidates.

    p is the fixed space of X -> X† and of X -> s M(X) for each map M of
    ``_conjugation_maps``, k that of X -> -X† and of each M: of commuting
    signed involutions of the real coordinates.  It is spanned by the signed
    orbit sums of the group they generate (its Reynolds operator).  At a
    coordinate c, an orbit's sum counts the elements g that map c to the
    orbit's least coordinate, each with its sign at c times its character;
    g being an involution, these are the images of the least coordinate.
    Images are formed under the maps that move coordinates; one that keeps
    them in place (Γ, complex conjugation) scales the count at c by 1 + its
    character times its sign at c.

    A sum that is not zero is the candidate of the unit E_ii,
    (E_ij + E_ji)/sqrt2 or i(E_ij - E_ji)/sqrt2 (i <= j; i times each for k)
    whose head, its first nonzero coordinate, is the orbit's least one: an
    orbit holds the transpose of each coordinate, and one on the diagonal
    that is no head has a zero sum.  The count times the head's value (1 on
    the diagonal, +-1/sqrt2 off it) is the unit's own orbit average up to a
    power of two, which normalization cancels exactly.  Candidates are
    numbered in unit order, with gaps, from 0 to 2 N^2 - 1.  In the
    traceless classes a candidate with a nonzero trace t (the E_ii) loses
    t/N on every diagonal entry, the real and imaginary parts of t apart."""
    N = d.ambient_dim
    width = 2 * N * N
    img, sgn = np.arange(width)[None], np.ones((1, width))
    scale = np.ones(width)
    for dest, sign, chi in ((*_transpose_map(N), 1 if onto_p else -1),
                            *((m, f, s if onto_p else 1) for m, f, s in _conjugation_maps(d))):
        if np.array_equal(dest, img[0]):  # keeps every coordinate in place
            scale *= 1.0 + chi * sign
        else:
            img, sgn = (np.concatenate([img, dest[img]]),
                        np.concatenate([sgn, chi * sign[img] * sgn]))
    least = img.min(axis=0)
    count = np.where(img == least, sgn, 0.0).sum(axis=0) * scale
    col = np.flatnonzero(count)
    head = least[col]
    # the units of one position come real part first for p, imaginary first for k
    cand = head if onto_p else head ^ 1
    r2 = 1.0 / np.sqrt(2)
    val = count[col] * np.where((head // 2) % (N + 1) == 0, 1.0,
                                r2 if onto_p else np.where(head % 2, r2, -r2))
    corrected = np.zeros(width, dtype=bool)
    if d.kind in _TRACELESS:
        on = (col // 2) % (N + 1) == 0  # the diagonal entries
        trace = np.zeros((2, width))  # real and imaginary parts
        np.add.at(trace, (col[on] % 2, cand[on]), val[on])
        corrected = trace.any(axis=0)
        rows = np.flatnonzero(corrected)
        fix = on & corrected[cand]
        diag = np.zeros((len(rows), N, 2))  # per corrected candidate, its diagonal
        slot = (np.cumsum(corrected) - 1)[cand[fix]]
        diag[slot, col[fix] // (2 * N + 2), col[fix] % 2] = val[fix]
        diag -= trace[:, rows].T[:, None, :] / N
        r, pos, part = np.nonzero(diag)
        cand = np.concatenate([cand[~fix], rows[r]])
        col = np.concatenate([col[~fix], 2 * pos * (N + 1) + part])
        val = np.concatenate([val[~fix], diag[r, pos, part]])
    return cand, col, val, corrected


def _gram_schmidt_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order-preserving Gram-Schmidt of the candidate ``rows`` (real
    coordinates whose dot products are the Frobenius real inner products, as
    in ``_vec_rows`` and ``_real_flat``: the trace form on Hermitians, its
    negative on anti-Hermitians).  A row that shares no nonzero column with an earlier one is
    normalized as it is: its projections would be sums of exact zeros.  Any
    other is projected off the rows kept before it with one matrix-vector
    product per pass, in two passes ("twice is enough": Giraud, Langou and
    Rozloznik, 2005).  A row is kept if its norm is above ``_GS_TOL``.
    Returns the kept rows and the mask of the candidates kept."""
    support = rows != 0
    seen = np.zeros_like(support)  # seen[r]: the columns some row before r touches
    np.logical_or.accumulate(support[:-1], axis=0, out=seen[1:])
    kept = np.empty_like(rows)
    keep = np.zeros(len(rows), dtype=bool)
    k = 0
    for j, (lone, v) in enumerate(zip((~(support & seen).any(axis=1)).tolist(), rows)):
        if not lone:
            for _ in range(2):
                v = v - kept[:k].T @ (kept[:k] @ v)
        nrm = math.sqrt(v @ v)  # np.linalg.norm's arithmetic for a real vector
        if nrm > _GS_TOL:
            kept[k] = v / nrm
            keep[j] = True
            k += 1
    return kept[:k], keep


class SpaceGeometry:
    """Cached numeric Cartan data for one descriptor.

    Bases are orthonormal for the trace form on the p side and its
    negative on the k side; with that convention all coordinate maps are
    plain Euclidean dot products against the basis.
    """

    def __init__(self, descriptor: SpaceDescriptor):
        self.descriptor = descriptor

    # -- bases ------------------------------------------------------------

    def _unit_basis(self, onto_p: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal basis of p, from the Hermitian units, or of k, from
        the anti-Hermitian ones, as read-only entry triplets (member, column,
        value) in the layout of ``_real_flat``, sorted by member and column:
        the orbit sums (``_orbit_sums``) in unit order.  The sums of two
        orbits share no column, so each is normalized alone, but for the
        trace-corrected ones, which share the diagonal: ``_gram_schmidt_rows``
        runs among them alone, dense over the columns they touch.
        ConsistencyError unless the members are as many as theory says."""
        d = self.descriptor
        cand, col, val, corrected = _orbit_sums(d, onto_p)
        width = len(corrected)  # 2 N^2, the candidate numbers and the columns
        norm = np.sqrt(np.bincount(cand, val * val, minlength=width))
        plain = ~corrected & (norm > _GS_TOL)
        # the trace-corrected candidates, dense over the columns they touch
        rows, on = np.flatnonzero(corrected), corrected[cand]
        touched = np.zeros(width, dtype=bool)
        touched[col[on]] = True
        dense = np.zeros((len(rows), np.count_nonzero(touched)))
        dense[(np.cumsum(corrected) - 1)[cand[on]], (np.cumsum(touched) - 1)[col[on]]] = val[on]
        kept, keep = _gram_schmidt_rows(dense)
        plain[rows[keep]] = True
        name, want = ("p", d.dim_p) if onto_p else ("k", d.dim_k)
        if np.count_nonzero(plain) != want:
            raise ConsistencyError(
                f"{d.label()}: built {np.count_nonzero(plain)} {name}-basis elements, "
                f"theory says {want}"
            )
        member = np.cumsum(plain) - 1
        r, c = np.nonzero(kept)
        e = plain[cand] & ~on
        member = np.concatenate([member[cand[e]], member[rows[keep][r]]])
        col = np.concatenate([col[e], np.flatnonzero(touched)[c]])
        order = np.argsort(member * width + col, kind="stable")
        entries = (member[order], col[order],
                   np.concatenate([val[e] / norm[cand[e]], kept[r, c]])[order])
        for a in entries:
            a.flags.writeable = False
        return entries

    @cached_property
    def _p_entries(self) -> tuple:
        return self._unit_basis(onto_p=True)

    @cached_property
    def _k_entries(self) -> tuple:
        return self._unit_basis(onto_p=False)

    @cached_property
    def _block_table(self) -> tuple:
        """The p basis cut to the spectral block, as the sampler's ``_index_table``:
        ``_assemble`` builds 1024-draw blocks 2 to 6.6 times faster than ``_scatter``."""
        N = self.descriptor.ambient_dim
        at = _spectral_block(self.descriptor, np.arange(N * N).reshape(N, N))
        place = np.full(N * N, -1)  # each position's place in the block, -1 off it
        place[at.ravel()] = np.arange(at.size)
        member, col, val = self._p_entries
        pos = place[col // 2]
        on = pos >= 0
        return _index_table((member[on], 2 * pos[on] + col[on] % 2, val[on]), at.shape)

    @cached_property
    def _a_stack(self) -> np.ndarray:
        """Read-only orthonormal stack of a: ``_gram_schmidt_rows`` on the
        radial generators in order."""
        N = self.descriptor.ambient_dim
        rows = _vec_rows(np.stack(self.a_embed))
        kept = _gram_schmidt_rows(rows[rows.any(axis=1)])[0]  # exact zeros stay zero
        stack = (kept[:, : N * N] + 1j * kept[:, N * N :]).reshape(len(kept), N, N)
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
    def _root_split(self) -> tuple:
        """Root-adapted bases of m, zk-perp and a-perp, as read-only entry
        triplets (member, column, value) in the layout of ``_real_flat``
        sorted by member and column, and C.

        m is the kernel of ad(H(e))^2 on k (every root has |alpha(e)| >= 1).
        zk-perp holds the eigenvectors Z_k of ad(H(e)) ad(H(g)) on the rest
        of k at the seeded generic g, each in one restricted-root space;
        a-perp holds the partners R_k = [Z_k, H(e)] / |alpha_k(e)|.  There
        r -> [r, H(q)] is diag(C q), C[k, i] = <Z_k, [R_k, H_i]> being the
        integer coefficients of the root of Z_k.  The measured map is checked
        to be such a diagonal; C keeps the integers, dropping rounding noise,
        with its zeros as +0.0.  The largest deviation is kept for
        ``bracket_residual``.

        Both eigenvector steps run one support component of k at a time
        (``_blocks``): the ad(H(e)) and ad(H(g)) rows of members of two
        components share no column, so both maps are block diagonal with
        exact zeros off the blocks.  The blocks of one size go through one
        batched ``eigh`` per step, and the eigenpairs of all blocks are
        sorted by eigenvalue, so m, Z and the rows of C come in the order
        of one eigendecomposition over all of k.  A member of m and Z_k,
        [Z_k, H(e)] and [[Z_k, H(e)], H_i] are the eigenvector's combination
        of the members' entries, brackets and double brackets (all by
        index) over the columns the component touches, off which they
        vanish: the bases keep the nonzero entries.  So that Z_k does not
        flip with the last bits of k, its first entry (by column) above half
        the row's largest modulus is made positive; R_k follows, C does not.
        The k basis is read once, as the entry triplets it is built as.
        """
        d = self.descriptor
        rank = d.real_rank
        want = d.dim_p - rank
        kb = self._k_entries
        He = self.embed_radial(self.e_coords)
        Hg = self.embed_radial(_generic_point(rank, _ROOT_SEED))
        ad = _ad_entries(kb, [He, Hg])
        ve = tuple(x[ad[0] == 0] for x in ad[1:])  # [B, H(e)]
        dd = _ad_entries(ve, self.a_embed)  # [[B, H(e)], H_i]
        # operators: ad(H(e)) and ad(H(g)), which join the components, the
        # basis itself, and the double brackets, one per generator
        ops = [np.concatenate(x) for x in zip(ad, (np.full(len(kb[0]), 2), *kb),
                                                (dd[0] + 3, *dd[1:]))]
        m_parts, z_parts, r_parts, c_parts = [], [], [], []
        worst = np.zeros(rank)
        for members, rows, cols in _blocks(d.dim_k, ops, 3 + rank, 2):
            Ve, Vg, K, D = rows[0], rows[1], rows[2], rows[3:]
            s = members.shape[1]
            lam, U = np.linalg.eigh(Ve @ Ve.transpose(0, 2, 1))
            P = Ve @ Vg.transpose(0, 2, 1)
            rest = np.count_nonzero(lam >= 0.5, axis=1)  # the last ones: eigh sorts ascending
            for r in sorted(set(rest.tolist())):
                on = rest == r
                m_parts.append((U[on, :, : s - r].transpose(0, 2, 1) @ K[on], cols[on],
                                lam[on, : s - r]))
                if not r:
                    continue
                Ur = U[on, :, s - r :]
                A = Ur.transpose(0, 2, 1) @ P[on] @ Ur
                mu, V = _root_step((A + A.transpose(0, 2, 1)) / 2.0)
                W = Ur @ V  # Z_k = sum_j W[j, k] B_j over the members B_j
                Wt = W.transpose(0, 2, 1)
                Zl = Wt @ K[on]  # Z_k on the component's columns
                mag = np.abs(Zl)
                pivot = np.argmax(mag > mag.max(axis=2, keepdims=True) / 2, axis=2)
                sign = np.sign(np.take_along_axis(Zl, pivot[..., None], 2))
                Zl *= sign  # negation is exact: as if W had had the sign
                W *= sign.transpose(0, 2, 1)
                Rl = Wt @ Ve[on]  # [Z_k, H(e)] on the component's columns
                norm = np.sqrt(np.einsum("gkw,gkw->gk", Rl, Rl))
                # [R_k, H_i] lies in zk-perp and should be C_ki Z_k
                Bl = (Wt @ D[:, on]) / norm[:, :, None]
                Ci = np.rint(np.einsum("gkw,igkw->igk", Zl, Bl)) + 0.0
                Bl -= Ci[..., None] * Zl
                resid = np.sqrt(np.einsum("igkw,igkw->igk", Bl, Bl))
                worst = np.maximum(worst, resid.max(axis=(1, 2)))
                z_parts.append((Zl, cols[on], mu))
                r_parts.append((Rl / norm[:, :, None], cols[on], mu))
                c_parts.append(Ci.transpose(1, 2, 0).reshape(-1, rank))
        bad = np.flatnonzero(worst > _BRACKET_TOL)
        if bad.size:
            raise ConsistencyError(
                f"{d.label()}: bracket map with generator {bad[0]} is not diag(C q) with "
                f"integer C in the root-adapted bases (deviation {worst[bad[0]]:.3e})"
            )
        mu = np.concatenate([ev.ravel() for *_, ev in z_parts] + [np.zeros(0)])
        if len(mu) != want:
            raise ConsistencyError(
                f"{d.label()}: dim zk-perp {len(mu)} does not match dim a-perp {want}"
            )
        C = np.concatenate(c_parts + [np.zeros((0, rank))])[np.argsort(mu, kind="stable")]
        self._bracket_residual = float(worst.max(initial=0.0))
        return (_split_entries(m_parts), _split_entries(z_parts), _split_entries(r_parts), C)

    @property
    def bracket_coeffs(self) -> np.ndarray:
        """C with r -> [r, H(q)] equal to diag(C q) from a-perp to zk-perp."""
        return self._root_split[3]

    @property
    def bracket_residual(self) -> float:
        """The largest |[R_k, H_i] - C_ki Z_k| the split measured."""
        self._root_split
        return self._bracket_residual

    def _stack(self, which: str) -> np.ndarray:
        """The dense basis ``which``, a ``basis_of`` selector but "a",
        scattered from its triplets on request and never cached.  Every
        member has an entry, so the last member's index counts them."""
        if which in ("p", "k"):
            member, col, val = self._p_entries if which == "p" else self._k_entries
        else:
            member, col, val = self._root_split[_SPLIT.index(which)]
        N = self.descriptor.ambient_dim
        rows = np.zeros((member[-1] + 1 if len(member) else 0, 2 * N * N))
        rows[member, col] = val
        return rows.view(complex).reshape(len(rows), N, N)

    @cached_property
    def _zk_rows(self) -> np.ndarray:
        """The reduced field's dense zk-perp rows in the layout of
        ``_real_flat``, made on first use, read-only; for bdi and ai, whose
        zk-perp lies in so(N) (no entry in an imaginary column), the N^2
        real columns."""
        N = self.descriptor.ambient_dim
        rows = self._stack("zk_perp").view(float).reshape(-1, 2 * N * N)
        if not (self._root_split[1][1] % 2).any():
            rows = np.ascontiguousarray(rows[:, ::2])
        rows.flags.writeable = False
        return rows

    # -- coordinates -------------------------------------------------------

    def aperp_coords(self, X) -> np.ndarray:
        return _coords(self._root_split[2], X)

    def aperp_from_coords(self, c) -> np.ndarray:
        return _scatter(self._root_split[2], c, (self.descriptor.ambient_dim,) * 2)

    def zk_coords(self, X) -> np.ndarray:
        return _coords(self._root_split[1], X)

    def zk_from_coords(self, c) -> np.ndarray:
        return _scatter(self._root_split[1], c, (self.descriptor.ambient_dim,) * 2)

    def p_from_coords(self, c) -> np.ndarray:
        return _scatter(self._p_entries, c, (self.descriptor.ambient_dim,) * 2)

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
    if which == "a":
        return list(geo._a_stack.copy())  # one copy of the cached stack, detached from it
    if which not in ("p", "k") + _SPLIT:
        raise ContractViolation(f"unknown subspace selector {which!r}")
    return list(geo._stack(which))  # assembled afresh, so detached


# ---------------------------------------------------------------------------
# numeric restricted-root oracle


def numeric_roots(d: SpaceDescriptor, seed: int = _ROOT_SEED) -> list[RestrictedRoot]:
    """Recover the restricted roots from the bracket geometry alone.

    Reruns the root step on zk-perp at its own seeded generic g, with its
    own component pass, and fits integer roots to the eigenvectors it finds
    (``_measure_roots``, ``_fit_roots``).  It reads the zk-perp triplets
    only, never C or a-perp, so it serves as an independent oracle for the
    tabulated roots and for the split's C.
    """
    seed = _check_int("seed", seed, 0)
    Z = geometry(d)._root_split[1]
    return _fit_roots(d, *_measure_roots(d, Z, d.dim_p - d.real_rank, seed))


def _measure_roots(d: SpaceDescriptor, Z: tuple, n: int, seed: int) -> tuple:
    """Per vector v in the span of the n members of Z, given as entry
    triplets (member, column, value): w with w_i = alpha(E) alpha_i and the
    largest residual |A_i v - w_i v|, A_i = <ad(H(E)) Z_j, ad(H_i) Z_k>.

    The vectors are the eigenvectors of A(g) = sum_i g_i A_i at the generic
    g of ``seed``, in increasing order of eigenvalue.  Brackets are taken
    by index on the entries of Z, which split into the support components
    of the ad(H(E)) and ad(H_i) rows (``_blocks``); each A_i is formed once
    per block, and the blocks of one size are measured together."""
    geo = geometry(d)
    rank = d.real_rank
    ops = [geo.embed_radial(geo.e_coords), *geo.a_embed]
    groups = _blocks(n, _ad_entries(Z, ops), len(ops), len(ops))
    g = _generic_point(rank, seed)
    # a vector no bracket touches keeps w = 0 and eigenvalue 0
    w, resid, mu = np.zeros((n, rank)), np.zeros(n), np.zeros(n)
    # the slots of a block's members hold its eigenvectors, in eigh's order
    for members, V, _ in groups:
        A = V[0] @ V[1:].transpose(0, 1, 3, 2)  # (rank, G, s, s)
        Ag = np.tensordot(g, A, axes=1)
        mu[members], vecs = np.linalg.eigh((Ag + Ag.transpose(0, 2, 1)) / 2.0)
        AV = A @ vecs
        wi = np.einsum("gsk,igsk->igk", vecs, AV)
        w[members] = wi.transpose(1, 2, 0)
        resid[members] = np.linalg.norm(AV - vecs * wi[:, :, None, :], axis=2).max(axis=0)
    order = np.argsort(mu, kind="stable")
    return w[order], resid[order]


def _fit_roots(d: SpaceDescriptor, w: np.ndarray, resid: np.ndarray) -> list[RestrictedRoot]:
    """Positive roots with multiplicities of the measured vectors of
    ``_measure_roots``; ConsistencyError at the first that is no root
    vector.  w / alpha(E), with alpha(E)^2 = w.E, should be an integer
    vector, up to the residual."""
    e = geometry(d).e_coords
    s2 = w @ e
    c = w / np.sqrt(np.where(s2 > 0, s2, 1.0))[:, None]
    c_int = np.rint(c)
    fit = np.maximum(resid, np.max(np.abs(c - c_int), axis=1, initial=0.0))
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
    """A standard Gaussian element of p.  ContractViolation unless ``rng``
    is a ``numpy.random.Generator``."""
    return geometry(d).p_from_coords(_check_generator("rng", rng).standard_normal(d.dim_p))


def random_k_element(
    d: SpaceDescriptor, rng: np.random.Generator, scale: float = 1.0
) -> np.ndarray:
    """A group element of K, exp(A) for A in k with standard Gaussian
    coordinates times ``scale``.

    A is anti-Hermitian, so iA is Hermitian and, for (w, V) = eigh(iA),
    exp(A) = V e^{-iw} V†: one ``np.linalg.eigh``, well conditioned because V
    is unitary (Moler and Van Loan, SIAM Rev. 45 (2003) 3, the eigenvector
    method for normal matrices).  For bdi and ai, whose K is real, the
    imaginary part is rounding and is dropped; ConsistencyError if it is
    above 1e-12 max(1, |w|).  ContractViolation unless ``rng`` is a
    ``numpy.random.Generator`` and ``scale`` a finite real number.
    """
    rng = _check_generator("rng", rng)
    c = _check_real("scale", scale) * rng.standard_normal(d.dim_k)
    A = _scatter(geometry(d)._k_entries, c, (d.ambient_dim,) * 2)
    w, V = np.linalg.eigh(1j * A)
    k = (V * np.exp(-1j * w)) @ V.conj().T
    if d.kind in ("bdi", "ai"):
        drift = np.abs(k.imag).max()
        if drift > 1e-12 * max(1.0, np.abs(w).max()):
            raise ConsistencyError(
                f"exp of a real k element of {d.label()} has an imaginary part {drift:.3e}"
            )
        k = k.real.astype(complex)
    return k
