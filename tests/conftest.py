import csv
import io
import math

import numpy as np
import pytest

from cartanflow import make_space
from cartanflow.dynamics import _ABORT_FACTOR, Trajectory
from cartanflow.linalg import ConsistencyError, ContractViolation, as_cmat, commutator, frobenius
from cartanflow.radial import WALL_TOL, SliceCoords, radial_coords_batch
from cartanflow.reduction import ReducedState, _root_product, jacobian_density, random_chamber_point
from cartanflow.sampling import CHUNK_SIZE
from cartanflow.spaces import (
    _GS_TOL,
    RestrictedRoot,
    SpaceDescriptor,
    _ad_rows,
    _quaternionic_j,
    _radial_vector,
    _spectral_block,
    _sym_form,
    _vec_rows,
    basis_of,
    check_p_membership,
    geometry,
)

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
    m_basis = basis_of(d, "m_centralizer")
    if not m_basis:
        return 0
    rng = np.random.default_rng(seed)
    r = geo.aperp_from_coords(rng.standard_normal(len(basis_of(d, "a_perp"))))
    cols = [commutator(xi, r).ravel() for xi in m_basis]
    A = np.stack([np.concatenate([c.real, c.imag]) for c in cols], axis=1)
    sv = np.linalg.svd(A, compute_uv=False)
    # singular values are O(1) or at round-off (~1e-16), so a relative
    # cut far from both separates them
    return int(np.sum(sv > 1e-8 * sv[0]))


def _gram_schmidt(mats: list[np.ndarray], tol: float = _GS_TOL) -> list[np.ndarray]:
    """Modified Gram-Schmidt on matrices under the Frobenius real inner
    product (which equals the trace form on Hermitians and its negative on
    anti-Hermitians).  Drops dependent members; deterministic order."""
    basis: list[np.ndarray] = []
    vecs: list[np.ndarray] = []
    for M in mats:
        v = _vec_rows(M[None])[0]
        for _ in range(2):  # twice for numerical orthogonality
            for b in vecs:
                v = v - np.dot(b, v) * b
        nrm = np.linalg.norm(v)
        if nrm > tol:
            v /= nrm
            vecs.append(v)
            half = v.size // 2
            side = M.shape[0]
            basis.append((v[:half] + 1j * v[half:]).reshape(side, side))
    return basis


def dense_aperp_basis(d) -> list:
    """a-perp without root adaptation: the p basis projected off a, then
    Gram-Schmidt orthonormalized.  Reference for the diagonal bracket map."""
    a_basis = basis_of(d, "a")
    reduced = []
    for P in basis_of(d, "p"):
        Q = P.copy()
        for A in a_basis:
            Q = Q - np.vdot(A, Q).real * A
        reduced.append(Q)
    basis = _gram_schmidt(reduced)
    assert len(basis) == d.dim_p - d.real_rank
    return basis


def reference_integrate_reduced(d, initial, t_max, steps):
    """The per-step RK4 loop of the reduced flow with separate (q, p, l)
    states, einsum coordinate maps, a Gram solve in every field call and the
    invariants logged step by step.  Reference for ``integrate_reduced``."""
    from cartanflow.dynamics import _ABORT_FACTOR, Trajectory
    from cartanflow.radial import WALL_TOL
    from cartanflow.reduction import ReducedState
    from cartanflow.spaces import wall_distance

    geo = geometry(d)
    Z, G, C = geo._zk_stack, geo.gram, geo.bracket_coeffs

    def zk_coords(X):
        return np.einsum("aij,ij->a", Z.conj(), X).real

    def zk_from_coords(c):
        return np.einsum("a,aij->ij", c, Z)

    def r_and_w(q, lc):
        a = C @ q
        r = lc / a
        return r, r / a

    def hamiltonian(q, p, lc):
        r, _ = r_and_w(q, lc)
        return 0.5 * float(p @ G @ p) + 0.5 * float(r @ r)

    def field(q, p, lc):
        r, w = r_and_w(q, lc)
        dq = p.copy()
        dp = np.linalg.solve(G, C.T @ (w * r))
        dl = zk_coords(commutator(zk_from_coords(lc), zk_from_coords(w)))
        return dq, dp, dl

    def l_matrix_spectrum(lc):
        return np.sort(np.linalg.eigvalsh(1j * zk_from_coords(lc)))[::-1]

    q = np.asarray(initial.q, dtype=float).copy()
    p = np.asarray(initial.p, dtype=float).copy()
    lc = zk_coords(np.asarray(initial.l, dtype=complex))
    h = float(t_max) / steps
    times = [0.0]
    states = [ReducedState(q.copy(), p.copy(), zk_from_coords(lc))]
    energies = [hamiltonian(q, p, lc)]
    spectra = [l_matrix_spectrum(lc)]
    aborted = None

    def wall_ok(qv) -> bool:
        return wall_distance(d, qv) > _ABORT_FACTOR * WALL_TOL

    assert wall_ok(q)
    for step in range(steps):
        k1 = field(q, p, lc)
        k2 = field(q + 0.5 * h * k1[0], p + 0.5 * h * k1[1], lc + 0.5 * h * k1[2])
        k3 = field(q + 0.5 * h * k2[0], p + 0.5 * h * k2[1], lc + 0.5 * h * k2[2])
        k4 = field(q + h * k3[0], p + h * k3[1], lc + h * k3[2])
        q = q + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        lc = lc + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not wall_ok(q):
            aborted = f"radial point reached a chamber wall at t={times[-1] + h:.6g}"
            break
        times.append((step + 1) * h)
        states.append(ReducedState(q.copy(), p.copy(), zk_from_coords(lc)))
        energies.append(hamiltonian(q, p, lc))
        spectra.append(l_matrix_spectrum(lc))
    return Trajectory(
        times=np.array(times),
        states=states,
        energies=np.array(energies),
        l_spectra=np.array(spectra),
        aborted=aborted,
    )



# ---------------------------------------------------------------------------
# the flat-state reduced flow as it was before the field wrote into
# preallocated arrays, kept verbatim (only renamed; the vector field skips
# the wall check) as the byte-identity reference for ``_Reduced.field``,
# ``reduced_vector_field`` and ``integrate_reduced``


class _ReferenceFlatReduced:
    """Coordinate-level reduced system for one descriptor (internal).

    A state is one flat vector y = (q, p, lc), lc the zk-perp coordinates
    of l.  In the root-adapted bases r -> [r, H(q)] is diag(C q), so r and w
    come from two divisions and the energy has the Calogero-Moser/Sutherland
    form p^T G p / 2 + sum_k l_k^2 / (C q)_k^2 / 2.  ``split``, ``r_and_w``
    and ``hamiltonian`` broadcast over leading axes (a stack of states).
    """

    def __init__(self, d: SpaceDescriptor):
        self.d = d
        self.geo = geometry(d)
        self.gram = self.geo.gram
        self.C = self.geo.bracket_coeffs  # (dzk, rank)
        self.rank = d.real_rank
        # dH/dq = -C^T (w r); Hamilton's equations flip the sign back and
        # G^{-1} turns the force into dp
        self._force = self.geo.gram_inv @ self.C.T
        self._zk = self.geo._zk_rows
        self._shape = (d.ambient_dim, d.ambient_dim)

    def flat(self, state: ReducedState) -> np.ndarray:
        q, p = np.asarray(state.q, dtype=float), np.asarray(state.p, dtype=float)
        return np.concatenate((q, p, self.geo.zk_coords(np.asarray(state.l, dtype=complex))))

    def split(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = self.rank
        return y[..., :r], y[..., r : 2 * r], y[..., 2 * r :]

    def r_and_w(self, q: np.ndarray, lc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = q @ self.C.T
        r = lc / a
        return r, r / a

    def hamiltonian(self, q, p, lc):
        r, _ = self.r_and_w(q, lc)
        return 0.5 * np.sum((p @ self.gram) * p, axis=-1) + 0.5 * np.sum(r * r, axis=-1)

    def field(self, y: np.ndarray) -> np.ndarray:
        q, p, lc = self.split(y)
        r, w = self.r_and_w(q, lc)
        zk, shape = self._zk, self._shape
        L = (lc @ zk).view(complex).reshape(shape)
        W = (w @ zk).view(complex).reshape(shape)
        # L and W are anti-Hermitian, so [L, W] = LW - (LW)^dagger and its
        # coordinates against the anti-Hermitian zk-perp basis are twice those of LW
        dl = 2.0 * ((L @ W).reshape(-1).view(float) @ zk.T)
        return np.concatenate((p, self._force @ (w * r), dl))


def reference_flat_vector_field(
    d: SpaceDescriptor, state: ReducedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dq, dp, dl) of the reduced flow; dl is returned as
    a matrix in the centralizer orthocomplement."""
    sys = _ReferenceFlatReduced(d)
    dq, dp, dl = sys.split(sys.field(sys.flat(state)))
    return dq, dp, sys.geo.zk_from_coords(dl)


def reference_flat_integrate_reduced(
    d: SpaceDescriptor, initial: ReducedState, t_max: float, steps: int
) -> Trajectory:
    """Classical fixed-step fourth-order integration of the reduced flow.

    Logs the energy and the spectrum of l at every step.  If the radial
    point approaches a chamber wall the trajectory is truncated and the
    abort reason recorded.
    """
    if steps < 1:
        raise ContractViolation("steps must be a positive integer")
    sys = _ReferenceFlatReduced(d)
    y = sys.flat(initial)
    h = float(t_max) / steps
    half, sixth = 0.5 * h, h / 6.0
    coeffs = sys.geo.root_table[0]

    def wall_ok(yv) -> bool:
        # the signed root values: a step that ends across a wall fails as well
        return (coeffs @ yv[: sys.rank]).min(initial=np.inf) > _ABORT_FACTOR * WALL_TOL

    if not wall_ok(y):
        raise ContractViolation(
            "initial radial point is too close to a chamber wall or outside the chamber"
        )
    history = np.empty((steps + 1, y.size))
    history[0] = y
    done, aborted = 0, None
    # the loop only steps and checks the wall; the log is built after it
    for step in range(steps):
        k1 = sys.field(y)
        k2 = sys.field(y + half * k1)
        k3 = sys.field(y + half * k2)
        k4 = sys.field(y + h * k3)
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        if not wall_ok(y):
            aborted = f"radial point reached a chamber wall at t={step * h + h:.6g}"
            break
        done = step + 1
        history[done] = y
    q, p, lc = sys.split(history[: done + 1])
    lmats = sys.geo.zk_from_coords(lc)
    # eigvalsh returns ascending values; the log keeps them descending
    spectra = np.linalg.eigvalsh(1j * lmats)[:, ::-1]
    return Trajectory(
        times=np.arange(done + 1) * h,
        states=[ReducedState(*s) for s in zip(q, p, lmats)],
        energies=sys.hamiltonian(q, p, lc),
        l_spectra=spectra,
        aborted=aborted,
    )


# ---------------------------------------------------------------------------
# the slice-coordinate check before it tested r against the a stack in one
# product, kept verbatim (only renamed)


def reference_check_slice_coords(d: SpaceDescriptor, s: SliceCoords) -> np.ndarray:
    """r of the slice coordinates, or ContractViolation; tests r against
    the a basis one matrix at a time.  Reference for
    ``radial._check_slice_coords``."""
    q = np.asarray(s.q, dtype=float)
    if q.shape != (d.real_rank,) or np.asarray(s.p).shape != (d.real_rank,):
        raise ContractViolation("q and p must have length equal to the real rank")
    r = np.asarray(s.r, dtype=complex)
    check_p_membership(d, r)
    scale = max(frobenius(r), 1.0)
    for A in basis_of(d, "a"):
        if abs(np.vdot(A, r).real) > 1e-10 * scale:
            raise ContractViolation("r has a component along a; it must lie in a-perp")
    return r


# ---------------------------------------------------------------------------
# the kind-by-kind structure chains of spaces.py before the conjugation table,
# kept verbatim (only renamed) as the reference for _project, _relations and
# check_k_group_membership


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


def reference_relations(d: SpaceDescriptor, X: np.ndarray):
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


def reference_check_k_group_membership(d: SpaceDescriptor, k, rtol: float = 1e-9) -> None:
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


def reference_project(d: SpaceDescriptor, X: np.ndarray, onto_p: bool) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# the kind-by-kind root tables, Weyl flags, chamber test and chamber integral
# of the code before ``spaces._root_system``, kept verbatim (only renamed, and
# reading each other in place of the library's table and flags) as the
# reference for the code generated from (type, beta, s, l)


def root_system_grid():
    """aiii, bdi and cii with n <= 8 and m <= 10; ai, a2, aii and diii with
    n <= 12; ci with n <= 12: 212 spaces."""
    cases = []
    for kind in ("aiii", "bdi", "cii"):
        for n in range(1, 9):
            for m in range(n, 11):
                cases.append((kind, m, n))
    for kind in ("ai", "a2", "aii", "diii"):
        for n in range(2, 13):
            cases.append((kind, 0, n))
    for n in range(1, 13):
        cases.append(("ci", 0, n))
    return cases


def reference_has_sign_flip_weyl(d: SpaceDescriptor) -> bool:
    if d.kind == "bdi" and d.m == d.n:
        return False
    return d.kind in ("aiii", "bdi", "cii", "diii", "ci")


def reference_trace_constrained(d: SpaceDescriptor) -> bool:
    return d.kind in ("ai", "a2", "aii")


def _reference_trace_class_root_coeffs(n: int) -> list[tuple[int, ...]]:
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


def reference_restricted_roots(d: SpaceDescriptor) -> list[RestrictedRoot]:
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
        roots = [RestrictedRoot(c, mult) for c in _reference_trace_class_root_coeffs(n)]
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


def reference_root_table(d: SpaceDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, multiplicities) of ``reference_restricted_roots`` as
    the float arrays of ``SpaceGeometry.root_table``."""
    roots = reference_restricted_roots(d)
    coeffs = np.array([r.coeffs for r in roots], dtype=float).reshape(len(roots), d.real_rank)
    mults = np.array([r.multiplicity for r in roots], dtype=float)
    return coeffs, mults


def reference_chamber_contains(d: SpaceDescriptor, q, tol: float = 1e-12) -> bool:
    """Whether q lies in the closed positive Weyl chamber of the class."""
    q = np.asarray(q, dtype=float)
    if q.shape != (d.real_rank,):
        return False
    if reference_trace_constrained(d):
        lam = np.concatenate([q, [-np.sum(q)]])
        return bool(np.all(np.diff(lam) <= tol))
    if not np.all(np.diff(q) <= tol):
        return False
    if reference_has_sign_flip_weyl(d):
        return bool(q[-1] >= -tol)
    # so(n,n): the Weyl group flips signs only in pairs, so the last
    # coordinate keeps its sign, bounded in modulus by the one before
    return bool(q.size < 2 or q[-2] >= abs(q[-1]) - tol)


def reference_root_families(d: SpaceDescriptor, coeffs: np.ndarray, mults: np.ndarray) -> dict:
    """The multiplicity per root family decoded from a root table."""
    # multiplicity per root family, keyed (nonzero coefficients, largest
    # |coefficient|): (2, 1) e_i +- e_j, (1, 1) e_i, (1, 2) 2 e_i; A-type has one
    keys = zip(np.count_nonzero(coeffs, axis=1), np.max(np.abs(coeffs), axis=1))
    found = {
        ((0, 0) if reference_trace_constrained(d) else k, m) for k, m in zip(keys, mults.tolist())
    }
    mult = dict(found)
    if len(mult) < len(found) or not set(mult) <= {(0, 0), (2, 1), (1, 1), (1, 2)}:
        raise ConsistencyError(f"{d.label()}: root multiplicities do not fit Mehta or Selberg")
    return mult


def reference_gram(d: SpaceDescriptor) -> np.ndarray:
    """Gram matrix of the radial generators under the trace form."""
    H = geometry(d).a_embed
    r = len(H)
    G = np.empty((r, r))
    for i in range(r):
        for j in range(r):
            G[i, j] = np.einsum("ij,ji->", H[i], H[j]).real
    return G


def reference_chamber_integral(d: SpaceDescriptor) -> float:
    """Closed-form chamber integral of prod |alpha(q)|^m_alpha * exp(-q^T G q / 2),
    with the multiplicities decoded from the reference root table."""
    geo = geometry(d)
    r, lg = d.real_rank, math.lgamma
    shape = np.eye(r) + (1.0 if reference_trace_constrained(d) else 0.0)
    g = geo.gram[0, 0] / shape[0, 0]
    if not (g > 0 and np.max(np.abs(geo.gram - g * shape)) <= 1e-12 * g):
        raise ConsistencyError(f"{d.label()}: Gram matrix is not a multiple of the assumed shape")
    mult = reference_root_families(d, *reference_root_table(d))
    if reference_trace_constrained(d):
        n, beta = r + 1, mult[(0, 0)]
        log_z = (
            -((n - 1) / 2 + beta * n * (n - 1) / 4) * math.log(g)
            + (n - 1) / 2 * math.log(2 * math.pi) - math.log(n) / 2 - lg(n + 1)
            + sum(lg(1 + j * beta / 2) - lg(1 + beta / 2) for j in range(1, n + 1))
        )
    else:
        beta, s, ell = (mult.get(f, 0.0) for f in ((2, 1), (1, 1), (1, 2)))
        a = s + ell
        log_z = (
            r * ell * math.log(2) - lg(r + 1)
            + (r * a / 2 + beta * r * (r - 1) / 2) * math.log(2 / g) - r / 2 * math.log(2 * g)
            + sum(
                lg((a + 1) / 2 + j * beta / 2) + lg(1 + (j + 1) * beta / 2) - lg(1 + beta / 2)
                for j in range(r)
            )
        )
        if not reference_has_sign_flip_weyl(d):
            log_z += math.log(2)  # so(n,n): the last coordinate takes either sign
    return math.exp(log_z)


# ---------------------------------------------------------------------------
# the Monte Carlo estimate of the density constant, kept verbatim from the
# code before ``reduction.density_constant`` became an exact multiset check
# (only renamed; the ``roots`` override of the closed form lives here now)

# the eight spaces of the perfbench geometry-cold workload
GEOMETRY_COLD = [
    ("aiii", 8, 8),
    ("diii", 0, 8),
    ("cii", 4, 3),
    ("ci", 0, 6),
    ("aii", 0, 6),
    ("ai", 0, 8),
    ("aiii", 3, 2),
    ("bdi", 3, 3),
]


def reference_closed_form_density(
    d: SpaceDescriptor, q, roots: list[RestrictedRoot] | None = None
) -> float:
    """kappa * prod |alpha(q)|^mult(alpha); ``roots`` overrides the table."""
    q = _radial_vector(d, q)
    if roots is None:
        coeffs, mults = geometry(d).root_table
    else:
        coeffs = np.array([r.coeffs for r in roots], dtype=float).reshape(len(roots), len(q))
        mults = np.array([r.multiplicity for r in roots])
    kappa = 0.5**d.real_rank if d.kind == "aiii" else 1.0
    return kappa * _root_product(coeffs, mults, q)


def reference_ratio_spread(
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
        closed = reference_closed_form_density(d, q, roots=roots)
        if closed <= 0:
            continue
        ratios.append(jacobian_density(d, q) / closed)
    ratios = np.array(ratios)
    mean = float(np.mean(ratios))
    spread = float((np.max(ratios) - np.min(ratios)) / abs(mean))
    return mean, spread


# ---------------------------------------------------------------------------
# Gram-Schmidt that projects every candidate, and the root fit one
# eigenvector at a time, kept verbatim (only renamed; the fit takes the
# zk-perp stack and the eigenvector columns as arguments) from the code
# before the support test and the batched fit, as their reference


def reference_orthonormalize(stack: np.ndarray, tol: float = _GS_TOL) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# the dense basis build before ``SpaceGeometry._unit_basis`` took the units
# as entry lists: all N^2 Hermitian units as N x N matrices (the stacking
# function kept verbatim, only renamed), projected by ``reference_project``
# and orthonormalized by ``reference_orthonormalize``, as its reference


def reference_hermitian_units(N: int) -> np.ndarray:
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


def reference_unit_basis(d: SpaceDescriptor, onto_p: bool) -> np.ndarray:
    """Orthonormal stack of p, from the Hermitian units, or of k, from the
    anti-Hermitian ones, built from the dense unit stack."""
    units = reference_hermitian_units(d.ambient_dim)
    return reference_orthonormalize(reference_project(d, units if onto_p else 1j * units, onto_p))


def reference_numeric_roots(
    d: SpaceDescriptor, Z: np.ndarray, vecs: np.ndarray
) -> list[RestrictedRoot]:
    """Integer roots of the columns of ``vecs`` (coordinates in the stack
    Z), measured on each eigenvector in turn: the diagonal
    alpha(E)*alpha_i of ad(H(E)) o ad(H_i) and its residual."""
    geo = geometry(d)
    e = geo.e_coords
    He = geo.embed_radial(e)
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
# the CSV formatting of ``cli._cmd_flow`` before its rows came from one
# stacked array, kept verbatim (only renamed, with the csv writer of
# ``cli._csv_text`` and the trajectory as arguments) as its reference


def _reference_csv_text(meta: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    for k, v in meta.items():
        buf.write(f"# {k}={v}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def reference_flow_csv(d: SpaceDescriptor, args, traj, deviations) -> str:
    """What ``cartanflow flow`` writes for ``traj`` and its oracle
    ``deviations`` (None without --compare); ``args`` holds seed, t_max and
    steps."""
    from cartanflow.cli import _meta

    nspec = traj.l_spectra.shape[1] if traj.l_spectra.size else d.ambient_dim
    header = (
        ["t"]
        + [f"q_{i + 1}" for i in range(d.real_rank)]
        + ["H"]
        + [f"l_spec_{i + 1}" for i in range(nspec)]
    )
    if deviations is not None:
        header.append("deviation")
    rows = []
    for idx, t in enumerate(traj.times):
        row = [f"{t:.12g}"]
        row += [f"{v:.12g}" for v in traj.states[idx].q]
        row.append(f"{traj.energies[idx]:.12g}")
        row += [f"{v:.12g}" for v in traj.l_spectra[idx]]
        if deviations is not None:
            row.append(f"{deviations[idx]:.6e}" if idx < len(deviations) else "")
        rows.append(row)
    meta = _meta(d, seed=args.seed, t_max=args.t_max, steps=args.steps)
    if traj.aborted:
        meta["aborted"] = traj.aborted
    return _reference_csv_text(meta, header, rows)


# ---------------------------------------------------------------------------
# the per-class spectral step of ``radial.radial_coords_batch`` before the
# rank-1 norm and the real LAPACK calls for bdi and ai, kept verbatim (only
# renamed) as their reference: one complex SVD or eigvalsh per draw


def reference_radial_coords_batch(d: SpaceDescriptor, Xs: np.ndarray) -> np.ndarray:
    kind, n, N = d.kind, d.n, d.ambient_dim
    B = _spectral_block(d, Xs) if Xs.shape[-2:] == (N, N) else Xs
    if kind in ("aiii", "bdi"):
        s = np.linalg.svd(B, compute_uv=False)
        if not d.has_sign_flip_weyl:
            # so(n,n): only even sign flips are available, so the last
            # coordinate carries sign(det B) (times the parity of the
            # antidiagonal pattern permutation)
            parity = (-1.0) ** (n * (n - 1) // 2)
            s[:, -1] *= parity * np.sign(np.linalg.det(B.real))
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
# a BLAS-free reference assembly of the sampler's blocks: from +0.0 zeros,
# add g[:, a] times the a-th row of ``_block_rows`` for every p basis row in
# basis order.  Adding a zero row is exact, so each entry is the sum of its
# contributors' terms in basis order, whatever the number of draws


def exact_block_assembly(d: SpaceDescriptor, g: np.ndarray) -> np.ndarray:
    geo = geometry(d)
    rows, shape = geo._block_rows, _spectral_block(d, geo._p_stack).shape[1:]
    B = np.zeros((len(g), rows.shape[1]))
    for a in range(len(rows)):
        B += g[:, a, None] * rows[a]
    return B.view(complex).reshape(len(g), *shape)


# ---------------------------------------------------------------------------
# the chunk loop of ``sampling.sample_radial_batch`` before it streamed each
# chunk through sub-blocks, kept as its reference (renamed, with the chunk
# generator inlined): every chunk's normals and blocks at once, and the
# complex product for every class.  ``real`` makes the product take the real
# columns, as the sampler did for bdi and ai; ``exact`` replaces the product
# by ``exact_block_assembly``


def reference_sample_radial_batch(
    d: SpaceDescriptor, count: int, seed: int, real: bool = False, exact: bool = False
) -> np.ndarray:
    geo = geometry(d)
    rows, shape = geo._block_rows, _spectral_block(d, geo._p_stack).shape[1:]
    if real:
        rows = np.ascontiguousarray(rows[:, 0::2])
    n_chunks = (count + CHUNK_SIZE - 1) // CHUNK_SIZE

    def run_chunk(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, count - c * CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(c,)))
        g = rng.standard_normal((size, d.dim_p))
        if exact:
            return radial_coords_batch(d, exact_block_assembly(d, g))
        B = g @ rows
        return radial_coords_batch(d, (B if real else B.view(complex)).reshape(size, *shape))

    parts = [run_chunk(c) for c in range(n_chunks)]
    return np.concatenate(parts, axis=0)
