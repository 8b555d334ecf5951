import csv
import io
import math

import numpy as np
import pytest

from cartanflow import make_space
from cartanflow.dynamics import _ABORT_FACTOR, Trajectory
from cartanflow.linalg import ConsistencyError, ContractViolation, as_cmat, commutator, frobenius
from cartanflow.radial import WALL_TOL, SliceCoords, radial_coords_batch
from cartanflow.reduction import ReducedState, jacobian_density, random_chamber_point
from cartanflow.sampling import CHUNK_SIZE
from cartanflow.spaces import (
    _GS_TOL,
    RestrictedRoot,
    SpaceDescriptor,
    _ROOT_SEED,
    _BRACKET_TOL,
    _generic_point,
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


def _reference_reduced(d: SpaceDescriptor) -> tuple:
    """The reduced system of one space as it is defined: the zk-perp
    coordinate maps as einsum sums over ``basis_of(d, "zk_perp")``, the
    energy, and the field with a Gram solve and a matrix commutator in
    every call.  Returns (zk_coords, zk_from_coords, hamiltonian, field),
    the last two on a state (q, p, lc), lc the zk-perp coordinates of l."""
    geo = geometry(d)
    N = d.ambient_dim
    # the explicit shape keeps an empty zk-perp (bdi(1,1)) a stack of matrices
    Z = np.array(basis_of(d, "zk_perp"), dtype=complex).reshape(-1, N, N)
    G, C = geo.gram, geo.bracket_coeffs

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

    return zk_coords, zk_from_coords, hamiltonian, field


def reference_vector_field(
    d: SpaceDescriptor, state: ReducedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dq, dp, dl) of the reduced flow at a state, dl as a matrix in
    zk-perp, from the field of ``_reference_reduced``.  Reference for
    ``reduced_vector_field``."""
    zk_coords, zk_from_coords, _, field = _reference_reduced(d)
    q, p = np.asarray(state.q, dtype=float), np.asarray(state.p, dtype=float)
    dq, dp, dl = field(q, p, zk_coords(np.asarray(state.l, dtype=complex)))
    return dq, dp, zk_from_coords(dl)


def reference_integrate_reduced(d, initial, t_max, steps):
    """The per-step RK4 loop of the reduced flow with separate (q, p, l)
    states, the field of ``_reference_reduced`` and the invariants logged
    step by step.  A state fails the wall test when its least signed root
    value (``reference_root_table``) is not above the abort floor; the run
    stops before the first that fails.  Reference for ``integrate_reduced``."""
    zk_coords, zk_from_coords, hamiltonian, field = _reference_reduced(d)
    roots = reference_root_table(d)[0]

    def l_matrix_spectrum(lc):
        return np.sort(np.linalg.eigvalsh(1j * zk_from_coords(lc)))[::-1]

    def wall_ok(qv) -> bool:
        return (roots @ qv).min(initial=np.inf) > _ABORT_FACTOR * WALL_TOL

    q = np.asarray(initial.q, dtype=float).copy()
    p = np.asarray(initial.p, dtype=float).copy()
    lc = zk_coords(np.asarray(initial.l, dtype=complex))
    h = float(t_max) / steps
    times = [0.0]
    qs, ps, ls = [q.copy()], [p.copy()], [zk_from_coords(lc)]
    energies = [hamiltonian(q, p, lc)]
    spectra = [l_matrix_spectrum(lc)]
    aborted = None
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
        qs.append(q.copy())
        ps.append(p.copy())
        ls.append(zk_from_coords(lc))
        energies.append(hamiltonian(q, p, lc))
        spectra.append(l_matrix_spectrum(lc))
    return Trajectory(
        times=np.array(times),
        q=np.array(qs),
        p=np.array(ps),
        l=np.array(ls),
        energies=np.array(energies),
        l_spectra=np.array(spectra),
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


def reference_log_chamber_integral(d: SpaceDescriptor) -> float:
    """Closed-form log of the chamber integral of prod |alpha(q)|^m_alpha * exp(-q^T G q / 2),
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
    return log_z


def reference_chamber_integral(d: SpaceDescriptor) -> float:
    """The chamber integral Z, exp of ``reference_log_chamber_integral``."""
    return math.exp(reference_log_chamber_integral(d))


def reference_radial_density(d: SpaceDescriptor, q) -> float:
    """The normalized radial density as the direct quotient: the reference
    root table's product prod |alpha(q)|^m_alpha times exp(-q^T G q / 2),
    over ``reference_chamber_integral``; 0.0 outside the chamber."""
    q = np.asarray(q, dtype=float)
    if not reference_chamber_contains(d, q):
        return 0.0
    coeffs, mults = reference_root_table(d)
    weight = math.exp(-0.5 * q @ reference_gram(d) @ q)
    return float(np.prod(np.abs(coeffs @ q) ** mults)) * weight / reference_chamber_integral(d)


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
    return kappa * float(np.prod(np.abs(coeffs @ q) ** mults))


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


def _real_rows(stack: np.ndarray) -> np.ndarray:
    """Read-only real view (dim, 2 size) of a stack of matrices, copied to be
    contiguous if need be: one row per member with its real and imaginary
    parts interleaved, as ``spaces._real_flat`` lays out a matrix.  Row dot
    products are Frobenius real inner products."""
    # the explicit width keeps an empty stack (bdi(1,1) has no zk-perp) reshapable
    rows = np.ascontiguousarray(stack).reshape(len(stack), math.prod(stack.shape[1:])).view(float)
    rows.flags.writeable = False
    return rows


def stack_entries(stack: np.ndarray) -> tuple:
    """The nonzero entries of a stack of matrices as the triplets (member,
    column, value) in the layout of ``_real_rows`` that the library keeps its
    bases as, sorted by member and column."""
    rows = _real_rows(stack)
    member, col = np.nonzero(rows)
    return member, col, rows[member, col]


def reference_unit_entries(d: SpaceDescriptor, onto_p: bool) -> tuple:
    """``reference_unit_basis`` as the entry triplets (member, column, value)
    in the layout of ``_real_rows`` that ``SpaceGeometry._unit_basis``
    returns."""
    return stack_entries(reference_unit_basis(d, onto_p))


def reference_member_sum(entries: tuple, c, shape: tuple) -> np.ndarray:
    """sum_a c_a B_a over a basis given by entry triplets (member, column,
    value), for a stack of coefficient rows: zeros, then one member's terms
    at a time, in member order."""
    member, col, val = entries
    c = np.asarray(c, dtype=float)
    B = np.zeros((len(c), 2 * math.prod(shape)))
    for a in range(c.shape[1]):
        on = member == a
        B[:, col[on]] += c[:, a, None] * val[on]
    return B.view(complex).reshape(len(c), *shape)


# the sides whose build orthonormalizes trace-corrected candidates: p of ai,
# a2 and aii and k of aiii and a2, whose E_ii lose tr/N.  The entry-list build
# runs that Gram-Schmidt over the diagonal columns alone, so the bits of
# those members follow a different grouping of the same sums
TRACE_CORRECTED = {True: ("ai", "a2", "aii"), False: ("aiii", "a2")}


def assert_matches_unit_basis(d: SpaceDescriptor, onto_p: bool, got, want, exact: bool) -> None:
    """A p (``onto_p``) or k stack, or its spectral blocks, against the
    reference's: the trace-corrected members (the diagonal ones of a side in
    ``TRACE_CORRECTED``) within 4 eps, every other member byte for byte with
    ``exact``, by value otherwise (signed zeros may differ)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    corrected = np.zeros(len(want), dtype=bool)
    if d.kind in TRACE_CORRECTED[onto_p]:
        off = want.copy()
        off[:, np.arange(d.ambient_dim), np.arange(d.ambient_dim)] = 0.0
        corrected = ~off.any(axis=(1, 2))
    if exact:
        assert got[~corrected].tobytes() == want[~corrected].tobytes()
    else:
        assert np.array_equal(got[~corrected], want[~corrected])
    assert np.max(np.abs(got[corrected] - want[corrected]), initial=0.0) <= 4 * np.finfo(float).eps


def assert_orthonormal(stack, tol: float = 1e-15) -> None:
    """The real rows of a stack are orthonormal within ``tol``, entry by entry."""
    rows = _real_rows(np.asarray(stack))
    assert np.max(np.abs(rows @ rows.T - np.eye(len(rows))), initial=0.0) <= tol


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
# the centralizer split over all of k at once, before
# ``SpaceGeometry._root_split`` took k one support component at a time, with
# the bracket by index it used, kept verbatim (only renamed, a function of
# the descriptor that reads its cached geometry) as its reference


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


def _ad_rows(stack: np.ndarray, H: np.ndarray) -> np.ndarray:
    """``_vec_rows`` of the commutators [B, H] over a stack of matrices B."""
    X = stack @ H
    X -= H @ stack
    return _vec_rows(X)


def reference_root_step(stack: np.ndarray, He: np.ndarray, Hg: np.ndarray) -> np.ndarray:
    """Eigenvectors (columns) of ad(He) ad(Hg) on the span of an orthonormal
    stack of k elements.  The maps are self-adjoint and commute, so the
    product is symmetric; at a generic g its eigenspaces are root spaces."""
    A = _ad_rows(stack, He) @ _ad_rows(stack, Hg).T
    _, vecs = np.linalg.eigh((A + A.T) / 2.0)
    return vecs


def reference_root_split(d: SpaceDescriptor) -> tuple:
    """Stacks of m, zk-perp and a-perp, and C, from two dense ``eigh`` calls
    over all of k: m is the kernel of ad(H(e))^2, zk-perp the eigenvectors of
    ad(H(e)) ad(H(g)) on the rest at the seeded generic g."""
    self = geometry(d)
    rank = d.real_rank
    want = d.dim_p - rank
    kb = self._stack("k")
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
    Z = np.tensordot(reference_root_step(k_rest, He, Hg).T, k_rest, axes=1)
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
        row += [f"{v:.12g}" for v in traj.q[idx]]
        row.append(f"{traj.energies[idx]:.12g}")
        row += [f"{v:.12g}" for v in traj.l_spectra[idx]]
        if deviations is not None:
            row.append(f"{deviations[idx]:.6e}")
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
# a BLAS-free reference assembly of seeded draws and of the sampler's
# blocks: from +0.0 zeros, add g[:, a] times the real row of the a-th member
# of ``basis_of(d, "p")`` (cut to the spectral block with ``block``) for
# every member in basis order.  Adding a zero entry is exact, so each entry
# is the sum of its contributors' terms in basis order, whatever the number
# of draws; the rows come from the public basis, not from the index table
# the library assembles with


def reference_p_rows(d: SpaceDescriptor, block: bool = True) -> tuple[np.ndarray, tuple]:
    """``_real_rows`` of ``basis_of(d, "p")``, cut to the spectral block with
    ``block``, and the shape of one member."""
    stack = np.array(basis_of(d, "p"))
    stack = np.ascontiguousarray(_spectral_block(d, stack) if block else stack)
    return _real_rows(stack), stack.shape[1:]


def exact_p_assembly(d: SpaceDescriptor, g: np.ndarray, block: bool = True) -> np.ndarray:
    rows, shape = reference_p_rows(d, block)
    B = np.zeros((len(g), rows.shape[1]))
    for a in range(len(rows)):
        B += g[:, a, None] * rows[a]
    return B.view(complex).reshape(len(g), *shape)


# ---------------------------------------------------------------------------
# the chunk loop of ``sampling.sample_radial_batch`` before it streamed each
# chunk through sub-blocks, kept as its reference (renamed, with the chunk
# generator inlined): every chunk's normals and blocks at once, and the
# complex product for every class.  It knows no sub-block, so it holds for
# any cut: the sampler's sub-blocks fill a byte budget, and their draw count
# depends on the space (152 for a2(12), 8192 for aiii(2,1)).  ``real``
# makes the product take the real columns, as the sampler did for bdi and
# ai; ``exact`` replaces the product by ``exact_p_assembly``


def reference_sample_radial_batch(
    d: SpaceDescriptor, count: int, seed: int, real: bool = False, exact: bool = False
) -> np.ndarray:
    rows, shape = reference_p_rows(d)
    if real:
        rows = np.ascontiguousarray(rows[:, 0::2])
    n_chunks = (count + CHUNK_SIZE - 1) // CHUNK_SIZE

    def run_chunk(c: int) -> np.ndarray:
        size = min(CHUNK_SIZE, count - c * CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(c,)))
        g = rng.standard_normal((size, d.dim_p))
        if exact:
            return radial_coords_batch(d, exact_p_assembly(d, g))
        B = g @ rows
        return radial_coords_batch(d, (B if real else B.view(complex)).reshape(size, *shape))

    parts = [run_chunk(c) for c in range(n_chunks)]
    return np.concatenate(parts, axis=0)
