"""Level dynamics: the trivial direct flow and the reduced Hamiltonian flow.

The configuration flow X -> X + tY on p lifts to a free Hamiltonian
motion on p x p with H = trace_form(Y, Y)/2.  Transported to the slice
coordinates it becomes a flow in (q, p, l):

    dq/dt = p
    G dp/dt|_j = -B(w, [r, H_j])        (G the Gram matrix of the radial
                                         generators, B the trace form)
    dl/dt = [l, w]

where r solves [r, H(q)] = l and w solves [w, H(q)] = r (in the
root-adapted bases both are divisions by the root values); w is the
kappa-gradient of H with respect to l.  The l equation is a Lax pair, so
the spectrum of l is conserved along with the energy.  The direct flow is
exactly solvable and serves as the oracle for the reduced integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import ConsistencyError, ContractViolation, _check_int, _check_real, _finite_array
from .linalg import _numeric_array, as_cmat
from .radial import WALL_TOL, SliceCoords, radial_coords_batch, radial_decompose
from .reduction import ReducedState, _zk_perp_coords, l_from_slice
from .spaces import SpaceDescriptor, check_p_membership, geometry, wall_distance

__all__ = [
    "PhasePoint",
    "Trajectory",
    "OracleReport",
    "direct_flow",
    "reduce_phase_point",
    "reduced_hamiltonian",
    "reduced_vector_field",
    "integrate_reduced",
    "compare_with_oracle",
]

# integration aborts when the radial point comes this close to a wall
_ABORT_FACTOR = 10.0
# integration checks the wall once per block of this many logged states
_WALL_BLOCK = 32


@dataclass(frozen=True)
class PhasePoint:
    """Unreduced phase point: position X and momentum Y, both in p."""

    X: np.ndarray
    Y: np.ndarray


@dataclass
class Trajectory:
    """Fixed-step reduced trajectory with per-step invariants, as arrays
    with one row per retained step.

    ``q`` and ``p`` are (T, rank) and ``l`` is (T, N, N); ``energies`` and
    ``l_spectra`` log the Hamiltonian and the (sorted, imaginary-part)
    spectrum of l; ``aborted`` carries the reason when a wall approach
    truncated the integration.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    l: np.ndarray
    energies: np.ndarray
    l_spectra: np.ndarray
    aborted: str | None = None


@dataclass(frozen=True)
class OracleReport:
    """Sup-norm deviations of the reduced trajectory it compared from the
    direct flow, at each of its step times."""

    times: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    trajectory: Trajectory
    truncated: str | None = None


def direct_flow(start: PhasePoint, t: float) -> PhasePoint:
    """The exactly solvable flow (X, Y) -> (X + tY, Y), for numeric X and Y
    and a finite real t."""
    X, Y = _numeric_array("X", start.X, complex), _numeric_array("Y", start.Y, complex)
    return PhasePoint(X + _check_real("t", t) * Y, Y)


def reduce_phase_point(d: SpaceDescriptor, point: PhasePoint) -> tuple[ReducedState, np.ndarray]:
    """Slice-reduce an unreduced phase point.

    Returns the reduced state and the compact factor k with
    X = k H(q) k† and Y = k (H(p) + r) k†.
    """
    s, k = _slice_point(d, point)
    return ReducedState(q=s.q, p=s.p, l=l_from_slice(d, s)), k


def _slice_point(d: SpaceDescriptor, point: PhasePoint) -> tuple[SliceCoords, np.ndarray]:
    """The slice coordinates (q, p, r) of a phase point and the compact
    factor k with X = k H(q) k† and Y = k (H(p) + r) k†, from one radial
    decomposition of X."""
    geo = geometry(d)
    check_p_membership(d, point.Y)
    q, k = radial_decompose(d, point.X)
    Ybody = k.conj().T @ as_cmat(point.Y, "Y") @ k
    p = geo.a_pattern_coords(Ybody)
    return SliceCoords(q, p, Ybody - geo.embed_radial(p)), k


class _Reduced:
    """Coordinate-level reduced system for one descriptor (internal).

    A state is one flat vector y = (q, p, lc), lc the zk-perp coordinates
    of l.  In the root-adapted bases r -> [r, H(q)] is diag(C q), so r and w
    come from two divisions and the energy has the Calogero-Moser/Sutherland
    form p^T G p / 2 + sum_k l_k^2 / (C q)_k^2 / 2.  ``split``, ``r_and_w``
    and ``hamiltonian`` broadcast over leading axes (a stack of states).
    The field has one body, the closure ``bind`` returns: ``field`` and the
    four RK4 stages of ``integrate_reduced`` all run it.  The matrices L and
    W of lc and w come from one product of the pair (lc; w) with the dense
    zk-perp rows (``SpaceGeometry._zk_rows``).  For bdi and ai, whose
    zk-perp lies in so(N), those are the real columns (N^2 wide, not 2 N^2)
    and the instance binds real L, W and LW, so the same body runs in real
    arithmetic.  It works through scratch arrays that the instance
    allocates once, so an instance serves one caller at a time; the cached
    geometry it reads is never written.
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
        self._a, self._r, self._wr = np.empty((3, len(self.C)))

    @cached_property
    def _field_operands(self) -> tuple:
        """The zk rows, their doubled transpose, and the (2, N, N) buffer of
        the pair L, W and the N x N one of LW, made on the first ``bind``:
        the energy needs only C and G, and on a fresh geometry the rows are
        a dense scatter of the zk-perp triplets."""
        N = self.d.ambient_dim
        zk = self.geo._zk_rows
        # bdi and ai, the real-symmetric case, get real rows and run in real
        # arithmetic; the dtype is chosen here, once, for the same field body
        dtype = float if zk.shape[1] == N * N else complex
        # L and W are anti-Hermitian, so [L, W] = LW - (LW)^dagger and its
        # coordinates against the anti-Hermitian zk-perp basis are twice those
        # of (the real part of) LW.  Doubling the rows is exact, and the
        # transposed view keeps the operand layout of the product.
        return zk, (2.0 * zk).T, np.empty((2, N, N), dtype), np.empty((N, N), dtype)

    def flat(self, state: ReducedState) -> np.ndarray:
        """The flat vector of a reduced state.  ContractViolation unless q
        and p are finite vectors of the length of the real rank and l is a
        finite N x N matrix within 1e-10 max(|l|_F, 1) of zk-perp
        (``_zk_perp_coords``)."""
        rk = self.rank
        q = _finite_array("q", state.q, (rk,), float)
        p = _finite_array("p", state.p, (rk,), float)
        return np.concatenate((q, p, _zk_perp_coords(self.d, state.l)))

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

    def bind(self, src: np.ndarray, out: np.ndarray):
        """A closure of no arguments that writes dy/dt at the flat state held
        in ``src`` into ``out``, reading ``src`` afresh on every call.

        ``src`` holds the flat state y (length n) followed by a tail of dz
        entries that the call writes w into, so that lc and w are the rows
        of one contiguous (2, dz) view and L and W come from one product
        with the zk rows, into one (2, N, N) buffer.  The tail may be the
        head of ``out``: the call reads w for the last time before it writes
        ``out``.  ``out`` takes dy/dt in its leading n entries; a longer
        ``out`` keeps the rest as it was.  The slice views of ``src`` and
        ``out``, the instance's scratch and the constant operands are bound
        once, so a call makes eight NumPy calls and one slice copy and
        allocates nothing.  Each product is the bound ``dot`` method of its
        left operand, with the output passed positionally: ``np.dot`` makes
        the same BLAS call, but only after a Python-level
        ``__array_function__`` dispatch, 0.2 to 0.3 us a call.  The root
        values C q go to the scratch ``_a``, which nothing reads after the
        call."""
        rk, dz = self.rank, len(self.C)
        q, p = src[:rk], src[rk : 2 * rk]
        lw = src[2 * rk : 2 * rk + 2 * dz].reshape(2, dz)
        lc, w = lw
        dq, dp, dl = out[:rk], out[rk : 2 * rk], out[2 * rk : 2 * rk + dz]
        a, r, wr = self._a, self._r, self._wr
        zk, zk2_t, pair, LW = self._field_operands
        (L, W), pairf, LWf = pair, pair.reshape(2, -1).view(float), LW.reshape(-1).view(float)
        Ct, divide, multiply = self.C.T, np.divide, np.multiply
        q_dot, lw_dot, L_dot, LWf_dot, force_dot = q.dot, lw.dot, L.dot, LWf.dot, self._force.dot

        def field() -> None:
            q_dot(Ct, a)
            divide(lc, a, r)
            divide(r, a, w)
            lw_dot(zk, pairf)
            L_dot(W, LW)
            multiply(w, r, wr)  # the last read of w, whose tail may be the head of out
            LWf_dot(zk2_t, dl)
            dq[...] = p
            force_dot(wr, dp)

        return field

    def field(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write dy/dt at the flat state ``y`` into ``out`` and return it."""
        src = np.empty(y.size + len(self.C))
        src[: y.size] = y
        self.bind(src, out)()
        return out


def _flat_state(sys: _Reduced, state: ReducedState, what: str) -> np.ndarray:
    y = sys.flat(state)
    if wall_distance(sys.d, y[: sys.rank]) <= WALL_TOL:
        raise ContractViolation(f"reduced {what} undefined on a chamber wall")
    return y


def _step_size(t_max, steps) -> float:
    """h = t_max / steps.  ContractViolation unless t_max is a finite real
    number (a negative one integrates backwards) and steps a positive
    integer."""
    steps = _check_int("steps", steps, 1)
    return _check_real("t_max", t_max) / steps


def reduced_hamiltonian(d: SpaceDescriptor, state: ReducedState) -> float:
    """Energy of a reduced state: half the trace-form square of the
    reconstructed momentum H(p) + r(q, l)."""
    sys = _Reduced(d)
    return float(sys.hamiltonian(*sys.split(_flat_state(sys, state, "Hamiltonian"))))


def reduced_vector_field(
    d: SpaceDescriptor, state: ReducedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dq, dp, dl) of the reduced flow; dl is returned as
    a matrix in the centralizer orthocomplement."""
    sys = _Reduced(d)
    y = _flat_state(sys, state, "vector field")
    dq, dp, dl = sys.split(sys.field(y, np.empty_like(y)))
    return dq, dp, sys.geo.zk_from_coords(dl)


def integrate_reduced(
    d: SpaceDescriptor, initial: ReducedState, t_max: float, steps: int
) -> Trajectory:
    """Classical fixed-step fourth-order integration of the reduced flow.

    Logs the energy and the spectrum of l at every step.  If the radial
    point approaches a chamber wall the trajectory is truncated and the
    abort reason recorded.  A negative ``t_max`` integrates backwards.
    A step that leaves the finite numbers (an overflow, or the NaN that
    follows one) raises ``ConsistencyError`` naming t and h: it is not a
    wall approach, and no infinite value reaches the log.

    A step applies the Butcher tableau of classical RK4 to one contiguous
    (5, n) buffer K whose rows are the state y and the stage derivatives
    k1..k4, so that every tableau product hands BLAS its operand as it is
    (``np.dot`` copies an operand whose rows are not adjacent).  Each stage
    input is one product of a tableau row with the leading rows of K,
    [1, h/2] K[:2], [1, 0, h/2] K[:3] and [1, 0, 0, h] K[:4], and the new
    state is [1, h/6, h/3, h/3, h/6] K, written into its row of the
    preallocated history and copied into K[0].  The four stages run the
    one kernel body ``reduced_vector_field`` runs, bound once per call by
    ``_Reduced.bind``: K[0] -> k1 and the stage input -> k2, k3, k4.  The
    dz-long tail into which the field writes w follows lc in each source:
    the stage input carries its own, and that of K[0] is the head of K[1],
    which k1 overwrites after the field's last read of w.  Every product,
    here and in the field, is a bound ``ndarray.dot`` method.  A step is
    41 NumPy calls (36 in the four field calls, 4 tableau products and 1
    copy), and nothing is allocated per step.

    The wall check runs once per block of ``_WALL_BLOCK`` logged states:
    one product of their q rows with the positive roots and one reduction
    of the signed root values.  Only a block that fails is searched, row by
    row, for its first failing state, so the run stops at the same state
    as a check after every step, having made at most ``_WALL_BLOCK`` - 1
    steps more.  A state fails when its least root value is not above the
    abort floor.  Every start lies inside the chamber, where that is the
    test min |alpha(q)| > floor; a step that ends across a wall, even one
    jumped between two step ends, fails it, and so does a NaN.
    """
    h = _step_size(t_max, steps)
    sys = _Reduced(d)
    y = sys.flat(initial)
    floor = _ABORT_FACTOR * WALL_TOL
    roots = sys.geo.root_table[0]
    if not (roots @ y[: sys.rank]).min(initial=np.inf) > floor:
        raise ContractViolation(
            "initial radial point is too close to a chamber wall or outside the chamber"
        )
    n, rk = y.size, sys.rank
    history = np.empty((steps + 1, n))
    history[0] = y
    # the stage input carries the dz-long w tail the field writes; K[0]
    # borrows the head of K[1] for its tail
    K, stage_in = np.empty((5, n)), np.empty(n + len(sys.C))
    K0, stage_y = K[0], stage_in[:n]
    K0[...] = y
    # the rows of the RK4 tableau, each led by the 1 that y enters with:
    # the three stage inputs' coefficients, then the weights
    a2, a3 = np.array([1.0, 0.5 * h]), np.array([1.0, 0.0, 0.5 * h])
    a4, b = np.array([1.0, 0.0, 0.0, h]), np.array([1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0])
    a2_dot, a3_dot, a4_dot, b_dot = a2.dot, a3.dot, a4.dot, b.dot
    rows2, rows3, rows4 = K[:2], K[:3], K[:4]
    stage1 = sys.bind(K.reshape(-1), K[1])
    stage2, stage3, stage4 = (sys.bind(stage_in, K[j]) for j in (2, 3, 4))
    least, inf = np.minimum.reduce, np.inf
    last, aborted = steps, None
    # Overflow is caught by the finiteness checks, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, steps, _WALL_BLOCK):
            block = history[start + 1 : start + 1 + _WALL_BLOCK]
            for row in block:
                stage1()
                a2_dot(rows2, stage_y)
                stage2()
                a3_dot(rows3, stage_y)
                stage3()
                a4_dot(rows4, stage_y)
                stage4()
                b_dot(K, row)
                K0[...] = row
            vals = block[:, :rk] @ roots.T
            if not least(vals, axis=None, initial=inf) > floor:
                # the block's first state whose least root value fails
                last = start + 1 + int(np.argmin(least(vals, axis=1, initial=inf) > floor))
                if not np.isfinite(history[last]).all():
                    raise _non_finite(last, h)
                aborted = f"radial point reached a chamber wall at t={last * h:.6g}"
                last -= 1
                break
    kept = history[: last + 1]
    if not np.isfinite(kept).all():
        # an infinite q can pass the wall test; find the first such row
        raise _non_finite(int(np.argmin(np.isfinite(kept).all(axis=1))), h)
    q, p, lc = sys.split(kept)
    lmats = sys.geo.zk_from_coords(lc)
    # eigvalsh returns ascending values; the log keeps them descending
    spectra = np.linalg.eigvalsh(1j * lmats)[:, ::-1]
    return Trajectory(
        times=np.arange(last + 1) * h,
        q=q,
        p=p,
        l=lmats,
        energies=sys.hamiltonian(q, p, lc),
        l_spectra=spectra,
        aborted=aborted,
    )


def _non_finite(step: int, h: float) -> ConsistencyError:
    return ConsistencyError(
        f"reduced flow left the finite numbers at t={step * h:.6g} (step h={h:.6g})"
    )


def compare_with_oracle(
    d: SpaceDescriptor, start: PhasePoint, t_max: float, steps: int
) -> OracleReport:
    """Radial coordinates of the direct flow versus the reduced integration.

    The direct flow is exact: q_direct(t) comes from the radial
    decomposition of X + tY.  The reduced flow is integrated from the slice
    reduction of ``start`` as ``integrate_reduced`` integrates it, with
    ``steps`` fixed steps to ``t_max`` (negative: backwards; 0: every step
    stays at X), and every logged step is compared with the direct flow at
    its own time in the sup norm; the report carries that trajectory.
    ContractViolation as for ``integrate_reduced``.
    """
    _step_size(t_max, steps)
    state0, _ = reduce_phase_point(d, start)
    traj = integrate_reduced(d, state0, t_max, steps)
    # X + tY lies in p by linearity: reduce_phase_point checked X and Y
    X, Y = as_cmat(start.X, "X"), as_cmat(start.Y, "Y")
    q_dir = radial_coords_batch(d, X[None] + traj.times[:, None, None] * Y[None])
    devs = np.max(np.abs(q_dir - traj.q), axis=1)
    return OracleReport(
        times=traj.times,
        deviations=devs,
        max_deviation=float(np.max(devs)),
        trajectory=traj,
        truncated=traj.aborted,
    )
