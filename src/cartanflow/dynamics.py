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
    direct flow, at the step times nearest each grid point."""

    times: np.ndarray
    deviations: np.ndarray
    max_deviation: float
    trajectory: Trajectory
    truncated: str | None = None


def direct_flow(start: PhasePoint, t: float) -> PhasePoint:
    """The exactly solvable flow (X, Y) -> (X + tY, Y), for a finite real t."""
    return PhasePoint(start.X + _check_real("t", t) * start.Y, start.Y)


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
    Ybody = k.conj().T @ np.asarray(point.Y, dtype=complex) @ k
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
        of one (2, dz) view and L and W come from one product with the zk
        rows, into one (2, N, N) buffer.  ``out`` takes dy/dt in its leading
        n entries; a longer ``out`` keeps the rest as it was.  The slice
        views of ``src`` and ``out``, the instance's scratch and the constant
        operands are bound once, so a call makes eight NumPy calls and one
        slice copy and allocates nothing.  ``np.dot`` makes the same BLAS
        calls as ``@`` on these operands, with less set-up per call.  A call
        leaves the root values C q of the state in ``_a``, where
        ``integrate_reduced``'s wall check reads them."""
        rk, dz = self.rank, len(self.C)
        q, p = src[:rk], src[rk : 2 * rk]
        lw = src[2 * rk : 2 * rk + 2 * dz].reshape(2, dz)
        lc, w = lw
        dq, dp, dl = out[:rk], out[rk : 2 * rk], out[2 * rk : 2 * rk + dz]
        a, r, wr = self._a, self._r, self._wr
        zk, zk2_t, pair, LW = self._field_operands
        (L, W), pairf, LWf = pair, pair.reshape(2, -1).view(float), LW.reshape(-1).view(float)
        Ct, force = self.C.T, self._force
        dot, divide, multiply = np.dot, np.divide, np.multiply

        def field() -> None:
            dot(q, Ct, out=a)
            divide(lc, a, out=r)
            divide(r, a, out=w)
            dot(lw, zk, out=pairf)
            dot(L, W, out=LW)
            dot(LWf, zk2_t, out=dl)
            dq[...] = p
            dot(force, multiply(w, r, out=wr), out=dp)

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

    A step applies the Butcher tableau of classical RK4 to one buffer K
    whose rows are the state y and the stage derivatives k1..k4.  K is
    (5, n + dz): a source row (K[0], and the stage input) carries the
    dz-long tail into which the field writes w, right after lc, and the
    tableau products read the leading n columns, a row-strided view that
    BLAS takes without a copy.  Each stage input is one product of a
    tableau row with the leading rows of K, [1, h/2] K[:2],
    [1, 0, h/2] K[:3] and [1, 0, 0, h] K[:4], and the new state is
    [1, h/6, h/3, h/3, h/6] K, written into its row of the preallocated
    history and copied into K[0].  The four stages run the one kernel body
    ``reduced_vector_field`` runs, bound once per call by
    ``_Reduced.bind``: K[0] -> k1 and the stage input -> k2, k3, k4.  A
    step is 42 NumPy calls (36 in the four field calls, 4 tableau
    products, 1 copy and 1 wall reduction), and nothing is allocated per
    step.

    The wall check reads the signed root values C q that stage 1 writes
    for the state it starts from; the rows of C are the positive roots,
    each repeated by its multiplicity, so their least value is the least
    alpha(q).  The final state gets one product with C after the loop.
    The run stops at the first state whose least root value is not above
    the abort floor.  Every start lies inside the chamber, where that is
    the test min |alpha(q)| > floor; a step that ends across a wall, even
    one jumped between two step ends, fails it.
    """
    h = _step_size(t_max, steps)
    sys = _Reduced(d)
    y = sys.flat(initial)
    floor = _ABORT_FACTOR * WALL_TOL
    if not (sys.geo.root_table[0] @ y[: sys.rank]).min(initial=np.inf) > floor:
        raise ContractViolation(
            "initial radial point is too close to a chamber wall or outside the chamber"
        )
    n, dz = y.size, len(sys.C)
    history = np.empty((steps + 1, n))
    history[0] = y
    # each source row (K[0] and the stage input) carries the dz-long w tail
    # the field writes; the tableau products read the leading n columns
    K, stage_in = np.empty((5, n + dz)), np.empty(n + dz)
    Kn, stage_y = K[:, :n], stage_in[:n]
    Kn[0] = y
    # the rows of the RK4 tableau, each led by the 1 that y enters with:
    # the three stage inputs' coefficients, then the weights
    a2, a3 = np.array([1.0, 0.5 * h]), np.array([1.0, 0.0, 0.5 * h])
    a4, b = np.array([1.0, 0.0, 0.0, h]), np.array([1.0, h / 6.0, h / 3.0, h / 3.0, h / 6.0])
    rows2, rows3, rows4 = Kn[:2], Kn[:3], Kn[:4]
    stage1, stage2, stage3, stage4 = (
        sys.bind(src, K[j]) for j, src in enumerate((K[0], stage_in, stage_in, stage_in), 1)
    )
    vals, qv, Ct = sys._a, K[0, : sys.rank], sys.C.T
    dot, least, inf = np.dot, np.minimum.reduce, np.inf
    # Overflow is caught by the finiteness checks, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the loop only steps and checks the wall; the log is built after it
        for last in range(steps):
            stage1()  # also writes the root values of state `last` into vals
            if last and not least(vals, initial=inf) > floor:
                break
            dot(a2, rows2, out=stage_y)
            stage2()
            dot(a3, rows3, out=stage_y)
            stage3()
            dot(a4, rows4, out=stage_y)
            stage4()
            dot(b, Kn, out=history[last + 1])
            Kn[0] = history[last + 1]
        else:
            last = steps
            dot(qv, Ct, out=vals)
        # K[0] holds state `last`, and vals its root values
        aborted = None
        if not least(vals, initial=inf) > floor:
            if not np.isfinite(Kn[0]).all():
                raise _non_finite(last, h)
            aborted = f"radial point reached a chamber wall at t={last * h:.6g}"
            last -= 1
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


def _nearest_steps(times: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Index of the nearest step time for each grid point up to the last
    step (exact when the grid matches the step count, the default); a tie
    goes to the earlier step.  ``times`` is increasing, so the nearest step
    is one of the two that bracket the point.  "Up to" allows 1e-12 or a
    few ulps of the last step time, whichever is more: steps * (t / steps)
    can round below t, by more than 1e-12 once t is large."""
    t = t_grid[t_grid <= times[-1] + max(1e-12, 4 * np.spacing(times[-1]))]
    hi = np.minimum(np.searchsorted(times, t), len(times) - 1)
    lo = np.maximum(hi - 1, 0)
    return np.where(np.abs(times[lo] - t) <= np.abs(times[hi] - t), lo, hi)


def compare_with_oracle(
    d: SpaceDescriptor, start: PhasePoint, t_grid: np.ndarray, steps: int | None = None
) -> OracleReport:
    """Radial coordinates of the direct flow versus the reduced integration.

    The direct flow is exact: q_direct(t) comes from the radial
    decomposition of X + tY.  The reduced flow is integrated with fixed
    steps through the grid and compared pointwise in the sup norm; the
    report carries that trajectory.  The grid starts at 0 and is strictly
    increasing, strictly decreasing (the backward flow, at negative
    times) or all zeros (every step stays at t = 0 and is compared with X).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.isfinite(t_grid).all():
        raise ContractViolation("t_grid must be finite")
    if t_grid.ndim != 1 or t_grid.size < 2 or t_grid[0] != 0.0:
        raise ContractViolation("t_grid must be a 1-d grid of at least two times starting at 0")
    sign = np.sign(t_grid[-1])  # backwards for a negative end, all at 0 for a zero one
    if np.any(np.diff(t_grid) * sign <= 0) if sign else np.any(t_grid != 0.0):
        raise ContractViolation(
            "t_grid must be strictly monotone from 0 (increasing, or decreasing to "
            "integrate backwards) or all zeros"
        )
    state0, _ = reduce_phase_point(d, start)
    n_steps = steps if steps is not None else (t_grid.size - 1)
    traj = integrate_reduced(d, state0, float(t_grid[-1]), n_steps)
    # the step times run the way the grid does: match them on |t|
    idx = _nearest_steps(traj.times * (sign or 1.0), t_grid * (sign or 1.0))
    kept = traj.times[idx]
    # X + tY lies in p by linearity: reduce_phase_point checked X and Y
    X, Y = np.asarray(start.X, dtype=complex), np.asarray(start.Y, dtype=complex)
    q_dir = radial_coords_batch(d, X[None] + kept[:, None, None] * Y[None])
    devs = np.max(np.abs(q_dir - traj.q[idx]), axis=1)
    return OracleReport(
        times=kept,
        deviations=devs,
        max_deviation=float(np.max(devs)),
        trajectory=traj,
        truncated=traj.aborted,
    )
