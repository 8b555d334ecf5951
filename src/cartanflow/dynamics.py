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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import ConsistencyError, ContractViolation
from .radial import WALL_TOL, SliceCoords, radial_coords_batch, radial_decompose
from .reduction import ReducedState, l_from_slice
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
    """Fixed-step reduced trajectory with per-step invariants.

    ``energies`` and ``l_spectra`` log the Hamiltonian and the (sorted,
    imaginary-part) spectrum of l at every retained step; ``aborted``
    carries the reason when a wall approach truncated the integration.
    """

    times: np.ndarray
    states: list[ReducedState]
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
    """The exactly solvable flow (X, Y) -> (X + tY, Y)."""
    return PhasePoint(start.X + t * start.Y, start.Y)


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
    four RK4 stages of ``integrate_reduced`` all run it.  It works through
    scratch arrays that the instance allocates once, so an instance serves
    one caller at a time; the cached geometry it reads is never written.
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
        # L and W are anti-Hermitian, so [L, W] = LW - (LW)^dagger and its
        # coordinates against the anti-Hermitian zk-perp basis are twice those
        # of LW.  Doubling the rows is exact, and the transposed view keeps
        # the operand layout of the product.
        self._zk2_t = (2.0 * self._zk).T
        N, dz = d.ambient_dim, len(self.C)
        self._a, self._r, self._w, self._wr = np.empty((4, dz))
        self._L, self._W, self._LW = np.empty((3, N, N), dtype=complex)
        self._Lf, self._Wf, self._LWf = (
            M.reshape(-1).view(float) for M in (self._L, self._W, self._LW)
        )

    def flat(self, state: ReducedState) -> np.ndarray:
        """The flat vector of a reduced state.  ContractViolation unless q
        and p have the length of the real rank, l is N x N, and all entries
        are finite numbers."""
        rk, N = self.rank, self.d.ambient_dim
        try:
            q = np.asarray(state.q, dtype=float)
            p = np.asarray(state.p, dtype=float)
            l = np.asarray(state.l, dtype=complex)
        except (TypeError, ValueError):
            raise ContractViolation("reduced state entries must be numeric arrays") from None
        if q.shape != (rk,) or p.shape != (rk,) or l.shape != (N, N):
            raise ContractViolation(
                f"reduced state of {self.d.label()} needs q and p of length {rk} and l of "
                f"shape ({N}, {N}); got {q.shape}, {p.shape} and {l.shape}"
            )
        if not (np.isfinite(q).all() and np.isfinite(p).all() and np.isfinite(l).all()):
            raise ContractViolation("reduced state has non-finite entries")
        return np.concatenate((q, p, self.geo.zk_coords(l)))

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

        The slice views of ``src`` and ``out``, the instance's scratch and
        the constant operands are bound once, so a call makes eight NumPy
        calls and one slice copy and allocates nothing.  ``np.dot`` makes
        the same BLAS calls as ``@`` on these operands, with less set-up per
        call."""
        rk = self.rank
        q, p, lc = src[:rk], src[rk : 2 * rk], src[2 * rk :]
        dq, dp, dl = out[:rk], out[rk : 2 * rk], out[2 * rk :]
        a, r, w, wr = self._a, self._r, self._w, self._wr
        L, W, LW, Lf, Wf, LWf = self._L, self._W, self._LW, self._Lf, self._Wf, self._LWf
        Ct, zk, zk2_t, force = self.C.T, self._zk, self._zk2_t, self._force
        dot, divide, multiply = np.dot, np.divide, np.multiply

        def field() -> None:
            dot(q, Ct, out=a)
            divide(lc, a, out=r)
            divide(r, a, out=w)
            dot(lc, zk, out=Lf)
            dot(w, zk, out=Wf)
            dot(L, W, out=LW)
            dot(LWf, zk2_t, out=dl)
            dq[...] = p
            dot(force, multiply(w, r, out=wr), out=dp)

        return field

    def field(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write dy/dt at the flat state ``y`` into ``out`` and return it."""
        self.bind(y, out)()
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
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise ContractViolation(f"steps must be a positive integer, got {steps!r}")
    if isinstance(t_max, bool) or not isinstance(t_max, numbers.Real) or not math.isfinite(t_max):
        raise ContractViolation(f"t_max must be a finite real number, got {t_max!r}")
    return float(t_max) / steps


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

    The RK4 stages allocate nothing and run one kernel body, the one
    ``reduced_vector_field`` runs.  The state and the intermediate stage
    state live in two fixed vectors, and ``_Reduced.bind`` binds the four
    stage closures to them once per call: state -> k1, and the
    intermediate state -> k2, k3 and k4.  The stages are summed in the
    order of y + h/6 (((k1 + 2 k2) + 2 k3) + k4), so a step rounds exactly
    as that expression evaluated with temporaries does; the new state is
    then copied into its row of the preallocated history.

    The wall check reads the signed root values alpha(q), one product of the
    root table with a bound view of q into a buffer of its own, and stops
    unless the least of them is above the abort floor.  Every start lies
    inside the chamber, where that is the test min |alpha(q)| > floor; a
    step that ends across a wall, even one jumped between two step ends,
    fails it.
    """
    h = _step_size(t_max, steps)
    sys = _Reduced(d)
    y = sys.flat(initial)
    coeffs = sys.geo.root_table[0]
    floor = _ABORT_FACTOR * WALL_TOL
    if not (coeffs @ y[: sys.rank]).min(initial=np.inf) > floor:
        raise ContractViolation(
            "initial radial point is too close to a chamber wall or outside the chamber"
        )
    history = np.empty((steps + 1, y.size))
    history[0] = y
    tmp, k1, k2, k3, k4 = np.empty((5, y.size))
    stage1, stage2, stage3, stage4 = (
        sys.bind(src, k) for src, k in ((y, k1), (tmp, k2), (tmp, k3), (tmp, k4))
    )
    qv, vals = y[: sys.rank], np.empty(len(coeffs))
    half, sixth = 0.5 * h, h / 6.0
    add, multiply, matmul = np.add, np.multiply, np.matmul
    least, inf = np.minimum.reduce, np.inf
    done, aborted = 0, None
    # the loop only steps and checks the wall; the log is built after it.
    # Overflow is caught by the finiteness checks, not reported as warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(steps):
            stage1()
            add(y, multiply(half, k1, out=tmp), out=tmp)
            stage2()
            add(y, multiply(half, k2, out=tmp), out=tmp)
            stage3()
            add(y, multiply(h, k3, out=tmp), out=tmp)
            stage4()
            add(k1, multiply(2.0, k2, out=k2), out=k1)
            add(k1, multiply(2.0, k3, out=k3), out=k1)
            add(k1, k4, out=k1)
            add(y, multiply(sixth, k1, out=k1), out=y)
            history[step + 1] = y
            matmul(coeffs, qv, out=vals)
            if not least(vals, initial=inf) > floor:
                if not np.isfinite(y).all():
                    raise _non_finite(step + 1, h)
                aborted = f"radial point reached a chamber wall at t={step * h + h:.6g}"
                break
            done = step + 1
    kept = history[: done + 1]
    if not np.isfinite(kept).all():
        # an infinite q can pass the wall test; find the first such row
        raise _non_finite(int(np.argmin(np.isfinite(kept).all(axis=1))), h)
    q, p, lc = sys.split(kept)
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


def _non_finite(step: int, h: float) -> ConsistencyError:
    return ConsistencyError(
        f"reduced flow left the finite numbers at t={step * h:.6g} (step h={h:.6g})"
    )


def _nearest_steps(times: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Index of the nearest step time for each grid point up to the last
    step (exact when the grid matches the step count, the default); a tie
    goes to the earlier step.  ``times`` is increasing, so the nearest step
    is one of the two that bracket the point."""
    t = t_grid[t_grid <= times[-1] + 1e-12]
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
    report carries that trajectory.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.isfinite(t_grid).all():
        raise ContractViolation("t_grid must be finite")
    if t_grid.ndim != 1 or t_grid.size < 2 or np.any(np.diff(t_grid) <= 0) or t_grid[0] != 0.0:
        raise ContractViolation("t_grid must be an increasing 1-d grid starting at 0")
    state0, _ = reduce_phase_point(d, start)
    n_steps = steps if steps is not None else (t_grid.size - 1)
    traj = integrate_reduced(d, state0, float(t_grid[-1]), n_steps)
    idx = _nearest_steps(traj.times, t_grid)
    kept = traj.times[idx]
    # X + tY lies in p by linearity: reduce_phase_point checked X and Y
    X, Y = np.asarray(start.X, dtype=complex), np.asarray(start.Y, dtype=complex)
    q_dir = radial_coords_batch(d, X[None] + kept[:, None, None] * Y[None])
    q_red = np.array([traj.states[i].q for i in idx])
    devs = np.max(np.abs(q_dir - q_red), axis=1)
    return OracleReport(
        times=kept,
        deviations=devs,
        max_deviation=float(np.max(devs)),
        trajectory=traj,
        truncated=traj.aborted,
    )
