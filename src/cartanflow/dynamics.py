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

import numpy as np

from .linalg import ContractViolation
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
    geo = geometry(d)
    check_p_membership(d, point.Y)
    q, k = radial_decompose(d, point.X)
    Ybody = k.conj().T @ np.asarray(point.Y, dtype=complex) @ k
    p = geo.a_pattern_coords(Ybody)
    r = Ybody - geo.embed_radial(p)
    l = l_from_slice(d, SliceCoords(q, p, r))
    return ReducedState(q=q, p=p, l=l), k


class _Reduced:
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


def _flat_state(sys: _Reduced, state: ReducedState, what: str) -> np.ndarray:
    y = sys.flat(state)
    if wall_distance(sys.d, y[: sys.rank]) <= WALL_TOL:
        raise ContractViolation(f"reduced {what} undefined on a chamber wall")
    return y


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
    dq, dp, dl = sys.split(sys.field(_flat_state(sys, state, "vector field")))
    return dq, dp, sys.geo.zk_from_coords(dl)


def integrate_reduced(
    d: SpaceDescriptor, initial: ReducedState, t_max: float, steps: int
) -> Trajectory:
    """Classical fixed-step fourth-order integration of the reduced flow.

    Logs the energy and the spectrum of l at every step.  If the radial
    point approaches a chamber wall the trajectory is truncated and the
    abort reason recorded.
    """
    if steps < 1:
        raise ContractViolation("steps must be a positive integer")
    sys = _Reduced(d)
    y = sys.flat(initial)
    h = float(t_max) / steps
    half, sixth = 0.5 * h, h / 6.0
    coeffs = sys.geo.root_table[0]

    def wall_ok(yv) -> bool:
        # wall_distance with the root table bound once, not looked up per step
        return np.abs(coeffs @ yv[: sys.rank]).min(initial=np.inf) > _ABORT_FACTOR * WALL_TOL

    if not wall_ok(y):
        raise ContractViolation("initial radial point is too close to a chamber wall")
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
