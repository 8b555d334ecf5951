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

from .linalg import ContractViolation, commutator
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

    In the root-adapted bases r -> [r, H(q)] is diag(C q), so r and w come
    from two divisions and the energy has the Calogero-Moser/Sutherland form
    p^T G p / 2 + sum_k l_k^2 / (C q)_k^2 / 2.
    """

    def __init__(self, d: SpaceDescriptor):
        self.d = d
        self.geo = geometry(d)
        self.gram = self.geo.gram
        self.C = self.geo.bracket_coeffs  # (dzk, rank)

    def r_and_w(self, q: np.ndarray, lc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = self.C @ q
        r = lc / a
        return r, r / a

    def hamiltonian(self, q, p, lc) -> float:
        r, _ = self.r_and_w(q, lc)
        return 0.5 * float(p @ self.gram @ p) + 0.5 * float(r @ r)

    def field(self, q, p, lc) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r, w = self.r_and_w(q, lc)
        geo = self.geo
        dq = p.copy()
        # dH/dq = -C^T (w r); Hamilton's equations flip the sign back
        dp = np.linalg.solve(self.gram, self.C.T @ (w * r))
        dl = geo.zk_coords(commutator(geo.zk_from_coords(lc), geo.zk_from_coords(w)))
        return dq, dp, dl

    def l_matrix_spectrum(self, lc: np.ndarray) -> np.ndarray:
        lmat = self.geo.zk_from_coords(lc)
        return np.sort(np.linalg.eigvalsh(1j * lmat))[::-1]


def reduced_hamiltonian(d: SpaceDescriptor, state: ReducedState) -> float:
    """Energy of a reduced state: half the trace-form square of the
    reconstructed momentum H(p) + r(q, l)."""
    sys = _Reduced(d)
    q = np.asarray(state.q, dtype=float)
    if wall_distance(d, q) <= WALL_TOL:
        raise ContractViolation("reduced Hamiltonian undefined on a chamber wall")
    lc = sys.geo.zk_coords(np.asarray(state.l, dtype=complex))
    return sys.hamiltonian(q, np.asarray(state.p, dtype=float), lc)


def reduced_vector_field(
    d: SpaceDescriptor, state: ReducedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dq, dp, dl) of the reduced flow; dl is returned as
    a matrix in the centralizer orthocomplement."""
    sys = _Reduced(d)
    q = np.asarray(state.q, dtype=float)
    if wall_distance(d, q) <= WALL_TOL:
        raise ContractViolation("reduced vector field undefined on a chamber wall")
    lc = sys.geo.zk_coords(np.asarray(state.l, dtype=complex))
    dq, dp, dl = sys.field(q, np.asarray(state.p, dtype=float), lc)
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
    geo = sys.geo
    q = np.asarray(initial.q, dtype=float).copy()
    p = np.asarray(initial.p, dtype=float).copy()
    lc = geo.zk_coords(np.asarray(initial.l, dtype=complex))
    h = float(t_max) / steps
    times = [0.0]
    states = [ReducedState(q.copy(), p.copy(), geo.zk_from_coords(lc))]
    energies = [sys.hamiltonian(q, p, lc)]
    spectra = [sys.l_matrix_spectrum(lc)]
    aborted = None

    def wall_ok(qv) -> bool:
        return wall_distance(d, qv) > _ABORT_FACTOR * WALL_TOL

    if not wall_ok(q):
        raise ContractViolation("initial radial point is too close to a chamber wall")
    for step in range(steps):
        k1 = sys.field(q, p, lc)
        k2 = sys.field(q + 0.5 * h * k1[0], p + 0.5 * h * k1[1], lc + 0.5 * h * k1[2])
        k3 = sys.field(q + 0.5 * h * k2[0], p + 0.5 * h * k2[1], lc + 0.5 * h * k2[2])
        k4 = sys.field(q + h * k3[0], p + h * k3[1], lc + h * k3[2])
        q = q + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        lc = lc + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not wall_ok(q):
            aborted = f"radial point reached a chamber wall at t={times[-1] + h:.6g}"
            break
        times.append((step + 1) * h)
        states.append(ReducedState(q.copy(), p.copy(), geo.zk_from_coords(lc)))
        energies.append(sys.hamiltonian(q, p, lc))
        spectra.append(sys.l_matrix_spectrum(lc))
    return Trajectory(
        times=np.array(times),
        states=states,
        energies=np.array(energies),
        l_spectra=np.array(spectra),
        aborted=aborted,
    )


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
    # compare at the nearest computed step time (exact when the grid
    # matches the step count, the default)
    idx = [int(np.argmin(np.abs(traj.times - t))) for t in t_grid if t <= traj.times[-1] + 1e-12]
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
