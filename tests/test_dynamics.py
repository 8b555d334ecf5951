import sys
import threading

import numpy as np
import pytest

from cartanflow import (
    PhasePoint,
    basis_of,
    compare_with_oracle,
    direct_flow,
    dynamics,
    integrate_reduced,
    make_space,
    moment_map,
    random_p_element,
    reduce_phase_point,
    reduced_hamiltonian,
    reduced_vector_field,
    trace_form,
)
from cartanflow.dynamics import _WALL_BLOCK, _Reduced, _step_size
from cartanflow.linalg import ConsistencyError, ContractViolation, frobenius
from cartanflow.radial import embed_radial, radial_coords_batch, radial_decompose
from cartanflow.reduction import ReducedState, random_chamber_point
from cartanflow.sampling import sample_p_gaussian
from cartanflow.spaces import geometry

from conftest import (
    REPRESENTATIVES,
    dense_aperp_basis,
    reference_integrate_reduced,
    reference_vector_field,
    stack_entries,
)

ORACLE_CASES = [("aiii", 2, 1), ("aiii", 3, 2), ("ai", 0, 3), ("a2", 0, 3)]
# the seven spaces of the flow-oracle benchmark, one per radial route
FLOW_SPACES = [("bdi", 3, 2), ("cii", 2, 1), ("ai", 0, 4), ("aii", 0, 3), ("diii", 0, 5),
               ("ci", 0, 3), ("aiii", 5, 5)]
# bdi(1,1) has an empty zk-perp: its field runs on zero-length scratch
BYTE_CASES = (
    REPRESENTATIVES + [c for c in FLOW_SPACES if c not in REPRESENTATIVES] + [("bdi", 1, 1)]
)


def generic_start(d, seed):
    rng = np.random.default_rng(seed)
    return PhasePoint(random_p_element(d, rng), random_p_element(d, rng))


def test_direct_flow_basics(rng):
    d = make_space("aiii", 2, 1)
    X, Y = random_p_element(d, rng), random_p_element(d, rng)
    pt = PhasePoint(X, Y)
    f0 = direct_flow(pt, 0.0)
    assert np.array_equal(f0.X, X) and np.array_equal(f0.Y, Y)
    fab = direct_flow(direct_flow(pt, 0.3), 0.5)
    fsum = direct_flow(pt, 0.8)
    assert np.allclose(fab.X, fsum.X)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_moment_map_conserved_along_direct_flow(case, rng):
    d = make_space(*case)
    X, Y = random_p_element(d, rng), random_p_element(d, rng)
    X /= max(frobenius(X), 1e-14)
    Y /= max(frobenius(Y), 1e-14)
    mu0 = moment_map(d, Y, X)
    for t in (0.5, 1.0, 10.0):
        mut = moment_map(d, Y, X + t * Y)
        assert frobenius(mut - mu0) <= 1e-12


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_reduced_hamiltonian_matches_direct(case, rng):
    d = make_space(*case)
    X, Y = random_p_element(d, rng), random_p_element(d, rng)
    state, _ = reduce_phase_point(d, PhasePoint(X, Y))
    H = reduced_hamiltonian(d, state)
    assert H == pytest.approx(0.5 * trace_form(Y, Y), rel=1e-10)


def test_reduced_hamiltonian_takes_no_zk_rows(monkeypatch, rng):
    # the energy needs only C and G; the dense zk rows are the field's
    from cartanflow import spaces

    d = make_space("aiii", 3, 2)
    monkeypatch.setitem(spaces._GEOMETRY_CACHE, d, spaces.SpaceGeometry(d))
    state, _ = reduce_phase_point(d, PhasePoint(random_p_element(d, rng), random_p_element(d, rng)))
    reduced_hamiltonian(d, state)
    assert "_zk_rows" not in vars(geometry(d))
    reduced_vector_field(d, state)
    assert "_zk_rows" in vars(geometry(d))


def test_reduced_hamiltonian_free_case(rng):
    d = make_space("aiii", 3, 2)
    geo = geometry(d)
    q = random_chamber_point(d, rng)
    p = rng.standard_normal(2)
    state = ReducedState(q=q, p=p, l=np.zeros((5, 5), dtype=complex))
    # l = 0: energy is the radial kinetic term p^T G p / 2
    assert reduced_hamiltonian(d, state) == pytest.approx(0.5 * p @ geo.gram @ p)


def test_reduced_hamiltonian_m_invariance(rng):
    # conjugating l by a centralizer element preserves the energy
    from cartanflow.radial import SliceCoords, exact_slice_reduce
    from cartanflow.reduction import l_from_slice

    d = make_space("aiii", 3, 2)
    geo = geometry(d)
    q = np.array([2.0, 0.9])
    p = rng.standard_normal(2)
    r = geo.aperp_from_coords(rng.standard_normal(len(basis_of(d, "a_perp"))))
    l = l_from_slice(d, SliceCoords(q, p, r))
    _, m_elem = exact_slice_reduce(d, SliceCoords(q, p, r))
    H1 = reduced_hamiltonian(d, ReducedState(q, p, l))
    H2 = reduced_hamiltonian(d, ReducedState(q, p, m_elem @ l @ m_elem.conj().T))
    assert H2 == pytest.approx(H1, rel=1e-10)


@pytest.mark.parametrize("case", REPRESENTATIVES)
def test_vector_field_gradients_match_finite_differences(case, rng):
    d = make_space(*case)
    X, Y = random_p_element(d, rng), random_p_element(d, rng)
    state, _ = reduce_phase_point(d, PhasePoint(X, Y))
    sys = _Reduced(d)
    geo = sys.geo
    q, p = state.q, state.p
    lc = geo.zk_coords(state.l)
    r, w = sys.r_and_w(q, lc)
    eps = 1e-5
    for i in range(len(q)):
        e = np.zeros_like(q)
        e[i] = eps
        fd = (sys.hamiltonian(q + e, p, lc) - sys.hamiltonian(q - e, p, lc)) / (2 * eps)
        analytic = -((w * r) @ sys.C[:, i])
        assert fd == pytest.approx(analytic, rel=1e-6, abs=1e-6)
    for i in range(len(lc)):
        e = np.zeros_like(lc)
        e[i] = eps
        fd = (sys.hamiltonian(q, p, lc + e) - sys.hamiltonian(q, p, lc - e)) / (2 * eps)
        assert fd == pytest.approx(w[i], rel=1e-6, abs=1e-6)
    gp = sys.gram @ p
    for i in range(len(p)):
        e = np.zeros_like(p)
        e[i] = eps
        fd = (sys.hamiltonian(q, p + e, lc) - sys.hamiltonian(q, p - e, lc)) / (2 * eps)
        assert fd == pytest.approx(gp[i], rel=1e-6, abs=1e-6)


DENSE_CASES = REPRESENTATIVES + [("aiii", 3, 2), ("cii", 3, 2)]
DENSE_CASES += [c for c in BYTE_CASES if c not in DENSE_CASES]


@pytest.mark.parametrize("case", DENSE_CASES)
def test_diagonal_field_matches_dense_solves(case, rng):
    # oracle: the dense bracket tensor T[i, b, a] = <Z_b, [R_a, H_i]> in an
    # a-perp basis that is not root-adapted, two dense solves per evaluation
    # and the dense zk-perp structure tensor; every space of BYTE_CASES, so
    # the empty zk-perp of bdi(1,1) too (hence the explicit shapes)
    from cartanflow.linalg import commutator

    d = make_space(*case)
    geo = geometry(d)
    rank, aperp = d.real_rank, dense_aperp_basis(d)
    dz = len(aperp)
    T = np.array([[geo.zk_coords(commutator(R, Hi)) for R in aperp] for Hi in geo.a_embed])
    T = T.reshape(rank, dz, dz).transpose(0, 2, 1)
    zb = basis_of(d, "zk_perp")
    L = np.array([[geo.zk_coords(commutator(a, b)) for b in zb] for a in zb]).reshape(dz, dz, dz)
    sys = _Reduced(d)
    for _ in range(3):
        state, _ = reduce_phase_point(
            d, PhasePoint(random_p_element(d, rng), random_p_element(d, rng))
        )
        q, p = state.q, state.p
        lc = geo.zk_coords(state.l)
        Tq = np.tensordot(q, T, axes=1)
        r = np.linalg.solve(Tq, lc)
        w = np.linalg.solve(Tq.T, r)
        dp = np.linalg.solve(geo.gram, np.array([w @ (Tj @ r) for Tj in T]))
        dl = np.einsum("abc,a,b->c", L, lc, w)
        energy = 0.5 * p @ geo.gram @ p + 0.5 * r @ r
        y = np.concatenate((q, p, lc))
        got = sys.split(sys.field(y, np.empty_like(y)))
        scale = max(1.0, np.max(np.abs(dp)), np.max(np.abs(dl), initial=0.0))
        assert np.max(np.abs(got[1] - dp)) <= 1e-9 * scale
        assert np.max(np.abs(got[2] - dl), initial=0.0) <= 1e-9 * scale
        assert sys.hamiltonian(q, p, lc) == pytest.approx(energy, rel=1e-10)


def test_vector_field_free_motion(rng):
    d = make_space("aiii", 3, 2)
    q = random_chamber_point(d, rng)
    p = rng.standard_normal(2)
    state = ReducedState(q=q, p=p, l=np.zeros((5, 5), dtype=complex))
    dq, dp, dl = reduced_vector_field(d, state)
    assert np.allclose(dq, p)
    assert np.allclose(dp, 0.0)
    assert np.allclose(dl, 0.0)


def test_energy_gradient_orthogonal_to_field(rng):
    d = make_space("aiii", 2, 1)
    X, Y = random_p_element(d, rng), random_p_element(d, rng)
    state, _ = reduce_phase_point(d, PhasePoint(X, Y))
    sys = _Reduced(d)
    lc = sys.geo.zk_coords(state.l)
    y = np.concatenate((state.q, state.p, lc))
    dq, dp, dl = sys.split(sys.field(y, np.empty_like(y)))
    r, w = sys.r_and_w(state.q, lc)
    grad_q = -(sys.C.T @ (w * r))
    dH = grad_q @ dq + (sys.gram @ state.p) @ dp + w @ dl
    assert abs(dH) <= 1e-10 * max(1.0, abs(sys.hamiltonian(state.q, state.p, lc)))


def test_free_motion_integrates_exactly(rng):
    d = make_space("ai", 0, 3)
    q0 = random_chamber_point(d, rng)
    p0 = np.array([0.05, -0.02])
    state = ReducedState(q=q0, p=p0, l=np.zeros((3, 3), dtype=complex))
    traj = integrate_reduced(d, state, 1.0, 100)
    assert traj.aborted is None
    assert np.allclose(traj.q[-1], q0 + 1.0 * p0, atol=1e-12)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_conservation_laws(case):
    d = make_space(*case)
    start = generic_start(d, seed=101)
    state, _ = reduce_phase_point(d, start)
    traj = integrate_reduced(d, state, 1.0, 1000)
    assert traj.aborted is None
    H0 = traj.energies[0]
    assert np.max(np.abs(traj.energies - H0)) <= 1e-8 * max(1.0, abs(H0))
    assert np.max(np.abs(traj.l_spectra - traj.l_spectra[0])) <= 1e-8


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_agreement(case):
    d = make_space(*case)
    start = generic_start(d, seed=101)
    report = compare_with_oracle(d, start, 1.0, 1000)
    assert report.truncated is None
    assert report.max_deviation <= 1e-6


def test_oracle_report_carries_its_trajectory():
    d = make_space("aiii", 3, 2)
    start = generic_start(d, seed=101)
    report = compare_with_oracle(d, start, 0.5, 50)
    state, _ = reduce_phase_point(d, start)
    traj = integrate_reduced(d, state, 0.5, 50)
    assert np.array_equal(report.trajectory.times, traj.times)
    assert np.array_equal(report.trajectory.energies, traj.energies)
    assert np.array_equal(report.trajectory.l_spectra, traj.l_spectra)
    for f in ("q", "p", "l"):
        assert np.array_equal(getattr(report.trajectory, f), getattr(traj, f))


def test_oracle_times_are_trajectory_steps_after_wall_abort():
    # the collision course of test_wall_abort as an unreduced start
    d = make_space("ai", 0, 3)
    X = embed_radial(d, np.array([0.4, 0.0]))
    Y = embed_radial(d, np.array([-0.8, 0.0]))
    report = compare_with_oracle(d, PhasePoint(X, Y), 2.0, 200)
    assert report.truncated is not None and "wall" in report.truncated
    steps = report.trajectory.times
    assert steps[-1] < 2.0
    assert np.array_equal(report.times, steps) and len(report.deviations) == len(steps)


@pytest.mark.parametrize("steps", [199, 201])
def test_oracle_truncates_a_course_that_jumps_a_wall_between_step_ends(steps):
    # q_1 = 0.4 - 0.8 t crosses the wall at t = 0.5, between two step ends:
    # the reduced run stops at the first step that ends across it, so it
    # never reports a point outside the chamber against the direct flow
    d = make_space("ai", 0, 3)
    X = embed_radial(d, np.array([0.4, 0.0]))
    Y = embed_radial(d, np.array([-0.8, 0.0]))
    report = compare_with_oracle(d, PhasePoint(X, Y), 2.0, steps)
    assert report.truncated is not None and "wall" in report.truncated
    q = report.trajectory.q
    assert (q @ geometry(d).root_table[0].T).min() > 0
    assert report.max_deviation <= 1e-12


def test_oracle_trivial_momentum(rng):
    d = make_space("aiii", 2, 1)
    X = random_p_element(d, rng)
    report = compare_with_oracle(d, PhasePoint(X, 0 * X), 1.0, 10)
    assert report.max_deviation <= 1e-12


def test_oracle_abelian_momentum(rng):
    # momentum inside a: l = 0 and the reduced flow is exactly free
    d = make_space("aiii", 3, 2)
    q = random_chamber_point(d, rng)
    Y = embed_radial(d, np.array([0.08, 0.03]))
    X = embed_radial(d, q)
    report = compare_with_oracle(d, PhasePoint(X, Y), 1.0, 100)
    assert report.max_deviation <= 1e-8


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_reversibility(case):
    d = make_space(*case)
    start = generic_start(d, seed=101)
    state, _ = reduce_phase_point(d, start)
    fwd = integrate_reduced(d, state, 1.0, 800)
    assert fwd.aborted is None
    back = integrate_reduced(
        d, ReducedState(fwd.q[-1], -fwd.p[-1], -fwd.l[-1]), 1.0, 800
    )
    assert back.aborted is None
    assert np.max(np.abs(back.q[-1] - state.q)) <= 1e-6
    assert np.max(np.abs(back.p[-1] + state.p)) <= 1e-6
    assert frobenius(back.l[-1] + state.l) <= 1e-6


# two exact symmetries of X + tY, which map every operation of the field and
# of the tableau exactly, so that the RK4 runs agree value for value:
# - scaling by 2: (2q, p, 2l) over 2t doubles the root values, keeps r and
#   halves w, so q and l double, p and the energy stay and the l spectra
#   double;
# - time reversal: (q, -p, -l) run forward is (q, p, l) run backward with p
#   and l negated.
# Neither sees a force scaled by a constant or a dropped row of C; a wrong
# power of the root values (w = r/a^2) breaks the scaling relation.
SYMMETRY_SPACES = FLOW_SPACES + [("aiii", 8, 8), ("bdi", 8, 8), ("a2", 0, 6)]


def assert_exact_symmetries(d, s, t_max, steps):
    """Both relations for the runs of ``steps`` steps from the state ``s``
    over t_max and over -t_max, which it returns.  Each run ends where its
    image does: a wall abort cuts the image at the same step."""
    run = integrate_reduced(d, s, t_max, steps)
    big = integrate_reduced(d, ReducedState(2.0 * s.q, s.p, 2.0 * s.l), 2.0 * t_max, steps)
    for got, want in ((big.times, 2.0 * run.times), (big.q, 2.0 * run.q), (big.p, run.p),
                      (big.l, 2.0 * run.l), (big.energies, run.energies),
                      (big.l_spectra, 2.0 * run.l_spectra)):
        assert np.array_equal(got, want)
    fwd = integrate_reduced(d, ReducedState(s.q, -s.p, -s.l), t_max, steps)
    back = integrate_reduced(d, s, -t_max, steps)
    for got, want in ((fwd.times, -back.times), (fwd.q, back.q), (fwd.p, -back.p),
                      (fwd.l, -back.l), (fwd.energies, back.energies)):
        assert np.array_equal(got, want)
    # eigvalsh(-A) is -eigvalsh(A) reversed up to rounding, not bit for bit
    spread = np.abs(fwd.l_spectra + back.l_spectra[:, ::-1]).max()
    assert spread <= 1e-13 * max(1.0, np.abs(back.l_spectra).max())
    assert (big.aborted is None) == (run.aborted is None)
    assert (fwd.aborted is None) == (back.aborted is None)
    return run, back


def _assert_exact_symmetries(case):
    d = make_space(*case)
    for seed in (3, 12, 34):
        run, back = assert_exact_symmetries(d, seeded_state(d, seed), 0.5, 200)
        assert run.aborted is None and back.aborted is None, seed


@pytest.mark.parametrize("case", FLOW_SPACES)
def test_flow_keeps_scaling_and_time_reversal_exactly(case):
    _assert_exact_symmetries(case)


@pytest.mark.slow
@pytest.mark.parametrize("case", SYMMETRY_SPACES)
def test_flow_keeps_scaling_and_time_reversal_exactly_on_larger_spaces(case):
    _assert_exact_symmetries(case)


@pytest.mark.parametrize("case", [("bdi", 3, 2), ("aiii", 3, 2)])
def test_rk4_error_falls_with_the_fourth_power_of_the_step(case):
    # against the exact flow X + tY at t = 0.25, halving h divides the error
    # of a fourth-order method by about 16 (15.7 and 16.4 here)
    d = make_space(*case)
    start = generic_start(d, seed=7)
    state, _ = reduce_phase_point(d, start)
    q_exact = radial_decompose(d, direct_flow(start, 0.25).X)[0]
    err = [np.max(np.abs(integrate_reduced(d, state, 0.25, n).q[-1] - q_exact)) for n in (20, 40)]
    assert err[1] > 1e-10  # far above rounding, so the ratio measures the method
    assert err[0] >= 12.0 * err[1]


def test_trajectory_log_alignment():
    d = make_space("aiii", 2, 1)
    start = generic_start(d, seed=5)
    state, _ = reduce_phase_point(d, start)
    traj = integrate_reduced(d, state, 0.5, 40)
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.q) == len(traj.p) == len(traj.l) == len(traj.times) == len(traj.energies)
    assert traj.l_spectra.shape == (len(traj.times), d.ambient_dim)


def test_wall_abort():
    # head-on collision course: two radial coordinates driven together
    d = make_space("ai", 0, 3)
    q0 = np.array([0.4, 0.0])
    p0 = np.array([-0.8, 0.0])
    geo = geometry(d)
    l0 = np.zeros((3, 3), dtype=complex)
    traj = integrate_reduced(d, ReducedState(q0, p0, l0), 2.0, 200)
    assert traj.aborted is not None and "wall" in traj.aborted


def assert_near_reference(got, ref):
    """A run of ``integrate_reduced`` against the same run of
    ``reference_integrate_reduced``, which keeps einsum coordinate maps and
    a Gram solve per field call: summation order and G^-1 b against
    solve(G, b) differ by rounding only, so the two stop at the same step
    for the same reason, q and p agree to 1e-13, l to 1e-13 of its largest
    entry and the logged invariants to 1e-12 of the energy rather than bit
    for bit."""
    assert got.aborted == ref.aborted
    assert np.array_equal(got.times, ref.times)
    for a, b, scale in ((got.q, ref.q, 1.0), (got.p, ref.p, 1.0),
                        (got.l, ref.l, max(1.0, np.abs(ref.l).max()))):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-13 * scale
    scale = 1e-12 * max(1.0, abs(ref.energies[0]))
    assert np.max(np.abs(got.energies - ref.energies)) <= scale
    assert np.max(np.abs(got.l_spectra - ref.l_spectra)) <= scale


@pytest.mark.parametrize("case", REPRESENTATIVES + [("aiii", 5, 5)])
def test_flat_state_integration_matches_reference_loop(case):
    d = make_space(*case)
    state, _ = reduce_phase_point(d, generic_start(d, seed=101))
    got = integrate_reduced(d, state, 1.0, 500)
    assert got.aborted is None
    assert_near_reference(got, reference_integrate_reduced(d, state, 1.0, 500))


def test_wall_abort_matches_reference_loop():
    # the course of test_wall_abort_is_byte_identical_to_the_per_step_check:
    # the reference loop stops at the same step, wall on a step end or not
    d = make_space("ai", 0, 3)
    state = ReducedState(np.array([0.4, 0.0]), np.array([-0.8, 0.0]), np.zeros((3, 3), complex))
    for steps in (199, 200, 201):
        got = integrate_reduced(d, state, 2.0, steps)
        assert got.aborted is not None
        assert_near_reference(got, reference_integrate_reduced(d, state, 2.0, steps))


def test_oracle_compares_the_last_grid_point_at_large_t():
    # the start of `cartanflow flow --class bdi --m 1 --n 1 --seed 3`: ten
    # steps of t/10 end one ulp (3.6e-12) below t, and the last is compared
    d = make_space("bdi", 1, 1)
    t_max = 28102.436848064328
    start = PhasePoint(sample_p_gaussian(d, 3), sample_p_gaussian(d, 4))
    report = compare_with_oracle(d, start, t_max, 10)
    steps = report.trajectory.times
    assert report.truncated is None and t_max - steps[-1] > 1e-12
    assert len(report.deviations) == 11 and np.array_equal(report.times, steps)


# ---------------------------------------------------------------------------
# the kernel pinned by checks that survive a change of summation order: the
# exact symmetries of the flow and of its field, value for value; the
# definitional references to rounding; and, for the block wall check and
# the scratch, runs of the kernel itself, byte for byte.  The three
# parametrized tests named after the flat reference keep the names they had
# when they compared the kernel with kept copies of it, so that their ids
# stay the same from run to run


def seeded_state(d, seed):
    """The reduced start of ``cartanflow flow --seed seed``."""
    start = PhasePoint(sample_p_gaussian(d, seed), sample_p_gaussian(d, seed + 1))
    return reduce_phase_point(d, start)[0]


def trajectory_bytes(traj):
    arrays = [traj.times, traj.q, traj.p, traj.l, traj.energies, traj.l_spectra]
    return traj.aborted, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def per_step_run(monkeypatch, d, state, t_max, steps):
    """``integrate_reduced`` with the wall checked after every step
    (``_WALL_BLOCK`` = 1): the run that the block check must equal byte for
    byte, since the blocks change only where the run stops."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_WALL_BLOCK", 1)
        return integrate_reduced(d, state, t_max, steps)


@pytest.mark.parametrize("case", BYTE_CASES)
def test_integration_is_byte_identical_to_flat_reference(case):
    # the exact symmetries value for value and the reference loop to rounding
    d = make_space(*case)
    for seed, t_max, steps in ((11, 0.25, 250), (12, 0.5, 1), (13, -0.25, 40)):
        state = seeded_state(d, seed)
        got, _ = assert_exact_symmetries(d, state, t_max, steps)
        assert_near_reference(got, reference_integrate_reduced(d, state, t_max, steps))
        # the one step of aiii(5,5) from seed 12 ends across a wall: min alpha(q) = -23.5
        assert (got.aborted is not None) == (case == ("aiii", 5, 5) and seed == 12)


def test_wall_abort_is_byte_identical_to_the_per_step_check(monkeypatch):
    # the head-on collision course of test_wall_abort: q_1 = 0.4 - 0.8 t
    # meets the wall at t = 0.5, a step end for 200 steps only; with l = 0
    # the motion is free, so 199 and 201 steps jump the wall between step
    # ends, and the first step that ends across it aborts
    d = make_space("ai", 0, 3)
    state = ReducedState(np.array([0.4, 0.0]), np.array([-0.8, 0.0]), np.zeros((3, 3), complex))
    for steps in (199, 200, 201):
        got = integrate_reduced(d, state, 2.0, steps)
        assert got.aborted is not None
        ref = per_step_run(monkeypatch, d, state, 2.0, steps)
        assert trajectory_bytes(got) == trajectory_bytes(ref)


def head_on_course(k, steps):
    """The ai(3) head-on course of test_wall_abort with its step h set so
    that the wall at t = 0.5 falls a third of a step before state k, away
    from every stage input: state k is the first that fails the wall test.
    Returns the space, the start and t_max."""
    d = make_space("ai", 0, 3)
    state = ReducedState(np.array([0.4, 0.0]), np.array([-0.8, 0.0]), np.zeros((3, 3), complex))
    return d, state, steps * 0.5 / (k - 1.0 / 3.0)


# the first state of the first block, its second last, its last, the first
# of the second block, and one in the sixth
@pytest.mark.parametrize("k", [1, 31, 32, 33, 5 * 32 + 7])
def test_block_wall_check_stops_at_the_first_failing_state(k, monkeypatch):
    steps = k + 2 * _WALL_BLOCK
    d, state, t_max = head_on_course(k, steps)
    got = integrate_reduced(d, state, t_max, steps)
    assert len(got.times) == k
    assert got.aborted == f"radial point reached a chamber wall at t={k * (t_max / steps):.6g}"
    ref = per_step_run(monkeypatch, d, state, t_max, steps)
    assert trajectory_bytes(got) == trajectory_bytes(ref)


def test_seeded_abort_in_the_second_block_is_byte_identical_to_the_per_step_check(monkeypatch):
    # `cartanflow flow --class aiii --m 5 --n 5 --seed 34 --t-max 2 --steps 100`:
    # state 35 is the first across a wall, in the reference loop as well
    # (whose q, close to the wall, departs by 2e-13 by then)
    d = make_space("aiii", 5, 5)
    state = seeded_state(d, 34)
    got = integrate_reduced(d, state, 2.0, 100)
    assert got.aborted is not None and len(got.times) == 35
    ref = reference_integrate_reduced(d, state, 2.0, 100)
    assert ref.aborted == got.aborted and np.array_equal(ref.times, got.times)
    assert trajectory_bytes(got) == trajectory_bytes(per_step_run(monkeypatch, d, state, 2.0, 100))


def test_abort_evaluates_the_field_at_most_one_block_past_the_wall(monkeypatch):
    # a run of 10^5 steps that fails at state k stops at the end of k's
    # block: at most 4 (k + _WALL_BLOCK) field calls, not 4 10^5
    calls = []
    bind = _Reduced.bind

    def counting_bind(self, src, out):
        field = bind(self, src, out)

        def counted():
            calls.append(None)
            field()

        return counted

    monkeypatch.setattr(_Reduced, "bind", counting_bind)
    k, steps = 100, 10**5
    d, state, t_max = head_on_course(k, steps)
    traj = integrate_reduced(d, state, t_max, steps)
    assert traj.aborted is not None and len(traj.times) == k
    assert 4 * k <= len(calls) <= 4 * (k + _WALL_BLOCK)


@pytest.mark.parametrize("steps, t_bad", [(40, 8.0), (7, 2.0)])
def test_infinite_state_that_passes_the_wall_test_then_nan(steps, t_bad):
    # free motion on ai(3) at h = 1: q_1 = 0.4 + 1e308 t overflows at state
    # 2 and q_2 = 2.5e307 t at state 8.  No root of ai(3) has a zero
    # coefficient, so states 2 to 7 are infinite but pass the wall test
    # (each root value is +inf or finite and positive); state 8 fails it,
    # with the NaN root value q_1 - q_2 = inf - inf, in the same block.  A
    # check after every step stops at state 8 and, that state not being
    # finite, raises there; a run of 7 steps fails no wall test and raises
    # at the first infinite state
    d = make_space("ai", 0, 3)
    q, p = np.array([0.4, 0.0]), np.array([1e308, 2.5e307])
    state = ReducedState(q, p, np.zeros((3, 3), complex))
    with pytest.raises(ConsistencyError) as info:
        integrate_reduced(d, state, float(steps), steps)
    assert str(info.value) == f"reduced flow left the finite numbers at t={t_bad:.6g} (step h=1)"


def test_flow_kernel_makes_no_np_dot_call(monkeypatch):
    # np.dot runs a Python-level __array_function__ dispatch on every call;
    # the field and the stepper call bound ndarray.dot methods instead
    cases = [make_space("aiii", 3, 2), make_space("bdi", 3, 2)]
    states = [seeded_state(d, 61) for d in cases]
    want = [(trajectory_bytes(integrate_reduced(d, st, 0.25, 40)),
             [a.tobytes() for a in reduced_vector_field(d, st)]) for d, st in zip(cases, states)]

    def no_dot(*args, **kwargs):
        raise AssertionError("np.dot called")

    monkeypatch.setattr(np, "dot", no_dot)
    got = [(trajectory_bytes(integrate_reduced(d, st, 0.25, 40)),
            [a.tobytes() for a in reduced_vector_field(d, st)]) for d, st in zip(cases, states)]
    assert got == want


@pytest.mark.parametrize("case", BYTE_CASES)
def test_vector_field_is_byte_identical_to_flat_reference(case):
    # the field's exact relations, value for value: at (2q, p, 2l) the root
    # values double, r stays and w halves, so the field is (dq, dp/2, dl);
    # at (q, -p, -l) r and w change sign, so it is (-dq, dp, dl).  The dense
    # solves of test_diagonal_field_matches_dense_solves check its values
    d = make_space(*case)
    for seed in (21, 23):
        s = seeded_state(d, seed)
        dq, dp, dl = reduced_vector_field(d, s)
        for image, want in ((ReducedState(2.0 * s.q, s.p, 2.0 * s.l), (dq, 0.5 * dp, dl)),
                            (ReducedState(s.q, -s.p, -s.l), (-dq, dp, dl))):
            got = reduced_vector_field(d, image)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), seed


def _assert_matches_reference_field(case):
    d = make_space(*case)
    for seed in (21, 23):
        state = seeded_state(d, seed)
        got = reduced_vector_field(d, state)
        ref = reference_vector_field(d, state)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-13 * np.max(np.abs(b), initial=0.0)


@pytest.mark.parametrize("case", BYTE_CASES + [("bdi", 8, 8), ("ai", 0, 8)])
def test_vector_field_matches_two_product_field(case):
    # the pair product and the real arithmetic of bdi and ai against the
    # field as it is defined: einsum coordinate maps, a Gram solve and the
    # commutator LW - WL of separate matrices L and W; rounding only
    _assert_matches_reference_field(case)


@pytest.mark.slow
def test_large_vector_field_matches_two_product_field():
    _assert_matches_reference_field(("bdi", 16, 16))


@pytest.mark.parametrize("case", BYTE_CASES)
def test_field_runs_in_real_arithmetic_for_bdi_and_ai(case):
    # their zk-perp lies in so(N): the zk rows have no imaginary part
    sys = _Reduced(make_space(*case))
    real = case[0] in ("bdi", "ai")
    zk, _, pair, LW = sys._field_operands
    assert pair.dtype == (float if real else complex) and LW.dtype == pair.dtype
    assert zk.shape[1] == (1 if real else 2) * sys.d.ambient_dim ** 2


def test_space_without_zk_perp_flows_freely():
    # so(1,1): a is all of p, so l = 0 and the flow is free motion
    d = make_space("bdi", 1, 1)
    state = seeded_state(d, 3)
    traj = integrate_reduced(d, state, 1.0, 10)
    assert traj.aborted is None and state.l.shape == (2, 2)
    q = traj.q
    assert np.allclose(q[:, 0], state.q[0] + traj.times * state.p[0], rtol=0, atol=1e-14)
    assert np.all(traj.energies == traj.energies[0]) and not traj.l_spectra.any()
    dq, dp, dl = reduced_vector_field(d, state)
    assert np.array_equal(dq, state.p) and not dp.any() and not dl.any()


def test_second_vector_field_call_leaves_first_result_alone():
    d = make_space("aiii", 3, 2)
    first = reduced_vector_field(d, seeded_state(d, 31))
    kept = [a.copy() for a in first]
    second = reduced_vector_field(d, seeded_state(d, 33))
    assert not np.array_equal(second[2], kept[2])
    assert [a.tobytes() for a in first] == [b.tobytes() for b in kept]


def test_concurrent_integrations_match_serial_bytes():
    # four threads on two cores: two spaces, each integrated by two threads
    # at once, share the cached geometry but no scratch
    spaces = [make_space("bdi", 3, 2), make_space("aiii", 5, 5)] * 2
    jobs = [(d, seeded_state(d, seed)) for d, seed in zip(spaces, (41, 43, 41, 43))]
    serial = [trajectory_bytes(integrate_reduced(d, st, 0.25, 200)) for d, st in jobs]
    results = [None] * len(jobs)
    barrier = threading.Barrier(len(jobs))

    def work(i):
        barrier.wait(timeout=30)
        d, st = jobs[i]
        results[i] = trajectory_bytes(integrate_reduced(d, st, 0.25, 200))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial


@pytest.mark.parametrize("case", [("cii", 2, 1), ("aiii", 5, 5), ("bdi", 3, 2)])
def test_integration_reads_no_unwritten_scratch(case, monkeypatch):
    # every array np.empty hands out is NaN-filled, so an entry of the
    # field's scratch, the stages, the state and its w tail (the head of
    # k1's row) or the history read before it is written shows as NaN, and
    # the run differs from one made before np.empty was poisoned.  The
    # poisoned run starts on a fresh geometry, so the operands it builds on
    # first use (the root split, C, G and the zk rows) are made under the
    # poison too; bdi(3,2) runs the real scratch
    from cartanflow import spaces

    d = make_space(*case)
    state = seeded_state(d, 51)
    ref = trajectory_bytes(integrate_reduced(d, state, 0.25, 50))
    monkeypatch.setitem(spaces._GEOMETRY_CACHE, d, spaces.SpaceGeometry(d))
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if np.issubdtype(out.dtype, np.inexact):
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    assert np.isnan(np.empty(3)).all() and np.isnan(np.empty((2, 2), dtype=complex).real).all()
    assert trajectory_bytes(integrate_reduced(d, state, 0.25, 50)) == ref


# ---------------------------------------------------------------------------
# steps that overflow: an error, not an infinite log or a wall abort


@pytest.mark.parametrize(
    "case, steps, t_bad",
    [
        (("aiii", 2, 1), 1, 1e300),  # q turns infinite and passes the wall test
        (("cii", 2, 1), 2, 5e299),  # the first of two steps is already infinite
        (("aiii", 3, 2), 2, 5e299),  # q turns NaN and fails the wall test
    ],
)
def test_overflowing_step_raises_consistency_error(case, steps, t_bad):
    # the starts of `cartanflow flow --seed 3`; warnings raise under pytest,
    # so this also checks that the loop emits none
    d = make_space(*case)
    with pytest.raises(ConsistencyError) as info:
        integrate_reduced(d, seeded_state(d, 3), 1e300, steps)
    h = 1e300 / steps
    assert str(info.value) == (
        f"reduced flow left the finite numbers at t={t_bad:.6g} (step h={h:.6g})"
    )


def test_free_motion_at_huge_time_stays_finite():
    # bdi(1,1) moves freely, q + t p stays below the largest float
    d = make_space("bdi", 1, 1)
    state = seeded_state(d, 3)
    traj = integrate_reduced(d, state, 1e308, 1)
    assert traj.aborted is None and np.isfinite(traj.q[-1]).all()
    assert np.isclose(traj.q[-1, 0], state.q[0] + 1e308 * state.p[0], rtol=1e-14)


# ---------------------------------------------------------------------------
# malformed input to the flow entry points


@pytest.mark.parametrize(
    "t_max, steps",
    [(np.nan, 10), (np.inf, 10), (-np.inf, 10), ("1.0", 10), (1j, 10), (True, 10),
     (1.0, 2.5), (1.0, 0), (1.0, -3), (1.0, True), (1.0, "10"), (1.0, np.float64(10))],
)
def test_integrate_rejects_bad_t_max_and_steps(t_max, steps):
    d = make_space("aiii", 2, 1)
    with pytest.raises(ContractViolation):
        integrate_reduced(d, seeded_state(d, 61), t_max, steps)


def test_integrate_accepts_numpy_scalars_and_negative_t_max():
    # a negative t_max is the backward flow
    d = make_space("aiii", 2, 1)
    state = seeded_state(d, 61)
    fwd = integrate_reduced(d, state, np.float64(0.5), np.int64(200))
    end = ReducedState(fwd.q[-1], fwd.p[-1], fwd.l[-1])
    back = integrate_reduced(d, end, -0.5, 200)
    assert back.times[-1] == -0.5 and back.aborted is None
    assert np.max(np.abs(back.q[-1] - state.q)) <= 1e-9
    assert np.max(np.abs(back.p[-1] - state.p)) <= 1e-9


def _malformed_states(d, state):
    rank, N = d.real_rank, d.ambient_dim
    nan_l = state.l.copy()
    nan_l[0, 1] = np.nan
    inf_l = state.l.copy()
    inf_l[1, 0] = np.inf
    return {
        "nan q": ReducedState(np.full(rank, np.nan), state.p, state.l),
        "nan p": ReducedState(state.q, np.array([np.nan] + [0.0] * (rank - 1)), state.l),
        "inf p": ReducedState(state.q, np.full(rank, np.inf), state.l),
        "nan l": ReducedState(state.q, state.p, nan_l),
        "inf l": ReducedState(state.q, state.p, inf_l),
        "short q": ReducedState(state.q[:-1], state.p, state.l),
        "long p": ReducedState(state.q, np.zeros(rank + 1), state.l),
        "p matrix": ReducedState(state.q, np.zeros((rank, 1)), state.l),
        "small l": ReducedState(state.q, state.p, state.l[:-1, :-1]),
        "flat l": ReducedState(state.q, state.p, state.l.ravel()),
        "text p": ReducedState(state.q, ["a"] * rank, state.l),
        "l + I": ReducedState(state.q, state.p, state.l + np.eye(N)),
        # for aiii(3,2), on the wall q_1 = q_2 of the root e_1 - e_2
        "q on a wall": ReducedState(np.ones(rank), state.p, state.l),
    }


@pytest.mark.parametrize(
    "which",
    ["nan q", "nan p", "inf p", "nan l", "inf l", "short q", "long p", "p matrix", "small l",
     "flat l", "text p", "l + I", "q on a wall"],
)
@pytest.mark.parametrize("entry", ["integrate", "field", "hamiltonian"])
def test_flow_entry_points_reject_malformed_states(which, entry):
    d = make_space("aiii", 3, 2)
    bad = _malformed_states(d, seeded_state(d, 71))[which]
    call = {
        "integrate": lambda s: integrate_reduced(d, s, 0.5, 20),
        "field": lambda s: reduced_vector_field(d, s),
        "hamiltonian": lambda s: reduced_hamiltonian(d, s),
    }[entry]
    with pytest.raises(ContractViolation):
        call(bad)


def test_integration_refuses_a_start_outside_the_chamber():
    # q reversed lies in another Weyl chamber, off every wall: the field and
    # the energy are defined there, but the flow starts in the chamber only
    d = make_space("aiii", 3, 2)
    state = seeded_state(d, 71)
    outside = ReducedState(state.q[::-1].copy(), state.p, state.l)
    assert (geometry(d).root_table[0] @ outside.q).min() < 0
    reduced_vector_field(d, outside)
    reduced_hamiltonian(d, outside)
    with pytest.raises(ContractViolation, match="outside the chamber"):
        integrate_reduced(d, outside, 0.5, 20)


@pytest.mark.parametrize("call", ["direct_flow", "integrate_reduced", "_step_size"])
def test_times_beyond_the_doubles_are_contract_violations(call):
    # an int too large for a double is no finite real number, not an OverflowError
    d = make_space("aiii", 3, 2)
    state = seeded_state(d, 71)
    run = {
        "direct_flow": lambda: direct_flow(PhasePoint(state.l, state.l), 10**400),
        "integrate_reduced": lambda: integrate_reduced(d, state, 10**400, 1),
        "_step_size": lambda: _step_size(10**400, 1),
    }[call]
    with pytest.raises(ContractViolation, match="must be a finite real number"):
        run()


@pytest.mark.parametrize(
    "grid", [(np.nan, 10), (np.inf, 10), (-np.inf, 10), (10**400, 10), (0.5, np.nan)],
)
def test_compare_with_oracle_rejects_non_finite_grids(grid):
    # the grid of step times k t_max / steps, refused before the reduction
    d = make_space("aiii", 2, 1)
    with pytest.raises(ContractViolation, match="must be a finite real number|must be an integer"):
        compare_with_oracle(d, PhasePoint("a", "b"), *grid)


@pytest.mark.parametrize("end", [-0.5, 0.0])
def test_compare_with_oracle_runs_backwards_and_at_zero(end):
    # a negative t_max compares the backward flow at its negative times;
    # t_max = 0 compares every step with X
    d = make_space("aiii", 3, 2)
    start = generic_start(d, seed=5)
    report = compare_with_oracle(d, start, end, 50)
    assert np.array_equal(report.times, report.trajectory.times)
    assert np.array_equal(report.times, np.arange(51) * (end / 50))
    q = radial_coords_batch(d, start.X[None] + report.times[:, None, None] * start.Y[None])
    assert np.array_equal(report.deviations,
                          np.max(np.abs(q - report.trajectory.q), axis=1))
    assert report.max_deviation < 1e-6


@pytest.mark.parametrize("case", [("aiii", 3, 2), ("cii", 2, 1), ("aii", 0, 3)])
def test_flow_is_blind_to_rotations_inside_root_spaces(case, monkeypatch):
    # the split fixes zk-perp and a-perp only up to a rotation inside each
    # root space of dimension above one; the field and the flow must not see it
    from cartanflow import spaces

    d = make_space(*case)
    geo = geometry(d)
    m, C = geo._root_split[0], geo.bracket_coeffs
    Z, R = geo._stack("zk_perp"), geo._stack("a_perp")
    Zr, Rr = Z.copy(), R.copy()
    rng = np.random.default_rng(29)
    rows_of: dict[tuple, list[int]] = {}
    for k, row in enumerate(map(tuple, C.tolist())):
        rows_of.setdefault(row, []).append(k)
    assert any(len(rows) > 1 for rows in rows_of.values())
    for rows in rows_of.values():
        Q, _ = np.linalg.qr(rng.standard_normal((len(rows), len(rows))))
        Zr[rows] = np.tensordot(Q, Z[rows], axes=1)
        Rr[rows] = np.tensordot(Q, R[rows], axes=1)
    state, _ = reduce_phase_point(d, generic_start(d, seed=8))
    runs = []
    for split in ((m, *map(stack_entries, (Z, R)), C), (m, *map(stack_entries, (Zr, Rr)), C)):
        geo = spaces.SpaceGeometry(d)
        geo.__dict__["_root_split"] = split
        monkeypatch.setitem(spaces._GEOMETRY_CACHE, d, geo)
        runs.append((reduced_vector_field(d, state), integrate_reduced(d, state, 0.25, 250)))
    (field, traj), (field_r, traj_r) = runs
    assert not traj.aborted and not traj_r.aborted
    for a, b in [*zip(field, field_r), (traj.q, traj_r.q), (traj.p, traj_r.p),
                 (traj.energies, traj_r.energies)]:
        assert np.max(np.abs(a - b)) <= 1e-12
    assert np.max(np.abs(Zr - Z)) > 0.1  # the rotation is not a no-op
