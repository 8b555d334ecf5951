import csv
import io
import json
import os
import re
import sys

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cartanflow import ContractViolation, make_space, sample_p_gaussian, save_matrix
from cartanflow.cli import main

from conftest import reference_flow_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    return rows[0], rows[1:]


def test_spaces_list_json(capsys):
    code, out, _ = run_cli(capsys, "spaces", "list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["spaces"]) == 8
    kinds = {r["kind"] for r in payload["spaces"]}
    assert kinds == {"aiii", "bdi", "cii", "ai", "aii", "diii", "ci", "a2"}


def test_spaces_list_text(capsys):
    code, out, _ = run_cli(capsys, "spaces", "list", "--format", "text")
    assert code == 0 and "aiii" in out and "roots" in out


def test_decompose_seeded(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--class", "aiii", "--m", "3", "--n", "2", "--seed", "5"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["q"]) == 2
    assert payload["residual"] <= 1e-9
    # reproducibility
    code2, out2, _ = run_cli(
        capsys, "decompose", "--class", "aiii", "--m", "3", "--n", "2", "--seed", "5"
    )
    assert out2 == out


def test_decompose_from_file(tmp_path, capsys):
    d = make_space("ai", 0, 3)
    X = sample_p_gaussian(d, 9)
    path = tmp_path / "x.json"
    save_matrix(path, X)
    code, out, _ = run_cli(
        capsys, "decompose", "--class", "ai", "--n", "3", "--input", str(path)
    )
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-9


def test_decompose_exact_slice(capsys):
    code, out, _ = run_cli(
        capsys,
        "decompose", "--class", "aiii", "--m", "3", "--n", "2",
        "--seed", "5", "--exact-slice",
    )
    assert code == 0
    payload = json.loads(out)
    assert "r_canonical" in payload and "m_elem" in payload


def _two_pass_exact_slice_json(d, seed):
    # the --exact-slice payload as decompose built it before it took q and k
    # from the slice reduction: X decomposed once for q and k, then again
    # inside reduce_phase_point, and k†Yk formed a second time for r
    from cartanflow import (
        PhasePoint, SliceCoords, embed_radial, exact_slice_reduce, matrix_to_obj,
        radial_decompose, reduce_phase_point,
    )
    from cartanflow.cli import _json_text, _meta
    from cartanflow.linalg import frobenius

    X, Y = sample_p_gaussian(d, seed), sample_p_gaussian(d, seed + 1)
    q, k = radial_decompose(d, X)
    residual = frobenius(k @ embed_radial(d, q) @ k.conj().T - X) / max(frobenius(X), 1e-300)
    payload = {"meta": _meta(d, seed=seed), "q": [float(v) for v in q],
               "k": matrix_to_obj(k), "residual": float(residual)}
    state, k2 = reduce_phase_point(d, PhasePoint(X, Y))
    r = k2.conj().T @ Y @ k2 - embed_radial(d, state.p)
    elem, m_elem = exact_slice_reduce(d, SliceCoords(state.q, state.p, r))
    payload["r_canonical"] = matrix_to_obj(elem.coords.r)
    payload["m_elem"] = matrix_to_obj(m_elem)
    payload["degenerate_flags"] = list(elem.degenerate)
    return _json_text(payload) + "\n"


@pytest.mark.parametrize("case", [("aiii", 3, 2), ("bdi", 3, 2)])
def test_decompose_exact_slice_decomposes_once_with_unchanged_bytes(case, capsys, monkeypatch):
    from cartanflow import dynamics, radial

    d = make_space(*case)
    want = _two_pass_exact_slice_json(d, 3)
    real, calls = radial.radial_decompose, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(radial, "radial_decompose", counted)
    monkeypatch.setattr(dynamics, "radial_decompose", counted)
    code, out, _ = run_cli(capsys, "decompose", "--class", d.kind, "--m", str(d.m),
                           "--n", str(d.n), "--seed", "3", "--exact-slice")
    assert code == 0 and out == want
    assert len(calls) == 1


def test_decompose_validation_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "decompose", "--class", "aiii", "--m", "1", "--n", "2", "--seed", "1"
    )
    assert code == 2 and err.startswith("error: validation:")


def test_decompose_needs_input_or_seed(capsys):
    code, _, err = run_cli(capsys, "decompose", "--class", "aiii", "--m", "2", "--n", "1")
    assert code == 2 and "error:" in err


def test_density_both(capsys):
    code, out, _ = run_cli(
        capsys,
        "density", "--class", "aiii", "--m", "2", "--n", "1", "--q", "2", "--method", "both",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] == pytest.approx(8.0)
    assert payload["ratio"] == pytest.approx(payload["constant"], rel=1e-8)


def test_density_wrong_q_length(capsys):
    code, _, err = run_cli(
        capsys, "density", "--class", "aiii", "--m", "3", "--n", "2", "--q", "1.0"
    )
    assert code == 2 and "error: validation" in err


def test_sample_csv(tmp_path, capsys):
    out_file = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys,
        "sample", "--class", "aiii", "--m", "2", "--n", "1",
        "--count", "2000", "--bins", "16", "--seed", "7", "--out", str(out_file),
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# tool=cartanflow")
    header, rows = parse_csv(text)
    assert header == [
        "bin_lo", "bin_hi", "count", "empirical_density", "theoretical_density",
    ]
    assert sum(int(r[2]) for r in rows) == 2000


def test_sample_csv_multirank_has_coordinate_column(tmp_path, capsys):
    out_file = tmp_path / "hist2.csv"
    code, _, _ = run_cli(
        capsys,
        "sample", "--class", "aiii", "--m", "3", "--n", "2",
        "--count", "500", "--bins", "8", "--seed", "7", "--out", str(out_file),
    )
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert header[0] == "coordinate"
    assert {r[0] for r in rows} == {"0", "1"}


def test_sample_thread_invariance(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["sample", "--class", "aiii", "--m", "2", "--n", "1",
            "--count", "20000", "--bins", "32", "--seed", "3"]
    assert run_cli(capsys, *base, "--threads", "1", "--out", str(f1))[0] == 0
    assert run_cli(capsys, *base, "--threads", "4", "--out", str(f2))[0] == 0
    strip = lambda t: [ln for ln in t.splitlines() if not ln.startswith("# threads")]
    assert strip(f1.read_text()) == strip(f2.read_text())


def test_flow_csv_with_compare(tmp_path, capsys):
    out_file = tmp_path / "flow.csv"
    code, _, _ = run_cli(
        capsys,
        "flow", "--class", "aiii", "--m", "2", "--n", "1",
        "--seed", "3", "--t-max", "0.5", "--steps", "50", "--compare",
        "--out", str(out_file),
    )
    assert code == 0
    header, rows = parse_csv(out_file.read_text())
    assert header[:3] == ["t", "q_1", "H"]
    assert header[-1] == "deviation"
    assert len(rows) == 51
    energies = np.array([float(r[2]) for r in rows])
    assert np.max(np.abs(energies - energies[0])) <= 1e-8 * max(1.0, abs(energies[0]))
    devs = np.array([float(r[-1]) for r in rows])
    assert devs.max() <= 1e-6


def test_flow_compares_the_last_row_at_large_t_max(capsys):
    # 10 * (t / 10) rounds one ulp (3.6e-12) below this t: the last row still
    # carries its deviation
    code, out, _ = run_cli(
        capsys, "flow", "--class", "bdi", "--m", "1", "--n", "1", "--seed", "3",
        "--t-max", "28102.436848064328", "--steps", "10", "--compare",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "deviation" and len(rows) == 11
    assert all(r[-1] != "" for r in rows)


# the seven spaces of the flow-oracle benchmark, one per radial route
FLOW_SPACES = [("bdi", 3, 2), ("cii", 2, 1), ("ai", 0, 4), ("aii", 0, 3), ("diii", 0, 5),
               ("ci", 0, 3), ("aiii", 5, 5)]


@pytest.mark.parametrize("case", FLOW_SPACES)
def test_flow_stdout_matches_value_by_value_formatter(capsys, case):
    from cartanflow.dynamics import (
        PhasePoint, compare_with_oracle, integrate_reduced, reduce_phase_point,
    )

    d = make_space(*case)
    args = SimpleNamespace(seed=11, t_max=0.25, steps=250)
    argv = ["flow", "--class", case[0], "--m", str(case[1]), "--n", str(case[2]),
            "--seed", str(args.seed), "--t-max", "0.25", "--steps", "250"]
    start = PhasePoint(sample_p_gaussian(d, args.seed), sample_p_gaussian(d, args.seed + 1))
    report = compare_with_oracle(d, start, np.linspace(0.0, 0.25, 251), steps=250)
    code, out, _ = run_cli(capsys, *argv, "--compare")
    assert code == 0 and out == reference_flow_csv(d, args, report.trajectory, report.deviations)
    traj = integrate_reduced(d, reduce_phase_point(d, start)[0], 0.25, 250)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == reference_flow_csv(d, args, traj, None)


def test_flow_stdout_of_wall_aborted_run_matches_value_by_value_formatter(capsys, monkeypatch):
    # a collision course that stops at a wall; the last rows get no
    # deviation, so their cell stays blank
    import cartanflow.dynamics as dynamics

    d = make_space("ai", 0, 3)
    state = dynamics.ReducedState(np.array([0.4, 0.0]), np.array([-0.8, 0.0]),
                                  np.zeros((3, 3), complex))
    traj = dynamics.integrate_reduced(d, state, 2.0, 200)
    assert traj.aborted
    devs = np.geomspace(1e-12, 1e-3, len(traj.times) - 3)
    report = dynamics.OracleReport(traj.times[: len(devs)], devs, float(devs[-1]), traj,
                                   traj.aborted)
    monkeypatch.setattr(dynamics, "compare_with_oracle", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, "flow", "--class", "ai", "--n", "3", "--seed", "3",
                           "--t-max", "2", "--steps", "200", "--compare")
    args = SimpleNamespace(seed=3, t_max=2.0, steps=200)
    assert code == 0 and out == reference_flow_csv(d, args, traj, devs)
    assert "# aborted=" in out and out.endswith(",\r\n") and out.count(",\r\n") == 3


@pytest.mark.parametrize("t_max", ["-0.25", "0", "-0.0"])
def test_flow_compare_accepts_every_t_max_flow_accepts(capsys, t_max):
    # backwards, the rows are compared with X + tY at their own negative
    # times; at t_max = 0, every row with X.  The rows are those of the run
    # without --compare, plus the deviation column
    from cartanflow.dynamics import PhasePoint, integrate_reduced, reduce_phase_point
    from cartanflow.radial import radial_coords_batch

    argv = ["flow", "--class", "aiii", "--m", "2", "--n", "1", "--seed", "3",
            "--t-max", t_max, "--steps", "3"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, err = run_cli(capsys, *argv, "--compare")
    assert code == 0 and not err
    lines = out.splitlines(keepends=True)
    assert lines[:-5] == plain.splitlines(keepends=True)[:-5]  # the comment header
    assert lines[-5] == plain.splitlines(keepends=True)[-5][:-2] + ",deviation\r\n"
    body = [line.rsplit(",", 1) for line in lines[-4:]]
    assert [row + "\r\n" for row, _ in body] == plain.splitlines(keepends=True)[-4:]
    d = make_space("aiii", 2, 1)
    X, Y = sample_p_gaussian(d, 3), sample_p_gaussian(d, 4)
    traj = integrate_reduced(d, reduce_phase_point(d, PhasePoint(X, Y))[0], float(t_max), 3)
    q = radial_coords_batch(d, X[None] + traj.times[:, None, None] * Y[None])
    want = np.max(np.abs(q - traj.q), axis=1)
    assert [dev for _, dev in body] == ["%.6e\r\n" % w for w in want.tolist()]
    assert want.max() < 1e-6


def test_verify_density_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-density", "--class", "ai", "--n", "2",
        "--count", "20000", "--bins", "32", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["ks_statistic"] <= payload["threshold"]


def test_verify_density_consistency_exit_3(capsys, monkeypatch):
    import cartanflow.sampling as sampling
    from cartanflow.linalg import ConsistencyError

    def broken(d, *a, **k):
        raise ConsistencyError("ratio varies")

    monkeypatch.setattr(sampling, "density_constant", broken)
    code, _, err = run_cli(
        capsys, "verify-density", "--class", "ai", "--n", "2", "--count", "100", "--bins", "4"
    )
    assert code == 3 and err.startswith("error: consistency:")


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("CARTANFLOW_THREADS", "3")
    from cartanflow.cli import build_parser

    args = build_parser().parse_args(
        ["sample", "--class", "aiii", "--m", "2", "--n", "1", "--count", "10"]
    )
    assert args.threads == 3


def test_parser_built_once_and_threads_env_read_per_parse(monkeypatch):
    from cartanflow.cli import build_parser

    assert build_parser() is build_parser()
    argv = ["verify-density", "--class", "aiii", "--m", "2", "--n", "1"]
    for env, want in (("2", 2), ("5", 5), ("", 1)):
        monkeypatch.setenv("CARTANFLOW_THREADS", env)
        assert build_parser().parse_args(argv).threads == want
    monkeypatch.setenv("CARTANFLOW_THREADS", "x")
    with pytest.raises(ContractViolation, match="CARTANFLOW_THREADS"):
        build_parser().parse_args(argv)
    assert build_parser().parse_args(argv + ["--threads", "4"]).threads == 4
    monkeypatch.delenv("CARTANFLOW_THREADS")
    assert build_parser().parse_args(argv).threads == 1
    assert not hasattr(build_parser().parse_args(["spaces", "list"]), "threads")


@pytest.mark.parametrize("env", ["x", "0", "-3", "2.5"])
@pytest.mark.parametrize("command", ["sample", "verify-density"])
def test_malformed_threads_env_is_a_validation_error(capsys, monkeypatch, command, env):
    # as --threads 0 is: exit 2 and one line that names the variable
    monkeypatch.setenv("CARTANFLOW_THREADS", env)
    code, out, err = run_cli(capsys, command, "--class", "aiii", "--m", "2", "--n", "1")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
    assert "CARTANFLOW_THREADS" in err


def test_density_on_a_wall_beyond_the_doubles(capsys):
    # e1 - e2 vanishes at q = (1e308, 1e308) while e1 + e2 overflows
    code, out, err = run_cli(
        capsys, "density", "--class", "aiii", "--m", "3", "--n", "2", "--q", "1e308,1e308"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["numeric"] == payload["closed"] == 0.0 and payload["ratio"] is None


def test_atomic_write_no_partial_on_failure(tmp_path, capsys):
    out_file = tmp_path / "x.json"
    code, _, err = run_cli(
        capsys,
        "decompose", "--class", "aiii", "--m", "1", "--n", "2",
        "--seed", "1", "--out", str(out_file),
    )
    assert code == 2
    assert not out_file.exists()


@pytest.mark.parametrize("q", ["nan", "inf", "-inf", "abc"])
def test_density_rejects_non_finite_q(capsys, q):
    code, out, err = run_cli(
        capsys, "density", "--class", "aiii", "--m", "2", "--n", "1", f"--q={q}"
    )
    assert code == 2 and out == "" and err.startswith("error: validation:")


@pytest.mark.parametrize("command", ["sample", "verify-density"])
def test_count_too_large_to_hold_is_a_validation_error(capsys, command):
    # NumPy refuses the 8 PB result array at once, without touching memory
    code, out, err = run_cli(
        capsys, command, "--class", "aiii", "--m", "2", "--n", "1", "--count", str(10**15)
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
    assert "Unable to allocate" in err


@pytest.mark.parametrize("method", ["numeric", "closed", "both"])
def test_density_overflow_is_not_emitted_as_nan(capsys, method):
    # finite input whose density overflows: no NaN or Infinity in the JSON,
    # and the exit-3 line is all of stderr (an overflow warning raises here)
    code, out, err = run_cli(
        capsys, "density", "--class", "aiii", "--m", "2", "--n", "1", "--q", "1e200",
        "--method", method,
    )
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: consistency:")


@pytest.mark.parametrize("bad", [["--t-max", "nan"], ["--t-max", "inf"], ["--steps", "-3"]])
def test_flow_rejects_non_finite_t_max_and_bad_steps(capsys, bad):
    code, out, err = run_cli(
        capsys, "flow", "--class", "aiii", "--m", "2", "--n", "1", "--compare", *bad
    )
    assert code == 2 and out == "" and err.startswith("error: validation:")


@pytest.mark.parametrize(
    "space, steps", [(("aiii", "2", "1"), "1"), (("cii", "2", "1"), "2"), (("aiii", "3", "2"), "2")]
)
def test_flow_overflow_is_a_consistency_error(capsys, space, steps):
    # an overflowing step is a consistency failure, not inf rows or a wall
    # abort, and its exit-3 line is all of stderr (warnings raise here)
    code, out, err = run_cli(
        capsys, "flow", "--class", space[0], "--m", space[1], "--n", space[2], "--seed", "3",
        "--t-max", "1e300", "--steps", steps, "--compare",
    )
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: consistency:")


def test_flow_free_motion_at_huge_time_exits_0(capsys):
    code, out, err = run_cli(
        capsys, "flow", "--class", "bdi", "--m", "1", "--n", "1", "--seed", "3",
        "--t-max", "1e308", "--steps", "1", "--compare",
    )
    assert code == 0 and err == ""
    _, rows = parse_csv(out)
    assert len(rows) == 2 and all(np.isfinite(float(v)) for v in rows[-1])


def test_decompose_rejects_nan_input(tmp_path, capsys):
    X = sample_p_gaussian(make_space("ai", 0, 3), 9)
    X[0, 0] = np.nan
    path = tmp_path / "x.json"
    save_matrix(path, X)
    code, out, err = run_cli(
        capsys, "decompose", "--class", "ai", "--n", "3", "--input", str(path)
    )
    assert code == 2 and out == "" and "non-finite" in err


@pytest.mark.parametrize(
    "content",
    ["not json", '{"rows": 1, "cols": 1, "data": [["a", 0]]}',
     '{"rows": 1, "cols": 1, "data": [[1, 0, 0]]}', None],
    ids=["not-json", "text-entry", "three-numbers", "directory"],
)
def test_malformed_matrix_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "x.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    code, out, err = run_cli(
        capsys, "decompose", "--class", "aiii", "--m", "2", "--n", "1", "--input", str(path)
    )
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


def test_linalg_error_exit_3(capsys, monkeypatch):
    import cartanflow.radial as radial

    def broken(d, X):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(radial, "radial_decompose", broken)
    code, out, err = run_cli(
        capsys, "decompose", "--class", "aiii", "--m", "2", "--n", "1", "--seed", "1"
    )
    assert code == 3 and out == "" and err.startswith("error: consistency:")


@pytest.mark.parametrize("command", ["sample", "verify-density"])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_must_be_positive(capsys, command, threads):
    code, out, err = run_cli(
        capsys, command, "--class", "aiii", "--m", "2", "--n", "1",
        "--count", "100", "--threads", threads,
    )
    assert code == 2 and out == "" and "--threads" in err


@pytest.mark.parametrize("command", ["sample", "flow", "decompose", "verify-density"])
def test_negative_seed_is_a_validation_error(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--class", "aiii", "--m", "2", "--n", "1", "--seed", "-1"
    )
    assert code == 2 and out == "" and "--seed" in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, backed by a real descriptor."""

    def __init__(self, fd):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


def test_closed_stdout_pipe_exits_1_silently(capsys, monkeypatch, tmp_path):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        code = main(["spaces", "list", "--format", "json"])
        os.write(fd, b"late flush")  # the descriptor now points at devnull
    finally:
        os.close(fd)
    assert code == 1
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
# the checks that need the installed console script; every other CLI case
# is a row of tests/test_cli_contract.py
INSTALLED_SCRIPT_CHECKS = [
    "cartanflow --version",
    "cartanflow spaces list --format json",
    "cartanflow flow --class bdi --m 3 --n 2 --steps 20000 --t-max 0.2 --seed 1",
]


def test_console_script_step_holds_only_the_installed_script_checks():
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("      - name: Installed console script") + 1
    end = next(i for i in range(start, len(lines)) if lines[i].lstrip().startswith("- "))
    body = "\n".join(ln for ln in lines[start:end] if not ln.lstrip().startswith("#"))
    # a command runs up to a shell operator or a redirection such as 2>err.txt
    commands = re.findall(r"cartanflow(?:[ \t]+(?!\d*>)[^\s|&;<>]+)*", body)
    assert commands == INSTALLED_SCRIPT_CHECKS
    assert any(ln.strip() == "run: PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest "
               "-q -m cli_contract" for ln in lines)
