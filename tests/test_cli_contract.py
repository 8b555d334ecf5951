"""The CLI's process-level contract, one table of cases.

Each case runs the command line in fresh interpreters and applies one of
four comparisons:

- ``repeat``: two fresh processes exit 0 with the same stdout bytes;
- ``threads``: ``--threads 1``, ``1`` and ``2`` each exit 0, and their
  stdout is the same bytes once the ``# threads=`` line is dropped;
- ``exit``: the given exit code and exactly one stderr line, which starts
  with the given prefix;
- ``header``: exit 0 and a stdout line that starts with the given prefix.

A run that exits 0 (every run of ``repeat``, ``threads`` and ``header``)
also writes nothing to stderr: no warning, no stray line.

Every case starts ``sys.executable`` on ``cartanflow.cli.main`` with the
repository's ``src`` on the path and ``PYTHONHASHSEED`` unset, so string
hashing differs from process to process.  The table takes tens of seconds,
so the ``cli_contract`` marker keeps it out of the default selection; run
it with ``python -m pytest -q -m cli_contract``.

``python tests/test_cli_contract.py`` prints one line per case instead: the
sha256 of stdout, the exit code and the sha256 of stderr of one run (with
``--threads 1`` for a ``threads`` case), then the case id.  Two checkouts
give the same listing when every case gives them the same bytes.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

pytestmark = pytest.mark.cli_contract

SRC = Path(__file__).resolve().parents[1] / "src"
ENTRY = "import sys; from cartanflow.cli import main; sys.exit(main())"

# the seven flow-oracle spaces, one per radial route
FLOW_ORACLE = ["bdi 3 2", "cii 2 1", "ai 0 4", "aii 0 3", "diii 0 5", "ci 0 3", "aiii 5 5"]


def _space(kind_m_n: str) -> str:
    kind, m, n = kind_m_n.split()
    return f"--class {kind} --m {m} --n {n}"


# (space, file, scale, member) of the seed-3 p elements written for the
# decompose cases; a non-member is i times the element, anti-Hermitian
SCALED_INPUTS = [
    ("aiii 3 2", "aiii32.json", 1.0, True),
    ("ci 0 3", "ci3_small.json", 1e-200, True),
    ("aiii 3 2", "aiii32_large.json", 1e200, True),
    ("aiii 3 2", "aiii32_non_member_small.json", 1e-200, False),
]


def _write_inputs(cwd: Path) -> None:
    """The files the cases read: one that is not JSON, and SCALED_INPUTS."""
    from cartanflow import make_space, sample_p_gaussian, save_matrix

    (cwd / "bad.json").write_text("not json\n")
    for s, name, scale, member in SCALED_INPUTS:
        kind, m, n = s.split()
        factor = scale if member else 1j * scale
        save_matrix(cwd / name, factor * sample_p_gaussian(make_space(kind, int(m), int(n)), 3))


CASES = [
    # seeded output repeats byte for byte in a fresh process: flow on the
    # seven flow-oracle spaces
    *(("repeat", f"flow {_space(s)} --seed 3 --compare", None) for s in FLOW_ORACLE),
    # decompose, with and without the exact slice, and density on aiii(3,2)
    # and bdi(3,2)
    *(
        ("repeat", cmd, None)
        for s in ("aiii 3 2", "bdi 3 2")
        for cmd in (
            f"decompose {_space(s)} --seed 3",
            f"decompose {_space(s)} --seed 3 --exact-slice",
            f"density {_space(s)} --q 2,1 --method both",
        )
    ),
    # the exact slice's flag reduction on each of its branches: bdi with a
    # spare row (5,2) and with none (4,2), both taking the determinant fix
    # at seed 4, and aiii with more flag rows than pivots (5,2)
    *(("repeat", f"decompose {_space(s)} --seed {seed} --exact-slice", None)
      for s, seed in (("bdi 5 2", 4), ("bdi 4 2", 4), ("aiii 5 2", 3))),
    # decompose on ai(4), a2(3) and aii(3), whose p diagonals sum several
    # basis elements each (the exact slice covers aiii and bdi only)
    *(("repeat", f"decompose {_space(s)} --seed 3", None) for s in ("ai 0 4", "a2 0 3", "aii 0 3")),
    # a q on the wall e1 - e2 whose e1 + e2 overflows: both densities are
    # 0.0, with no warning
    ("repeat", "density --class aiii --m 3 --n 2 --q 1e308,1e308", None),
    # flow backwards (a negative step h), and one step whose final state
    # meets the wall check after the loop
    ("repeat", "flow --class aiii --m 3 --n 2 --seed 3 --t-max -0.25 --steps 40", None),
    ("repeat", "flow --class cii --m 2 --n 1 --seed 3 --t-max 0.5 --steps 1 --compare", None),
    # the field in real arithmetic (bdi, ai) at N = 16, and on bdi(1,1),
    # whose zk-perp is empty, so the L, W pair has zero width
    ("repeat", "flow --class bdi --m 8 --n 8 --seed 3 --steps 50 --compare", None),
    ("repeat", "flow --class ai --m 0 --n 8 --seed 3 --steps 50 --compare", None),
    ("repeat", "flow --class bdi --m 1 --n 1 --seed 3 --compare", None),
    # the split's support components with several members (aiii(8,8),
    # cii(4,3)), and --compare on the backward flow
    ("repeat", "flow --class aiii --m 8 --n 8 --seed 3 --compare", None),
    ("repeat", "decompose --class aiii --m 8 --n 8 --seed 3 --exact-slice", None),
    ("repeat", "flow --class cii --m 4 --n 3 --seed 3 --compare", None),
    ("repeat", "decompose --class cii --m 4 --n 3 --seed 3", None),
    ("repeat", "flow --class aiii --m 3 --n 2 --seed 3 --t-max -0.25 --steps 40 --compare", None),
    # trace-corrected bases built by Gram-Schmidt over the diagonal alone:
    # the flow of a2 (k and p) and the sampler of aii (p)
    ("repeat", "flow --class a2 --m 0 --n 6 --seed 3 --compare", None),
    ("repeat", "sample --class aii --m 0 --n 8 --count 20000 --seed 5", None),
    # an overflowing step exits 3 with one error line and no warnings
    ("exit", "flow --class aiii --m 2 --n 1 --seed 3 --t-max 1e300 --steps 1 --compare",
     (3, "error: consistency:")),
    # a single step that ends across a chamber wall (min alpha(q) = -23.5)
    # is a wall abort: exit 0 with the reason in the header
    ("header", "flow --class aiii --m 5 --n 5 --seed 12 --t-max 0.5 --steps 1 --compare",
     "# aborted=radial point reached a chamber wall"),
    # a wall abort in the second block of the integrator's wall check: state
    # 35 of 100 is the first across a wall
    ("header", "flow --class aiii --m 5 --n 5 --seed 34 --t-max 2 --steps 100 --compare",
     "# aborted=radial point reached a chamber wall"),
    # malformed input exits 2 with one validation line and no traceback: a
    # matrix file that is not JSON, a negative step count, a NaN q
    *(
        ("exit", cmd, (2, "error: validation:"))
        for cmd in (
            "decompose --class aiii --m 2 --n 1 --input bad.json",
            "flow --class aiii --m 2 --n 1 --steps -3 --compare",
            "density --class aiii --m 2 --n 1 --q nan",
        )
    ),
    # p elements at unit scale, and ones whose squares underflow (ci(3) at
    # 1e-200: the Takagi path) and overflow (aiii(3,2) at 1e200), decompose
    # with a finite residual
    *(("repeat", f"decompose {_space(s)} --input {name}", None)
      for s, name, _, member in SCALED_INPUTS if member),
    # the exact slice of Y = X, a free flow along a ray, whose r is the
    # rounding of k†Yk
    ("repeat", "decompose --class aiii --m 3 --n 2 --input aiii32.json --exact-slice "
     "--input-y aiii32.json", None),
    # a non-member at 1e-200 exits 2, as it does at unit scale
    *(("exit", f"decompose {_space(s)} --input {name}", (2, "error: validation:"))
      for s, name, _, member in SCALED_INPUTS if not member),
    # an --out path that is a directory exits 2, with no traceback
    ("exit", "spaces list --out .", (2, "error: validation: cannot write --out .: Is a directory")),
    # seeded sample and verify-density output is the same bytes in fresh
    # processes and under --threads 1 and 2 (chunks of 8192, 8192 and 3616
    # draws, cut into sub-blocks of each space's own draw count; the draws
    # per sub-block, then the rests of a full chunk and of the last one:
    # cii(2,1) 2730, 2 and 886; bdi(2,1) 8192, none and 3616; bdi(3,3) 2427,
    # 911 and 1189; a2(12) 152, 136 and 120; ai(11) 213, 98 and 208): the
    # rank-1 norm (cii(2,1), bdi(2,1)), the real SVD (bdi(3,3)), the complex
    # eigvalsh of rank 11 (a2(12)) and the real one of rank 10 (ai(11)),
    # whose diagonals sum up to 10 contributors each
    *(
        ("threads", f"{cmd} {_space(s)} --count 20000 --seed 5", None)
        for s in ("cii 2 1", "bdi 2 1", "bdi 3 3", "a2 0 12", "ai 0 11")
        for cmd in ("sample", "verify-density")
    ),
]
IDS = [f"{check}: {cmd}" for check, cmd, _ in CASES]


def _run(cmd: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONHASHSEED", None)
    return subprocess.run([sys.executable, "-c", ENTRY, *shlex.split(cmd)], cwd=cwd,
                          capture_output=True, env=env, timeout=600)


def _ok(proc: subprocess.CompletedProcess) -> bytes:
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("check, cmd, expect", CASES, ids=IDS)
def test_cli_contract(check, cmd, expect, tmp_path):
    _write_inputs(tmp_path)
    if check == "repeat":
        assert _ok(_run(cmd, tmp_path)) == _ok(_run(cmd, tmp_path))
    elif check == "threads":
        outs = [
            b"".join(ln for ln in _ok(_run(f"{cmd} --threads {t}", tmp_path)).splitlines(True)
                     if not ln.startswith(b"# threads="))
            for t in (1, 1, 2)
        ]
        assert outs[0] and outs[0] == outs[1] == outs[2]
    elif check == "exit":
        code, prefix = expect
        proc = _run(cmd, tmp_path)
        lines = proc.stderr.decode().splitlines(True)
        assert proc.returncode == code, proc.stderr.decode()
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
    else:
        assert check == "header"
        lines = _ok(_run(cmd, tmp_path)).decode().splitlines()
        assert any(ln.startswith(expect) for ln in lines)


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        _write_inputs(cwd)
        for (check, cmd, _), case in zip(CASES, IDS):
            proc = _run(f"{cmd} --threads 1" if check == "threads" else cmd, cwd)
            print(hashlib.sha256(proc.stdout).hexdigest(), proc.returncode,
                  hashlib.sha256(proc.stderr).hexdigest(), case)
