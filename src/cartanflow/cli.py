"""Command-line interface.

Subcommands: ``spaces``, ``decompose``, ``density``, ``sample``, ``flow``,
``verify-density``.  Structured single results are JSON, series are CSV
with a ``#`` metadata header.  Exit codes: 0 success, 1 closed output
pipe, 2 validation error, 3 numerical-consistency failure.  All file
output is atomic (temp file + rename), and every seeded subcommand is
bit-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .linalg import ConsistencyError, ContractViolation, _check_int, _check_real, _finite_array
from .linalg import load_matrix, matrix_to_obj
from .spaces import KINDS, basis_of, make_space, restricted_roots

_LIST_DEFAULTS = {
    "aiii": (2, 1),
    "bdi": (2, 1),
    "cii": (2, 1),
    "ai": (0, 3),
    "aii": (0, 2),
    "diii": (0, 3),
    "ci": (0, 2),
    "a2": (0, 3),
}


def _threads_default() -> int:
    """``CARTANFLOW_THREADS`` as an integer >= 1, or 1 when it is unset or
    empty; ContractViolation for any other value."""
    env = os.environ.get("CARTANFLOW_THREADS")
    if not env:
        return 1
    try:
        env = int(env)
    except ValueError:
        pass  # left a string, which _check_int refuses
    return _check_int("CARTANFLOW_THREADS", env, 1)


class _Parser(argparse.ArgumentParser):
    """Reads the ``--threads`` default from ``CARTANFLOW_THREADS`` on every
    parse, so that one parser serves a whole process."""

    def parse_known_args(self, args=None, namespace=None):
        ns, rest = super().parse_known_args(args, namespace)
        if getattr(ns, "threads", 0) is None:
            ns.threads = _threads_default()
        return ns, rest


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cartanflow-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)  # mkstemp creates 0600; honor the umask
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        if os.path.isdir(out):  # refused first: the temp file would go into its parent
            raise ContractViolation(f"cannot write --out {out}: Is a directory")
        try:
            _atomic_write(out, text)
        except OSError as exc:
            # a directory, a missing parent, no permission: the path is at fault
            raise ContractViolation(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_text(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ConsistencyError(f"non-finite value in the output: {exc}") from exc


def _meta(d=None, **extra) -> dict:
    meta = {"tool": "cartanflow", "version": __version__}
    if d is not None:
        meta.update({"space": d.label(), "kind": d.kind, "m": d.m, "n": d.n})
    meta.update(extra)
    return meta


def _space_from_args(args) -> "SpaceDescriptor":
    return make_space(args.space_class, args.m, args.n)


def _add_space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="space_class", required=True, choices=KINDS)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--n", type=int, required=True)


def _csv_text(meta: dict, header: list[str], rows: list[str]) -> str:
    """The ``#`` metadata lines, then the header and ``rows`` (each a string
    of comma-joined cells) as ``csv.writer`` writes them: no cell here holds
    a comma, quote or line break, so a row is its cells joined by "," and
    ended by "\\r\\n"."""
    lines = "".join(f"# {k}={v}\n" for k, v in meta.items())
    return lines + "".join(r + "\r\n" for r in [",".join(header), *rows])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spaces(args) -> int:
    records = []
    for kind in KINDS:
        m, n = _LIST_DEFAULTS[kind]
        d = make_space(kind, m, n)
        roots = [
            {"coeffs": list(r.coeffs), "multiplicity": r.multiplicity}
            for r in restricted_roots(d)
        ]
        records.append(
            {
                "kind": kind,
                "m": d.m,
                "n": d.n,
                "ambient_dim": d.ambient_dim,
                "dim_p": d.dim_p,
                "real_rank": d.real_rank,
                "dim_m_centralizer": len(basis_of(d, "m_centralizer")),
                "positive_roots": roots,
            }
        )
    if args.format == "json":
        _emit(_json_text({"meta": _meta(), "spaces": records}), args.out)
    else:
        lines = [
            f"{'kind':6s} {'(m,n)':8s} {'N':>3s} {'dim p':>6s} {'rank':>5s} {'dim M':>6s}  roots"
        ]
        for r in records:
            root_str = ", ".join(
                f"{tuple(x['coeffs'])}x{x['multiplicity']}" for x in r["positive_roots"]
            )
            lines.append(
                f"{r['kind']:6s} ({r['m']},{r['n']})".ljust(16)
                + f"{r['ambient_dim']:>3d} {r['dim_p']:>6d} {r['real_rank']:>5d} "
                + f"{r['dim_m_centralizer']:>6d}  {root_str}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_decompose(args) -> int:
    from .linalg import frobenius
    from .radial import embed_radial, exact_slice_reduce, radial_decompose
    from .dynamics import PhasePoint, _slice_point
    from .sampling import sample_p_gaussian

    d = _space_from_args(args)
    if args.input:
        X = load_matrix(args.input)
    elif args.seed is not None:
        X = sample_p_gaussian(d, args.seed)
    else:
        raise ContractViolation("decompose needs --input or --seed")
    if args.exact_slice:
        if args.input_y:
            Y = load_matrix(args.input_y)
        elif args.seed is not None:
            Y = sample_p_gaussian(d, args.seed + 1)
        else:
            raise ContractViolation("--exact-slice needs --input-y or --seed for the momentum")
        s, k = _slice_point(d, PhasePoint(X, Y))  # decomposes X once, for q, k and r
        q = s.q
    else:
        q, k = radial_decompose(d, X)
    residual = frobenius(k @ embed_radial(d, q) @ k.conj().T - X) / (frobenius(X) or 1.0)
    payload = {
        "meta": _meta(d, seed=args.seed),
        "q": [float(v) for v in q],
        "k": matrix_to_obj(k),
        "residual": float(residual),
    }
    if args.exact_slice:
        elem, m_elem = exact_slice_reduce(d, s)
        payload["r_canonical"] = matrix_to_obj(elem.coords.r)
        payload["m_elem"] = matrix_to_obj(m_elem)
        payload["degenerate_flags"] = list(elem.degenerate)
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_density(args) -> int:
    from .reduction import closed_form_density, density_constant, jacobian_density

    d = _space_from_args(args)
    q = _finite_array("--q", args.q.split(","), (d.real_rank,), float)
    payload = {"meta": _meta(d, q=[float(v) for v in q])}
    # a density that overflows is reported once, by the JSON's refusal of inf
    if args.method in ("numeric", "both"):
        payload["numeric"] = jacobian_density(d, q)
    if args.method in ("closed", "both"):
        payload["closed"] = closed_form_density(d, q)
    if args.method == "both":
        payload["ratio"] = payload["numeric"] / payload["closed"] if payload["closed"] else None
        payload["constant"] = density_constant(d)
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_sample(args) -> int:
    from .sampling import radial_histogram, theoretical_radial_density

    d = _space_from_args(args)
    threads = _check_int("--threads", args.threads, 1)
    hist = radial_histogram(d, args.count, args.bins, args.seed, threads=threads)
    multi = d.real_rank > 1
    rows = []
    for coord in range(d.real_rank):
        edges, counts, dens = hist.edges[coord], hist.counts[coord], hist.density[coord]
        for b in range(len(counts)):
            mid = 0.5 * (edges[b] + edges[b + 1])
            theo = ""
            if d.real_rank == 1:
                theo = f"{theoretical_radial_density(d, np.array([mid])):.12g}"
            row = f"{edges[b]:.12g},{edges[b + 1]:.12g},{int(counts[b])},{dens[b]:.12g},{theo}"
            rows.append(f"{coord},{row}" if multi else row)
    header = ["bin_lo", "bin_hi", "count", "empirical_density", "theoretical_density"]
    if multi:
        header = ["coordinate"] + header
    meta = _meta(d, seed=args.seed, count=args.count, bins=args.bins, threads=args.threads)
    _emit(_csv_text(meta, header, rows), args.out)
    return 0


def _cmd_flow(args) -> int:
    from .dynamics import PhasePoint, compare_with_oracle, integrate_reduced, reduce_phase_point
    from .sampling import sample_p_gaussian

    d = _space_from_args(args)
    _check_real("--t-max", args.t_max)
    _check_int("--steps", args.steps, 1)
    start = PhasePoint(sample_p_gaussian(d, args.seed), sample_p_gaussian(d, args.seed + 1))
    deviations = None
    if args.compare:
        report = compare_with_oracle(d, start, args.t_max, args.steps)
        traj, deviations = report.trajectory, report.deviations
    else:
        state, _ = reduce_phase_point(d, start)
        traj = integrate_reduced(d, state, args.t_max, args.steps)
    nspec = traj.l_spectra.shape[1] if traj.l_spectra.size else d.ambient_dim
    header = (
        ["t"]
        + [f"q_{i + 1}" for i in range(d.real_rank)]
        + ["H"]
        + [f"l_spec_{i + 1}" for i in range(nspec)]
    )
    if deviations is not None:
        header.append("deviation")
    table = np.column_stack([traj.times, traj.q, traj.energies, traj.l_spectra])
    meta = _meta(d, seed=args.seed, t_max=args.t_max, steps=args.steps)
    if traj.aborted:
        meta["aborted"] = traj.aborted
    _emit(_csv_text(meta, header, _flow_rows(table, deviations)), args.out)
    return 0


def _flow_rows(table: np.ndarray, deviations: np.ndarray | None) -> list[str]:
    """The CSV rows of a flow table for ``_csv_text``, each from one row
    template: every cell as %.12g, then, with ``deviations``, the row's
    oracle deviation as %.6e."""
    line = ",".join(["%.12g"] * table.shape[1])
    rows = [line % row for row in map(tuple, table.tolist())]
    if deviations is not None:
        rows = [r + ",%.6e" % dev for r, dev in zip(rows, deviations.tolist())]
    return rows


def _cmd_verify_density(args) -> int:
    from .sampling import verify_density

    d = _space_from_args(args)
    threads = _check_int("--threads", args.threads, 1)
    res = verify_density(d, count=args.count, bins=args.bins, seed=args.seed, threads=threads)
    payload = {"meta": _meta(d, seed=args.seed, count=args.count, bins=args.bins)}
    payload.update(res)
    _emit(_json_text(payload), args.out)
    if not res.get("constant_ratio_ok", False):
        raise ConsistencyError(res.get("constant_ratio_error", "density ratio not constant"))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(
        prog="cartanflow",
        description=(
            "Radial geometry, slice densities and level dynamics on the "
            "classical noncompact matrix symmetric spaces."
        ),
    )
    parser.add_argument("--version", action="version", version=f"cartanflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spaces", help="list the supported symmetric-space classes")
    spaces_sub = p.add_subparsers(dest="spaces_command", required=True)
    pl = spaces_sub.add_parser("list", help="table of classes, dimensions and roots")
    pl.add_argument("--format", choices=("json", "text"), default="text")
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_spaces)

    p = sub.add_parser("decompose", help="radial decomposition of a p element")
    _add_space_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--input", help="matrix JSON file for the position X")
    p.add_argument("--input-y", help="matrix JSON file for the momentum Y (exact slice)")
    p.add_argument("--exact-slice", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("density", help="slice density at a radial point")
    _add_space_args(p)
    p.add_argument("--q", required=True, help="comma-separated radial coordinates")
    p.add_argument("--method", choices=("numeric", "closed", "both"), default="both")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("sample", help="Monte Carlo radial histogram")
    _add_space_args(p)
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("flow", help="integrate the reduced level dynamics")
    _add_space_args(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--compare", action="store_true", help="compare against the direct flow")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("verify-density", help="density constant and Monte Carlo KS check")
    _add_space_args(p)
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=64)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--threads", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_density)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # inside the try: the parse reads CARTANFLOW_THREADS, which may be malformed
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", None) is not None:
            _check_int("--seed", args.seed, 0)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, inside the try
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): point stdout at devnull so the
        # flush at exit cannot fail again, and exit 1 as Python does on EPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ContractViolation as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"error: consistency: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, MemoryError) as exc:
        # MemoryError: an input too large to hold, such as a huge --count
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
