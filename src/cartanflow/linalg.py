"""Dense complex matrix primitives and the invariant trace form.

Everything downstream works with square ``complex128`` numpy arrays.  The
bilinear form used throughout is ``trace_form(X, Y) = Re tr(XY)``; it is
positive definite on Hermitian matrices, negative definite on
anti-Hermitian ones, and the two kinds are exactly orthogonal to each
other.

Matrices cross process boundaries in a small JSON format::

    {"rows": R, "cols": C, "data": [[re, im], ...]}   # row-major

which round-trips finite doubles bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "ContractViolation",
    "ConsistencyError",
    "as_cmat",
    "commutator",
    "trace_form",
    "dagger",
    "frobenius",
    "hermitian_eigen",
    "svd",
    "matrix_to_obj",
    "matrix_from_obj",
    "save_matrix",
    "load_matrix",
]

# Relative tolerance for "is this Hermitian" style preconditions; the
# absolute floor keeps the zero matrix inside every membership check.
HERMITICITY_RTOL = 1e-10
NORM_FLOOR = 1e-14


class ContractViolation(ValueError):
    """An operation was called outside its stated contract."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (wrong table, non-constant ratio...)."""


def as_cmat(x) -> np.ndarray:
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ContractViolation(f"expected a matrix, got array of ndim={a.ndim}")
    return a


def frobenius(X) -> float:
    return float(np.linalg.norm(np.asarray(X)))


def _require_same_square(X: np.ndarray, Y: np.ndarray, op: str) -> None:
    if X.shape[0] != X.shape[1] or X.shape != Y.shape:
        raise ContractViolation(
            f"{op} needs two square matrices of equal size, got {X.shape} and {Y.shape}"
        )


def commutator(X, Y) -> np.ndarray:
    """Matrix commutator XY - YX of two equal-size square matrices."""
    X, Y = as_cmat(X), as_cmat(Y)
    _require_same_square(X, Y, "commutator")
    return X @ Y - Y @ X


def trace_form(X, Y) -> float:
    """Invariant form Re tr(XY); symmetric and bilinear over the reals."""
    X, Y = as_cmat(X), as_cmat(Y)
    _require_same_square(X, Y, "trace_form")
    return float(np.einsum("ij,ji->", X, Y).real)


def dagger(X) -> np.ndarray:
    """Conjugate transpose."""
    return as_cmat(X).conj().T.copy()


def hermitian_eigen(X) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, U)`` with eigenvalues ``w`` sorted descending and unitary
    ``U`` such that ``X = U @ diag(w) @ U†``.  Rejects inputs whose
    anti-Hermitian part exceeds ``HERMITICITY_RTOL`` relative to ||X||.
    """
    X = as_cmat(X)
    if X.shape[0] != X.shape[1]:
        raise ContractViolation("hermitian_eigen needs a square matrix")
    scale = max(frobenius(X), NORM_FLOOR)
    if frobenius(X - X.conj().T) > HERMITICITY_RTOL * scale:
        raise ContractViolation("hermitian_eigen: input is not Hermitian within tolerance")
    w, U = np.linalg.eigh(X)
    return w[::-1].copy(), U[:, ::-1].copy()


def svd(X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition X = U @ diag_rect(s) @ V†.

    ``s`` is descending and nonnegative; ``U`` and ``V`` are unitary
    (full matrices, so the rectangular diagonal is implied for non-square
    input).
    """
    X = as_cmat(X)
    U, s, Vh = np.linalg.svd(X, full_matrices=True)
    return U, s, Vh.conj().T


# ---------------------------------------------------------------------------
# JSON wire format


def matrix_to_obj(X) -> dict:
    X = as_cmat(X)
    rows, cols = X.shape
    data = [[float(z.real), float(z.imag)] for z in X.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise ContractViolation(f"malformed matrix object: {exc}") from exc
    if len(data) != rows * cols:
        raise ContractViolation(
            f"matrix object claims {rows}x{cols} but carries {len(data)} entries"
        )
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    if not np.all(np.isfinite(flat)):
        raise ContractViolation("matrix object carries non-finite entries")
    return flat.reshape(rows, cols)


def save_matrix(path, X) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(X), fh)


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return matrix_from_obj(json.load(fh))
