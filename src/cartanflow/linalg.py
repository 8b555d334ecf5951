"""Dense complex matrix primitives and the invariant trace form.

Everything downstream works with square ``complex128`` numpy arrays.  The
bilinear form used throughout is ``trace_form(X, Y) = Re tr(XY)``; it is
positive definite on Hermitian matrices, negative definite on
anti-Hermitian ones, and the two kinds are exactly orthogonal to each
other.

Matrices cross process boundaries in a small JSON format::

    {"rows": R, "cols": C, "data": [[re, im], ...]}   # row-major

which round-trips finite doubles bit-exactly.

Every entry point and the CLI check their input with ``_check_int``,
``_check_real``, ``_check_generator``, ``_numeric_array`` (which
``as_cmat`` calls) and ``_finite_array``, which name the argument or flag.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

__all__ = [
    "ContractViolation",
    "ConsistencyError",
    "as_cmat",
    "commutator",
    "trace_form",
    "dagger",
    "frobenius",
    "matrix_to_obj",
    "matrix_from_obj",
    "save_matrix",
    "load_matrix",
]


class ContractViolation(ValueError):
    """An operation was called outside its stated contract."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (wrong table, non-constant ratio...)."""


def _check_int(name: str, value, least: int) -> int:
    """``value`` as an int; ContractViolation unless it is an integer (a
    Python or NumPy one, not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ContractViolation(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_real(name: str, value, least: float | None = None) -> float:
    """``value`` as a float; ContractViolation unless it is a finite real
    number (a Python or NumPy one, not a bool) that a double can hold, and
    of at least ``least`` if given."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value) and (least is None or value >= least)):
            return float(value)
    except OverflowError:  # an int beyond the doubles
        pass
    bound = "" if least is None else f" >= {least}"
    raise ContractViolation(f"{name} must be a finite real number{bound}, got {value!r}")


def _check_generator(name: str, value) -> np.random.Generator:
    """``value``; ContractViolation unless it is a ``numpy.random.Generator``."""
    if not isinstance(value, np.random.Generator):
        raise ContractViolation(
            f"{name} must be a numpy.random.Generator, got {type(value).__name__}"
        )
    return value


def _numeric_array(name: str, value, dtype) -> np.ndarray:
    """``value`` as an array of ``dtype``; ContractViolation unless the
    conversion succeeds and drops no imaginary part."""
    if getattr(value, "dtype", np.dtype(float)).kind == "c" and np.dtype(dtype).kind != "c":
        raise ContractViolation(f"{name} must be real, got complex entries")
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolation(f"{name} must be a numeric array ({exc})") from None


def _finite_array(
    name: str, value, shape: tuple | None, dtype, wrong_shape: str | None = None
) -> np.ndarray:
    """``_numeric_array``, and ContractViolation unless the shape is
    ``shape`` (any shape for None) and every entry is finite.
    ``wrong_shape`` replaces the message of a wrong shape."""
    a = _numeric_array(name, value, dtype)
    if shape is not None and a.shape != shape:
        raise ContractViolation(wrong_shape or f"{name} must have shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise ContractViolation(f"{name} has non-finite entries")
    return a


def as_cmat(x, name: str = "matrix") -> np.ndarray:
    """``x`` as a complex array; ContractViolation unless it is a numeric
    matrix (``_numeric_array``)."""
    a = _numeric_array(name, x, complex)
    if a.ndim != 2:
        raise ContractViolation(f"expected a matrix, got array of ndim={a.ndim}")
    return a


def frobenius(X) -> float:
    """Frobenius norm of an array, neither overflowing nor underflowing:
    ``np.linalg.norm`` where its result lies in [2^-480, 2^480] or the array
    is zero, else the rescaled sum of ``_frobenius_norms``."""
    x = np.asarray(X)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if 2.0**-480 <= norm <= 2.0**480 or not x.any():
        return norm
    return float(_frobenius_norms(x.reshape(1, -1))[0])


def _frobenius_norms(B: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, neither overflowing nor
    underflowing.  A sum of squares inside [2^-960, 2^960] is used as it is
    (no square overflowed, and one that underflowed is below an ulp of the
    sum); every other matrix (zero, tiny or huge) is divided by its largest
    entry modulus first.  A matrix with an infinite entry reads inf, one
    with a NaN reads NaN."""
    x = np.ascontiguousarray(B).reshape(len(B), -1)
    if x.dtype.kind == "c":
        x = x.view(float)
    ss = np.einsum("ij,ij->i", x, x)
    norms = np.sqrt(ss)
    rescale = ~((ss >= 2.0**-960) & (ss <= 2.0**960))
    if rescale.any():
        a = np.abs(x[rescale])
        top = a.max(axis=1)
        a /= np.where((top > 0.0) & (top < np.inf), top, 1.0)[:, None]
        norms[rescale] = top * np.sqrt(np.einsum("ij,ij->i", a, a))
    return norms


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


# ---------------------------------------------------------------------------
# JSON wire format


def matrix_to_obj(X) -> dict:
    X = as_cmat(X)
    rows, cols = X.shape
    data = [[float(z.real), float(z.imag)] for z in X.reshape(-1)]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def matrix_from_obj(obj: dict) -> np.ndarray:
    """The matrix of a wire-format object; ContractViolation unless ``data``
    holds ``rows`` x ``cols`` pairs of finite numbers."""
    try:
        rows, cols = obj["rows"], obj["cols"]
        entries = [complex(re, im) for re, im in obj["data"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed matrix object: {exc}") from None
    size = _check_int("rows", rows, 0) * _check_int("cols", cols, 0)
    return _finite_array("matrix object", entries, (size,), complex).reshape(rows, cols)


def save_matrix(path, X) -> None:
    with open(path, "w") as fh:
        json.dump(matrix_to_obj(X), fh)


def load_matrix(path) -> np.ndarray:
    """``matrix_from_obj`` of a JSON file; ContractViolation if it cannot be read."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ContractViolation(f"cannot read a matrix from {path}: {exc}") from None
    return matrix_from_obj(obj)
