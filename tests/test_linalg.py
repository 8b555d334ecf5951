import json

import numpy as np
import pytest

from cartanflow import linalg
from cartanflow.linalg import (
    ContractViolation,
    commutator,
    dagger,
    frobenius,
    matrix_from_obj,
    matrix_to_obj,
    trace_form,
)


def random_cmat(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_commutator_antisymmetry_and_identity(rng):
    X = random_cmat(rng, 5)
    assert np.allclose(commutator(X, X), 0.0)
    assert np.allclose(commutator(np.eye(5), X), 0.0)


def test_commutator_elementary():
    E12 = np.zeros((2, 2), dtype=complex)
    E12[0, 1] = 1
    E21 = E12.T.copy()
    assert np.allclose(commutator(E12, E21), np.diag([1.0, -1.0]))


def test_commutator_dimension_mismatch(rng):
    with pytest.raises(ContractViolation):
        commutator(random_cmat(rng, 3), random_cmat(rng, 4))


def test_commutator_jacobi_identity(rng):
    X, Y, Z = (random_cmat(rng, 6) for _ in range(3))
    resid = (
        commutator(X, commutator(Y, Z))
        + commutator(Y, commutator(Z, X))
        + commutator(Z, commutator(X, Y))
    )
    scale = np.linalg.norm(X) * np.linalg.norm(Y) * np.linalg.norm(Z)
    assert np.linalg.norm(resid) <= 1e-10 * scale


def test_trace_form_values(rng):
    X = random_cmat(rng, 4)
    assert trace_form(X, np.zeros((4, 4))) == 0.0
    D = np.diag([1j, -1j])
    assert trace_form(D, D) == pytest.approx(-2.0)
    Y = random_cmat(rng, 4)
    assert trace_form(X, Y) == pytest.approx(trace_form(Y, X), rel=1e-12)


def test_trace_form_bilinear(rng):
    X, Y, Z = (random_cmat(rng, 5) for _ in range(3))
    a, b = rng.standard_normal(2)
    lhs = trace_form(a * X + b * Y, Z)
    rhs = a * trace_form(X, Z) + b * trace_form(Y, Z)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_dagger_involution(rng):
    X = random_cmat(rng, 4)
    assert np.array_equal(dagger(dagger(X)), X)
    H = X + dagger(X)
    assert np.allclose(dagger(H), H)
    assert np.allclose(dagger(1j * np.eye(3)), -1j * np.eye(3))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-140, 1.0, 1e140, 1e154, 1e200, 1e300])
def test_frobenius_at_every_finite_scale(scale, rng):
    # np.linalg.norm's bytes inside [2^-480, 2^480]; outside it the squares
    # overflow (inf) or underflow (0.0), and the entries are rescaled first
    X = random_cmat(rng, 5)
    got = frobenius(scale * X)
    if 2.0**-480 <= scale * np.linalg.norm(X) <= 2.0**480:
        assert got == np.linalg.norm(scale * X)
    assert got == pytest.approx(scale * np.linalg.norm(X), rel=1e-15)
    assert frobenius((scale * X).real) == pytest.approx(scale * np.linalg.norm(X.real), rel=1e-15)


def test_frobenius_of_zero_empty_and_non_finite():
    assert frobenius(np.zeros((3, 3), dtype=complex)) == 0.0
    assert frobenius(np.zeros((0, 0))) == 0.0
    assert frobenius(np.array([[1.0, np.inf]])) == np.inf
    assert np.isnan(frobenius(np.array([[1.0, np.nan]])))


def test_matrix_json_roundtrip_bit_exact(rng):
    X = random_cmat(rng, 5, 3)
    X[0, 0] = 1e-300 + 1j * np.pi
    obj = json.loads(json.dumps(matrix_to_obj(X)))
    Y = matrix_from_obj(obj)
    assert np.array_equal(X, Y)


def test_matrix_json_malformed():
    with pytest.raises(ContractViolation):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_matrix_json_rejects_non_finite(bad):
    with pytest.raises(ContractViolation, match="non-finite"):
        matrix_from_obj({"rows": 1, "cols": 2, "data": [[1.0, 0.0], [0.0, bad]]})


@pytest.mark.parametrize(
    "obj",
    [
        {"rows": 1, "cols": 1, "data": [["a", 0.0]]},
        {"rows": 1, "cols": 1, "data": [[1.0, 0.0, 0.0]]},
        {"rows": 1, "cols": 1, "data": [1.0]},
        {"rows": 1, "cols": 1, "data": 1.0},
        {"rows": 1.5, "cols": 1, "data": [[1.0, 0.0]]},
        {"rows": "x", "cols": 1, "data": [[1.0, 0.0]]},
    ],
)
def test_matrix_json_rejects_malformed_entries(obj):
    with pytest.raises(ContractViolation):
        matrix_from_obj(obj)


@pytest.mark.parametrize("content", ["not json", None])
def test_load_matrix_rejects_unreadable_files(tmp_path, content):
    path = tmp_path / "x.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    with pytest.raises(ContractViolation, match="cannot read a matrix"):
        linalg.load_matrix(path)


def test_save_load_matrix(tmp_path, rng):
    X = random_cmat(rng, 4)
    path = tmp_path / "x.json"
    linalg.save_matrix(path, X)
    assert np.array_equal(linalg.load_matrix(path), X)
