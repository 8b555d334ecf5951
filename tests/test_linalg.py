import json

import numpy as np
import pytest

from cartanflow import linalg
from cartanflow.linalg import (
    ContractViolation,
    commutator,
    dagger,
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


def test_save_load_matrix(tmp_path, rng):
    X = random_cmat(rng, 4)
    path = tmp_path / "x.json"
    linalg.save_matrix(path, X)
    assert np.array_equal(linalg.load_matrix(path), X)
