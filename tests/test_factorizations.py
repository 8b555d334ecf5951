import numpy as np
import pytest

from cartanflow.factorizations import (
    antisym_canonical,
    quaternionic_eigh,
    quaternionic_svd,
    takagi,
)
from cartanflow import embed_radial, random_k_element
from cartanflow.spaces import _cii_j, _plain_j, make_space


def cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_takagi_reconstruction(n, rng):
    B = cgauss(rng, (n, n))
    B = (B + B.T) / 2
    U, s = takagi(B)
    assert np.all(np.diff(s) <= 1e-12) and np.all(s >= 0)
    assert np.linalg.norm(U @ np.diag(s) @ U.T - B) <= 1e-10 * max(1, np.linalg.norm(B))
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-10


def test_takagi_degenerate_and_singular():
    U, s = takagi(np.diag([2.0, 2.0, 0.0]).astype(complex))
    assert np.allclose(s, [2.0, 2.0, 0.0])
    assert np.linalg.norm(U @ np.diag(s) @ U.T - np.diag([2.0, 2.0, 0.0])) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_antisym_canonical(n, rng):
    B = cgauss(rng, (n, n))
    B = (B - B.T) / 2
    U, s = antisym_canonical(B)
    assert len(s) == n // 2 and np.all(s >= 0)
    Sig = np.zeros((n, n), dtype=complex)
    for k, sk in enumerate(s):
        Sig[2 * k, 2 * k + 1] = sk
        Sig[2 * k + 1, 2 * k] = -sk
    assert np.linalg.norm(U @ Sig @ U.T - B) <= 1e-10 * max(1, np.linalg.norm(B))
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-10


@pytest.mark.parametrize("h", [2, 3, 4])
def test_quaternionic_eigh(h, rng):
    J = _plain_j(h)
    P = cgauss(rng, (h, h))
    P = (P + P.conj().T) / 2
    Q = cgauss(rng, (h, h))
    Q = (Q - Q.T) / 2
    X = np.block([[P, Q], [-Q.conj(), P.conj()]])
    d, U = quaternionic_eigh(X, J)
    D = np.diag(np.concatenate([d, d]))
    assert np.linalg.norm(U @ D @ U.conj().T - X) <= 1e-10 * max(1, np.linalg.norm(X))
    assert np.linalg.norm(U @ J - J @ U.conj()) <= 1e-10
    assert np.linalg.norm(U.conj().T @ U - np.eye(2 * h)) <= 1e-10


@pytest.mark.parametrize("mn", [(1, 1), (2, 1), (3, 2), (4, 2)])
def test_quaternionic_svd(mn, rng):
    m, n = mn
    d = make_space("cii", m, n)
    Jf = _cii_j(d)
    JL, JR = Jf[: 2 * m, : 2 * m].real, Jf[2 * m :, 2 * m :].real
    B = cgauss(rng, (2 * m, 2 * n))
    B = (B + JL @ B.conj() @ np.linalg.inv(JR)) / 2
    U, s, V = quaternionic_svd(B, JL, JR)
    Sig = np.zeros((2 * m, 2 * n))
    for k, sk in enumerate(s):
        Sig[k, k] = sk
        Sig[m + k, n + k] = sk
    assert np.linalg.norm(U @ Sig @ V.conj().T - B) <= 1e-10 * max(1, np.linalg.norm(B))
    assert np.linalg.norm(V @ JR - JR @ V.conj()) <= 1e-10
    assert np.linalg.norm(U.conj().T @ U - np.eye(2 * m)) <= 1e-10
    assert np.linalg.norm(V.conj().T @ V - np.eye(2 * n)) <= 1e-10


# The cluster paths shared by the four factorizations: repeated values
# resolved together, zero clusters, and left columns filled from the
# identity.  Inputs are built from structured factors of K, so the values
# are exactly repeated or zero before rounding.


@pytest.mark.parametrize("n, s0", [(7, [2.0, 2.0, 0.0]), (5, [1.0, 0.0]), (6, [3.0, 3.0, 0.0])])
def test_antisym_canonical_repeated_and_zero_values(n, s0):
    U0 = random_k_element(make_space("diii", 0, n), np.random.default_rng(n))[:n, :n]
    Sig0 = np.zeros((n, n))
    for k, sk in enumerate(s0):
        Sig0[2 * k, 2 * k + 1], Sig0[2 * k + 1, 2 * k] = sk, -sk
    B = U0 @ Sig0 @ U0.T
    U, s = antisym_canonical(B)
    Sig = np.zeros((n, n))
    for k, sk in enumerate(s):
        Sig[2 * k, 2 * k + 1], Sig[2 * k + 1, 2 * k] = sk, -sk
    assert np.linalg.norm(U @ Sig @ U.T - B) <= 1e-12 * np.linalg.norm(B)
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12
    # phi(w) = B conj(w) / s maps each column u to its partner
    assert np.linalg.norm(B @ U.conj() - U @ Sig) <= 1e-12 * np.linalg.norm(B)
    nonzero = np.count_nonzero(s0)
    lapack = np.linalg.svd(B)[1][0::2]  # the one SVD the values come from
    assert np.array_equal(s[:nonzero], lapack[:nonzero])
    assert np.all(s[nonzero:] == 0.0)


@pytest.mark.parametrize(
    "h, d0", [(4, [2.0, 2.0, -1.0, -1.0]), (3, [1.5, 1.5, 0.0]), (3, [0.0, 0.0, 0.0])]
)
def test_quaternionic_eigh_doubly_degenerate(h, d0):
    J = _plain_j(h)
    k0 = random_k_element(make_space("aii", 0, h), np.random.default_rng(h))
    X = k0 @ np.diag(np.concatenate([d0, d0])) @ k0.conj().T
    d, U = quaternionic_eigh(X, J)
    D = np.diag(np.concatenate([d, d]))
    assert np.linalg.norm(U @ D @ U.conj().T - X) <= 1e-12 * max(1, np.linalg.norm(X))
    assert np.linalg.norm(U.conj().T @ U - np.eye(2 * h)) <= 1e-12
    assert np.linalg.norm(U @ J - J @ U.conj()) <= 1e-12
    assert np.array_equal(d, np.linalg.eigh(X)[0][::-1][0::2])


@pytest.mark.parametrize(
    "m, n, q", [(4, 2, [1.5, 0.0]), (3, 1, [0.0]), (4, 3, [1.0, 1.0, 0.0]), (3, 2, [0.5, 0.5])]
)
def test_quaternionic_svd_zero_values_and_tail(m, n, q):
    # rows > cols: the zero-value and tail left columns come from the identity
    d = make_space("cii", m, n)
    k0 = random_k_element(d, np.random.default_rng(m + n))
    B = (k0 @ embed_radial(d, q) @ k0.conj().T)[: 2 * m, 2 * m :]
    Jf = _cii_j(d)
    JL, JR = Jf[: 2 * m, : 2 * m].real, Jf[2 * m :, 2 * m :].real
    U, s, V = quaternionic_svd(B, JL, JR)
    Sig = np.zeros((2 * m, 2 * n))
    for k, sk in enumerate(s):
        Sig[k, k] = Sig[m + k, n + k] = sk
    assert np.linalg.norm(U @ Sig @ V.conj().T - B) <= 1e-12 * max(1, np.linalg.norm(B))
    assert np.linalg.norm(U.conj().T @ U - np.eye(2 * m)) <= 1e-12
    assert np.linalg.norm(V.conj().T @ V - np.eye(2 * n)) <= 1e-12
    sgn = JR[n, 0]
    assert np.linalg.norm(V[:, n:] - sgn * JR @ V[:, :n].conj()) <= 1e-12
    # paired slots take the partner sign of V, the tail J_left's own pairing
    signs = np.where(np.arange(m) < n, sgn, 1.0)
    assert np.linalg.norm(U[:, m:] - signs * (JL @ U[:, :m].conj())) <= 1e-12
    assert np.array_equal(s, np.linalg.svd(B)[1][0::2])  # the one SVD the values come from


def test_antisym_canonical_near_equal_pair_is_not_split():
    # values 1 and 1 - 1e-7 (1 - 1e-7 * s_max up to rounding): LAPACK's four
    # singular values straddle the first value's tolerance, so a cluster
    # anchored on its first value split a degenerate pair and returned a
    # 4x6 U with three values
    n = 4
    U0 = random_k_element(make_space("diii", 0, n), np.random.default_rng(4))[:n, :n]
    Sig = np.zeros((n, n))
    for k, sk in enumerate([1.0, 0.9999999000000004]):
        Sig[2 * k, 2 * k + 1], Sig[2 * k + 1, 2 * k] = sk, -sk
    B = U0 @ Sig @ U0.T
    U, s = antisym_canonical(B)
    assert U.shape == (n, n) and s.shape == (n // 2,)
    assert np.linalg.norm(U.conj().T @ U - np.eye(n)) <= 1e-12
    Sig = np.zeros((n, n))
    for k, sk in enumerate(s):
        Sig[2 * k, 2 * k + 1], Sig[2 * k + 1, 2 * k] = sk, -sk
    assert np.linalg.norm(U @ Sig @ U.T - B) <= 1e-12 * np.linalg.norm(B)
