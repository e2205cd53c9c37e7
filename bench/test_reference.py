"""Tests of the reference checker against closed forms (no kslab involved).

    python3 -m pytest bench/test_reference.py
"""

import numpy as np
import pytest

import reference as ref

rng = np.random.default_rng(7)


def unit(n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return X / np.linalg.norm(X)


def E(d, i, j):
    M = np.zeros((d, d), dtype=complex)
    M[i, j] = 1.0
    return M


def test_amplified_map_acts_on_each_block():
    A, B = unit(2), unit(3)
    out = ref.apply_amplified(ref.transpose_transfer(3), np.kron(A, B), 2)
    assert np.allclose(out, np.kron(A, B.T))


def test_named_transfers_match_their_closed_forms():
    d, a = 3, 0.4
    v = np.eye(d).reshape(-1, order="F")
    assert np.allclose(ref.depolarizing_transfer(d), np.outer(v, v) / d)
    assert np.allclose(ref.reduction_transfer(d, a), (np.outer(v, v) - a * np.eye(d * d)) / (d - a))
    assert np.allclose(ref.lambda_minus_transfer(ref.identity_transfer(d), a), ref.reduction_transfer(d, a))
    assert np.allclose(ref.lambda_plus_transfer(ref.transpose_transfer(d), 1.0), ref.depolarizing_transfer(d))


def test_choi_matrices():
    d = 3
    omega = np.eye(d).reshape(-1)  # sum_i e_i (x) e_i
    assert np.allclose(ref.choi(ref.identity_transfer(d)), np.outer(omega, omega))
    # the Choi matrix of the transposition is the swap: eigenvalues +-1
    assert np.allclose(np.linalg.eigvalsh(ref.choi(ref.transpose_transfer(d)))[[0, -1]], [-1, 1])
    assert ref.is_completely_positive(ref.depolarizing_transfer(d))
    assert not ref.is_completely_positive(ref.transpose_transfer(d))


def test_defects_in_closed_form():
    T = ref.transpose_transfer(2)
    X = E(2, 0, 1)
    # T(X*X) - T(X)*T(X) = E_22 - E_11
    assert np.allclose(ref.ks_defect(T, X, 1), np.diag([-1.0, 1.0]))
    # the transposition is exactly co-KS, the identity exactly KS
    Y = unit(2)
    assert np.allclose(ref.co_ks_defect(T, Y), 0)
    assert np.allclose(ref.ks_defect(ref.identity_transfer(2), unit(4), 2), 0)
    # the zero map leaves Tr_2(X*X), which is PSD
    assert ref.lambda_min(ref.phi_k_defect(np.zeros((4, 4)), unit(6), 3)) >= -1e-12


def test_accepts_a_real_witness():
    assert ref.check_block_witness("ks", ref.transpose_transfer(2), 1, E(2, 0, 1), -1.0) == []


def test_rejects_a_planted_non_violating_witness():
    # unital CP maps are KS (Choi 1974): no X violates, whatever value is claimed
    for T in (ref.identity_transfer(3), ref.depolarizing_transfer(3)):
        assert ref.check_block_witness("ks", T, 1, unit(3), -0.5)
        assert ref.check_block_witness("phi-k", 0.5 * T, 2, unit(6), -0.5)
    assert ref.check_block_witness("co-ks", ref.transpose_transfer(3), 1, unit(3), -0.5)


def test_rejects_a_sign_flipped_defect():
    T, X = ref.transpose_transfer(2), E(2, 0, 1)
    # the right witness with its value reported with the wrong sign
    assert ref.check_block_witness("ks", T, 1, X, +1.0)
    # a witness that only violates the negated defect, Phi(X)*Phi(X) - Phi(X*X)
    D = ref.depolarizing_transfer(2)
    Y = unit(2)
    flipped = ref.lambda_min(-ref.ks_defect(D, Y, 1))
    assert flipped < -1e-3
    assert ref.check_block_witness("ks", D, 1, Y, flipped)


def test_schmidt_witness():
    d, a = 3, 1.5  # R_a is not positive for a > 1
    T = ref.reduction_transfer(d, a)
    u = v = np.eye(d)[:, :1].astype(complex)
    value = (1 - a) / (d - a)  # <e0 e0| C |e0 e0> = <e0| R_a(E_00) |e0>
    assert ref.check_schmidt_witness(T, 1, u, v, value) == []
    assert ref.check_schmidt_witness(T, 1, u, v, -value)
    # the same vector does not violate for a positive R_a
    assert ref.check_schmidt_witness(ref.reduction_transfer(d, 0.5), 1, u, v, value)
    # two Schmidt factors are not a k = 1 witness
    u2 = v2 = np.eye(d)[:, :2].astype(complex)
    assert ref.check_schmidt_witness(T, 1, u2, v2, value)


@pytest.mark.parametrize("prop", ["ks", "co-ks", "phi-k"])
def test_wrong_shape_is_rejected(prop):
    assert ref.check_block_witness(prop, ref.identity_transfer(2), 2, unit(2), -1.0)
