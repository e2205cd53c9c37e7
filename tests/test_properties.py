"""Property-based and implication tests: algebraic invariants under
hypothesis, plus falsifier-backed closure properties of the certified
classes (convex mixtures, unitary sandwiches, KS implies the partial-trace
domination condition on samples)."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import certify
from kslab.certify import (
    STALL_TOL,
    STALL_WINDOW,
    SearchBudget,
    _certified,
    _ks_parts,
    _qform,
    check_phi_k_condition,
    falsify_co_ks,
    falsify_ks,
)
from kslab.decompose import ks_threshold_depolarized_transpose
from kslab.linalg import dagger, ginibre, haar_isometry, hs_norm, unvec, vec
from kslab.maps import QuantumMap, mix
from kslab.serialize import matrix_from_json, matrix_to_json
from kslab.zoo import (
    lambda_minus,
    lambda_plus,
    reduction,
    sample_utp_cp,
    transpose_map,
    transpose_rows,
    unitary_sandwich,
)

FAST = SearchBudget(restarts=8, max_iters=200, seed=0)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
cplx = st.builds(complex, finite, finite)


@st.composite
def square(draw, nmax=5):
    n = draw(st.integers(2, nmax))
    seed = draw(st.integers(0, 2**31 - 1))
    return ginibre(np.random.default_rng(seed), n)


@given(square())
def test_vec_unvec_round_trip(X):
    assert np.array_equal(unvec(vec(X), X.shape[0]), X)


@given(square(), square())
def test_hs_norm_triangle(A, B):
    n = min(A.shape[0], B.shape[0])
    A, B = A[:n, :n], B[:n, :n]
    assert hs_norm(A + B) <= hs_norm(A) + hs_norm(B) + 1e-9


@given(square(), cplx, cplx)
def test_amplified_application_linear(X, a, b):
    Phi = sample_utp_cp(2, seed=1)
    n = X.shape[0]
    if n % 2:
        X = np.kron(X, np.eye(2))
        n *= 2
    k = n // 2
    Y = ginibre(np.random.default_rng(0), n)
    lhs = Phi.apply_amplified(a * X + b * Y, k)
    rhs = a * Phi.apply_amplified(X, k) + b * Phi.apply_amplified(Y, k)
    assert hs_norm(lhs - rhs) <= 1e-8 * max(abs(a) + abs(b), 1) * (hs_norm(X) + hs_norm(Y) + 1)


@given(st.lists(finite, min_size=1, max_size=6))
@settings(max_examples=50)
def test_float_json_round_trip_bit_exact(xs):
    row = [[x, -x] for x in xs]
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(np.array([
        [complex(a, b) for a, b in row]
    ])))))
    assert np.array_equal(back, np.array([[complex(a, b) for a, b in row]]))


@given(square())
@settings(max_examples=25)
def test_defect_of_cp_map_hermitian(X):
    Phi = sample_utp_cp(X.shape[0], seed=2) if X.shape[0] in (2, 3) else None
    if Phi is None:
        return
    from kslab.certify import ks_defect

    D = ks_defect(Phi, X)
    assert hs_norm(D - dagger(D)) < 1e-9 * max(hs_norm(X) ** 2, 1)


# -- the null space of the KS X half-step form on a unital map ----------------
#
# For unital Phi and Y = c^T (x) I_d, Phi_k(Y*Z) = Phi_k(Y)* Phi_k(Z) for every
# Z, so the vectors vec(e_C^T (x) I_d)/sqrt(d) span a null space N of every
# M'_v; for Phi(I) = I + E, ||M'_v N|| <= ||T||_HS ||E||_HS. So the start
# point X_0, whose block row 0 is the first of them, is a bottom vector of
# every form of a unital KS map, where M'_v >= 0.

FORM_DK = [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (5, 2)]


def _null_basis(d, k):
    # the columns vec(e_C^T (x) I_d)/sqrt(d), C < k
    return np.stack([vec(np.kron(np.eye(k)[C][None, :], np.eye(d))) for C in range(k)], axis=1) / np.sqrt(d)


@st.composite
def unital_case(draw):
    d, k = draw(st.sampled_from(FORM_DK))
    seed = draw(st.integers(0, 2**31 - 1))
    kind = draw(st.sampled_from(["random-utp", "lambda-plus", "lambda-minus", "identity", "transpose"]))
    if kind == "identity":
        Phi = QuantumMap.identity(d)
    elif kind == "transpose":
        Phi = transpose_map(d)
    else:
        base = draw(st.sampled_from([QuantumMap.identity(d), transpose_map(d), sample_utp_cp(d, seed % 50)]))
        if kind == "random-utp":
            Phi = sample_utp_cp(d, seed % 50)
        elif kind == "lambda-plus":
            Phi = lambda_plus(base, draw(st.floats(-20, 20)))
        else:
            Phi = lambda_minus(base, draw(st.floats(0, d - 1e-3)))
    v = ginibre(np.random.default_rng(seed), k * d, 1)[:, 0]
    return Phi, k, v / np.linalg.norm(v)


def _form_parts(Phi, k, v):
    d = Phi.d
    T = Phi.transfer
    M = _qform(*_ks_parts(T.reshape(1, d, d, d * d), v[None]))[0]
    return M, _null_basis(d, k), max(hs_norm(T) ** 2, 1.0)


@given(unital_case())
@settings(max_examples=60, deadline=None)
def test_block_identity_rows_are_a_null_space_of_the_form(case):
    Phi, k, v = case
    assert Phi.unital
    M, N, s = _form_parts(Phi, k, v)
    eps = hs_norm(Phi(np.eye(Phi.d)) - np.eye(Phi.d))
    # 1e-12 s where Phi is unital to rounding; a random base is unital to
    # about 1e-10, which the ||T|| ||E|| term carries
    assert np.linalg.norm(M @ N, 2) <= 1e-12 * s + hs_norm(Phi.transfer) * eps


@given(st.sampled_from(FORM_DK), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_block_identity_rows_are_no_null_space_of_a_non_unital_form(dk, seed):
    d, k = dk
    rng = np.random.default_rng(seed)
    Phi = QuantumMap.from_kraus([ginibre(rng, d) for _ in range(2)])  # CP, not unital
    assert not Phi.unital
    v = ginibre(rng, k * d, 1)[:, 0]
    M, N, s = _form_parts(Phi, k, v / np.linalg.norm(v))
    eps = hs_norm(Phi(np.eye(d)) - np.eye(d))
    assert 1e-12 * s < np.linalg.norm(M @ N, 2) <= 1e-12 * s + hs_norm(Phi.transfer) * eps


# -- the certificate of the X half-step ---------------------------------------
#
# Where _certified keeps a unit candidate c of the form M'_v, lambda_min(M'_v)
# > c* M'_v c - STALL_TOL / STALL_WINDOW, up to the rounding of the Cholesky
# factorization, so that the X half-step forgoes less than that by keeping c.


@st.composite
def certificate_case(draw):
    # a unital map, a CP map or a map that is neither, both not unital, or
    # Lambda^+_t(T) at its KS threshold t(d), d <= 6, at k = 1; a unit v; and
    # a candidate: X_0's block row, a bottom eigenvector of M'_v nudged by up
    # to 1e-6, or a random unit vector
    kind = draw(st.sampled_from(["unital", "not unital", "threshold"]))
    if kind == "unital":
        Phi, k, v = draw(unital_case())
        d = Phi.d
    else:
        d, k = draw(st.sampled_from(FORM_DK))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        if kind == "threshold":  # KS at k = 1
            d, k = d + k - 1, 1
            Phi = lambda_plus(transpose_map(d), ks_threshold_depolarized_transpose(d))
        elif draw(st.booleans()):
            Phi = QuantumMap.from_kraus([ginibre(rng, d) for _ in range(2)])  # CP, not unital
        else:
            Phi = QuantumMap(0.7 * lambda_plus(sample_utp_cp(d, int(rng.integers(50))), draw(st.floats(1, 2.5))).transfer)
        v = ginibre(rng, k * d, 1)[:, 0]
        v /= np.linalg.norm(v)
    M = _qform(*_ks_parts(Phi.transfer.reshape(1, d, d, d * d), v[None]))[0]
    which = draw(st.sampled_from(["start", "near bottom", "random"]))
    z = ginibre(np.random.default_rng(draw(st.integers(0, 2**31 - 1))), len(M), 1)[:, 0]
    if which == "start":
        c = _null_basis(d, k)[:, 0].astype(complex)
    elif which == "near bottom":
        c = np.linalg.eigh(M)[1][:, 0] + draw(st.floats(0, 1e-6)) * z / np.linalg.norm(z)
    else:
        c = z
    return kind, which, M, c / np.linalg.norm(c)


@given(certificate_case())
@settings(max_examples=150, deadline=None)
def test_where_the_certificate_keeps_a_candidate_it_is_within_eps_of_the_bottom(case):
    kind, which, M, c = case
    kept = _certified(M[None].copy(), c[None])[0]
    g = (c.conj() @ M @ c).real
    lam = np.linalg.eigvalsh(M)[0]
    slack = 4 * len(M) * np.finfo(float).eps * max(1.0, np.linalg.norm(M, 2))
    if kept:
        assert lam >= g - STALL_TOL / STALL_WINDOW - slack
    if kind == "threshold" and which == "start":
        # Lambda^+_t(T) is KS, so M'_v >= 0, and X_0's row is a null vector
        assert kept


# -- where the KS decision runs no search ----------------------------------
#
# At k >= d a k-KS map is CP, and P_Omega/d or I/sqrt(kd) decides any map
# there; a CP map with Phi(1) <= I is KS at every k, and co-KS when tau o Phi
# is. Neither runs a restart.


def _no_restart(*args):
    raise AssertionError("a restart ran")


@st.composite
def hp_map(draw):
    # a Hermiticity-preserving map on M_d, unital or not, CP or not
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    kind = draw(st.sampled_from(["hermitian-choi", "kraus", "lambda-plus", "transpose"]))
    if kind == "hermitian-choi":
        G = ginibre(rng, d * d)
        return QuantumMap.from_choi(G + dagger(G))
    if kind == "kraus":
        return QuantumMap.from_kraus([ginibre(rng, d) for _ in range(2)])
    if kind == "lambda-plus":
        return lambda_plus(sample_utp_cp(d, int(rng.integers(50))), draw(st.floats(-5, 5)))
    return transpose_map(d)


@given(hp_map(), st.integers(0, 1))
@settings(max_examples=40, deadline=None)
def test_any_hermiticity_preserving_map_is_decided_at_k_ge_d(Phi, extra):
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(certify, "_alternating_restart", _no_restart)
        warnings.simplefilter("ignore")  # the non-unital warning
        res = falsify_ks(Phi, Phi.d + extra, FAST)
    assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": int(res.violated)}


@given(st.integers(2, 3), st.integers(0, 2**31 - 1), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_a_cp_map_with_phi_one_below_the_identity_is_decided_clean_at_every_k(d, seed, top):
    rng = np.random.default_rng(seed)
    Psi = QuantumMap.from_kraus([ginibre(rng, d) for _ in range(2)])
    Psi = QuantumMap(Psi.transfer * top / np.linalg.eigvalsh(Psi(np.eye(d)))[-1])
    co = QuantumMap(transpose_rows(Psi.transfer))  # co-CP, with tau o co = Psi
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(certify, "_alternating_restart", _no_restart)
        warnings.simplefilter("ignore")  # the non-unital warning
        verdicts = [falsify_ks(Psi, k, FAST) for k in range(1, d + 2)] + [falsify_co_ks(co, FAST)]
    # a value some witness attains: >= 0 up to the rounding of ||Phi(1)|| = 1
    assert all(v.verdict == "NoViolationFound" and v.worst_value > -1e-12 for v in verdicts)


# -- closure properties of the certified classes ----------------------------


def test_convex_mix_of_cp_maps_stays_ks_clean():
    A = sample_utp_cp(2, seed=31)
    B = sample_utp_cp(2, seed=32)
    for w in (0.25, 0.5, 0.75):
        M = mix([(w, A), (1 - w, B)])
        assert falsify_ks(M, 1, FAST).verdict == "NoViolationFound"


def test_unitary_sandwich_preserves_ks():
    # defect of the sandwich is a unitary conjugate of the base defect
    rng = np.random.default_rng(11)
    Phi = reduction(2, 0.6)  # certified KS (below the 2/3 boundary)
    for _ in range(3):
        S = unitary_sandwich(Phi, haar_isometry(rng, 2, 2), haar_isometry(rng, 2, 2))
        assert falsify_ks(S, 1, FAST).verdict == "NoViolationFound"


def test_ks_implies_phi_k_on_samples():
    # maps that pass the k-KS falsifier also pass the partial-trace
    # domination check at the same k
    for seed in (41, 42, 43):
        Phi = sample_utp_cp(2, seed=seed)
        for k in (1, 2):
            assert falsify_ks(Phi, k, FAST).verdict == "NoViolationFound"
            assert check_phi_k_condition(Phi, k, FAST).verdict == "NoViolationFound"


def test_lambda_minus_bound_stable_under_base_sandwich():
    # sandwiching the base by one unitary on each side keeps the certified
    # region: Lambda^- over U id U* is Lambda^- over the identity
    rng = np.random.default_rng(13)
    U = haar_isometry(rng, 2, 2)
    from kslab.maps import QuantumMap

    base = unitary_sandwich(QuantumMap.identity(2), U, dagger(U))
    M = lambda_minus(base, 2 / 3)
    assert falsify_ks(M, 1, FAST).verdict == "NoViolationFound"
