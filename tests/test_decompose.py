import numpy as np
import pytest

from kslab import decompose
from kslab.certify import SearchBudget
from kslab.decompose import (
    DecompositionInfeasibleError,
    decompose_lambda_plus_T,
    decompose_reduction,
    jordan_defect,
    jordan_product,
    ks_threshold_depolarized_transpose,
    reduction_split_params,
    stormer_defect,
    verify_decomposition,
)
from kslab.linalg import _derive_seed, ginibre, hs_norm, min_eigenvalue, unit_ginibre
from kslab.maps import QuantumMap, mix
from kslab.suite import _decompositions
from kslab.zoo import (
    ParameterDomainError,
    depolarizing,
    lambda_plus,
    reduction,
    transpose_map,
)

rng = np.random.default_rng(3)
FAST = SearchBudget(restarts=8, max_iters=200, seed=0)


def test_threshold_values():
    # (2d + 1 - sqrt(4d+1)) / (2d)
    assert ks_threshold_depolarized_transpose(2) == pytest.approx(0.5)
    assert ks_threshold_depolarized_transpose(3) == pytest.approx((7 - np.sqrt(13)) / 6)


def test_lambda_plus_T_below_threshold():
    r = decompose_lambda_plus_T(2, 0.2)
    assert r.lam == pytest.approx(0.4)
    assert r.params["beta"] == pytest.approx(0.5)
    assert abs(r.lam * r.params["beta"] - 0.2) < 1e-14
    target = lambda_plus(transpose_map(2), 0.2)
    assert hs_norm(r.reconstruction().transfer - target.transfer) < 1e-12


def test_lambda_plus_T_identity_check_raises(monkeypatch):
    # the lambda*beta = a identity is an explicit check, not an assert
    monkeypatch.setattr(decompose, "IDENTITY_TOL", -1.0)
    with pytest.raises(RuntimeError, match="lambda\\*beta"):
        decompose_lambda_plus_T(2, 0.2)


def test_reconstruction_residual_check_raises_runtime_error(monkeypatch):
    # a broken invariant, not bad input: RuntimeError itself, not a subclass
    monkeypatch.setattr(decompose, "_residual", lambda *args: 1.0)
    with pytest.raises(RuntimeError, match="reconstruction residual") as info:
        decompose_lambda_plus_T(2, 0.2)
    assert info.type is RuntimeError


def test_reduction_split_check_raises_runtime_error(monkeypatch):
    monkeypatch.setattr(decompose, "_check_reduction_split", lambda *args: "phi1 KS")
    with pytest.raises(RuntimeError, match="reduction split construction violated") as info:
        decompose_reduction(3, 0.9)
    assert info.type is RuntimeError


def test_lambda_plus_T_above_threshold_trivial():
    r = decompose_lambda_plus_T(2, 0.8)
    assert r.lam == 1.0
    assert r.params["beta"] == 0.8


def test_lambda_plus_T_a_zero():
    r = decompose_lambda_plus_T(3, 0.0)
    assert r.lam == 0.0
    # pure transposition component carries all the weight
    assert hs_norm(r.phi2.transfer - transpose_map(3).transfer) < 1e-12


def test_lambda_plus_T_domain():
    with pytest.raises(ParameterDomainError):
        decompose_lambda_plus_T(2, 1.5)


def test_reduction_worked_example_d2_a09():
    # hand-worked instance: alpha = 1/11, lambda window [4/33, 6/33]
    r = decompose_reduction(2, 0.9)
    p = r.params
    assert r.lam == pytest.approx(5 / 33)
    assert p["alpha"] == pytest.approx(1 / 11)
    assert p["beta"] == pytest.approx(1 / 33)
    assert p["gamma"] == pytest.approx(9 / 11)
    assert p["delta"] == pytest.approx(-26 / 33)
    assert p["beta"] / p["alpha"] == pytest.approx(1 / 3)
    assert -p["delta"] / p["gamma"] == pytest.approx(26 / 27)


def test_reduction_trivial_below_ks_boundary():
    r = decompose_reduction(2, 0.5)
    assert r.lam == 1.0
    assert hs_norm(r.phi1.transfer - reduction(2, 0.5).transfer) < 1e-12


@pytest.mark.parametrize("d,a", [(2, 0.7), (2, 0.95), (3, 0.8), (3, 0.99)])
def test_reduction_split_parameter_identities(d, a):
    r = decompose_reduction(d, a)
    p = r.params
    assert abs(p["alpha"] + p["gamma"] - 1 / (d - a)) < 1e-14
    assert abs(p["beta"] - p["delta"] - a / (d - a)) < 1e-14
    assert abs(p["alpha"] * d - p["beta"] - r.lam) < 1e-14
    assert abs(p["gamma"] * d + p["delta"] - (1 - r.lam)) < 1e-14
    assert p["delta"] < 0
    assert r.phi1.unital and r.phi2.unital
    assert r.reconstruction_residual < 1e-10


def test_reduction_a1_infeasible():
    for d in range(2, 6):
        with pytest.raises(DecompositionInfeasibleError, match=r"d\^2 <= d\^2 - 1"):
            decompose_reduction(d, 1.0)


def test_reduction_split_params_formula():
    p = reduction_split_params(2, 0.9, alpha=1 / 11, lam=5 / 33)
    assert p["beta"] == pytest.approx(2 / 11 - 5 / 33)
    assert p["gamma"] == pytest.approx(1 / 1.1 - 1 / 11)


def test_jordan_product_unnormalized():
    A, B = ginibre(rng, 3), ginibre(rng, 3)
    assert np.allclose(jordan_product(A, B), A @ B + B @ A)
    assert np.allclose(jordan_product(A, A), 2 * A @ A)


def test_jordan_defect_edge_lambdas():
    r = decompose_reduction(2, 0.9)
    X = ginibre(rng, 2)
    # at lambda in {0, 1} the correction term drops out
    D0 = jordan_defect(r.phi1, r.phi2, 0.0, X)
    Z = r.phi2(X)
    expected = r.phi2(jordan_product(X.conj().T, X)) - jordan_product(Z.conj().T, Z)
    assert np.allclose(D0, expected)


def test_jordan_defect_equal_components():
    Phi = depolarizing(2)
    X = ginibre(rng, 2)
    D = jordan_defect(Phi, Phi, 0.5, X)
    Z = Phi(X)
    expected = Phi(jordan_product(X.conj().T, X)) - jordan_product(Z.conj().T, Z)
    assert np.allclose(D, expected)


@pytest.mark.parametrize("d,a", [(2, 0.9), (3, 0.8), (4, 0.95)])
def test_jordan_defect_matches_mixed_map(d, a):
    # the termwise evaluation equals the defect of the mixed map built whole
    r = decompose_reduction(d, a)
    Phi = mix([(r.lam, r.phi1), (1 - r.lam, r.phi2)])
    for _ in range(5):
        X = ginibre(rng, d)
        Z, W = Phi(X), r.phi1(X) - r.phi2(X)
        expected = (
            Phi(jordan_product(X.conj().T, X))
            - jordan_product(Z.conj().T, Z)
            - r.lam * (1 - r.lam) * jordan_product(W.conj().T, W)
        )
        assert hs_norm(jordan_defect(r.phi1, r.phi2, r.lam, X) - expected) < 1e-12


def test_jordan_defect_psd_on_decompositions():
    r = decompose_reduction(3, 0.9)
    for _ in range(50):
        X = ginibre(rng, 3)
        X /= hs_norm(X)
        assert min_eigenvalue(jordan_defect(r.phi1, r.phi2, r.lam, X)) > -1e-9


def test_jordan_defect_validation():
    with pytest.raises(ValueError):
        jordan_defect(depolarizing(2), depolarizing(3), 0.5, np.eye(2))
    with pytest.raises(ValueError):
        jordan_defect(depolarizing(2), depolarizing(2), 1.5, np.eye(2))


def test_stormer_defect_identity_zero():
    X = ginibre(rng, 2)
    assert hs_norm(stormer_defect(QuantumMap.identity(2), X)) < 1e-12


def test_stormer_defect_psd_for_positive_unital():
    for Phi in (depolarizing(3), reduction(3, 0.8), transpose_map(3)):
        for _ in range(20):
            X = ginibre(rng, 3)
            X /= hs_norm(X)
            assert min_eigenvalue(stormer_defect(Phi, X)) > -1e-9


def test_stormer_defect_precondition():
    with pytest.raises(ValueError, match="precondition"):
        stormer_defect(QuantumMap(2 * np.eye(4)), np.eye(2))


def test_verify_decomposition_all_ok():
    r = decompose_reduction(2, 0.9)
    rep = verify_decomposition(r, reduction(2, 0.9), FAST, n_jordan_samples=30)
    assert rep.all_ok
    assert rep.reconstruction_residual < 1e-10
    assert rep.jordan_min_eigenvalue > -1e-9


def test_verify_decomposition_detects_tampering():
    r = decompose_reduction(2, 0.9)
    r.lam += 0.05
    rep = verify_decomposition(r, reduction(2, 0.9), FAST, n_jordan_samples=10)
    assert not rep.reconstruction_ok
    assert not rep.all_ok


def test_verify_decomposition_rejects_vacuous_jordan_check():
    # no samples would report jordan_ok on no evidence, with an inf minimum
    r = decompose_reduction(2, 0.9)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_jordan_samples"):
            verify_decomposition(r, reduction(2, 0.9), FAST, n_jordan_samples=n)


def test_verify_decomposition_rejects_target_of_another_dimension():
    # the residual would otherwise be a numpy broadcasting error
    r = decompose_reduction(2, 0.9)
    with pytest.raises(ValueError, match="d=2 and d=2, the target on d=3"):
        verify_decomposition(r, reduction(3, 0.9), FAST)


def _loop_jordan(result, d, seed, n):
    """The per-sample Jordan check verify_decomposition ran before it took
    the samples as one stack: the samples drawn and the minimum eigenvalue."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(97,)))
    samples, jmin = [], np.inf
    for _ in range(n):
        X = ginibre(rng, d)
        X /= hs_norm(X)
        samples.append(X)
        jmin = min(jmin, min_eigenvalue(jordan_defect(result.phi1, result.phi2, result.lam, X)))
    return np.array(samples), jmin


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("d", [2, 3])
def test_stacked_jordan_check_matches_loop_oracle(d, seed):
    # every criterion-8 decomposition, with criterion 8's budgets
    for _, a, target, r in _decompositions(d):
        budget = SearchBudget(restarts=8, max_iters=200, seed=_derive_seed(seed, 8, d, int(round(a * 100))))
        rep = verify_decomposition(r, target, budget, n_jordan_samples=100)
        samples, jmin = _loop_jordan(r, d, budget.seed, 100)
        rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(97,)))
        assert np.array_equal(unit_ginibre(rng, 100, d), samples)
        assert abs(rep.jordan_min_eigenvalue - jmin) <= 1e-15
        assert rep.jordan_ok == (jmin >= -decompose.JORDAN_TOL)
        loop_all_ok = (
            rep.reconstruction_ok
            and rep.phi1_ks.verdict == rep.phi2_co_ks.verdict == "NoViolationFound"
            and jmin >= -decompose.JORDAN_TOL
        )
        assert rep.all_ok == loop_all_ok


@pytest.mark.parametrize("d,a", [(2, 0.9), (3, 0.95), (4, 0.8)])
def test_stacked_defects_equal_per_member_calls(d, a):
    r = decompose_reduction(d, a)
    X = unit_ginibre(rng, 7, d)
    J = jordan_defect(r.phi1, r.phi2, r.lam, X)
    assert J.shape == X.shape
    for Phi in (r.phi1, r.phi2, reduction(d, a)):
        S = stormer_defect(Phi, X)
        assert S.shape == X.shape
        for i in range(len(X)):
            assert np.array_equal(S[i], stormer_defect(Phi, X[i]))
    for i in range(len(X)):
        assert np.array_equal(J[i], jordan_defect(r.phi1, r.phi2, r.lam, X[i]))
