import numpy as np
import pytest

from kslab import maps, zoo
from kslab.linalg import ginibre, haar_isometry, hs_norm
from kslab.maps import QuantumMap
from kslab.suite import _utp_sample
from kslab.zoo import (
    FAMILY_NAMES,
    HypothesisError,
    ParameterDomainError,
    bound_lambda_minus,
    bounds_lambda_plus,
    build_family,
    depolarizing,
    lambda_minus,
    lambda_plus,
    reduction,
    sample_utp_cp,
    transpose_map,
    transpose_rows,
    unitary_sandwich,
)

rng = np.random.default_rng(7)


def test_depolarizing_action():
    D = depolarizing(3)
    X = ginibre(rng, 3)
    assert np.allclose(D(X), np.trace(X) * np.eye(3) / 3)


def test_transpose_action():
    T = transpose_map(3)
    X = ginibre(rng, 3)
    assert np.allclose(T(X), X.T)


def test_reduction_action_and_domain():
    R = reduction(2, 0.5)
    X = ginibre(rng, 2)
    assert np.allclose(R(X), (np.trace(X) * np.eye(2) - 0.5 * X) / 1.5)
    assert R.unital and R.trace_preserving
    with pytest.raises(ParameterDomainError):
        reduction(2, 2.0)


def test_lambda_minus_identity_base_equals_reduction():
    # over the identity base the two constructions coincide exactly
    for d, a in [(2, 0.3), (3, 0.7), (3, 1.5)]:
        L = lambda_minus(QuantumMap.identity(d), a)
        R = reduction(d, a)
        assert hs_norm(L.transfer - R.transfer) < 1e-14


def test_lambda_plus_endpoints():
    base = sample_utp_cp(2, seed=3)
    assert hs_norm(lambda_plus(base, 0.0).transfer - base.transfer) < 1e-14
    assert hs_norm(lambda_plus(base, 1.0).transfer - depolarizing(2).transfer) < 1e-14


@pytest.mark.parametrize("family", [lambda_minus, lambda_plus])
def test_lambda_families_check_their_result(monkeypatch, family):
    # a mixture that comes out non-unital raises, also under python -O
    monkeypatch.setattr(zoo, "depolarizing", lambda d: QuantumMap(2 * np.eye(d * d)))
    with pytest.raises(RuntimeError, match="unital=False"):
        family(QuantumMap.identity(2), 0.5)


@pytest.mark.parametrize(
    "family,a",
    [(lambda_plus, 2.05), (lambda_plus, 3), (lambda_plus, 11), (lambda_minus, 2.999)],
)
def test_lambda_families_far_out_on_the_line_stay_utp(family, a):
    # the mix scales the base's ~1e-10 residuals by |1 - b|, and the flag
    # bound scales with the map alike, so none of criterion 3's d = 3 bases
    # is refused
    for _, Phi in _utp_sample(0, 3):
        out = family(Phi, a)
        assert out.unital and out.trace_preserving, out.label


def test_lambda_families_require_utp_base():
    T = np.zeros((4, 4))
    T[0, 0] = 1.0
    bad = QuantumMap(T)
    with pytest.raises(HypothesisError):
        lambda_minus(bad, 0.5)
    with pytest.raises(HypothesisError):
        lambda_plus(bad, 0.5)


def test_bound_lambda_minus_values():
    assert bound_lambda_minus(2, 1) == pytest.approx(2 / 3)
    assert bound_lambda_minus(3, 1) == pytest.approx(3 / 4)
    assert bound_lambda_minus(3, 2) == pytest.approx(3 / 7)
    with pytest.raises(ParameterDomainError):
        bound_lambda_minus(2, 3)


def test_bounds_lambda_plus_are_roots():
    # endpoints solve a/(kd) - (1-a)^2 = 0
    for d, k in [(2, 1), (3, 1), (3, 2)]:
        lo, hi = bounds_lambda_plus(d, k)
        for a in (lo, hi):
            assert abs(a / (k * d) - (1 - a) ** 2) < 1e-12
        assert lo < 1 < hi


def test_unitary_sandwich():
    Phi = sample_utp_cp(2, seed=9)
    U, V = haar_isometry(rng, 2, 2), haar_isometry(rng, 2, 2)
    S = unitary_sandwich(Phi, U, V)
    X = ginibre(rng, 2)
    assert np.allclose(S(X), U @ Phi(V @ X @ V.conj().T) @ U.conj().T)
    assert S.unital and S.trace_preserving
    with pytest.raises(ValueError, match="unitary"):
        unitary_sandwich(Phi, 2 * U, V)


@pytest.mark.parametrize("d,n_kraus", [(2, 1), (2, 3), (3, 3), (3, 5)])
def test_sample_utp_cp_is_utp_and_cp(d, n_kraus):
    Phi = sample_utp_cp(d, seed=42, n_kraus=n_kraus)
    assert Phi.unital and Phi.trace_preserving
    assert np.linalg.eigvalsh((Phi.choi() + Phi.choi().conj().T) / 2)[0] > -1e-10
    # unital TP CP maps are HS contractions
    assert Phi.hs_norm() <= 1 + 1e-9


def test_sample_utp_cp_checks_its_result(monkeypatch):
    # with a negative structure tolerance no map counts as unital
    monkeypatch.setattr(maps, "STRUCT_TOL", -1.0)
    with pytest.raises(RuntimeError, match="unital=False"):
        sample_utp_cp(2, seed=1)


def test_sample_utp_cp_deterministic():
    A = sample_utp_cp(3, seed=17)
    B = sample_utp_cp(3, seed=17)
    assert np.array_equal(A.transfer, B.transfer)
    C = sample_utp_cp(3, seed=18)
    assert hs_norm(A.transfer - C.transfer) > 1e-3


def test_build_family_registry():
    for name in FAMILY_NAMES:
        Phi = build_family(name, 2, a=0.5, seed=1)
        assert Phi.d == 2
    with pytest.raises(ParameterDomainError, match="valid names"):
        build_family("bogus", 2)
    with pytest.raises(ParameterDomainError, match="parameter a"):
        build_family("reduction", 2)
    for name in ("reduction", "lambda-minus", "lambda-plus"):
        for a in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterDomainError, match="finite parameter a"):
                build_family(name, 2, a=a)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_transpose_rows_is_composition_with_transposition(d):
    # the one row permutation behind transpose_map and the co-KS search
    T = ginibre(rng, d * d)
    Phi = QuantumMap(T)
    assert np.array_equal(transpose_rows(T), transpose_map(d).compose(Phi).transfer)
    X = ginibre(rng, d)
    assert np.array_equal(QuantumMap(transpose_rows(T))(X), Phi(X).T)
    E = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            E[i, j] = 1.0
            assert np.array_equal(transpose_map(d)(E), E.T)
            E[i, j] = 0.0
