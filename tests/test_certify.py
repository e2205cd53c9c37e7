import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import kslab
from kslab import certify
from kslab.certify import (
    EIG_DEGENERACY_GAP,
    EXTRAPOLATION_ALIGNMENT,
    STALL_TOL,
    STALL_WINDOW,
    SchmidtWitness,
    SearchBudget,
    WitnessRecheckError,
    _alternating_restart,
    _certified,
    _compress_left,
    _compress_right,
    _falsify,
    _kpos_restart,
    _ks_parts,
    _ks_xstep,
    _min_eig_value,
    _min_eig_vectors,
    _qform,
    _schmidt_value,
    amplified_ks_defect,
    block_to_tuple,
    check_phi_k_condition,
    co_ks_defect,
    falsify_co_ks,
    falsify_k_positivity,
    falsify_ks,
    kks_block_defect,
    ks_defect,
    paper_bound_for,
    phi_k_defect,
    scan_threshold,
    tuple_to_block,
)
from kslab.linalg import (
    HermiticityError,
    _derive_seed,
    dagger,
    ginibre,
    hermitianize,
    hs_norm,
    min_eigenvalue,
    vec,
)
from kslab.decompose import decompose_lambda_plus_T, decompose_reduction
from kslab.maps import AmplifiedMap, BlockOperator, QuantumMap
from kslab.serialize import scan_to_json, verdict_to_json
from kslab.suite import _utp_sample
from kslab.zoo import (
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
)

rng = np.random.default_rng(0)
FAST = SearchBudget(restarts=8, max_iters=200, seed=0)


# -- defect operators -------------------------------------------------------


def test_ks_defect_identity_is_zero():
    Phi = QuantumMap.identity(3)
    X = ginibre(rng, 3)
    assert hs_norm(ks_defect(Phi, X)) < 1e-12


def test_ks_defect_psd_for_cp():
    Phi = sample_utp_cp(3, seed=4)
    for _ in range(20):
        X = ginibre(rng, 3)
        assert min_eigenvalue(ks_defect(Phi, X)) > -1e-9 * hs_norm(X) ** 2


def test_co_ks_defect_is_transposed_ks_defect():
    # co-KS of Phi equals KS of T.Phi up to a transpose of the defect
    Phi = sample_utp_cp(2, seed=8)
    Psi = transpose_map(2).compose(Phi)
    X = ginibre(rng, 2)
    assert np.allclose(ks_defect(Psi, X), co_ks_defect(Phi, X).T)


def test_transpose_exactly_co_ks():
    T = transpose_map(3)
    for _ in range(10):
        X = ginibre(rng, 3)
        assert hs_norm(co_ks_defect(T, X)) < 1e-12


def test_amplified_defect_matches_block_criterion():
    Phi = sample_utp_cp(2, seed=5)
    ops = [ginibre(rng, 2) for _ in range(3)]
    block = tuple_to_block(ops, 2)
    assert np.allclose(
        amplified_ks_defect(Phi, 3, block), kks_block_defect(Phi, ops), atol=1e-12
    )


def test_amplified_defect_checks_block_metadata():
    Phi = QuantumMap.identity(2)
    from kslab.maps import BlockOperator

    with pytest.raises(ValueError, match="metadata"):
        amplified_ks_defect(Phi, 3, BlockOperator(k=2, d=2, data=np.eye(4)))


def test_phi_k_defect_hermitian_and_zero_for_utp():
    Phi = sample_utp_cp(2, seed=6)
    X = ginibre(rng, 4)
    D = phi_k_defect(Phi, 2, X)
    assert hs_norm(D - D.conj().T) < 1e-12
    assert min_eigenvalue(D) > -1e-9 * hs_norm(X) ** 2


# -- KS falsifier -----------------------------------------------------------


def test_falsify_ks_identity_clean():
    res = falsify_ks(QuantumMap.identity(2), 1, FAST)
    assert res.verdict == "NoViolationFound"
    assert res.witness is None


def test_falsify_ks_finds_known_violation():
    # reduction at a just above the certified boundary 2/3
    res = falsify_ks(reduction(2, 0.7), 1, FAST)
    assert res.violated
    assert res.worst_value < -1e-3
    # witness is self-certifying
    D = amplified_ks_defect(reduction(2, 0.7), 1, res.witness)
    assert min_eigenvalue(D) <= res.worst_value + 1e-8


def test_falsify_ks_clean_at_bound():
    res = falsify_ks(reduction(2, 2 / 3), 1, FAST)
    assert res.verdict == "NoViolationFound"
    assert res.worst_value > -1e-9


def test_falsify_ks_k2_sharper_than_k1():
    # a = 0.5 lies between the k=2 bound 3/7 and the k=1 bound 3/4
    Phi = reduction(3, 0.5)
    assert falsify_ks(Phi, 1, FAST).verdict == "NoViolationFound"
    res2 = falsify_ks(Phi, 2, FAST)
    assert res2.violated
    assert res2.witness.k == 2 and res2.witness.d == 3


def test_falsify_ks_transpose_violated():
    res = falsify_ks(transpose_map(2), 1, FAST)
    assert res.violated


def test_falsify_ks_warns_on_non_unital():
    T = np.zeros((4, 4))
    T[0, 0] = 1.0
    with pytest.warns(UserWarning, match="unital"):
        falsify_ks(QuantumMap(T), 1, SearchBudget(restarts=2, max_iters=20, seed=0))


def test_falsify_ks_takes_a_far_out_lambda_map_as_unital():
    # Lambda^+_3 over criterion 3's first d = 3 base: its unital residual is
    # the base's times |1 - a|, within the map's flag bound, so no warning
    _, Phi = next(_utp_sample(0, 3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = falsify_ks(lambda_plus(Phi, 3), 1, SearchBudget(restarts=2, max_iters=50, seed=0))
    assert not [w for w in caught if "not unital" in str(w.message)]
    assert res.violated


@pytest.mark.parametrize("k", [0, -1])
def test_falsify_ks_rejects_k_below_1(k):
    # refused up front, not by a numpy shape error from inside the search
    with pytest.raises(ValueError, match="k must be >= 1"):
        falsify_ks(QuantumMap.identity(2), k, FAST)


def test_falsify_ks_deterministic():
    a = falsify_ks(reduction(2, 0.7), 1, FAST)
    b = falsify_ks(reduction(2, 0.7), 1, FAST)
    assert a.worst_value == b.worst_value
    assert np.array_equal(a.witness.data, b.witness.data)


def test_block_to_tuple_recovers_violation():
    Phi = reduction(3, 0.5)
    res = falsify_ks(Phi, 2, FAST)
    ops = block_to_tuple(Phi, 2, res.witness.data)
    assert len(ops) == 2
    assert min_eigenvalue(kks_block_defect(Phi, ops)) < -FAST.violation_tol / 2


# -- closed forms at k >= d -------------------------------------------------
#
# A k-KS map is k-positive, k-positive at k >= d is CP, and a unital CP map is
# KS at every k: falsify_ks decides k >= d from the spectrum of C_Phi, and
# falsify_k_positivity decides k = d from it.


def _choi_f(d, lam):
    # the eigenvalue of the amplified defect at P_Omega/d on C's eigenvalue lam
    return lam / d - lam**2 / d**2


@pytest.mark.parametrize("offset", [-0.01, 0.01])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_ks_closed_form_matches_search_on_lambda_minus_identity(d, offset):
    # Lambda^-_a(id) is d-KS iff a <= 1/lambda_max(C_id) = 1/d
    Phi = lambda_minus(QuantumMap.identity(d), 1 / d + offset)
    for k in (d, d + 1):
        budget = SearchBudget(restarts=4, max_iters=200, seed=d + 10 * k)
        res = falsify_ks(Phi, k, budget)
        assert res.verdict == _search(Phi, k, budget).verdict
        assert res.violated == (offset > 0)
        assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": int(res.violated)}
        if not res.violated:
            assert res.worst_value == 0.0 and res.witness is None


def test_ks_closed_form_matches_search_on_criterion_3_lambda_plus_bases():
    # criterion 3's (d, k) = (2, 2) checks of Lambda^+ at both endpoints,
    # with its budgets; the upper endpoint fails on 6 of the 20 bases
    from kslab.suite import _utp_sample

    d = k = 2
    lo, hi = bounds_lambda_plus(d, k)
    violated = []
    for s, Phi in _utp_sample(0, d):
        for a in (lo, hi):
            M = lambda_plus(Phi, a)
            budget = SearchBudget(restarts=8, max_iters=200, seed=s)
            res = falsify_ks(M, k, budget)
            assert res.verdict == _search(M, k, budget).verdict
            violated += [a] * res.violated
    assert violated == [hi] * 6


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 3), (4, 4), (4, 5)])
def test_ks_closed_form_witness_is_p_omega_over_d(d, k):
    Phi = lambda_minus(QuantumMap.identity(d), 1 / d + 0.05)
    res = falsify_ks(Phi, k, FAST)
    lam = np.linalg.eigvalsh(hermitianize(Phi.choi()))
    assert res.violated
    assert abs(res.worst_value - _choi_f(d, lam[0])) < 1e-12
    assert _choi_f(d, lam[0]) <= _choi_f(d, lam[-1])
    # Omega = sum_i e_i (x) e_i in C^k (x) C^d
    omega = np.zeros(k * d)
    omega[np.arange(d) * (d + 1)] = 1
    assert np.array_equal(res.witness.data, np.outer(omega, omega) / d)
    assert (res.witness.k, res.witness.d) == (k, d)
    assert abs(hs_norm(res.witness.data) - 1) < 1e-12
    assert abs(min_eigenvalue(amplified_ks_defect(Phi, k, res.witness)) - res.worst_value) < 1e-12


def test_falsify_ks_at_k_ge_d_runs_no_restart(monkeypatch):
    def no_restart(*args):
        raise AssertionError("a restart ran at k >= d")

    monkeypatch.setattr(certify, "_alternating_restart", no_restart)
    d = k = 3
    verdicts = {falsify_ks(lambda_minus(QuantumMap.identity(d), 1 / d + offset), k, FAST).verdict
                for offset in (-0.01, 0.01)}
    assert verdicts == {"Violated", "NoViolationFound"}


def _restart_spy(monkeypatch):
    # the calls of the KS restart, one per lockstep stack
    calls = []

    def counted(*args):
        calls.append(args)
        return _alternating_restart(*args)

    monkeypatch.setattr(certify, "_alternating_restart", counted)
    return calls


def _forbid_restarts(monkeypatch):
    def no_restart(*args):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(certify, "_alternating_restart", no_restart)


# maps that are not unital, with Phi(1) = I/2 inside [0, 1]: 0.5 tau is not
# CP, so violated at k >= d, and 0.5 id is CP and KS; both are decided there
@pytest.mark.parametrize("Phi,violated", [(QuantumMap(0.5 * transpose_map(2).transfer), True),
                                          (QuantumMap(0.5 * np.eye(4)), False)],
                         ids=["half-transpose", "half-identity"])
def test_falsify_ks_non_unital_at_k_ge_d_warns_and_is_decided(monkeypatch, Phi, violated):
    _forbid_restarts(monkeypatch)
    with pytest.warns(UserWarning, match="unital"):
        res = falsify_ks(Phi, 2, SearchBudget(restarts=2, max_iters=20, seed=0))
    assert res.violated == violated
    assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": int(violated)}


# 0.5 tau at d = 3, not CP, below d: it warns and searches
@pytest.mark.parametrize("k", [1, 2])
def test_falsify_ks_non_unital_below_d_warns_and_searches(monkeypatch, k):
    Phi = QuantumMap(0.5 * transpose_map(3).transfer)
    restarts = _restart_spy(monkeypatch)
    budget = SearchBudget(restarts=2, max_iters=20, seed=0)
    with pytest.warns(UserWarning, match="unital"):
        res = falsify_ks(Phi, k, budget)
    assert restarts
    assert _bytes(res) == _bytes(_search(Phi, k, budget))


# -- Phi(1) outside [0, 1]: violated at every k with X = I/sqrt(kd) ----------


def _superunital_cp_map():
    # CP with ||Phi(1)|| = 1.03; a search of 8 x 200 missed its violation at 5
    # of the seeds 0-7
    rng = np.random.default_rng(1)
    for _ in range(3):
        Ks = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
    T = sum(np.kron(K.conj(), K) for K in Ks)
    one = (T @ np.eye(2).reshape(-1)).reshape(2, 2)
    return QuantumMap(T * 1.03 / np.linalg.eigvalsh(one).max())


@pytest.mark.parametrize("seed", range(8))
def test_falsify_ks_decides_a_map_with_phi_one_outside_the_unit_interval(monkeypatch, seed):
    def no_restart(*args):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(certify, "_alternating_restart", no_restart)
    Phi = _superunital_cp_map()
    mu = np.linalg.eigvalsh(Phi(np.eye(2)))
    budget = SearchBudget(restarts=8, max_iters=200, seed=seed)
    # CP, so the rule for CP maps would call it clean: the Phi(1) test comes
    # first, at k < d, k = d and k > d
    runs = {("KS", 1): partial(falsify_ks, Phi, 1), ("KS", 2): partial(falsify_ks, Phi, 2),
            ("KS", 3): partial(falsify_ks, Phi, 3), ("co-KS", 1): partial(falsify_co_ks, Phi)}
    for (kind, k), falsify in runs.items():
        with pytest.warns(UserWarning, match="not unital"):
            res = falsify(budget=budget)
        assert res.violated and res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 1}
        assert abs(res.worst_value - np.min(mu - mu**2) / (2 * k)) < 1e-12
        X = res.witness.data
        assert np.array_equal(X, np.eye(2 * k) / np.sqrt(2 * k))
        D = amplified_ks_defect(Phi, k, X) if kind == "KS" else co_ks_defect(Phi, X)
        assert abs(min_eigenvalue(D) - res.worst_value) < 1e-12


def test_decided_verdicts_of_unital_maps_keep_their_bytes():
    # sha256 prefixes of decided verdicts of unital maps, pinned before the
    # Phi(1) rule for maps that are not unital was added
    lm = partial(lambda_minus, QuantumMap.identity(3))
    found = {
        name: hashlib.sha256(_bytes(res).encode()).hexdigest()[:12]
        for name, res in [
            ("lm3+", falsify_ks(lm(1 / 3 + 0.01), 3, FAST)),
            ("lm3-", falsify_ks(lm(1 / 3 - 0.01), 3, FAST)),
            ("lm2k4", falsify_ks(lambda_minus(QuantumMap.identity(2), 0.6), 4, FAST)),
            ("cp3k1", falsify_ks(sample_utp_cp(3, seed=2), 1, FAST)),
            ("co_tau3", falsify_co_ks(transpose_map(3), FAST)),
        ]
    }
    assert found == {"lm3+": "f2fc90ffae30", "lm3-": "acc5bc8b1cda", "lm2k4": "0c5296dda1c4",
                     "cp3k1": "b1c3b95657c2", "co_tau3": "88f000332bba"}


# -- maps that are not unital, spec Phi(1) inside [0, 1] -----------------------
#
# A CP map with Phi(1) <= I is KS at every k (Choi 1974; Paulsen 2002, Prop.
# 3.3), and at k >= d a k-KS map is k-positive, hence CP: the closed form
# decides both, as for unital maps, and reports a value that one of its
# witnesses, I/sqrt(kd) or P_Omega/d at k >= d, attains at that k.


def _cp_map_with_top(seed, d, top):
    # a random CP map scaled to ||Phi(1)|| = top
    rng = np.random.default_rng(seed)
    Phi = QuantumMap.from_kraus([ginibre(rng, d) for _ in range(2)])
    return QuantumMap(Phi.transfer * top / np.linalg.eigvalsh(hermitianize(Phi(np.eye(d))))[-1])


def _p_omega(d, k):
    omega = np.zeros(k * d)
    omega[np.arange(d) * (d + 1)] = 1
    return np.outer(omega, omega) / d


def _witness_value(Phi, k):
    # the least value I/sqrt(kd), and P_Omega/d at k >= d, attain
    n = k * Phi.d
    witnesses = [np.eye(n) / np.sqrt(n)] + ([_p_omega(Phi.d, k)] if k >= Phi.d else [])
    return min(min_eigenvalue(amplified_ks_defect(Phi, k, X)) for X in witnesses)


SUBUNITAL_CP = {
    "half-identity-2": QuantumMap(0.5 * np.eye(4)),
    "half-identity-3": QuantumMap(0.5 * np.eye(9)),
    "half-delta-2": QuantumMap(0.5 * depolarizing(2).transfer),
    "0.9-psi": QuantumMap(0.9 * sample_utp_cp(3, seed=4).transfer),
    "random-2": _cp_map_with_top(0, 2, 0.98),
    "random-3": _cp_map_with_top(1, 3, 0.98),
}


@pytest.mark.parametrize("name", list(SUBUNITAL_CP))
def test_subunital_cp_maps_are_decided_clean_at_every_k(monkeypatch, name):
    Phi = SUBUNITAL_CP[name]
    assert not Phi.unital
    budget = SearchBudget(restarts=3, max_iters=60, seed=1)
    ks = range(1, Phi.d + 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-unital warning
        searched = {k: _search(Phi, k, budget).verdict for k in ks}
    _forbid_restarts(monkeypatch)
    for k in ks:
        with pytest.warns(UserWarning, match="not unital"):
            res = falsify_ks(Phi, k, budget)
        assert res.verdict == searched[k] == "NoViolationFound"
        assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 0}
        assert res.witness is None
        # a value a witness attains at k, not a bare 0
        assert abs(res.worst_value - _witness_value(Phi, k)) < 1e-12
        if (name, k) == ("half-delta-2", 1):
            assert abs(res.worst_value - 0.125) < 1e-15


@pytest.mark.parametrize("d,k", [(2, 2), (2, 3), (3, 3)])
def test_a_non_unital_map_that_is_not_cp_is_decided_violated_at_k_ge_d(monkeypatch, d, k):
    # 0.5 tau: Phi(1) = I/2, C = F/2, F the swap
    _forbid_restarts(monkeypatch)
    Phi = QuantumMap(0.5 * transpose_map(d).transfer)
    with pytest.warns(UserWarning, match="not unital"):
        res = falsify_ks(Phi, k, FAST)
    lam = np.linalg.eigvalsh(hermitianize(Phi.choi()))[0]
    assert res.violated and res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 1}
    assert abs(res.worst_value - _choi_f(d, lam)) < 1e-12
    assert np.array_equal(res.witness.data, _p_omega(d, k)) and (res.witness.k, res.witness.d) == (k, d)
    assert abs(min_eigenvalue(amplified_ks_defect(Phi, k, res.witness)) - res.worst_value) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_co_ks_of_a_subunital_co_cp_map_is_decided_clean(monkeypatch, d):
    # tau o (0.5 tau) = 0.5 id is CP, with Phi(1) = I/2
    Phi = QuantumMap(0.5 * transpose_map(d).transfer)
    budget = SearchBudget(restarts=3, max_iters=60, seed=2)
    searched = _search(_tau(Phi), 1, budget)
    _forbid_restarts(monkeypatch)
    with pytest.warns(UserWarning, match="not unital"):
        res = falsify_co_ks(Phi, budget)
    assert res.verdict == searched.verdict == "NoViolationFound"
    assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 0}
    assert abs(res.worst_value - min_eigenvalue(co_ks_defect(Phi, np.eye(d) / np.sqrt(d)))) < 1e-12


# -- closed form below k = d ------------------------------------------------
#
# A unital CP map is KS at every k, and d-KS implies k-KS for k <= d: a unital
# map with C_Phi >= 0 is decided clean at k < d, and co-KS of Phi when
# C_{tau o Phi} >= 0. A map that is not CP still runs the search.


def _search(Phi, k, budget):
    return certify._ks_search([Phi.transfer], k, [budget])[0]


def _tau(Phi):
    return QuantumMap(transpose_rows(Phi.transfer), label=f"transpose∘{Phi.label}")


def _assert_decided_like_search(res, searched):
    assert res.verdict == searched.verdict == "NoViolationFound"
    assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 0}
    assert res.witness is None
    assert -1e-15 < res.worst_value <= 0.0


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 1)])
def test_ks_closed_form_matches_search_on_criterion_3_bases_below_d(d, k):
    # criterion 3's random unital TP CP sample, with its budgets
    from kslab.suite import _utp_sample

    for s, Phi in _utp_sample(0, d):
        budget = SearchBudget(restarts=8, max_iters=200, seed=s)
        _assert_decided_like_search(falsify_ks(Phi, k, budget), _search(Phi, k, budget))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ks_closed_form_matches_search_on_cp_lambda_plus_transpose(d):
    # C = (a/d) I + (1 - a) F, F the swap: CP iff a >= d/(d+1)
    budget = SearchBudget(restarts=4, max_iters=120, seed=d)
    for a in (d / (d + 1), d / (d + 1) + 0.05, 1.0):
        Phi = lambda_plus(transpose_map(d), a)
        for k in range(1, d):
            _assert_decided_like_search(falsify_ks(Phi, k, budget), _search(Phi, k, budget))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_co_ks_closed_form_matches_search_on_co_cp_maps(d):
    # tau o T is the identity; decompose_reduction's phi2 is co-CP by construction
    budget = SearchBudget(restarts=4, max_iters=120, seed=d)
    for Phi in (transpose_map(d), decompose_reduction(d, 0.95).phi2):
        _assert_decided_like_search(falsify_co_ks(Phi, budget), _search(_tau(Phi), 1, budget))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_ks_below_d_on_a_map_that_is_not_cp_is_the_search(d, k):
    # Lambda^-_a(id) is CP iff a <= 1/d, and R_0.9 is not CP
    budget = SearchBudget(restarts=4, max_iters=120, seed=d + 10 * k)
    for Phi in (lambda_minus(QuantumMap.identity(d), 1 / d + 0.01),
                lambda_minus(QuantumMap.identity(d), d / (k * d + 1) + 0.05),
                reduction(d, 0.9)):
        assert np.linalg.eigvalsh(hermitianize(Phi.choi()))[0] < -budget.violation_tol
        assert _bytes(falsify_ks(Phi, k, budget)) == _bytes(_search(Phi, k, budget))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_ks_below_d_under_a_large_tol_gates_on_the_choi_spectrum(d, k):
    # C = (1 - e) d P_Omega + e F has lambda_min = -e, so its k = d value
    # f(-e) = -e/d - e^2/d^2 sits inside a tol of 6e-3, yet the map is not
    # CP: it runs the search, which finds -e, below -tol
    e = 1e-2
    Phi = QuantumMap((1 - e) * QuantumMap.identity(d).transfer + e * transpose_map(d).transfer)
    budget = SearchBudget(restarts=4, max_iters=120, seed=d, violation_tol=6e-3)
    res = falsify_ks(Phi, k, budget)
    assert _bytes(res) == _bytes(_search(Phi, k, budget))
    assert res.verdict == "Violated" and res.worst_value < -e + 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_co_ks_on_a_map_that_is_not_co_cp_is_the_search(d):
    # tau o id = T and tau o (T o R_0.9) = R_0.9 are not CP
    budget = SearchBudget(restarts=4, max_iters=120, seed=d)
    for Phi in (QuantumMap.identity(d), transpose_map(d).compose(reduction(d, 0.9))):
        assert _bytes(falsify_co_ks(Phi, budget)) == _bytes(_search(_tau(Phi), 1, budget))


def test_cp_maps_below_d_run_no_restart(monkeypatch):
    def no_restart(*args):
        raise AssertionError("a restart ran on a unital CP map")

    monkeypatch.setattr(certify, "_alternating_restart", no_restart)
    Phi = sample_utp_cp(3, seed=4)
    for k in (1, 2):
        assert falsify_ks(Phi, k, FAST).verdict == "NoViolationFound"
    assert falsify_co_ks(transpose_map(3), FAST).verdict == "NoViolationFound"


def test_cp_map_below_d_under_a_tol_below_rounding_is_the_search():
    # C >= 0 up to rounding, but its value of about -1e-16 is below a tol of
    # 1e-20, and a decided verdict has no witness to give: it searches
    Phi = sample_utp_cp(3, seed=3)
    budget = SearchBudget(restarts=2, max_iters=40, seed=0, violation_tol=1e-20)
    assert _bytes(falsify_ks(Phi, 1, budget)) == _bytes(_search(Phi, 1, budget))


@pytest.mark.parametrize("offset", [-0.05, 0.05])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_k_positivity_at_k_eq_d_is_lambda_min_of_choi(d, offset):
    # R_a is d-positive iff a <= 1/d: lambda_min(C) = (1 - a d)/(d - a)
    a = 1 / d + offset
    Phi = reduction(d, a)
    res = falsify_k_positivity(Phi, d, SearchBudget(seed=1))
    assert abs(res.worst_value - (1 - a * d) / (d - a)) < 1e-12
    assert res.violated == (offset > 0)
    assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": int(res.violated)}
    if res.violated:
        # the conditions bench/reference.py checks: Schmidt rank <= k, and
        # the value recomputed from the Choi matrix equals worst_value
        w = res.witness
        assert w.u.shape == w.v.shape == (d, d)
        psi = sum(np.kron(w.u[:, i], w.v[:, i]) for i in range(d))
        C = sum(np.kron(np.outer(e_i, e_j), Phi(np.outer(e_i, e_j)))
                for e_i in np.eye(d) for e_j in np.eye(d))
        assert abs((psi.conj() @ C @ psi).real / np.vdot(psi, psi).real - res.worst_value) < 1e-12


# -- co-KS falsifier --------------------------------------------------------


def test_falsify_co_ks_transpose_clean():
    res = falsify_co_ks(transpose_map(3), FAST)
    assert res.verdict == "NoViolationFound"


def test_falsify_co_ks_finds_violation():
    # the identity is KS but strictly not co-KS-violated; use a map that is
    # KS-violated in reverse order: the transpose of a violated KS case
    Phi = transpose_map(2).compose(reduction(2, 0.7))
    res = falsify_co_ks(Phi, FAST)
    assert res.violated
    D = co_ks_defect(Phi, res.witness.data)
    assert min_eigenvalue(D) <= res.worst_value + 1e-8


# -- sequential oracle --------------------------------------------------------
#
# _falsify and the restart kernels as they were before restarts ran in
# lockstep: one restart at a time, each on unstacked arrays. The lockstep
# versions must reproduce them bit for bit.


def _solo_falsify(restart, value, make_witness, budget):
    worst, worst_point = np.inf, None
    counters = {"restarts": 0, "iterations": 0, "defect_evals": 0}
    for ss in np.random.SeedSequence(budget.seed).spawn(budget.restarts):
        f, point, used = restart(np.random.default_rng(ss))
        counters["restarts"] += 1
        counters["iterations"] += used["iterations"]
        counters["defect_evals"] += used["defect_evals"]
        if f < worst:
            worst, worst_point = f, point
        if worst < -budget.violation_tol:
            break
    violated = worst < -budget.violation_tol
    if violated and not abs(value(worst_point) - worst) <= certify.WITNESS_RECHECK_TOL:
        raise WitnessRecheckError("the oracle's witness does not reproduce its value")
    return certify.CertificateVerdict(
        verdict="Violated" if violated else "NoViolationFound",
        worst_value=float(worst),
        witness=make_witness(worst_point) if violated else None,
        budget_used=counters,
        seed=budget.seed,
    )


def _solo_min_eig_vector(D, rng):
    # the bottom value, a vector of its cluster, and the cluster's size
    w, V = np.linalg.eigh(hermitianize(D))
    cluster = np.flatnonzero(w - w[0] < EIG_DEGENERACY_GAP)
    if len(cluster) > 1:
        c = rng.standard_normal(len(cluster)) + 1j * rng.standard_normal(len(cluster))
        c /= np.linalg.norm(c)
        V[:, 0] = V[:, cluster] @ c
    return float(w[0]), V[:, 0], len(cluster)


def _looped_min_eig_vectors(D, rngs):
    # _min_eig_vectors with its cluster draws as first written: two draws,
    # np.linalg.norm and a boolean-mask product per degenerate member; and
    # the bottom eigenvectors the draws overwrite
    w, V = np.linalg.eigh(hermitianize(D))
    bottom = V[:, :, 0].copy()
    cluster = w - w[:, :1] < EIG_DEGENERACY_GAP
    sizes = cluster.sum(axis=1)
    for b in (sizes != 1).nonzero()[0].tolist():
        m = int(sizes[b])
        c = rngs[b].standard_normal(m) + 1j * rngs[b].standard_normal(m)
        c /= np.linalg.norm(c)
        V[b, :, 0] = V[b][:, cluster[b]] @ c
    return w[:, 0], V, bottom


def _degenerate_stack(gen, n, clusters):
    # one Hermitian n x n matrix per cluster size m: m bottom eigenvalues
    # split below EIG_DEGENERACY_GAP, the rest well above them
    stack = []
    for m in clusters:
        U = np.linalg.qr(ginibre(gen, n))[0]
        w = np.concatenate([gen.uniform(-1e-9, 1e-9, m) - 0.5, gen.uniform(0.5, 2.0, n - m)])
        stack.append((U * w) @ dagger(U))
    return np.stack(stack)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 16])
def test_min_eig_vectors_draws_match_the_looped_oracle(n):
    # members whose bottom cluster has 1 to n eigenvalues in one stack, once
    # as 8 members and once as 48; and stacks whose members all have one
    # cluster size, as at the start point of clean restarts, from one
    # member to many
    gen, root = np.random.default_rng(n), np.random.SeedSequence(n)
    mixed = [min(m, n) for m in [1, 2, 3, n, 2, 1, n - 1, 3]]
    stacks = [mixed, mixed * 6]
    for m in sorted({2, n}):
        stacks += [[m] * members for members in (1, 2, 3, 4, 45)]
    for clusters in stacks:
        D = _degenerate_stack(gen, n, clusters)
        seeds = root.spawn(len(D))
        rngs = [np.random.default_rng(ss) for ss in seeds]
        oracle_rngs = [np.random.default_rng(ss) for ss in seeds]
        f, V, sizes, bottom = _min_eig_vectors(D.copy(), rngs)
        g, W, eigenvectors = _looped_min_eig_vectors(D.copy(), oracle_rngs)
        assert np.array_equal(f, g) and np.array_equal(V, W) and np.array_equal(bottom, eigenvectors), clusters
        assert sizes == clusters
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in oracle_rngs]


def _solo_cluster_draw(cols, rng):
    # one row's cluster draw, alone: a unit combination c of the columns,
    # with the BLAS dot for its squared norm and the gemv on a
    # Fortran-ordered copy of the columns
    m = cols.shape[1]
    z = rng.standard_normal(2 * m)
    c = z[:m] + 1j * z[m:]
    c /= np.sqrt(c.real.dot(c.real) + c.imag.dot(c.imag))
    return np.asfortranarray(cols) @ c


@pytest.mark.parametrize("n", [2, 3, 4, 9, 16])
def test_cluster_draws_of_mixed_sizes_match_a_per_row_oracle(n):
    # one call whose rows have every cluster size 1..n, in a mixed order,
    # and whose generators are each listed for several rows of different
    # sizes: every row gets the bits of its draw alone, and every generator
    # draws for its rows in row order
    gen, root = np.random.default_rng(100 + n), np.random.SeedSequence(100 + n)
    sizes = [int(m) for m in gen.permutation(np.tile(np.arange(1, n + 1), 3))]
    U = np.stack([np.linalg.qr(ginibre(gen, n))[0] for _ in sizes])
    seeds = root.spawn(3)
    rngs = [np.random.default_rng(ss) for ss in seeds]
    oracle_rngs = [np.random.default_rng(ss) for ss in seeds]
    owners = [i % 3 for i in range(len(sizes))]
    out = certify._cluster_draws(U.copy(), sizes, [rngs[o] for o in owners])
    want = np.stack([_solo_cluster_draw(U[i, :, :m], oracle_rngs[o]) for i, (m, o) in enumerate(zip(sizes, owners))])
    assert np.array_equal(out, want)
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in oracle_rngs]


def _solo_aitken(x0, x1, x2):
    # the Aitken point of three successive unit vec(X), each phase-aligned
    # to the one before, where the steps d0, d1 point the same way and
    # shrink; else None
    def aligned(a, b):
        c = np.vdot(a, b)
        return b * (c.conjugate() / abs(c)) if c else b

    x1 = aligned(x0, x1)
    x2 = aligned(x1, x2)
    d0, d1 = x1 - x0, x2 - x1
    n0, n1 = np.sqrt(np.vdot(d0, d0).real), np.sqrt(np.vdot(d1, d1).real)
    if abs(np.vdot(d0, d1)) >= EXTRAPOLATION_ALIGNMENT * n0 * n1 and n1 < n0:
        x = x2 + (n1 / (n0 - n1)) * d1
        return x / np.sqrt(np.vdot(x, x).real)
    return None


def _solo_alternating_restart(defect, xstep, n, budget, rng):
    X = ginibre(rng, n)
    X /= hs_norm(X)
    stall = 0
    recent_best = np.inf
    f, v, m = _solo_min_eig_vector(defect(X), rng)
    best_f, best_X = f, X
    # the Aitken step: after 3, 5, 7, ... steps in a row that each left one
    # bottom eigenvalue and lowered best_f
    run, tried, past = 0, 0, [None, None]
    kept = False
    for iters in range(1, budget.max_iters + 1):
        # the candidate of the X half-step: the start point first, then the
        # iterate itself after a step that kept its candidate or while stalled
        test = "start" if iters == 1 else "own" if kept or stall > 0 else None
        x, kept = xstep(v, X, test)
        X = x.reshape(n, n, order="F")
        f, v, m = _solo_min_eig_vector(defect(X), rng)
        run = run + 1 if m == 1 and f < best_f else 0
        x = _solo_aitken(*past, vec(X)) if run > 2 and run % 2 else None
        if x is not None:
            tried += 1
            Xa = x.reshape(n, n, order="F")
            w, U = np.linalg.eigh(hermitianize(defect(Xa)))
            if w[1] - w[0] >= EIG_DEGENERACY_GAP and w[0] < f:
                X, f, v = Xa, float(w[0]), U[:, 0]
        past = [past[1], vec(X)]
        if f < best_f:
            best_f, best_X = f, X
        if recent_best - best_f < STALL_TOL:
            stall += 1
            if stall >= STALL_WINDOW:
                break
        else:
            stall = 0
            recent_best = best_f
    return best_f, best_X, {"iterations": iters, "defect_evals": iters + 1 + tried}


def _solo_ks_parts(T3, v):
    # block (C, C') of W is unvec(conj(v_C* G_C')); G = [G_0 | ... | G_{k-1}]
    d = len(T3)
    vb = v.reshape(-1, d)
    G = np.hstack([(vC @ T3.reshape(d, -1)).reshape(d, d * d) for vC in vb])
    vW = (vb.conj() @ G).conj()  # row C holds vec(W_CC') for every C'
    return hermitianize(np.block([[row[Cp * d * d : (Cp + 1) * d * d].reshape(d, d).T
                                   for Cp in range(len(vb))] for row in vW])), G


def _solo_qform(W, G):
    n = len(W)
    m = G.shape[1] // n
    M = np.zeros((n, m, n, m), dtype=complex)
    M[:, np.arange(m), :, np.arange(m)] = W.T
    return M.reshape(n * m, n * m) - dagger(G) @ G


def _block_identity_row(d, k):
    # vec(e_0^T (x) I_d)/sqrt(d), from its definition: block row 0 of the
    # start point X_0
    return vec(np.kron(np.eye(k)[0][None, :], np.eye(d))).astype(complex) / np.sqrt(d)


def _solo_certified(M, c):
    # whether M - (c* M c - STALL_TOL / STALL_WINDOW) I has a Cholesky factor
    g = (c.conj() @ M @ c).real
    try:
        np.linalg.cholesky(M - (g - STALL_TOL / STALL_WINDOW) * np.eye(len(M)))
    except np.linalg.LinAlgError:
        return False
    return True


def _solo_ks_xstep(W, G, x, c=None):
    # the candidate c where the certificate passes it; else the bottom
    # vector, which inside a degenerate bottom cluster below
    # -EIG_DEGENERACY_GAP is the normalized projection of the current
    # iterate x onto the cluster, where that is not within
    # EIG_DEGENERACY_GAP of 0. Returns the vector and whether it is c
    if c is not None and _solo_certified(_solo_qform(W, G), c):
        return c, True
    w, U = np.linalg.eigh(_solo_qform(W, G))
    cluster = np.flatnonzero(w - w[0] < EIG_DEGENERACY_GAP)
    if len(cluster) > 1 and w[0] < -EIG_DEGENERACY_GAP:
        Uc = U[:, cluster].copy()
        p = Uc @ (Uc.conj().T @ x)
        norm = np.sqrt(np.vdot(p, p).real)
        if norm > EIG_DEGENERACY_GAP:
            return p / norm, False
    return U[:, 0], False


def _solo_kpos_restart(C4, k, budget, rng):
    d = len(C4)
    U = np.linalg.qr(ginibre(rng, d, k))[0]
    V = np.linalg.qr(ginibre(rng, d, k))[0]
    prev = np.inf
    for it in range(1, budget.max_iters + 1):
        V = np.linalg.qr(V)[0]
        _, Q = np.linalg.eigh(_compress_right(C4, V))
        U = Q[:, 0].reshape(d, k)
        U = np.linalg.qr(U)[0]
        w, Q = np.linalg.eigh(_compress_left(C4, U))
        V = Q[:, 0].reshape(k, d).T
        val = float(w[0])
        if prev - val < STALL_TOL:
            break
        prev = val
    return val, SchmidtWitness(U, V), {"iterations": it, "defect_evals": 2 * it}


def _solo_ks(Phi, k, budget):
    d = Phi.d
    n = k * d
    T3 = Phi.transfer.reshape(d, d, d * d)
    defect = partial(amplified_ks_defect, Phi, k)

    def xstep(v, X, test):
        # the candidate, where the certificate keeps it, or else the bottom
        # vector of M'_v nearest vec(block row 0 of X), fills block row 0 of
        # the next X
        x = vec(X[:d])
        c = {"start": _block_identity_row(d, k), "own": x, None: None}[test]
        y, kept = _solo_ks_xstep(*_solo_ks_parts(T3, v), x, c)
        Y = np.zeros((n, n), dtype=complex)
        Y[:d] = y.reshape(d, n, order="F")
        return vec(Y), kept

    restart = partial(_solo_alternating_restart, defect, xstep, n, budget)
    return _solo_falsify(restart, partial(_min_eig_value, defect), partial(BlockOperator, k, d), budget)


def _solo_kpos(Phi, k, budget):
    d = Phi.d
    C = hermitianize(Phi.choi())
    restart = partial(_solo_kpos_restart, C.reshape(d, d, d, d), k, budget)
    return _solo_falsify(restart, partial(_schmidt_value, C), lambda w: w, budget)


def _bytes(res):
    return json.dumps(verdict_to_json(res), sort_keys=True)


def _refuse_all(vs, X, *rows):
    # the certificate of a fake restart: no X keeps itself, so every X
    # half-step of the restart is its xstep's
    return np.zeros(len(vs), dtype=bool)


# every (d, k) at a clean Lambda^-(id) point, whose restarts keep X_0 and pass
# their windows there, and at a violated one, which takes the dense X
# half-step until it stalls; (7, 1), (5, 2) and (4, 4) at form sides 49-64.
# falsify_ks decides k >= d in closed form, so there the search itself is
# compared
@pytest.mark.parametrize("offset", [-0.02, 0.05])
@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (3, 3), (7, 1), (5, 2), (4, 4)])
def test_lockstep_ks_matches_sequential_oracle(d, k, offset):
    Phi = lambda_minus(QuantumMap.identity(d), d / (k * d + 1) + offset)
    budget = SearchBudget(restarts=5, max_iters=120 if k * d < 7 else 60, seed=d + 10 * k)
    search = _search if k >= d else falsify_ks
    assert _bytes(search(Phi, k, budget)) == _bytes(_solo_ks(Phi, k, budget))


def _non_unital_map(d, seed, s, t):
    # s ((1 - t) Phi + t tau) + K . K*, Phi a random UTP CP map, tau the
    # transposition and ||K||^2 = 0.03: neither unital nor CP, with spec
    # Phi(1) inside [0, 1], so that falsify_ks searches it below d
    gen = np.random.default_rng(seed)
    K = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    K *= np.sqrt(0.03) / np.linalg.norm(K, 2)
    T = s * ((1 - t) * sample_utp_cp(d, seed=seed).transfer + t * transpose_map(d).transfer)
    return QuantumMap(T + np.kron(K.conj(), K))


# (seed, s, t) of _non_unital_map: clean points, whose stage-2 members stop
# at different steps
NON_UNITAL = {(2, 1): [(7, 0.78, 0.27), (15, 0.81, 0.25)],
              (3, 1): [(2, 0.62, 0.1), (17, 0.88, 0.065)],
              (3, 2): [(3, 0.75, 0.008), (8, 0.9, 0.004)]}


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_lockstep_ks_matches_oracle_on_random_and_degenerate_maps(d, k):
    # the identity has a zero defect, so every vector step draws from a
    # degenerate cluster; a random UTP CP map mixes drawn and plain steps;
    # falsify_ks decides both of these CP maps, so the search itself
    # is compared there. The maps that are not unital leave the stack one by
    # one, so the vectors of the members that go on are laid out as after a
    # member left
    budget = SearchBudget(restarts=6, max_iters=80, seed=7)
    for Phi, search in ((QuantumMap.identity(d), _search),
                        (sample_utp_cp(d, seed=3), _search),
                        (reduction(d, 0.9), falsify_ks)):
        assert _bytes(search(Phi, k, budget)) == _bytes(_solo_ks(Phi, k, budget))
    for p in NON_UNITAL[d, k]:
        Phi = _non_unital_map(d, *p)
        with pytest.warns(UserWarning, match="not unital"):
            res = falsify_ks(Phi, k, budget)
        assert res.verdict == "NoViolationFound" and res.budget_used["restarts"] == 6
        assert _bytes(res) == _bytes(_solo_ks(Phi, k, budget))


def _windows(monkeypatch):
    # each test of windows that draw ahead, (vs, X, T, passed): the vectors
    # of the stall windows tested at once, with the X and map of each
    calls = []
    restart = certify._alternating_restart

    def spy(defect, xstep, certified, *args):
        def tested(vs, X, T):
            ok = certified(vs, X, T)
            calls.append((vs.copy(), X.copy(), T.copy(), ok.copy()))
            return ok

        return restart(defect, xstep, tested, *args)

    monkeypatch.setattr(certify, "_alternating_restart", spy)
    return calls


# clean searches at bound - 0.02, whose max_iters ends a restart inside, at
# the edge of, or one and two steps past its stall window at the start point
# X_0; and the violated (3, 1) search at bound + 0.03, whose restart keeps
# its own X at its third step, where its defect has one bottom eigenvalue,
# and max_iters ends it there, one step into, inside and at the end of its
# window
WINDOW_CUTS = [(d, k, m) for d, k in ((2, 1), (3, 2), (5, 2))
               for m in (1, 2, 3, STALL_WINDOW, STALL_WINDOW + 1, STALL_WINDOW + 2)]
WINDOW_CUTS += [(3, 1, m) for m in (3, 4, 6, STALL_WINDOW + 1)]


@pytest.mark.parametrize("d,k,max_iters", WINDOW_CUTS)
def test_lockstep_ks_matches_sequential_oracle_where_max_iters_cuts_the_window(monkeypatch, d, k, max_iters):
    clean = (d, k) != (3, 1)
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + (-0.02 if clean else 0.03))
    budget = SearchBudget(restarts=4, max_iters=max_iters, seed=d + 10 * k)
    calls = _windows(monkeypatch)
    res = falsify_ks(Phi, k, budget)
    if clean:
        # every restart keeps X_0 at its first X half-step, where the defect
        # vanishes; its window, the rest of its stall window, tests no
        # vector past max_iters
        assert bool(calls) == (max_iters > 1)
        assert sum(len(vs) for vs, *_ in calls) == 4 * min(max_iters - 1, STALL_WINDOW)
        assert res.verdict == "NoViolationFound"
        assert res.budget_used["iterations"] == 4 * min(max_iters, STALL_WINDOW + 1)
    else:
        # a one-eigenvalue window draws nothing and tests its vector once
        assert res.violated and [(len(vs), passed.tolist()) for vs, *_, passed in calls] == [(1, [True])]
        assert res.budget_used["iterations"] == min(max_iters, STALL_WINDOW + 1)
    assert _bytes(res) == _bytes(_solo_ks(Phi, k, budget))


def _aitken_spy(monkeypatch):
    # for each gate the Aitken step opened, whether it let a candidate through
    gates = []
    aitken = certify._aitken

    def spy(*xs):
        x = aitken(*xs)
        gates.append(x is not None)
        return x

    monkeypatch.setattr(certify, "_aitken", spy)
    return gates


def _shut(monkeypatch):
    # the plain restart: the Aitken gate never lets a candidate through, so
    # the search is the one before that step, bit for bit
    monkeypatch.setattr(certify, "_aitken", lambda *xs: None)


# violated Lambda^-(id) searches: at (3, 2) just above the bound, and at
# (4, 2), whose X half-step forms have a degenerate bottom pair, a candidate
# is accepted, and the run is shorter than the plain one
@pytest.mark.parametrize("d,k,offset", [(3, 2, 0.005), (4, 2, 0.05)])
def test_lockstep_ks_matches_sequential_oracle_through_the_aitken_step(monkeypatch, d, k, offset):
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + offset)
    budget = SearchBudget(restarts=5, max_iters=120, seed=d + 10 * k)
    gates = _aitken_spy(monkeypatch)
    res = falsify_ks(Phi, k, budget)
    assert res.verdict == "Violated" and any(gates)
    assert _bytes(res) == _bytes(_solo_ks(Phi, k, budget))
    _shut(monkeypatch)
    assert res.budget_used["iterations"] < falsify_ks(Phi, k, budget).budget_used["iterations"]


# recall: the Lambda^-(id) thresholds below d at budgets of the bench's scans
# keep every violation of the plain search, and at (3, 2) and (4, 3) the
# near-threshold points converge in fewer iterations
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("offset", [0.002, 0.01, 0.05])
@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (4, 3)])
def test_the_aitken_step_loses_no_violation_of_the_plain_search(monkeypatch, d, k, offset, seed):
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + offset)
    budget = SearchBudget(restarts=16, max_iters=300, seed=seed)
    res = falsify_ks(Phi, k, budget)
    _shut(monkeypatch)
    plain = falsify_ks(Phi, k, budget)
    assert res.violated or not plain.violated
    assert res.worst_value <= plain.worst_value + 1e-12
    if (d, k) in ((3, 2), (4, 3)) and offset < 0.05:
        assert res.budget_used["iterations"] < plain.budget_used["iterations"]


# Lambda^-(id) at bound + 0.05, one restart of 500 iterations: the worst
# values and counters before the X half-step kept its iterates continuous
# inside a degenerate bottom eigenspace, seeds 0-2. At k = 2, d = 4..6 every
# X half-step form has a degenerate bottom pair, where eigh's arbitrary column
# 0 took 31-37 iterations; (3, 2) and (4, 3) have single bottom eigenvalues
EIGH_COLUMN_RUNS = {
    (4, 2): [-0.01830917643867682, -0.01830917643867683, -0.018309176438676793],
    (5, 2): [-0.013607723379827338, -0.013607723379827203, -0.013607723379827255],
    (6, 2): [-0.010789022795432385, -0.010789022795432285, -0.01078902279543237],
    (3, 2): [(-0.027526101645948587, 19, 23), (-0.02752610164594866, 17, 21), (-0.027526101645948535, 17, 21)],
    (4, 3): [(-0.016331980016555173, 17, 20), (-0.016331980016555073, 17, 20), (-0.016331980016555014, 17, 20)],
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d,k", list(EIGH_COLUMN_RUNS))
def test_a_degenerate_x_half_step_reaches_the_aitken_step(d, k, seed):
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + 0.05)
    res = falsify_ks(Phi, k, SearchBudget(restarts=1, max_iters=500, seed=seed))
    before = EIGH_COLUMN_RUNS[d, k][seed]
    if k == 2 and d >= 4:
        assert res.violated and res.budget_used["iterations"] <= 20
        assert res.worst_value <= before + 1e-12
    else:
        # the certificate ends each run at the same step, and forgoes less
        # than STALL_TOL of its value
        used = res.budget_used
        assert (used["iterations"], used["defect_evals"]) == before[1:]
        assert res.worst_value <= before[0] + STALL_TOL


def test_aitken_extrapolates_along_aligned_shrinking_steps_only():
    # real steps d_0 = 0.1 e_1 and d_1 = 0.1 r (c e_1 + s e_2) from e_0: the
    # point is x_2 + r/(1 - r) d_1 where the cosine c reaches
    # EXTRAPOLATION_ALIGNMENT and r < 1, and a phase on x_1 or x_2 is
    # aligned away
    e = np.eye(4, dtype=complex)

    def iterates(c, r):
        d1 = 0.1 * r * (c * e[1] + np.sqrt(1 - c * c) * e[2])
        return e[0], e[0] + 0.1 * e[1], e[0] + 0.1 * e[1] + d1

    x0, x1, x2 = iterates(1.0, 0.5)
    assert np.allclose(certify._aitken(x0, x1, x2), _unit(e[0] + 0.2 * e[1]), rtol=0, atol=1e-15)
    assert np.allclose(certify._aitken(x0, np.exp(0.3j) * x1, np.exp(-1.1j) * x2), _unit(e[0] + 0.2 * e[1]),
                       rtol=0, atol=1e-15)
    c = EXTRAPOLATION_ALIGNMENT
    assert certify._aitken(*iterates(c + 0.005, 0.5)) is not None
    assert certify._aitken(*iterates(c - 0.005, 0.5)) is None
    assert certify._aitken(*iterates(1.0, 1.01)) is None


def test_an_aitken_candidate_without_a_single_bottom_eigenvalue_is_refused(monkeypatch):
    # iterates (A + eps_t B)/norm, eps_t = 0.1 2^-t, converge to A along a
    # line; the defect diag(e - 1, e - 1 + max(e - 1e-3, 0)), e = ||X - A||,
    # has one bottom eigenvalue along them, but a pair at their Aitken
    # points, which lie within 1e-3 of A: those are refused, although lower
    A = np.eye(2, dtype=complex) / np.sqrt(2)
    B = np.array([[0, 1], [1j, 0]]) / np.sqrt(2)
    steps = []

    def xstep(v, X, first):
        steps.append(v)
        X = A + 0.1 * 2.0 ** -len(steps) * B
        return (X / hs_norm(X))[None], np.zeros(1, dtype=bool)

    def defect(X):
        e = np.linalg.norm(X - A, axis=(1, 2))
        return np.stack([np.diag([x - 1, x - 1 + max(x - 1e-3, 0)]) for x in e]).astype(complex)

    gates = _aitken_spy(monkeypatch)
    (f, X, used), = _alternating_restart(defect, xstep, _refuse_all, 2, SearchBudget(max_iters=6),
                                         [np.random.default_rng(0)])
    assert sum(gates) == 2 and used == {"iterations": 6, "defect_evals": 9}
    assert f == defect(X[None])[0, 0, 0].real > 1e-3 - 1


def _evaluations(monkeypatch):
    # the defects the KS search evaluates, one entry per call
    evaluated = []
    ks_defect = certify._ks_defect

    def counted(T, k, X):
        evaluated.append(len(X) if X.ndim == 3 else 1)
        return ks_defect(T, k, X)

    monkeypatch.setattr(certify, "_ks_defect", counted)
    return evaluated


def test_each_aitken_candidate_counts_as_a_defect_evaluation(monkeypatch):
    # one violated restart whose certificate refuses every candidate, so that
    # no step is counted without being run: it evaluates its defect once at
    # the start, once per iteration and once per candidate, and once more
    # for the recheck
    evaluated = _evaluations(monkeypatch)
    monkeypatch.setattr(certify, "_certified", lambda A, c: np.zeros(len(A), dtype=bool))
    gates = _aitken_spy(monkeypatch)
    Phi = lambda_minus(QuantumMap.identity(3), bound_lambda_minus(3, 2) + 0.005)
    res = falsify_ks(Phi, 2, SearchBudget(restarts=1, max_iters=120, seed=23))
    used = res.budget_used
    assert res.violated and sum(gates) >= 2
    assert used["defect_evals"] == used["iterations"] + 1 + sum(gates) == sum(evaluated) - 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_fixed_point_counts_the_rest_of_its_stall_window_as_the_oracle_steps_it(monkeypatch, seed):
    # Lambda^-(id) at (3, 1), bound + 0.03: the violated restart keeps its
    # own X where its defect has one bottom eigenvalue, and counts the rest
    # of its stall window after that step's evaluation; the oracle, which
    # runs and evaluates every step of the same rule, gets the same bits
    evaluated = _evaluations(monkeypatch)
    Phi = lambda_minus(QuantumMap.identity(3), bound_lambda_minus(3, 1) + 0.03)
    budget = SearchBudget(restarts=4, max_iters=300, seed=seed)
    res = falsify_ks(Phi, 1, budget)
    used = res.budget_used
    assert res.violated and used["restarts"] == 1
    assert sum(evaluated) - 1 < used["defect_evals"] - STALL_WINDOW // 2
    monkeypatch.undo()
    assert _bytes(res) == _bytes(_solo_ks(Phi, 1, budget))


def test_a_restart_with_one_eigenvalue_clusters_draws_nothing_after_its_start(monkeypatch):
    # every defect of this violated (3, 2) restart has a one-eigenvalue bottom
    # cluster, so neither its vector steps nor its Aitken candidates draw:
    # its generator ends where the Ginibre start left it
    d, k = 3, 2
    n = k * d
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + 0.005)
    sizes, gates = [], _aitken_spy(monkeypatch)
    vectors = certify._min_eig_vectors

    def counted(D, rngs):
        f, V, m, bottom = vectors(D, rngs)
        sizes.extend(m)
        return f, V, m, bottom

    def xstep(v, X, first, T):
        # the dense step on every iteration
        Y = np.zeros((len(v), n, n), dtype=complex)  # [., column, row]
        xs, kept = _ks_xstep(*_ks_parts(T.reshape(-1, d, d, d * d), v), X, None)
        Y[:, :, :d] = xs.reshape(-1, n, d)
        return Y.swapaxes(1, 2), kept

    monkeypatch.setattr(certify, "_min_eig_vectors", counted)
    rng, start = (np.random.default_rng(ss) for ss in np.random.SeedSequence(5).spawn(1) * 2)
    (f, _, used), = _alternating_restart(lambda X, T: certify._ks_defect(T, k, X), xstep, _refuse_all, n,
                                         SearchBudget(max_iters=120), [rng], Phi.transfer[None])
    ginibre(start, n)
    assert f < -1e-3 and sum(gates) >= 2 and set(sizes) == {1}
    assert used["defect_evals"] == used["iterations"] + 1 + sum(gates)
    assert rng.bit_generator.state == start.bit_generator.state


def _refusing(monkeypatch, refuse):
    # the certificate refuses, besides what it refuses itself, every form
    # M'_v with refuse(M'_v), in the stack and in the oracle alike
    test, solo = _certified, _solo_certified

    def stacked(A, c):
        kept = np.array([not refuse(M) for M in A], dtype=bool)
        return test(A, c) & kept

    monkeypatch.setattr(certify, "_certified", stacked)
    monkeypatch.setattr(sys.modules[__name__], "_solo_certified", lambda M, c: not refuse(M) and solo(M, c))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_lockstep_ks_matches_sequential_oracle_when_a_window_is_refused_part_way(monkeypatch, d, k, where):
    # one form of the first window of a clean search, told apart by its
    # contents, is refused: the member takes the steps at X_0 before it,
    # then the dense step from it, as the oracle does step by step
    Phi = lambda_minus(QuantumMap.identity(d), d / (k * d + 1) - 0.02)
    budget = SearchBudget(restarts=3, max_iters=80, seed=d + 10 * k)
    calls = _windows(monkeypatch)
    falsify_ks(Phi, k, budget)
    vs, _, T, passed = calls[0]
    L = len(vs)
    assert L == STALL_WINDOW and passed.all()
    j = {"first": 0, "middle": L // 2, "last": L - 1}[where]
    z = _unit(ginibre(np.random.default_rng(1), k * d * d, 1)[:, 0])
    feature = lambda M: (z.conj() @ M @ z).real  # noqa: E731
    target = feature(_qform(*_ks_parts(T[0].reshape(d, d, d * d), vs[j][None]))[0])
    calls.clear()
    tests = []  # each test of the refused form

    def refuse(M):
        if hit := bool(abs(feature(M) - target) < 1e-9):
            tests.append(M)
        return hit

    _refusing(monkeypatch, refuse)
    res = falsify_ks(Phi, k, budget)
    assert len(calls[0][0]) == L and np.argmin(calls[0][3]) == j  # the refusal took
    # the member holds the refused vector and takes the dense step from it
    # with no second test, as the oracle tests it once
    assert len(tests) == 1
    assert res.verdict == "NoViolationFound"
    tests.clear()
    assert _bytes(res) == _bytes(_solo_ks(Phi, k, budget)) and len(tests) == 1


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_lockstep_ks_matches_sequential_oracle_when_a_window_at_its_own_x_is_refused(monkeypatch, d, k):
    # the oracle's first restart tests X_0 at its steps 1 and 2; its step 2
    # is refused, so it takes the dense step, keeps its own X at step 3,
    # whose defect is degenerate too, and tests its next draw at step 4,
    # which is refused as well: the lockstep search, whose window at its own
    # X holds that draw, takes the dense step there too
    Phi = lambda_minus(QuantumMap.identity(d), d / (k * d + 1) - 0.02)
    budget = SearchBudget(restarts=3, max_iters=80, seed=d + 10 * k)
    z = _unit(ginibre(np.random.default_rng(1), k * d * d, 1)[:, 0])
    feature = lambda M: (z.conj() @ M @ z).real  # noqa: E731
    targets, tested = [], []
    _refusing(monkeypatch, lambda M: any(abs(feature(M) - t) < 1e-9 for t in targets))
    solo = _solo_certified

    def recorded(M, c):
        tested.append(feature(M))
        return solo(M, c)

    monkeypatch.setattr(sys.modules[__name__], "_solo_certified", recorded)
    for step in (2, 4):
        tested.clear()
        _solo_ks(Phi, k, budget)
        targets.append(tested[step - 1])
    calls = _windows(monkeypatch)
    res = falsify_ks(Phi, k, budget)
    assert [c[3].tolist() for c in calls[:2]] == [[False] + [True] * 9, [True, False] + [True] * 7]  # both took
    assert res.verdict == "NoViolationFound"
    assert _bytes(res) == _bytes(_solo_ks(Phi, k, budget))


def _ks_restart_on(Phi, defect, budget, rngs):
    # the KS restart of Phi at k = 1, certificate included, on a given defect
    d = Phi.d
    T = np.stack([Phi.transfer] * len(rngs))
    x0 = _block_identity_row(d, 1)

    def unvec(xs):
        return xs.reshape(-1, d, d).swapaxes(1, 2)

    def rows(X):
        return X.swapaxes(1, 2).reshape(len(X), d * d)

    def xstep(v, X, first, T):
        c = np.tile(x0, (len(v), 1)) if first else None
        xs, kept = _ks_xstep(*_ks_parts(T.reshape(-1, d, d, d * d), v), X, c)
        return unvec(xs), kept

    def certified(vs, X, T):
        # read from the module at call time, as _ks_xstep does, so that a
        # patched certificate reaches the window too
        return certify._certified(_qform(*_ks_parts(T.reshape(-1, d, d, d * d), vs)), rows(X))

    return _alternating_restart(lambda X, T: defect(X), xstep, certified, d, budget, rngs, T)


def _solo_ks_restart_on(Phi, defect, budget, rng):
    T3 = _base_t3(Phi)

    def xstep(v, X, test):
        x = vec(X)
        c = {"start": _block_identity_row(Phi.d, 1), "own": x, None: None}[test]
        return _solo_ks_xstep(*_solo_ks_parts(T3, v), x, c)

    return _solo_alternating_restart(defect, xstep, Phi.d, budget, rng)


def test_lockstep_restart_matches_solo_runs_with_mixed_cluster_draws():
    # the defect vanishes, so the vector step draws from a degenerate
    # cluster, exactly for the members with Re X_00 > 0: one batch then
    # holds drawn and plain vectors
    Phi = sample_utp_cp(3, seed=5)
    kinds = []

    def defect(X):
        D = amplified_ks_defect(Phi, 1, X)
        vanishes = X[..., :1, :1].real > 0
        kinds.append((bool(vanishes.any()), bool(vanishes.all())))
        return np.where(vanishes, 0 * D, D)

    budget = SearchBudget(restarts=1, max_iters=40, seed=0)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(11).spawn(8)]
    batch = _ks_restart_on(Phi, defect, budget, rngs)
    assert (True, False) in kinds  # some batch mixed drawn and plain vectors
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(11).spawn(8)]
    for (f, X, used), rng in zip(batch, rngs):
        g, Y, solo_used = _solo_ks_restart_on(Phi, defect, budget, rng)
        assert f == g and np.array_equal(X, Y) and used == solo_used


@pytest.mark.parametrize("spectrum", [(0.0, 0.0, 1e-3), (0.0, 1e-3, 2e-3)])
def test_lockstep_restart_matches_solo_runs_when_the_start_point_defect_is_not_one_cluster(spectrum):
    # the defect vanishes for Re X_00 > 0, as above, except at X_0 = I/sqrt(3),
    # which every member keeps at its first X half-step, where it has a
    # bottom cluster of 2 or 1 of its 3 eigenvalues: the member then runs a
    # window of draws from that pair, tested ahead, or a window that tests
    # X_0 once at the bottom vector of its next step and draws nothing
    Phi = sample_utp_cp(3, seed=5)
    x0 = np.eye(3) / np.sqrt(3)
    at_x0 = []

    def defect(X):
        D = amplified_ks_defect(Phi, 1, X)
        D = np.where(X[..., :1, :1].real > 0, 0 * D, D)
        here = (X == x0).all(axis=(-1, -2))
        at_x0.append(bool(np.any(here)))
        return np.where(here[..., None, None], np.diag(spectrum).astype(complex), D)

    budget = SearchBudget(restarts=1, max_iters=40, seed=0)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(11).spawn(8)]
    batch = _ks_restart_on(Phi, defect, budget, rngs)
    assert any(at_x0)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(11).spawn(8)]
    for (f, X, used), rng in zip(batch, rngs):
        g, Y, solo_used = _solo_ks_restart_on(Phi, defect, budget, rng)
        assert f == g and np.array_equal(X, Y) and used == solo_used
        assert used["iterations"] == STALL_WINDOW + 1


def test_a_kept_x0_with_one_bottom_eigenvalue_is_tested_at_the_second_step(monkeypatch):
    # a unital CP map's defect less 1e-3 I, and (0, 1e-3, 2e-3) at X_0,
    # which every member keeps at its first X half-step; the certificate
    # refuses M'_v for that bottom vector v = e_0. The first step's window
    # tests X_0 at v, the vector of the second step, once, as the oracle's
    # second step does; refused, each member takes the dense step to a
    # lower value, as the oracle does
    Phi = sample_utp_cp(3, seed=5)
    x0 = np.eye(3) / np.sqrt(3)
    spectrum = np.diag([0.0, 1e-3, 2e-3]).astype(complex)

    def defect(X):
        D = amplified_ks_defect(Phi, 1, X) - 1e-3 * np.eye(3)
        return np.where((X == x0).all(axis=(-1, -2))[..., None, None], spectrum, D)

    e0 = np.linalg.eigh(spectrum)[1][:, 0]
    z = _unit(ginibre(np.random.default_rng(1), 9, 1)[:, 0])
    feature = lambda M: (z.conj() @ M @ z).real  # noqa: E731
    target = feature(_qform(*_ks_parts(Phi.transfer.reshape(1, 3, 3, 9), e0[None]))[0])
    _refusing(monkeypatch, lambda M: abs(feature(M) - target) < 1e-9)
    budget = SearchBudget(restarts=1, max_iters=40, seed=0)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(11).spawn(8)]
    batch = _ks_restart_on(Phi, defect, budget, rngs)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(11).spawn(8)]
    for (f, X, used), rng in zip(batch, rngs):
        g, Y, solo_used = _solo_ks_restart_on(Phi, defect, budget, rng)
        assert f == g and np.array_equal(X, Y) and used == solo_used
        assert f < -1e-4 and used["iterations"] > STALL_WINDOW + 1  # the refusal took


@pytest.mark.parametrize("a", [0.45, 0.55])
@pytest.mark.parametrize("d", [3, 4])
def test_lockstep_kpos_matches_sequential_oracle(d, a):
    # reduction is 2-positive iff a <= 1/2
    budget = SearchBudget(restarts=8, max_iters=150, seed=d)
    res = falsify_k_positivity(reduction(d, a), 2, budget)
    assert res.violated == (a > 0.5)
    assert _bytes(res) == _bytes(_solo_kpos(reduction(d, a), 2, budget))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d,k", [(3, 2), (4, 2), (4, 3)])
def test_lockstep_kpos_matches_sequential_oracle_when_members_stop_apart(monkeypatch, d, k, seed):
    # clean searches of C = H + t I, H a seeded random Hermitian matrix and t
    # 1e-6 above the least value the search finds on H: the stage-2 members
    # stop at different iterations (18, 12, 15, 15 and 13 at (3, 2), seed
    # 0), so the stack sheds them one at a time, and each still gets the
    # bytes of its run alone
    gen = np.random.default_rng(seed)
    G = gen.standard_normal((d * d, d * d)) + 1j * gen.standard_normal((d * d, d * d))
    H = (G + dagger(G)) / 2
    budget = SearchBudget(restarts=6, max_iters=200, seed=seed)
    t = 1e-6 - falsify_k_positivity(QuantumMap.from_choi(H), k, budget).worst_value
    Phi = QuantumMap.from_choi(H + t * np.eye(d * d))
    stops, restart = [], certify._kpos_restart

    def spy(*args):
        out = restart(*args)
        stops.append([used["iterations"] for *_, used in out])
        return out

    monkeypatch.setattr(certify, "_kpos_restart", spy)
    res = falsify_k_positivity(Phi, k, budget)
    assert res.verdict == "NoViolationFound" and len(stops) == 2 and len(set(stops[1])) > 1
    assert _bytes(res) == _bytes(_solo_kpos(Phi, k, budget))


def _scripted_search(values, budget, drift=0.0):
    """_falsify over a synthetic kernel whose i-th restart reports
    values[i] after i + 1 iterations, and whose points re-check `drift` away
    from it; returns the verdict and the batch sizes the kernel was called
    with."""
    calls = []
    seeds = np.random.SeedSequence(budget.seed).spawn(budget.restarts)

    def restart(rngs):
        first = sum(calls)
        calls.append(len(rngs))
        runs = []
        for i, rng in enumerate(rngs, start=first):
            # each member gets the generator of its own restart
            assert rng.integers(1 << 62) == np.random.default_rng(seeds[i]).integers(1 << 62)
            runs.append((values[i], i, {"iterations": i + 1, "defect_evals": 2 * i + 3}))
        return runs

    return _falsify(restart, [lambda i: values[i] + drift], lambda i: i, [budget])[0], calls


def test_late_violation_folds_the_prefix():
    # restart 4 is the first violator; restart 5 is worse but comes later
    values = [0.3, -1e-12, 0.1, -0.25, -0.9, 0.2]
    res, calls = _scripted_search(values, SearchBudget(restarts=6, seed=3))
    assert calls == [1, 5]
    assert res.violated and res.worst_value == -0.25 and res.witness == 3
    assert res.budget_used == {"restarts": 4, "iterations": 1 + 2 + 3 + 4, "defect_evals": 3 + 5 + 7 + 9}


def test_clean_run_folds_every_restart():
    values = [0.3, -1e-12, 0.1, 0.2]
    res, calls = _scripted_search(values, SearchBudget(restarts=4, seed=3))
    assert calls == [1, 3]
    assert res.verdict == "NoViolationFound" and res.worst_value == -1e-12
    assert res.budget_used == {"restarts": 4, "iterations": 10, "defect_evals": 24}


def test_late_violation_is_rechecked():
    values = [0.3, 0.1, -0.25]
    assert _scripted_search(values, SearchBudget(restarts=3, seed=3), drift=1e-9)[0].violated
    with pytest.raises(WitnessRecheckError):
        _scripted_search(values, SearchBudget(restarts=3, seed=3), drift=0.01)


def test_violation_at_restart_1_never_runs_the_batch():
    res, calls = _scripted_search([-0.5, -0.9, -0.9], SearchBudget(restarts=3, seed=0))
    assert calls == [1]
    assert res.worst_value == -0.5
    assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 3}
    _, calls = _scripted_search([0.5], SearchBudget(restarts=1, seed=0))
    assert calls == [1]


def test_searches_share_the_two_stages():
    # three searches of three restarts: restart 1 of each runs in one stack;
    # search 1 is violated there, so only searches 0 and 2 run restarts 2..3,
    # as one more stack; each folds as if it had run alone
    values = {0: [0.3, -0.2, -0.9], 1: [-0.4, -0.5, -0.6], 2: [0.1, 0.2, 0.05]}
    budgets = [SearchBudget(restarts=3, seed=10 + s) for s in range(3)]
    stacks = []

    def restart(rngs, rows):
        stacks.append(rows.tolist())
        runs = []
        for rng, s in zip(rngs, rows.tolist()):
            # which restart of its search this generator belongs to
            draw = rng.integers(1 << 62)
            r = [np.random.default_rng(ss).integers(1 << 62)
                 for ss in np.random.SeedSequence(budgets[s].seed).spawn(3)].index(draw)
            runs.append((values[s][r], (s, r), {"iterations": r + 1, "defect_evals": 1}))
        return runs

    got = _falsify(restart, [lambda p, s=s: values[s][p[1]] for s in range(3)], lambda p: p,
                   budgets, np.arange(3))
    assert stacks == [[0, 1, 2], [0, 0, 2, 2]]
    assert [(v.verdict, v.worst_value, v.witness, v.seed) for v in got] == [
        ("Violated", -0.2, (0, 1), 10), ("Violated", -0.4, (1, 0), 11), ("NoViolationFound", 0.05, None, 12)]
    assert [v.budget_used for v in got] == [
        {"restarts": 2, "iterations": 3, "defect_evals": 2},
        {"restarts": 1, "iterations": 1, "defect_evals": 1},
        {"restarts": 3, "iterations": 6, "defect_evals": 3},
    ]


def test_searches_of_one_stack_differ_only_in_their_seeds():
    with pytest.raises(ValueError, match="only in their seeds"):
        _falsify(None, [None, None], None, [SearchBudget(seed=1), SearchBudget(seed=2, restarts=3)])


# -- partial-trace domination condition -------------------------------------


def _phi_k_qform(T4, v):
    """Quadratic form of the k x k partial-trace defect, with
    T4 = T_k.reshape(k, d, n, n*n) for the amplified transfer matrix T_k:
    v* defect(X) v = Tr(W0 X*X) - sum_j ||Phi_k(X) (v (x) e_j)||^2 with
    W0 = vv* (x) I_d, so W0^T (x) I_n = conj(v) v^T (x) I_{dn}."""
    _, d, n, _ = T4.shape
    G = (v @ T4.reshape(len(v), -1)).reshape(d * n, n * n)
    return np.kron(np.outer(v.conj(), v), np.eye(d * n)) - G.conj().T @ G


def _phi_k_search(Phi, k, budget):
    """Reference for check_phi_k_condition: the alternating search over the
    HS unit sphere, with a dense eigh of the Phi_k quadratic form as the X
    half-step."""
    d = Phi.d
    n = k * d
    T4 = Phi.amplify(k).transfer_matrix().reshape(k, d, n, n * n)
    defect = partial(phi_k_defect, Phi, k)

    def xstep(v, X, test):
        # no candidate: the dense step on every iteration
        return np.linalg.eigh(_phi_k_qform(T4, v))[1][:, 0], False

    return _solo_falsify(
        partial(_solo_alternating_restart, defect, xstep, n, budget),
        partial(_min_eig_value, defect),
        partial(BlockOperator, k, d),
        budget,
    )


def _map_of_norm(rng, d, norm):
    G = ginibre(rng, d * d)
    return QuantumMap(G * (norm / np.linalg.norm(G, 2)))


def test_phi_k_condition_contraction_passes():
    Phi = sample_utp_cp(2, seed=12)
    for k in (1, 2, 3):
        assert check_phi_k_condition(Phi, k, FAST).verdict == "NoViolationFound"


def test_phi_k_condition_expansion_fails():
    Phi = QuantumMap(2 * np.eye(4))  # norm-2 map
    res = check_phi_k_condition(Phi, 2, FAST)
    assert res.violated
    assert res.worst_value < -1.0


@pytest.mark.parametrize("norm", [0.99, 1.05])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_phi_k_search_agrees_with_closed_form(d, k, norm):
    # criterion 5's smaller budget; the largest gap measured on these twelve
    # maps was 1.7e-15, and 2.0e-15 on five more random draws of the grid
    budget = SearchBudget(restarts=4, max_iters=100, seed=d * 10 + k)
    Phi = _map_of_norm(np.random.default_rng([d, k, int(norm * 100)]), d, norm)
    closed = check_phi_k_condition(Phi, k, budget)
    search = _phi_k_search(Phi, k, budget)
    assert search.verdict == closed.verdict
    # the closed form is the infimum: no search gets below it
    assert search.worst_value >= closed.worst_value - 1e-9
    assert abs(search.worst_value - closed.worst_value) <= 1e-6


@pytest.mark.parametrize("d", [2, 3])
def test_phi_k_violated_iff_not_contraction(d):
    # the "only if" direction: every map with ||T||_2 >= 1.001 is violated at
    # every k, with the witness the closed form names
    r = np.random.default_rng(d)
    maps = [_map_of_norm(r, d, norm) for norm in (1.001, 1.01, 1.5, 3.0)]
    maps += [QuantumMap(1.001 * np.eye(d * d)), QuantumMap(1.001 * transpose_map(d).transfer)]
    for Phi in maps:
        s2 = Phi.hs_norm() ** 2
        for k in (1, 2, 3):
            res = check_phi_k_condition(Phi, k, FAST)
            assert res.violated
            assert res.worst_value == pytest.approx(1 - s2, rel=1e-12)
            assert (res.witness.k, res.witness.d) == (k, d)
            # unit norm, all of it in the top-left block
            assert hs_norm(res.witness.data[:d, :d]) == pytest.approx(1.0)
            assert hs_norm(res.witness.data) == pytest.approx(1.0)
            D = phi_k_defect(Phi, k, res.witness.data)
            assert abs(min_eigenvalue(D) - res.worst_value) <= 1e-12 * s2
            assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 1}


@pytest.mark.parametrize("d", [2, 3])
def test_phi_k_identity_is_exactly_clean(d):
    for k in (1, 2, 3):
        res = check_phi_k_condition(QuantumMap.identity(d), k, FAST)
        assert res.verdict == "NoViolationFound"
        assert res.worst_value == 0.0
        assert res.witness is None
        assert res.budget_used == {"restarts": 1, "iterations": 1, "defect_evals": 0}
        assert res.seed == FAST.seed


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
@pytest.mark.parametrize("norm", [1e4, 1e5])
def test_phi_k_large_norm_rechecks_relative(d, k, norm):
    # SVD and eigvalsh disagree by ~1e-5 at norm 1e5; an absolute 1e-8
    # recheck would refuse the witness
    Phi = _map_of_norm(np.random.default_rng(7), d, norm)
    res = check_phi_k_condition(Phi, k, FAST)
    assert res.violated
    assert res.worst_value == pytest.approx(1 - norm**2, rel=1e-12)


def test_phi_k_recheck_tolerance_scales_with_norm(monkeypatch):
    # at ||T||_2^2 = 1e8 the recheck allows 1e-8 * 1e8 = 1; an offset beyond
    # that, or a NaN, raises
    Phi = _map_of_norm(np.random.default_rng(8), 2, 1e4)

    def shifted(offset):
        monkeypatch.setattr(certify, "phi_k_defect", lambda P, k, X: phi_k_defect(P, k, X) + offset)
        return check_phi_k_condition(Phi, 1, FAST)

    assert shifted(0.5).violated
    for offset in (2.0, np.nan):
        with pytest.raises(WitnessRecheckError):
            shifted(offset)


def test_phi_k_rejects_k_below_1():
    with pytest.raises(ValueError, match="k must be >= 1"):
        check_phi_k_condition(QuantumMap.identity(2), 0, FAST)


@pytest.mark.parametrize("norm", [0.99, 1.05])
def test_phi_k_bytes_ignore_restarts_and_iters(norm):
    Phi = _map_of_norm(np.random.default_rng(9), 3, norm)
    budgets = [SearchBudget(restarts=r, max_iters=m, seed=5) for r, m in ((1, 1), (32, 500), (7, 3))]
    runs = [json.dumps(verdict_to_json(check_phi_k_condition(Phi, 2, b)), sort_keys=True) for b in budgets]
    runs.append(json.dumps(verdict_to_json(check_phi_k_condition(Phi, 2, budgets[0])), sort_keys=True))
    assert len(set(runs)) == 1


# -- k-positivity -----------------------------------------------------------


def test_k_positivity_transpose_not_2_positive():
    # at d = 3, k = 2 < d, so the search runs; k = d is the closed form
    res = falsify_k_positivity(transpose_map(3), 2, FAST)
    assert res.violated
    assert res.worst_value == pytest.approx(-1.0, abs=1e-8)
    # the first restart finds it; each iteration is two eigh half-steps
    assert res.budget_used["restarts"] == 1
    assert res.budget_used["defect_evals"] == 2 * res.budget_used["iterations"]
    psi = res.witness.psi
    C = hermitianize(transpose_map(3).choi())
    assert (psi.conj() @ C @ psi).real < -0.9
    assert falsify_k_positivity(transpose_map(2), 2, FAST).worst_value == pytest.approx(-1.0, abs=1e-12)


def test_k_positivity_transpose_is_1_positive():
    res = falsify_k_positivity(transpose_map(3), 1, FAST)
    assert res.verdict == "NoViolationFound"


def test_k_positivity_cp_clean():
    Phi = sample_utp_cp(3, seed=21)
    res = falsify_k_positivity(Phi, 3, FAST)
    assert res.verdict == "NoViolationFound"


def test_k_positivity_domain():
    with pytest.raises(ParameterDomainError):
        falsify_k_positivity(depolarizing(2), 3, FAST)


def test_schmidt_witness_psi():
    u = np.eye(2)
    v = np.eye(2)
    w = SchmidtWitness(u=u, v=v)
    assert np.allclose(w.psi, [1, 0, 0, 1])


# -- half-step kernels ------------------------------------------------------

KERNEL_DK = [(2, 1), (3, 2), (2, 3)]


def _random_hp_map(d):
    # hermiticity-preserving but neither positive nor unital, so the
    # identities below hold for more than the maps the solvers meet
    return QuantumMap.from_choi(hermitianize(ginibre(rng, d * d)))


def _unit(x):
    return x / np.linalg.norm(x)


def _form(M, X):
    x = vec(X)
    return complex(x.conj() @ M @ x)


def _amplified_ks_parts(T3, v):
    """The (W, G) of the n^2 x n^2 form M_v of the amplified map, for a stack
    of vectors, with T3 = T_k.reshape(n, n, n*n) for the amplified transfer
    matrix T_k: G = sum_q v_q T3[q] and W = unvec(conj(v* G))."""
    n = v.shape[-1]
    G = (v[..., None, :] @ T3.reshape(n, -1)).reshape(v.shape[:-1] + (n, n * n))
    vG = (v.conj()[..., None, :] @ G).conj()
    return hermitianize(vG.reshape(v.shape[:-1] + (n, n)).swapaxes(-1, -2)), G


def _base_t3(Phi):
    return Phi.transfer.reshape(Phi.d, Phi.d, Phi.d**2)


@pytest.mark.parametrize("d,k", KERNEL_DK)
def test_ks_qform_identity(d, k):
    # the defect is the sum of the block-row form over the d x n block rows
    Phi = _random_hp_map(d)
    n = k * d
    for _ in range(3):
        X, v = ginibre(rng, n), _unit(ginibre(rng, n, 1)[:, 0])
        M = _qform(*_ks_parts(_base_t3(Phi), v[None]))[0]
        assert M.shape == (n * d, n * d) and hs_norm(M - M.conj().T) < 1e-12
        expected = complex(v.conj() @ amplified_ks_defect(Phi, k, X) @ v)
        got = sum(_form(M, X[R * d : (R + 1) * d]) for R in range(k))
        assert abs(got - expected) < 1e-10 * max(1.0, abs(expected))


@pytest.mark.parametrize("d,k", KERNEL_DK + [(4, 2)])
def test_ks_parts_w_is_the_dual_of_vv(d, k):
    # W read off G against the HS dual of the amplified map applied to vv*,
    # for a stack of vectors; (4, 2) is the dense side 32 of ks-large
    Phi = _random_hp_map(d)
    n = k * d
    v = np.stack([_unit(ginibre(rng, n, 1)[:, 0]) for _ in range(3)])
    W, _ = _ks_parts(_base_t3(Phi), v)
    ref = hermitianize(Phi.dual().apply_amplified(v[:, :, None] * v[:, None, :].conj(), k))
    assert hs_norm(W - ref) <= 1e-12 * max(1.0, hs_norm(ref))


@pytest.mark.parametrize("kind", ["random-utp", "lambda-minus"])
@pytest.mark.parametrize("d,k", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_block_row_form_has_the_spectrum_of_the_amplified_form(d, k, kind):
    # M_v = I_k (x) M'_v up to the order of vec(X): each eigenvalue of the
    # n d x n d block-row form, taken k times, is one of the amplified form's
    n = k * d
    Phi = sample_utp_cp(d, seed=d + k) if kind == "random-utp" else lambda_minus(
        QuantumMap.identity(d), d / (k * d + 1))
    T3 = Phi.amplify(k).transfer_matrix().reshape(n, n, n * n)
    for _ in range(3):
        v = _unit(ginibre(rng, n, 1)[:, 0])
        W, G = _amplified_ks_parts(T3, v)
        oracle = np.linalg.eigvalsh(_qform(W, G))
        assert oracle.shape == (n * n,)
        block_row = np.linalg.eigvalsh(_qform(*_ks_parts(_base_t3(Phi), v[None]))[0])
        scale = max(1.0, float(np.abs(oracle).max()))
        assert np.abs(np.sort(np.repeat(block_row, k)) - oracle).max() <= 1e-12 * scale


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_ks_parts_at_k1_are_the_bytes_of_the_amplified_parts(d):
    # at k = 1 the block row is all of X: W and G are the amplified ones,
    # byte for byte, for a stack and for a stack of one
    Phi = _random_hp_map(d)
    v = np.stack([_unit(ginibre(rng, d, 1)[:, 0]) for _ in range(4)])
    T3 = Phi.amplify(1).transfer_matrix().reshape(d, d, d * d)
    for vs in (v, v[:1]):
        for new, old in zip(_ks_parts(_base_t3(Phi), vs), _amplified_ks_parts(T3, vs)):
            assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_ks_search_never_forms_the_amplified_transfer_matrix(monkeypatch):
    # the X half-step reads the base transfer matrix only
    def refuse(self):
        raise AssertionError("the amplified transfer matrix was formed")

    monkeypatch.setattr(AmplifiedMap, "transfer_matrix", refuse)
    d, k = 3, 2
    res = falsify_ks(lambda_minus(QuantumMap.identity(d), d / (k * d + 1) + 0.05), k, FAST)
    assert res.violated and res.witness.data.shape == (6, 6)


def test_ks_search_refuses_a_map_that_is_not_hermiticity_preserving(monkeypatch):
    # its defects are not Hermitian: both searches fail before any restart
    Phi = QuantumMap(np.random.default_rng(3).standard_normal((4, 4, 2)) @ [1, 1j])
    assert not Phi.hermiticity_preserving

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(certify, "_falsify", no_search)
    with pytest.raises(HermiticityError, match="not Hermiticity-preserving; the KS defect"):
        falsify_ks(Phi, 1, FAST)
    with pytest.raises(HermiticityError, match="not Hermiticity-preserving; the co-KS defect"):
        falsify_co_ks(Phi, FAST)


def test_kpos_refuses_a_map_that_is_not_hermiticity_preserving(monkeypatch):
    # it maps diag(1, 0) to (1 + 0.1j) I, so it is not even positive: it
    # fails before any restart, and its Choi matrix is not Hermitianized
    Phi = QuantumMap.from_choi((1 + 0.1j) * np.eye(4))
    assert not Phi.hermiticity_preserving

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(certify, "_falsify", no_search)
    with pytest.raises(HermiticityError, match="not Hermiticity-preserving; the Choi matrix"):
        falsify_k_positivity(Phi, 1, FAST)


@pytest.mark.parametrize("d", [2, 3])
def test_co_ks_is_ks_of_transposed_map(d):
    # co-KS of Phi runs the KS search of tau o Phi: the verdicts are the same
    # bytes, and the witness certifies the co-KS defect of Phi itself
    for Phi in (transpose_map(d), QuantumMap.identity(d), sample_utp_cp(d, seed=1),
                transpose_map(d).compose(reduction(d, 0.9))):
        co = falsify_co_ks(Phi, FAST)
        assert _bytes(co) == _bytes(falsify_ks(transpose_map(d).compose(Phi), 1, FAST))
        if co.violated:
            assert abs(min_eigenvalue(co_ks_defect(Phi, co.witness.data)) - co.worst_value) < 1e-12


def test_falsify_co_ks_warns_on_non_unital():
    T = np.zeros((4, 4))
    T[0, 0] = 1.0
    with pytest.warns(UserWarning, match="co-KS inequality") as record:
        falsify_co_ks(QuantumMap(T), SearchBudget(restarts=2, max_iters=20, seed=0))
    assert len(record) == 1


@pytest.mark.parametrize("d,k", KERNEL_DK)
def test_phi_k_qform_identity(d, k):
    Phi = _random_hp_map(d)
    n = k * d
    T4 = Phi.amplify(k).transfer_matrix().reshape(k, d, n, n * n)
    for _ in range(3):
        X, v = ginibre(rng, n), _unit(ginibre(rng, k, 1)[:, 0])
        M = _phi_k_qform(T4, v)
        assert hs_norm(M - M.conj().T) < 1e-12
        expected = complex(v.conj() @ phi_k_defect(Phi, k, X) @ v)
        assert abs(_form(M, X) - expected) < 1e-10 * max(1.0, abs(expected))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2), (4, 3)])
def test_kpos_compressions(d, k):
    C = hermitianize(_random_hp_map(d).choi())
    C4 = C.reshape(d, d, d, d)
    U, V = ginibre(rng, d, k), ginibre(rng, d, k)
    r, x = ginibre(rng, d * k, 1)[:, 0], ginibre(rng, k * d, 1)[:, 0]
    psi = np.kron(np.eye(d), V) @ r
    assert abs(r.conj() @ _compress_right(C4, V) @ r - psi.conj() @ C @ psi) < 1e-10
    psi = np.kron(U, np.eye(d)) @ x
    assert abs(x.conj() @ _compress_left(C4, U) @ x - psi.conj() @ C @ psi) < 1e-10


# -- the dense X half-step ----------------------------------------------------


def _dense_bottom(W, G):
    M = _qform(W, G)
    return M, float(np.linalg.eigvalsh(M)[0])


def _form_scale(W, G):
    return max(float(np.abs(np.linalg.eigvalsh(W)).max()), hs_norm(G) ** 2, 1.0)


def _dense_xstep(W, G, X):
    # the X half-step of members that test no candidate
    return _ks_xstep(W, G, X, None)[0]


def test_ks_xstep_gives_a_bottom_vector_of_a_degenerate_form():
    # the first m columns of G vanish, and G is small enough that nothing lies
    # below the bottom eigenvalue 1 of W^T (x) I_m, which has multiplicity m;
    # the shapes are those of (d, k) = (4, 4), a form side of 64
    n, m = 16, 4
    W = np.diag(np.arange(1.0, n + 1))
    G = 0.1 * ginibre(rng, m, n * m)
    G[:, :m] = 0
    M, lam_min = _dense_bottom(W, G)
    assert abs(lam_min - 1.0) < 1e-12
    tol = 1e-10 * _form_scale(W, G)
    xs = _dense_xstep(W[None], G[None], ginibre(rng, n)[None])
    assert xs.shape == (1, n * m) and xs.flags.c_contiguous and xs.flags.owndata
    x = xs[0]
    assert abs(np.linalg.norm(x) - 1) < 1e-12
    assert abs((x.conj() @ M @ x).real - lam_min) < tol
    assert np.linalg.norm(M @ x - lam_min * x) < tol
    # a bottom cluster above -EIG_DEGENERACY_GAP keeps eigh's column 0
    assert np.array_equal(xs, np.linalg.eigh(_qform(W[None], G[None]))[1][:, :, 0])


def _iterate(x, d, n):
    # an X of side n whose block row 0 has vec x, and whose other rows hold
    # noise that the X half-step must not read
    X = ginibre(rng, n)
    X[:d] = x.reshape(d, n, order="F")
    return X


def test_ks_xstep_projects_the_iterate_onto_a_negative_degenerate_bottom():
    # with G's first m columns 0, W^T (x) I_m - G*G has the bottom eigenvalue
    # -0.5 of W twice, at (d, k) = (2, 2): the step is the normalized
    # projection of the iterate onto that pair, a bottom vector of M still
    n, m = 4, 2
    W = np.diag(np.arange(1.0, n + 1) - 1.5)
    G = 0.1 * ginibre(rng, m, n * m)
    G[:, :m] = 0
    M, lam_min = _dense_bottom(W, G)
    w, U = np.linalg.eigh(M)
    assert abs(lam_min + 0.5) < 1e-12 and w[1] - w[0] < EIG_DEGENERACY_GAP < w[2] - w[0]
    x = ginibre(rng, n * m, 1)[:, 0]
    p = U[:, :2] @ (dagger(U[:, :2]) @ x)
    y = _dense_xstep(W[None], G[None], _iterate(x, m, n)[None])[0]
    assert np.linalg.norm(y - p / np.linalg.norm(p)) < 1e-12
    assert np.linalg.norm(M @ y - lam_min * y) < 1e-10 * _form_scale(W, G)
    # an iterate orthogonal to the pair keeps eigh's column 0, bit for bit
    column0 = np.linalg.eigh(_qform(W[None], G[None]))[1][:, :, 0]
    assert np.array_equal(_dense_xstep(W[None], G[None], _iterate(U[:, 5], m, n)[None]), column0)


@pytest.mark.parametrize("kind", ["unital null space", "single bottom"])
def test_ks_xstep_keeps_the_eigh_column_elsewhere(kind):
    # the bottom cluster of a k-KS unital map's M'_v holds its null space N
    # at 0, of dimension k or more; on a map that is not k-KS it is most
    # often one negative eigenvalue: each keeps eigh's column 0 bit for bit
    d, k = 3, 2
    if kind == "unital null space":
        Phi = sample_utp_cp(d, seed=4)
    else:
        Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + 0.05)
    v = _unit(ginibre(rng, k * d, 1)[:, 0])[None]
    W, G = _ks_parts(Phi.transfer.reshape(1, d, d, d * d), v)
    w, U = np.linalg.eigh(_qform(W, G))
    assert ((w[0] - w[0, 0] < EIG_DEGENERACY_GAP).sum() > 1) == (abs(w[0, 0]) < 1e-9) == (kind == "unital null space")
    X = _iterate(U[0, :, 0], d, k * d)
    assert np.array_equal(_dense_xstep(W, G, X[None]), U[:, :, 0])


# -- the certificate of the X half-step --------------------------------------


def _count_solves(monkeypatch, side):
    # the X half-step's eigenvector solves: forms of this side through the
    # dense eigh of _ks_xstep, one per matrix of a stack
    solves = []
    eigh = np.linalg.eigh

    def counted_eigh(A):
        if sys._getframe(1).f_code.co_name == "_ks_xstep":
            assert A.shape[-1] == side
            solves.extend([side] * (A.size // side**2))
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    return solves


def _dense_only(monkeypatch):
    monkeypatch.setattr(certify, "_certified", lambda A, c: np.zeros(len(A), dtype=bool))


def _tests(monkeypatch):
    # for each stack of candidates tested, by a restart's first X half-step
    # ("_ks_xstep", X_0) or by a window ("certified", its own X), the
    # candidates tested and how many passed
    calls = []
    real = certify._certified

    def spy(A, c):
        ok = real(A, c)
        calls.append((sys._getframe(1).f_code.co_name, len(ok), int(ok.sum())))
        return ok

    monkeypatch.setattr(certify, "_certified", spy)
    return calls


def test_ks_xstep_runs_the_eigh_on_refused_members_only(monkeypatch):
    # three members at (3, 2): one tests the bottom eigenvector of its form,
    # the others their top and second eigenvectors; the first keeps its
    # candidate, and the other two, alone in the eigh, take the dense step
    # as alone
    d, k = 3, 2
    n = k * d
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) + 0.05)
    v = np.stack([_unit(ginibre(np.random.default_rng(b), n, 1)[:, 0]) for b in range(3)])
    W, G = _ks_parts(_base_t3(Phi), v)
    U = np.linalg.eigh(_qform(W, G))[1]
    c = np.stack([U[0, :, 0], U[1, :, -1], U[2, :, 1]])
    X = np.stack([_iterate(U[b, :, 1], d, n) for b in range(3)])
    solves = _count_solves(monkeypatch, n * d)
    xs, kept = _ks_xstep(W, G, X, c)
    assert kept.tolist() == [True, False, False] and len(solves) == 2
    assert xs.flags.c_contiguous and np.array_equal(xs[0], c[0])
    monkeypatch.undo()
    for b in (1, 2):
        assert np.array_equal(xs[b], _dense_xstep(W[b : b + 1], G[b : b + 1], X[b : b + 1])[0])


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2), (4, 2), (5, 2)])
def test_a_clean_search_takes_no_dense_x_half_step(monkeypatch, d, k):
    # a clean restart keeps X_0 at its first X half-step, where the defect
    # vanishes, and the window of draws there passes: no dense eigh solves
    # for an eigenvector; the counters and verdict string are those of the
    # dense route
    Phi = lambda_minus(QuantumMap.identity(d), bound_lambda_minus(d, k) - 0.02)
    budget = SearchBudget(restarts=3, max_iters=100, seed=1)
    solves = _count_solves(monkeypatch, k * d * d)
    res = falsify_ks(Phi, k, budget)
    monkeypatch.undo()
    _dense_only(monkeypatch)
    dense_solves = _count_solves(monkeypatch, k * d * d)
    dense = falsify_ks(Phi, k, budget)
    assert solves == [] and len(dense_solves) >= 20
    assert res.verdict == dense.verdict == "NoViolationFound"
    assert res.budget_used == dense.budget_used
    assert abs(res.worst_value - dense.worst_value) < 1e-14


def _ks_component(d):
    return decompose_lambda_plus_T(d, 0.25).phi1


# the KS part of Lambda^+_0.25(T), searched at k = 1, restarts 4 and 8: the
# verdict and counters before the certificate, when every X half-step took
# the dense eigh, since the form has null vectors besides the block
# identity rows and the plateau test never passed
KS_COMPONENT_RUNS = {
    (2, 4): {"restarts": 4, "iterations": 44, "defect_evals": 48},
    (2, 8): {"restarts": 8, "iterations": 88, "defect_evals": 96},
    (3, 4): {"restarts": 4, "iterations": 44, "defect_evals": 48},
    (3, 8): {"restarts": 8, "iterations": 88, "defect_evals": 96},
    (4, 4): {"restarts": 4, "iterations": 44, "defect_evals": 48},
    (4, 8): {"restarts": 8, "iterations": 88, "defect_evals": 96},
}


@pytest.mark.parametrize("d,restarts", list(KS_COMPONENT_RUNS))
def test_the_ks_component_at_its_threshold_takes_at_most_one_dense_step_a_restart(monkeypatch, d, restarts):
    # its forms have d zero eigenvalues, not only the block identity row's,
    # and X_0 passes the certificate there
    budget = SearchBudget(restarts=restarts, max_iters=200 if restarts == 8 else 100, seed=0 if restarts == 8 else 2)
    solves = _count_solves(monkeypatch, d * d)
    res = falsify_ks(_ks_component(d), 1, budget)
    assert len(solves) <= restarts
    assert res.verdict == "NoViolationFound" and res.budget_used == KS_COMPONENT_RUNS[d, restarts]
    assert abs(res.worst_value) < 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", ["reduction", "lambda-minus-3-2", "lambda-minus-4-2"])
def test_a_descending_member_tests_no_candidate(monkeypatch, case, seed):
    # violated restarts of 11 to 49 iterations test X_0 at their first X
    # half-step, refused, and their own X once, where they have stalled and
    # it is kept: no step of their descent pays for a certificate
    Phi, k = {
        "reduction": (reduction(2, 0.7), 1),
        "lambda-minus-3-2": (lambda_minus(QuantumMap.identity(3), bound_lambda_minus(3, 2) + 0.005), 2),
        "lambda-minus-4-2": (lambda_minus(QuantumMap.identity(4), bound_lambda_minus(4, 2) + 0.05), 2),
    }[case]
    calls = _tests(monkeypatch)
    res = falsify_ks(Phi, k, SearchBudget(restarts=1, max_iters=300, seed=seed))
    assert res.violated and res.budget_used["iterations"] >= 11
    assert calls == [("_ks_xstep", 1, 0), ("certified", 1, 1)]


@pytest.mark.parametrize("Phi,k", [
    (lambda_minus(QuantumMap.identity(3), bound_lambda_minus(3, 2) + 0.005), 2),
    (_non_unital_map(3, *NON_UNITAL[3, 2][0]), 2),
    (reduction(2, 0.7), 1),
])
def test_only_a_restarts_first_x_half_step_gets_a_candidate(monkeypatch, Phi, k):
    # a violated search of one stage and a clean one of two: the first X
    # half-step of each stage tests X_0 for every member, as C-contiguous
    # rows, and no later one gets a candidate, as only the window tests a
    # restart's own X
    events = []
    xstep, restart = certify._ks_xstep, certify._alternating_restart

    def spied_xstep(W, G, X, c):
        x0 = np.tile(_block_identity_row(Phi.d, k), (len(W), 1))
        events.append(None if c is None else c.flags.c_contiguous and np.array_equal(c, x0))
        return xstep(W, G, X, c)

    def spied_restart(*args):
        events.append("stage")
        return restart(*args)

    monkeypatch.setattr(certify, "_ks_xstep", spied_xstep)
    monkeypatch.setattr(certify, "_alternating_restart", spied_restart)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-unital warning
        res = falsify_ks(Phi, k, SearchBudget(restarts=6, max_iters=80, seed=7))
    stages = []
    for event in events:
        if event == "stage":
            stages.append([])
        else:
            stages[-1].append(event)
    assert len(stages) == (1 if res.violated else 2)
    assert all(s[0] is True and len(s) > 1 and all(c is None for c in s[1:]) for s in stages)


def _subunital_lambda_plus(a):
    # 0.7 Lambda^+_a(Psi), Psi = sample_utp_cp(3, seed=4): Phi(1) = 0.7 I, so
    # not unital, and not CP at a = 1.4 and 2.0, nor co-CP at a = 2.0
    return QuantumMap(0.7 * lambda_plus(sample_utp_cp(3, seed=4), a).transfer)


@pytest.mark.parametrize("a", [1.4, 2.0])
def test_the_certificate_runs_on_a_map_that_is_not_unital(monkeypatch, a):
    # X_0 is no bottom vector of these forms and is refused, but each
    # restart ends at a fixed point whose window keeps its own X, with no
    # eigh; the KS and co-KS searches are the oracle's bit for bit
    Phi = _subunital_lambda_plus(a)
    assert not Phi.unital
    budget = SearchBudget(restarts=3, max_iters=100, seed=0)
    calls = _tests(monkeypatch)
    searched = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the non-unital warning
        for search, oracle in ((partial(falsify_ks, k=1), Phi), (falsify_co_ks, _tau(Phi))):
            calls.clear()
            res = search(Phi, budget=budget)
            if calls:  # co-KS at a = 1.4 is decided
                assert calls[0][::2] == ("_ks_xstep", 0)
                assert sum(kept for site, _, kept in calls if site == "certified") == res.budget_used["restarts"]
                searched.append((res, oracle))
    monkeypatch.undo()
    assert len(searched) == (2 if a == 2.0 else 1)
    for res, oracle in searched:
        assert _bytes(res) == _bytes(_solo_ks(oracle, 1, budget))


def test_a_refused_stack_is_tested_member_by_member():
    # numpy refuses the whole stack for its one member that does not
    # factor (a map that is not KS, whose form has a negative eigenvalue
    # below X_0's value 0); the other members still pass, each as it does
    # alone
    base = sample_utp_cp(3, seed=4)
    maps = [base, lambda_plus(base, 11), sample_utp_cp(3, seed=5)]
    T3 = np.stack([_base_t3(Phi) for Phi in maps])
    v = np.stack([_unit(ginibre(np.random.default_rng(b), 3, 1)[:, 0]) for b in range(3)])
    M = _qform(*_ks_parts(T3, v))
    c = np.tile(_block_identity_row(3, 1), (3, 1))
    assert _certified(M.copy(), c).tolist() == [True, False, True]
    assert [_certified(M[b : b + 1].copy(), c[b : b + 1])[0] for b in range(3)] == [True, False, True]
    assert [_solo_certified(M[b], c[b]) for b in range(3)] == [True, False, True]


def test_falsify_ks_at_form_side_50_brackets_lambda_minus_bound():
    # (d, k) = (5, 2): k < d, so falsify_ks searches, with X half-step forms
    # of side n d = 50
    d, k = 5, 2
    bound = d / (k * d + 1)
    budget = SearchBudget(restarts=2, max_iters=200, seed=3)
    clean = falsify_ks(lambda_minus(QuantumMap.identity(d), bound - 0.02), k, budget)
    assert clean.verdict == "NoViolationFound"
    Phi = lambda_minus(QuantumMap.identity(d), bound + 0.05)
    runs = [falsify_ks(Phi, k, budget) for _ in range(2)]
    res = runs[0]
    assert res.violated  # reaching the verdict means the witness recheck passed
    assert min_eigenvalue(amplified_ks_defect(Phi, k, res.witness)) <= res.worst_value + 1e-8
    first, second = (json.dumps(verdict_to_json(r), sort_keys=True) for r in runs)
    assert first == second


def _drifting_search(drift):
    # a defect whose value moves by `drift` on every evaluation, so the
    # final re-evaluation of the witness disagrees with the search by drift
    calls = []

    def defect(X):
        calls.append(X)
        return -(1.0 + drift * len(calls)) * np.broadcast_to(np.eye(2, dtype=complex), X.shape)

    def xstep(v, X, first):
        # X = E_00, from the bottom eigenvector eigh gives for M_v = I
        return np.eye(4)[np.zeros(len(v), dtype=int)].reshape(-1, 2, 2), np.zeros(len(v), dtype=bool)

    budget = SearchBudget(restarts=2, max_iters=5, seed=0)
    return _falsify(
        partial(_alternating_restart, defect, xstep, _refuse_all, 2, budget),
        [partial(_min_eig_value, defect)],
        partial(BlockOperator, 1, 2),
        [budget],
    )[0]


def test_witness_recheck_passes_when_reproducible():
    res = _drifting_search(0.0)
    assert res.violated and res.worst_value == -1.0


def test_witness_recheck_mismatch_raises():
    with pytest.raises(WitnessRecheckError):
        _drifting_search(0.01)


def _drifting_kpos_search(drift):
    # the 2-positivity search of the transposition at d = 2, whose witness
    # re-checks `drift` away from the value the search reported
    C = hermitianize(transpose_map(2).choi())
    budget = SearchBudget(restarts=2, max_iters=50, seed=0)
    return _falsify(
        partial(_kpos_restart, C.reshape(2, 2, 2, 2), 2, budget),
        [lambda w: _schmidt_value(C, w) + drift],
        lambda w: w,
        [budget],
    )[0]


def test_kpos_witness_recheck():
    assert _drifting_kpos_search(0.0).violated
    with pytest.raises(WitnessRecheckError):
        _drifting_kpos_search(0.01)


def test_witness_recheck_survives_python_O():
    # the recheck is an explicit raise, not an assert that -O would strip
    code = (
        "import sys\n"
        "from test_certify import _drifting_kpos_search\n"
        "from kslab.certify import WitnessRecheckError\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(3)\n"
        "try:\n"
        "    _drifting_kpos_search(0.01)\n"
        "except WitnessRecheckError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    path = [str(Path(kslab.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


# -- scans and sampled properties -------------------------------------------


def test_scan_threshold_brackets_bound():
    scan = scan_threshold(
        "lambda-minus", 2, 1, 0.6, 0.72, 0.02, SearchBudget(restarts=8, max_iters=200, seed=0)
    )
    assert scan.paper_bound == pytest.approx(2 / 3)
    assert scan.a_certified_ks == pytest.approx(0.66)
    assert scan.a_first_violation == pytest.approx(0.68)
    assert [p.a for p in scan.points] == sorted(p.a for p in scan.points)


def test_scan_threshold_descending():
    scan = scan_threshold(
        "lambda-minus", 2, 1, 0.6, 0.72, 0.02,
        SearchBudget(restarts=8, max_iters=200, seed=0), direction="descending",
    )
    assert scan.direction == "descending"
    # scanned from above: every point down to the bound is violated
    assert scan.a_first_violation == pytest.approx(0.72)


def _scan_loop(family, d, k, a_min, a_max, grid_step, budget, base=None, direction="ascending"):
    """The per-point oracle for scan_threshold: falsify_ks at each grid
    point with its derived seed, one point after another; returns the
    ScanResult and the verdicts."""
    n_pts = int(round((a_max - a_min) / grid_step)) + 1
    grid = [a_min + i * grid_step for i in range(n_pts) if a_min + i * grid_step <= a_max + 1e-12]
    grid = grid[::-1] if direction == "descending" else grid
    out = certify.ScanResult(family, d, k, direction, None, None, paper_bound_for(family, d, k), grid_step)
    verdicts = []
    for idx, a in enumerate(grid):
        res = falsify_ks(build_family(family, d, a=a, base=base), k,
                         replace(budget, seed=_derive_seed(budget.seed, idx)))
        verdicts.append(res)
        out.points.append(certify.ScanPoint(a=a, verdict=res.verdict, worst_value=res.worst_value))
        if res.violated:
            out.a_first_violation = out.a_first_violation if out.a_first_violation is not None else a
        elif out.a_first_violation is None:
            out.a_certified_ks = a
    return out, verdicts


@pytest.mark.parametrize("family,d,k,a_min,a_max,step,restarts,base,direction", [
    # Lambda^-(id) across its bound, 2/3 and 3/7
    ("lambda-minus", 2, 1, 0.6, 0.72, 0.02, 6, None, "ascending"),
    ("lambda-minus", 3, 2, 0.40, 0.46, 0.02, 4, None, "ascending"),
    # Lambda^+(T) from a = 1 down: CP, hence decided, from a = d/(d+1) up
    ("lambda-plus", 3, 1, 0.52, 1.0, 0.08, 6, "transpose", "descending"),
    # one restart a point, so the second stage is empty
    ("lambda-minus", 3, 1, 0.70, 0.80, 0.025, 1, "random-utp", "ascending"),
])
def test_stacked_scan_equals_the_per_point_loop(family, d, k, a_min, a_max, step, restarts, base, direction):
    base = {None: None, "transpose": transpose_map(d), "random-utp": sample_utp_cp(d, seed=5)}[base]
    budget = SearchBudget(restarts=restarts, max_iters=150, seed=3)
    scan = scan_threshold(family, d, k, a_min, a_max, step, budget, base=base, direction=direction)
    loop, verdicts = _scan_loop(family, d, k, a_min, a_max, step, budget, base=base, direction=direction)
    assert scan == loop
    assert json.dumps(scan_to_json(scan)) == json.dumps(scan_to_json(loop))
    # the decision the scan makes, verdict by verdict
    maps = [build_family(family, d, a=p.a, base=base) for p in scan.points]
    budgets = [replace(budget, seed=_derive_seed(budget.seed, i)) for i in range(len(maps))]
    decided = certify._ks_decide([M.transfer for M in maps], [M.unital for M in maps], k, budgets)
    assert [_bytes(v) for v in decided] == [_bytes(v) for v in verdicts]
    searched = [v.budget_used != {"restarts": 1, "iterations": 1, "defect_evals": int(v.violated)}
                for v in verdicts]
    assert sum(searched) >= 2  # a stack of more than one point
    if family == "lambda-plus":
        assert not all(searched)  # decided and searched points mixed
    if restarts > 1:
        assert any(v.budget_used["restarts"] > 1 for v in verdicts)  # the second stage ran


def test_scan_stacks_its_searched_points_in_chunks(monkeypatch):
    # seven searched Lambda^-(id) points, two to a stack: no stack holds more
    # than 2 (R - 1) members, and the scan is still the per-point loop
    stacks = []

    def counted(defect, xstep, certified, n, budget, rngs, *maps):
        stacks.append(len(rngs))
        return _alternating_restart(defect, xstep, certified, n, budget, rngs, *maps)

    monkeypatch.setattr(certify, "STACK_SEARCHES", 2)
    monkeypatch.setattr(certify, "_alternating_restart", counted)
    budget = SearchBudget(restarts=3, max_iters=60, seed=4)
    scan = scan_threshold("lambda-minus", 2, 1, 0.6, 0.72, 0.02, budget)
    monkeypatch.undo()
    assert len(scan.points) == 7
    assert 4 <= len(stacks) and max(stacks) <= 2 * (budget.restarts - 1)
    assert scan == _scan_loop("lambda-minus", 2, 1, 0.6, 0.72, 0.02, budget)[0]


def test_a_window_stack_holds_at_most_the_live_members_or_a_stall_window(monkeypatch):
    # the 9-point (3, 2) scan of Lambda^-(id) at 16 restarts: its second
    # stage runs the windows of the clean restarts of its clean points together,
    # with windows of up to STALL_WINDOW forms each; no stack of forms holds
    # more than max(live members, STALL_WINDOW), the live members being at
    # most those of the last defect evaluation
    live, stacks = [], []
    vectors = certify._min_eig_vectors

    def counted_vectors(D, rngs):
        live.append(len(rngs))
        return vectors(D, rngs)

    monkeypatch.setattr(certify, "_min_eig_vectors", counted_vectors)
    restart = certify._alternating_restart

    def spy(defect, xstep, certified, *args):
        def tested(vs, X, T):
            # a window follows a defect evaluation, so len(live) tells the
            # stacks of one step's windows apart from the next one's
            stacks.append((len(vs), live[-1], len(live)))
            return certified(vs, X, T)

        return restart(defect, xstep, tested, *args)

    monkeypatch.setattr(certify, "_alternating_restart", spy)
    bound = bound_lambda_minus(3, 2)
    scan = scan_threshold("lambda-minus", 3, 2, bound - 0.03, bound + 0.05, 0.01, SearchBudget(16, 200, 0))
    assert len(scan.points) == 9 and stacks
    assert len({ff for *_, ff in stacks}) < len(stacks)  # one step's windows split into stacks
    assert all(size <= max(members, STALL_WINDOW) for size, members, _ in stacks)


@pytest.mark.parametrize("d,k", [(3, 1), (3, 2), (4, 2)])
def test_lambda_minus_identity_closed_form_witness(d, k):
    # X = e_{kd} psi*, psi the unit maximally entangled vector on the first k
    # levels of C^k (x) C^d, is a sharp witness above the bound d/(kd + 1):
    # the value a restart reaches only by running on to its stall
    n = k * d
    psi = np.zeros(n)
    psi[np.arange(k) * (d + 1)] = 1 / np.sqrt(k)
    X = np.zeros((n, n))
    X[n - 1] = psi
    bound = bound_lambda_minus(d, k)
    budget = SearchBudget(restarts=4, max_iters=300, seed=1)
    scan = scan_threshold("lambda-minus", d, k, bound + 0.01, bound + 0.05, 0.04, budget)
    assert len(scan.points) == 2
    for p in scan.points:
        Phi = lambda_minus(QuantumMap.identity(d), p.a)
        value = min_eigenvalue(amplified_ks_defect(Phi, k, X))
        assert value < 0
        assert abs(falsify_ks(Phi, k, budget).worst_value - value) <= 1e-8
        assert p.verdict == "Violated" and abs(p.worst_value - value) <= 1e-8


def test_scan_threshold_validation():
    b = SearchBudget(restarts=2, max_iters=20, seed=0)
    with pytest.raises(ParameterDomainError):
        scan_threshold("lambda-minus", 2, 1, 0.7, 0.6, 0.01, b)
    # a non-finite end or step is refused before the grid is sized
    for a_min, a_max, step in [(0.1, np.inf, 0.1), (np.nan, 0.5, 0.1), (-np.inf, 0.5, 0.1),
                               (0.1, 0.5, np.nan), (0.1, 0.5, np.inf)]:
        with pytest.raises(ParameterDomainError, match="finite"):
            scan_threshold("lambda-minus", 2, 1, a_min, a_max, step, b)
    with pytest.raises(ValueError, match="direction"):
        scan_threshold("lambda-minus", 2, 1, 0.6, 0.7, 0.05, b, direction="sideways")


def test_paper_bound_for_unknown_family():
    with pytest.raises(ParameterDomainError):
        paper_bound_for("delta", 2, 1)


@pytest.mark.parametrize("family,d,k", [("delta", 3, 1), ("lambda-minus", 2, 3)])
def test_scan_threshold_without_a_bound_runs_no_falsifier(monkeypatch, family, d, k):
    # the bound is computed before the grid, so these fail at once
    calls = []
    monkeypatch.setattr(certify, "_ks_decide", lambda *args: calls.append(args))
    with pytest.raises(ParameterDomainError):
        scan_threshold(family, d, k, 0.1, 0.5, 0.1, FAST)
    assert calls == []


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(restarts=0)
    with pytest.raises(ValueError, match="max_iters"):
        SearchBudget(max_iters=0)
    with pytest.raises(ValueError, match="seed"):
        SearchBudget(seed=-1)
    with pytest.raises(ValueError):
        SearchBudget(violation_tol=0)
    with pytest.raises(ValueError):
        SearchBudget(violation_tol=float("nan"))


@pytest.mark.parametrize("field", ["restarts", "max_iters", "seed"])
def test_budget_counts_and_seed_are_integers(field):
    # max_iters = 2.5 would reach range() deep inside a search, and a decided
    # verdict would record seed 2.5; a numpy integer is taken, as an int, so
    # that the verdict's seed serializes
    for value in (2.5, 2.0, np.float64(2), True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchBudget(**{field: value})
    value = getattr(SearchBudget(**{field: np.int64(2)}), field)
    assert value == 2 and type(value) is int
