import numpy as np
import pytest

from kslab import maps
from kslab.linalg import dagger, ginibre, hs_norm, partial_trace_second, vec
from kslab.maps import STRUCT_TOL, AmplifiedMap, BlockOperator, QuantumMap, mix
from kslab.zoo import depolarizing, lambda_plus, reduction, sample_utp_cp, transpose_map

rng = np.random.default_rng(99)


def test_identity_map():
    I2 = QuantumMap.identity(3)
    X = ginibre(rng, 3)
    assert np.allclose(I2(X), X)
    assert I2.unital and I2.trace_preserving and I2.hermiticity_preserving


def test_transfer_shape_validation():
    # shape and finiteness are checked at construction, not on a flag read
    with pytest.raises(ValueError):
        QuantumMap(np.eye(5))
    with pytest.raises(ValueError):
        QuantumMap(np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        QuantumMap(np.diag([1, np.inf, 1, 1]))


@pytest.mark.parametrize("build", [
    lambda: QuantumMap(np.zeros((0, 0))),
    lambda: QuantumMap(np.float64(1.0)),
    lambda: QuantumMap.from_choi(np.zeros((0, 0))),
    lambda: QuantumMap.from_choi(np.float64(1.0)),
    lambda: QuantumMap.from_kraus([]),
])
def test_a_map_of_side_0_or_no_kraus_operator_is_refused(build):
    # a map on B(H_0) is no map kslab can search, and an empty Kraus sum has
    # no side: each is a ValueError, not a d = 0 map or an IndexError
    with pytest.raises(ValueError, match="d >= 1|at least one operator"):
        build()


def test_map_owns_a_read_only_transfer_matrix():
    T = np.eye(4, dtype=complex)
    P = QuantumMap(T)
    T[0, 0] = 5
    assert P.transfer[0, 0] == 1
    assert P.unital and P.trace_preserving and P.hermiticity_preserving
    with pytest.raises(ValueError):
        P.transfer[0, 0] = 5


def test_call_takes_one_matrix():
    # __call__ goes through apply_amplified(X, 1), which would take a stack
    Phi = QuantumMap.identity(2)
    X = ginibre(np.random.default_rng(5), 2)
    assert np.array_equal(Phi(X), Phi.apply_amplified(X, 1))
    with pytest.raises(ValueError, match="operand shape"):
        Phi(np.stack([X, X]))


def _eager_flags(T):
    # the structural flags as once computed in QuantumMap.__init__
    d = int(round(np.sqrt(len(T))))
    I = np.eye(d)
    P = QuantumMap(T)
    C = P.choi()
    return (
        hs_norm(P(I) - I) <= STRUCT_TOL,
        np.linalg.norm(dagger(T) @ vec(I) - vec(I)) <= STRUCT_TOL,
        hs_norm(C - dagger(C)) <= STRUCT_TOL * max(hs_norm(C), 1.0),
    )


def test_structural_flags():
    D = depolarizing(2)
    assert D.unital and D.trace_preserving
    # trace-killing map: X -> <0|X|0> E_00, unital fails
    T = np.zeros((4, 4))
    T[0, 0] = 1
    M = QuantumMap(T)
    assert not M.unital
    assert not M.trace_preserving
    H = ginibre(rng, 9)
    for P, want in [
        (QuantumMap.identity(3), (True, True, True)),
        (transpose_map(3), (True, True, True)),
        (depolarizing(3), (True, True, True)),
        (reduction(3, 0.7), (True, True, True)),
        (sample_utp_cp(3, seed=4), (True, True, True)),
        (QuantumMap.from_choi(H + dagger(H)), (False, False, True)),
        (QuantumMap(ginibre(rng, 9)), (False, False, False)),
        (M, (False, False, True)),
    ]:
        flags = (P.unital, P.trace_preserving, P.hermiticity_preserving)
        assert flags == _eager_flags(P.transfer) == want, P.label


def test_flags_are_computed_on_first_read_and_once(monkeypatch):
    T = sample_utp_cp(2, seed=1).transfer
    calls = []
    for name in ("hs_norm", "dagger"):
        fn = getattr(maps, name)
        monkeypatch.setattr(maps, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    choi = QuantumMap.choi
    monkeypatch.setattr(QuantumMap, "choi", lambda self: calls.append("choi") or choi(self))
    P = QuantumMap(T)
    assert calls == []
    seen = []
    for flag in ("unital", "trace_preserving", "hermiticity_preserving"):
        assert getattr(P, flag)
        seen.append(len(calls))
        assert getattr(P, flag) and len(calls) == seen[-1]
    assert seen == [2, 3, 6]  # hs_norm of T and of the residual; dagger; choi, dagger and hs_norm


def test_flag_bound_scales_with_the_map():
    # a residual of 10 * STRUCT_TOL in Phi(I) and in T* vec(I) is within
    # STRUCT_TOL * ||T||_HS far out on the Lambda line, and not for Delta,
    # whose ||T||_HS is 1
    E = np.zeros((4, 4))
    E[0, 0] = 10 * STRUCT_TOL
    far = lambda_plus(QuantumMap.identity(2), 1e3).transfer
    near = depolarizing(2).transfer
    assert hs_norm(far) > 1e3 and hs_norm(near) <= 1
    for T, want in ((far, True), (near, False)):
        P = QuantumMap(T + E)
        assert hs_norm(P(np.eye(2)) - np.eye(2)) == pytest.approx(10 * STRUCT_TOL)
        assert (P.unital, P.trace_preserving, P.hermiticity_preserving) == (want, want, True)


def test_choi_of_known_maps():
    # Choi of the identity is the unnormalized maximally entangled projector
    C_id = QuantumMap.identity(2).choi()
    w = np.linalg.eigvalsh(C_id)
    assert np.allclose(w, [0, 0, 0, 2])
    # Choi of transposition is the SWAP operator
    C_T = transpose_map(2).choi()
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert np.allclose(C_T, swap)


def test_choi_round_trip():
    Phi = sample_utp_cp(3, seed=5)
    back = QuantumMap.from_choi(Phi.choi())
    assert hs_norm(back.transfer - Phi.transfer) < 1e-12


def test_choi_reshuffle_is_its_own_inverse():
    # maps.choi only permutes entries, so both directions are bit-exact
    T = sample_utp_cp(3, seed=5).transfer
    assert maps.choi(maps.choi(T)).tobytes() == T.tobytes()
    C = ginibre(rng, 9)
    assert QuantumMap.from_choi(C).choi().tobytes() == C.tobytes()


def test_kraus_round_trip():
    Phi = sample_utp_cp(2, seed=11)
    ops = Phi.kraus()
    back = QuantumMap.from_kraus(ops)
    assert hs_norm(back.transfer - Phi.transfer) < 1e-12
    # completeness: sum K* K = I for a TP map
    assert hs_norm(sum(dagger(K) @ K for K in ops) - np.eye(2)) < 1e-10


def test_kraus_rejects_non_cp():
    with pytest.raises(ValueError, match="completely positive"):
        transpose_map(2).kraus()


def test_dual_is_hs_adjoint():
    Phi = sample_utp_cp(3, seed=2)
    dual = Phi.dual()
    A, B = ginibre(rng, 3), ginibre(rng, 3)
    assert abs(np.vdot(dual(A), B) - np.vdot(A, Phi(B))) < 1e-10


def test_hs_norm_is_spectral_and_submultiplicative():
    for seed in range(5):
        Phi = sample_utp_cp(2, seed=seed)
        Psi = sample_utp_cp(2, seed=seed + 50)
        assert Phi.compose(Psi).hs_norm() <= Phi.hs_norm() * Psi.hs_norm() + 1e-12
    assert abs(QuantumMap.identity(4).hs_norm() - 1.0) < 1e-12


def test_compose():
    Phi = sample_utp_cp(2, seed=1)
    Psi = sample_utp_cp(2, seed=2)
    X = ginibre(rng, 2)
    assert np.allclose(Phi.compose(Psi)(X), Phi(Psi(X)))


def test_amplified_identity_is_identity():
    Phi = QuantumMap.identity(3)
    X = ginibre(rng, 6)
    assert np.allclose(Phi.apply_amplified(X, 2), X)


def test_amplified_on_kron_factorizes():
    # (id_k (x) Phi)(M (x) Y) = M (x) Phi(Y)
    Phi = sample_utp_cp(3, seed=7)
    M = ginibre(rng, 2)
    Y = ginibre(rng, 3)
    assert np.allclose(Phi.apply_amplified(np.kron(M, Y), 2), np.kron(M, Phi(Y)))


def test_amplified_depolarizing_is_partial_trace():
    d, k = 3, 2
    D = depolarizing(d)
    X = ginibre(rng, k * d)
    expected = np.kron(partial_trace_second(X, k, d), np.eye(d)) / d
    assert np.allclose(D.apply_amplified(X, k), expected)


def test_amplified_transfer_matrix_consistent():
    Phi = sample_utp_cp(2, seed=3)
    T = Phi.amplify(2).transfer_matrix()
    X = ginibre(rng, 4)
    assert np.allclose((T @ X.flatten(order="F")).reshape(4, 4, order="F"), Phi.apply_amplified(X, 2))


@pytest.mark.parametrize("d,k", [(2, 2), (3, 3), (4, 2)])
def test_amplified_transfer_matrix_matches_unit_vectors(d, k):
    # reference: column c*n + r is vec of the image of the matrix unit E_rc
    Phi = QuantumMap(ginibre(rng, d * d))
    n = k * d
    ref = np.empty((n * n, n * n), dtype=complex)
    for c in range(n):
        for r in range(n):
            E = np.zeros((n, n), dtype=complex)
            E[r, c] = 1.0
            ref[:, c * n + r] = Phi.apply_amplified(E, k).flatten(order="F")
    assert np.array_equal(Phi.amplify(k).transfer_matrix(), ref)


def test_amplify_rejects_bad_k():
    with pytest.raises(ValueError):
        AmplifiedMap(QuantumMap.identity(2), 0)


def test_block_operator_validation():
    with pytest.raises(ValueError):
        BlockOperator(k=2, d=2, data=np.eye(3))
    b = BlockOperator(k=2, d=3, data=np.eye(6))
    assert b.k == 2 and b.d == 3


def test_mix_affine():
    D, T = depolarizing(2), transpose_map(2)
    M = mix([(0.3, D), (0.7, T)])
    X = ginibre(rng, 2)
    assert np.allclose(M(X), 0.3 * D(X) + 0.7 * T(X))
    assert M.unital and M.trace_preserving
