import numpy as np
import pytest

from kslab import linalg
from kslab.linalg import (
    HermiticityError,
    _derive_seed,
    blocks,
    dagger,
    from_blocks,
    ginibre,
    haar_isometry,
    hermitianize,
    hs_norm,
    is_psd,
    min_eigenvalue,
    partial_trace_second,
    spectral_decomposition,
    unit_ginibre,
    unvec,
    vec,
)

rng = np.random.default_rng(1234)


def test_vec_is_column_stacking():
    X = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vec(X), [1, 3, 2, 4])


def test_unvec_inverts_vec():
    X = ginibre(rng, 5)
    assert np.array_equal(unvec(vec(X), 5), X)


def test_vec_kron_identity():
    # vec(A X B) = (B^T (x) A) vec(X), the defining property of col-vec
    A, X, B = (ginibre(rng, 4) for _ in range(3))
    assert np.allclose(np.kron(B.T, A) @ vec(X), vec(A @ X @ B))


def test_hs_norm_matches_inner():
    A = ginibre(rng, 6)
    assert abs(hs_norm(A) ** 2 - np.vdot(A, A).real) < 1e-9


@pytest.mark.parametrize("k,d", [(1, 2), (2, 2), (2, 3), (3, 4)])
def test_partial_trace_of_kron(k, d):
    M = ginibre(rng, k)
    Y = ginibre(rng, d)
    assert np.allclose(partial_trace_second(np.kron(M, Y), k, d), M * np.trace(Y))


def test_partial_trace_linear():
    k, d = 2, 3
    X, Y = ginibre(rng, k * d), ginibre(rng, k * d)
    a, b = 1.7, -0.3 + 2j
    lhs = partial_trace_second(a * X + b * Y, k, d)
    rhs = a * partial_trace_second(X, k, d) + b * partial_trace_second(Y, k, d)
    assert hs_norm(lhs - rhs) < 1e-12


def test_partial_trace_preserves_trace():
    X = ginibre(rng, 6)
    assert abs(np.trace(partial_trace_second(X, 2, 3)) - np.trace(X)) < 1e-12


def test_partial_trace_dimension_check():
    with pytest.raises(ValueError):
        partial_trace_second(np.eye(5), 2, 3)


def test_blocks_round_trip():
    X = ginibre(rng, 6)
    B = blocks(X, 2, 3)
    assert B.shape == (2, 2, 3, 3)
    assert np.array_equal(B[0, 1], X[0:3, 3:6])
    assert np.array_equal(from_blocks(B), X)


def test_from_blocks_rejects_non_square_block_grid():
    with pytest.raises(ValueError, match="not \\(k, k, d, d\\)"):
        from_blocks(np.zeros((2, 3, 2, 2)))


def test_spectral_reconstruction_bulk():
    # 1000 random Hermitians up to size 12, residual must stay tiny
    worst = 0.0
    for i in range(1000):
        n = 2 + i % 11
        H = hermitianize(ginibre(rng, n))
        w, U = spectral_decomposition(H)
        worst = max(worst, hs_norm((U * w) @ dagger(U) - H))
        assert np.all(np.diff(w) >= 0)
    assert worst < 1e-12 * 12


def test_spectral_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        spectral_decomposition(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermiticity_error_is_diagnostic():
    with pytest.raises(HermiticityError, match="HS"):
        min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))
    # a single matrix is checked as a one-member stack, and named as a matrix
    with pytest.raises(HermiticityError, match="^matrix is not Hermitian"):
        min_eigenvalue(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(HermiticityError, match="^stack member 0 "):
        min_eigenvalue(np.array([[[0, 1], [0, 0]]], dtype=complex))


def test_min_eigenvalue_and_psd():
    H = np.diag([3.0, -0.5, 1.0])
    assert min_eigenvalue(H) == -0.5
    assert not is_psd(H)
    assert is_psd(H + 0.5 * np.eye(3))
    assert is_psd(np.diag([1.0, -1e-10]))  # inside the default slack


def test_min_eigenvalue_of_a_stack_is_the_smallest_over_members():
    S = np.array([hermitianize(ginibre(rng, 3)) for _ in range(5)])
    assert min_eigenvalue(S) == min(min_eigenvalue(H) for H in S)
    P = np.array([np.diag([1.0, 2.0]), np.diag([0.5, -0.1]), np.eye(2)])
    assert not is_psd(P)
    P[1] = np.diag([0.5, 0.1])
    assert is_psd(P)


def test_stack_hermiticity_is_checked_per_member():
    # the large member's norm must not set the tolerance of the small one:
    # against the whole stack's norm the small member's defect would pass
    big = 1e6 * hermitianize(ginibre(rng, 3))
    small = hermitianize(ginibre(rng, 3)) + 1e-6 * ginibre(rng, 3)
    stack = np.array([big, small, big])
    assert hs_norm(small - dagger(small)) <= 1e-10 * hs_norm(stack)
    with pytest.raises(HermiticityError, match="stack member 1 "):
        min_eigenvalue(stack)
    with pytest.raises(HermiticityError, match="stack member 1 "):
        is_psd(stack)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_unit_ginibre_matches_successive_draws(d):
    # bit for bit the draws and the HS normalization of a ginibre loop,
    # leaving the generator in the same state
    a, b = np.random.default_rng(d), np.random.default_rng(d)
    loop = []
    for _ in range(60):
        X = ginibre(b, d)
        X /= hs_norm(X)
        loop.append(X)
    assert np.array_equal(unit_ginibre(a, 60, d), np.array(loop))
    assert a.standard_normal() == b.standard_normal()


def test_hermitianize_fixed_point():
    H = hermitianize(ginibre(rng, 4))
    assert np.array_equal(hermitianize(H), H)


def test_haar_unitary():
    U = haar_isometry(rng, 5, 5)
    assert hs_norm(dagger(U) @ U - np.eye(5)) < 1e-12


def test_haar_isometry():
    V = haar_isometry(rng, 8, 3)
    assert V.shape == (8, 3)
    assert hs_norm(dagger(V) @ V - np.eye(3)) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_rng_at_key_i_is_child_i_of_spawn(seed):
    # the seeding contract of the restart driver: restart i draws from
    # rng(seed, i), which must be child i of SeedSequence(seed).spawn(n)
    children = np.random.SeedSequence(seed).spawn(33)
    for i, child in enumerate(children):
        ours, spawned = linalg.rng(seed, i), np.random.default_rng(child)
        assert np.array_equal(ours.standard_normal(16), spawned.standard_normal(16))
        assert ours.integers(2**63) == spawned.integers(2**63)
    # no key: the generator of SeedSequence(seed) itself
    assert linalg.rng(seed).random() == np.random.default_rng(np.random.SeedSequence(seed)).random()


@pytest.mark.parametrize(
    "key,expected",
    [
        ((0,), 2968811710),
        ((0, 1, 2, 1), 2709045137),
        ((7, 8, 3, 90), 1025874372),
        ((123456789, 5, 0, 1), 1644504601),
        ((2**40 + 3, 97), 1445087843),
    ],
)
def test_derive_seed_is_unchanged(key, expected):
    # pinned values: every scan point, sampled map and suite criterion takes
    # its seed from here, so a change would move every verdict
    assert _derive_seed(*key) == expected
    seed, *spawn_key = key
    assert expected == int(np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(1)[0])
