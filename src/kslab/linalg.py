"""Dense complex linear algebra substrate: vectorization, partial traces,
Hermitian spectral decompositions and tolerance-aware PSD tests.

Conventions used throughout the package:

* vectorization is column-stacking: ``vec(X)`` lists column 1 first;
* block operators on C^k (x) C^d use the global index ``(block row)*d + row``,
  i.e. the k-factor sits on the left of every Kronecker product.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-10
PSD_TOL = 1e-9


class HermiticityError(ValueError):
    """Input expected to be Hermitian is not, beyond tolerance."""


def vec(X: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(X).flatten(order="F")


def unvec(x: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(x).reshape(d, d, order="F")


def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose A*, of each matrix of a stack."""
    return np.asarray(A).conj().swapaxes(-1, -2)


def hermitianize(A: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A*)/2, of each matrix of a stack."""
    return (A + dagger(A)) / 2


def hs_norm(A: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(A))


def check_dimensions(X: np.ndarray, k: int, d: int) -> None:
    X = np.asarray(X)
    if X.shape != (k * d, k * d):
        raise ValueError(
            f"matrix of shape {X.shape} does not match block structure k={k}, d={d}"
        )


def partial_trace_second(X: np.ndarray, k: int, d: int) -> np.ndarray:
    """Trace out the d-dimensional (right) factor of a kd x kd matrix.

    Entry (i, j) of the result is the trace of the d x d block X_{ij};
    for X = M (x) Y this gives M * Tr(Y).
    """
    check_dimensions(X, k, d)
    return np.trace(np.asarray(X).reshape(k, d, k, d), axis1=1, axis2=3)


def blocks(X: np.ndarray, k: int, d: int) -> np.ndarray:
    """View a kd x kd matrix as a (k, k, d, d) array of blocks."""
    check_dimensions(X, k, d)
    return np.asarray(X).reshape(k, d, k, d).transpose(0, 2, 1, 3)


def from_blocks(B: np.ndarray) -> np.ndarray:
    """Inverse of :func:`blocks`."""
    k, k2, d, d2 = B.shape
    if k != k2 or d != d2:
        raise ValueError(f"block array shape {B.shape} is not (k, k, d, d)")
    return B.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def _require_hermitian(A: np.ndarray) -> np.ndarray:
    """Hermitian part of A, or of each matrix of a stack, after checking that
    each matrix is Hermitian within HERMITICITY_RTOL * max(its own HS norm, 1);
    a single matrix is checked as a one-member stack."""
    A = np.asarray(A)
    D = A - dagger(A)
    # no member's defect exceeds the whole input's, and no bound is below
    # HERMITICITY_RTOL: one norm clears a Hermitian input
    if hs_norm(D) > HERMITICITY_RTOL:
        # per member, so a large member's norm cannot hide a small member's defect
        S, D = (M.reshape(-1, *A.shape[-2:]) for M in (A, D))
        defects = np.linalg.norm(D, axis=(1, 2))
        bounds = HERMITICITY_RTOL * np.maximum(np.linalg.norm(S, axis=(1, 2)), 1.0)
        i = int(np.argmax(defects / bounds))
        if defects[i] > bounds[i]:
            what = "matrix" if A.ndim == 2 else f"stack member {i}"
            raise HermiticityError(
                f"{what} is not Hermitian: ||A - A*||_HS = {defects[i]:.3e} "
                f"exceeds {HERMITICITY_RTOL:.1e} * max(||A||_HS, 1) = {bounds[i]:.3e}"
            )
    return hermitianize(A)


def spectral_decomposition(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a (nearly) Hermitian matrix.

    Returns (eigenvalues ascending, unitary of column eigenvectors) of the
    Hermitianized input.
    """
    return np.linalg.eigh(_require_hermitian(A))


def min_eigenvalue(A: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitianized input; for a stack, the
    smallest over all its matrices.

    Rejects inputs of which any matrix is not Hermitian within tolerance.
    """
    return float(np.linalg.eigvalsh(_require_hermitian(A))[..., 0].min())


def is_psd(A: np.ndarray) -> bool:
    """True iff min_eigenvalue(A) >= -PSD_TOL: for a stack, iff every matrix
    of it is PSD within PSD_TOL."""
    return min_eigenvalue(A) >= -PSD_TOL


def rng(seed: int, *key: int) -> np.random.Generator:
    """Generator of SeedSequence(seed, spawn_key=key), the source of every
    seeded draw; at key (i,) it is child i of SeedSequence(seed).spawn(n)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _derive_seed(seed: int, *key: int) -> int:
    """Child seed of ``seed`` at ``key``: the first word of
    SeedSequence(seed, spawn_key=key). Scan points, sampled maps and the
    suite criteria all take their seeds from here."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    """Complex Ginibre matrix (iid standard complex Gaussian entries)."""
    if cols is None:
        cols = rows
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def unit_ginibre(rng: np.random.Generator, count: int, d: int) -> np.ndarray:
    """Stack of ``count`` d x d complex Ginibre matrices, each scaled to unit
    HS norm. Member i equals the i-th of ``count`` successive
    ``X = ginibre(rng, d); X /= hs_norm(X)`` draws bit for bit."""
    G = rng.standard_normal((count, 2, d, d))
    X = G[:, 0] + 1j * G[:, 1]
    # hs_norm's arithmetic per member, so each quotient matches bit for bit:
    # strided BLAS dots of the real and the imaginary parts (a 1 x n @ n x 1
    # matmul; np.linalg.norm over axes sums in another order), and a complex
    # divisor (numpy divides by a real array in another way)
    re, im = (P.reshape(count, 1, d * d) for P in (X.real, X.imag))
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return X / np.sqrt(sq).astype(complex)


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random isometry V (rows x cols, rows >= cols) with V* V = I."""
    Q, R = np.linalg.qr(ginibre(rng, rows, cols))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
