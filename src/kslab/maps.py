"""Linear maps on B(H_d): transfer-matrix representation, Choi matrix,
Kraus form, amplification id_k (x) Phi, Hilbert-Schmidt dual and norm.

The canonical internal form is the d^2 x d^2 transfer matrix acting on
column-vectorized operators; Choi and Kraus are conversions. The Choi
matrix uses the unnormalized convention C = sum_ij E_ij (x) Phi(E_ij),
so the Choi of a trace-preserving map has trace d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .linalg import dagger, hs_norm, vec

STRUCT_TOL = 1e-10


@dataclass(frozen=True)
class BlockOperator:
    """Element of M_k(B(H_d)) stored as a kd x kd matrix."""

    k: int
    d: int
    data: np.ndarray

    def __post_init__(self):
        linalg.check_dimensions(self.data, self.k, self.d)


class QuantumMap:
    """A linear map Phi: B(H_d) -> B(H_d) stored as a transfer matrix.

    The map keeps its own read-only copy of the transfer matrix. Its
    structural flags (unital, trace-preserving, hermiticity-preserving) are
    computed from that copy on first read and cached; they are never taken
    on trust from the caller. A map whose flags are never read does not pay
    for them. ``bench/tracer.py`` wraps methods, not cached properties, so a
    flag's first read is timed as self time of the span that reads it.

    One rule decides all three: the HS norm of the residual (Phi(I) - I,
    T* vec(I) - vec(I) or C - C*) is at most STRUCT_TOL * max(||T||_HS, 1),
    with ||C||_HS = ||T||_HS, so a mix scales its residual and the bound alike.
    """

    def __init__(self, transfer: np.ndarray, label: str = ""):
        transfer = np.array(transfer, dtype=complex)
        n = transfer.shape[0] if transfer.ndim else 0
        d = math.isqrt(n)
        if not n or transfer.shape != (n, n) or d * d != n:
            raise ValueError(f"transfer matrix shape {transfer.shape} is not (d^2, d^2), d >= 1")
        if not np.all(np.isfinite(transfer)):
            raise ValueError("transfer matrix contains non-finite entries")
        transfer.flags.writeable = False
        self.transfer = transfer
        self.d = d
        self.label = label

    # -- structural flags ----------------------------------------------

    @cached_property
    def _flag_tol(self) -> float:
        return STRUCT_TOL * max(hs_norm(self.transfer), 1.0)

    @cached_property
    def unital(self) -> bool:
        I = np.eye(self.d)
        return hs_norm(self(I) - I) <= self._flag_tol

    @cached_property
    def trace_preserving(self) -> bool:
        # Tr Phi(X) = <vec(I), T vec(X)>; trace-preserving iff T* vec(I) = vec(I)
        v = vec(np.eye(self.d))
        return np.linalg.norm(dagger(self.transfer) @ v - v) <= self._flag_tol

    @cached_property
    def hermiticity_preserving(self) -> bool:
        C = self.choi()
        return hs_norm(C - dagger(C)) <= self._flag_tol

    # -- evaluation ----------------------------------------------------

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if X.shape != (self.d, self.d):
            raise ValueError(f"operand shape {X.shape} does not match d={self.d}")
        return self.apply_amplified(X, 1)

    def apply_amplified(self, X: np.ndarray, k: int) -> np.ndarray:
        """(id_k (x) Phi)(X) for a kd x kd matrix X, or for each matrix of a
        stack, applied block-wise."""
        return apply_amplified(self.transfer, X, k)

    def amplify(self, k: int) -> "AmplifiedMap":
        return AmplifiedMap(self, k)

    # -- representations ----------------------------------------------

    def choi(self) -> np.ndarray:
        """Unnormalized Choi matrix sum_ij E_ij (x) Phi(E_ij)."""
        return choi(self.transfer)

    @classmethod
    def from_choi(cls, C: np.ndarray, label: str = "") -> "QuantumMap":
        C = np.asarray(C, dtype=complex)
        n = C.shape[0] if C.ndim else 0
        if not n or C.shape != (n, n) or math.isqrt(n) ** 2 != n:
            raise ValueError(f"Choi matrix shape {C.shape} is not (d^2, d^2), d >= 1")
        return cls(choi(C), label=label)

    @classmethod
    def from_kraus(cls, kraus: list[np.ndarray], label: str = "") -> "QuantumMap":
        """Phi(X) = sum_i K_i X K_i*, for at least one K_i."""
        if not len(kraus):
            raise ValueError("a Kraus list needs at least one operator")
        T = sum(np.kron(K.conj(), K) for K in kraus)
        return cls(T, label=label)

    def kraus(self) -> list[np.ndarray]:
        """Kraus operators from the Choi eigenvalues above STRUCT_TOL.

        Requires the map to be CP within tolerance (Choi PSD).
        """
        d = self.d
        C = linalg.hermitianize(self.choi())
        w, U = np.linalg.eigh(C)
        if w[0] < -STRUCT_TOL * max(w[-1], 1.0):
            raise ValueError(
                f"map is not completely positive: Choi eigenvalue {w[0]:.3e}"
            )
        ops = []
        for lam, v in zip(w, U.T):
            if lam > STRUCT_TOL:
                # v[(i, p)] = K[p, i] / sqrt(lam)
                ops.append(np.sqrt(lam) * v.reshape(d, d).T)
        return ops

    @classmethod
    def identity(cls, d: int) -> "QuantumMap":
        return cls(np.eye(d * d), label="identity")

    # -- algebra -------------------------------------------------------

    def dual(self) -> "QuantumMap":
        """Hilbert-Schmidt dual: (Phi*(A), B)_HS = (A, Phi(B))_HS."""
        return QuantumMap(dagger(self.transfer), label=f"dual({self.label})")

    def hs_norm(self) -> float:
        """Operator norm of Phi w.r.t. the HS norm (largest singular value
        of the transfer matrix); Phi is an HS contraction iff <= 1."""
        return float(np.linalg.norm(self.transfer, 2))

    def compose(self, other: "QuantumMap") -> "QuantumMap":
        """Map X -> self(other(X))."""
        if self.d != other.d:
            raise ValueError("cannot compose maps of different dimension")
        return QuantumMap(
            self.transfer @ other.transfer, label=f"{self.label}∘{other.label}"
        )


def choi(T: np.ndarray) -> np.ndarray:
    """The Choi matrix C[(i, p), (j, q)] of the map with transfer matrix
    T[q d + p, j d + i], or back: the reshuffle is its own inverse."""
    d = math.isqrt(len(T))
    return T.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def apply_amplified(T: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """(id_k (x) Phi)(X), block-wise, for the map Phi with d^2 x d^2 transfer
    matrix T and a kd x kd matrix X. T and X may be stacks that broadcast
    against each other, one map per matrix; each member is then one product
    of the shape of the unstacked call, so its bits depend on neither its
    neighbours nor the stack size."""
    d = math.isqrt(T.shape[-1])
    X = np.asarray(X)
    if X.shape[-2:] != (k * d, k * d):
        raise ValueError(f"matrix of shape {X.shape} does not match block structure k={k}, d={d}")
    if k == 1:
        # vec(X) as a column: a matrix-vector product
        Y = T @ X.swapaxes(-1, -2).reshape(-1, d * d, 1)
        return Y.reshape(X.shape).swapaxes(-1, -2)
    # columns of V are vec's of the d x d blocks X_ij
    V = X.reshape(-1, k, d, k, d).transpose(0, 4, 2, 1, 3).reshape(-1, d * d, k * k)
    W = T @ V
    return W.reshape(-1, d, d, k, k).transpose(0, 3, 2, 4, 1).reshape(X.shape)


class AmplifiedMap:
    """id_k (x) Phi acting on M_k(B(H_d)); it is applied by
    ``QuantumMap.apply_amplified``."""

    def __init__(self, base: QuantumMap, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.base = base
        self.k = k
        self.d = base.d

    def transfer_matrix(self) -> np.ndarray:
        """(kd)^2 x (kd)^2 transfer matrix of id_k (x) Phi on column-vectorized
        kd x kd operators."""
        k, d = self.k, self.d
        n = k * d
        I_k = np.eye(k)
        # vec index of a kd x kd operator is (block col, col, block row, row);
        # block (R, C) of the image is Phi of block (R, C) of the input
        T4 = self.base.transfer.reshape(d, d, d, d)
        T8 = np.einsum("ac,bd,xyzw->axbyczdw", I_k, I_k, T4)
        return T8.reshape(n * n, n * n)


def mix(maps_and_weights: list[tuple[float, QuantumMap]], label: str = "") -> QuantumMap:
    """Affine combination sum_i w_i Phi_i."""
    T = sum(w * Phi.transfer for w, Phi in maps_and_weights)
    return QuantumMap(T, label=label)
