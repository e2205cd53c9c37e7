"""Reference checker for kslab outputs, written apart from kslab.

Nothing here imports kslab. Maps are given by their d^2 x d^2 transfer
matrix on column-stacked operators (vec(X)[j*d + i] = X[i, j]); the named
families are built from their action on matrix units, so a check does not
reuse the code it checks. A ``Violated`` witness is accepted only when the
defect recomputed here has lambda_min < -tol and agrees with the reported
worst value; every test is an explicit branch, so it also holds under
``python -O``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

AGREE_TOL = 1e-8
VIOLATION_TOL = 1e-9


# -- maps as transfer matrices ----------------------------------------------


def apply(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    d = X.shape[0]
    return (T @ X.reshape(-1, order="F")).reshape(d, d, order="F")


def transfer_from_action(action: Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Column j*d + i of the transfer matrix is vec(action(E_ij))."""
    T = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            T[:, j * d + i] = action(E).reshape(-1, order="F")
    return T


def identity_transfer(d: int) -> np.ndarray:
    return transfer_from_action(lambda X: X, d)


def transpose_transfer(d: int) -> np.ndarray:
    return transfer_from_action(lambda X: X.T, d)


def depolarizing_transfer(d: int) -> np.ndarray:
    return transfer_from_action(lambda X: np.trace(X) * np.eye(d) / d, d)


def reduction_transfer(d: int, a: float) -> np.ndarray:
    """R_a(X) = (Tr(X) I - a X) / (d - a)."""
    return transfer_from_action(lambda X: (np.trace(X) * np.eye(d) - a * X) / (d - a), d)


def lambda_minus_transfer(base: np.ndarray, a: float) -> np.ndarray:
    """(d Delta - a Phi) / (d - a)."""
    d = int(round(np.sqrt(base.shape[0])))
    return transfer_from_action(
        lambda X: (np.trace(X) * np.eye(d) - a * apply(base, X)) / (d - a), d
    )


def lambda_plus_transfer(base: np.ndarray, a: float) -> np.ndarray:
    """a Delta + (1 - a) Phi."""
    d = int(round(np.sqrt(base.shape[0])))
    return transfer_from_action(
        lambda X: a * np.trace(X) * np.eye(d) / d + (1 - a) * apply(base, X), d
    )


def apply_amplified(T: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """(id_k (x) Phi)(X): Phi applied to each d x d block of X."""
    d = X.shape[0] // k
    out = np.empty_like(X, dtype=complex)
    for i in range(k):
        for j in range(k):
            rows, cols = slice(i * d, (i + 1) * d), slice(j * d, (j + 1) * d)
            out[rows, cols] = apply(T, X[rows, cols])
    return out


def choi(T: np.ndarray) -> np.ndarray:
    """Unnormalised Choi matrix sum_ij E_ij (x) Phi(E_ij)."""
    d = int(round(np.sqrt(T.shape[0])))
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            C += np.kron(E, apply(T, E))
    return C


def block_traces(Z: np.ndarray, k: int) -> np.ndarray:
    """k x k matrix of the traces of the d x d blocks of Z (Tr_2)."""
    d = Z.shape[0] // k
    return np.array(
        [[np.trace(Z[i * d : (i + 1) * d, j * d : (j + 1) * d]) for j in range(k)] for i in range(k)]
    )


# -- defects ----------------------------------------------------------------


def ks_defect(T: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    Y = apply_amplified(T, X, k)
    return apply_amplified(T, X.conj().T @ X, k) - Y.conj().T @ Y


def co_ks_defect(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    Y = apply(T, X)
    return apply(T, X.conj().T @ X) - Y @ Y.conj().T


def phi_k_defect(T: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    Y = apply_amplified(T, X, k)
    return block_traces(X.conj().T @ X, k) - block_traces(Y.conj().T @ Y, k)


def lambda_min(H: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((H + H.conj().T) / 2)[0])


def hs_operator_norm(T: np.ndarray) -> float:
    return float(np.linalg.norm(T, 2))


def is_unital(T: np.ndarray, tol: float = 1e-10) -> bool:
    d = int(round(np.sqrt(T.shape[0])))
    return float(np.linalg.norm(apply(T, np.eye(d)) - np.eye(d))) <= tol


def is_trace_preserving(T: np.ndarray, tol: float = 1e-10) -> bool:
    d = int(round(np.sqrt(T.shape[0])))
    ones = np.eye(d).reshape(-1, order="F")
    return float(np.linalg.norm(T.conj().T @ ones - ones)) <= tol


def is_completely_positive(T: np.ndarray, tol: float = 1e-9) -> bool:
    return lambda_min(choi(T)) >= -tol


# -- witness checks -----------------------------------------------------------


def check_value(value: float, worst_value: float, what: str, tol: float = VIOLATION_TOL) -> list[str]:
    """Problems with a recomputed witness value against the reported one."""
    problems = []
    if not value < -tol:
        problems.append(f"{what}: recomputed lambda_min {value:.3e} is not below -{tol:.0e}")
    if not abs(value - worst_value) <= AGREE_TOL:
        problems.append(f"{what}: recomputed {value!r} disagrees with worst_value {worst_value!r}")
    return problems


DEFECTS = {
    "ks": lambda T, X, k: ks_defect(T, X, k),
    "co-ks": lambda T, X, k: co_ks_defect(T, X),
    "phi-k": lambda T, X, k: phi_k_defect(T, X, k),
}


def check_block_witness(
    prop: str, T: np.ndarray, k: int, X: np.ndarray, worst_value: float, tol: float = VIOLATION_TOL
) -> list[str]:
    """A KS / co-KS / phi_k witness X must make the recomputed defect negative."""
    d = int(round(np.sqrt(T.shape[0])))
    if X.shape != (k * d, k * d):
        return [f"{prop}: witness shape {X.shape} is not ({k * d}, {k * d})"]
    return check_value(lambda_min(DEFECTS[prop](T, X, k)), worst_value, prop, tol)


def check_schmidt_witness(
    T: np.ndarray, k: int, u: np.ndarray, v: np.ndarray, worst_value: float, tol: float = VIOLATION_TOL
) -> list[str]:
    """psi = sum_i u_i (x) v_i must have Schmidt rank <= k and <psi|C|psi> < 0."""
    d = int(round(np.sqrt(T.shape[0])))
    if u.shape != v.shape or u.shape[0] != d or u.shape[1] > k:
        return [f"kpos: Schmidt factors of shapes {u.shape}, {v.shape} exceed k={k} at d={d}"]
    psi = sum(np.kron(u[:, i], v[:, i]) for i in range(u.shape[1]))
    s = np.linalg.svd(psi.reshape(d, d), compute_uv=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    problems = [] if rank <= k else [f"kpos: witness has Schmidt rank {rank} > k={k}"]
    value = float(np.real(psi.conj() @ choi(T) @ psi) / np.real(np.vdot(psi, psi)))
    return problems + check_value(value, worst_value, "kpos", tol)
