"""Constructors for the named map families: the completely depolarizing
channel, reduction maps R_a, the mixtures Lambda^-_a and Lambda^+_a over a
unital trace-preserving base, transposition, unitary sandwiches, and a
seeded sampler of random doubly-stochastic (unital TP CP) channels.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .linalg import haar_isometry, hs_norm, vec
from .maps import QuantumMap, mix

UTP_TOL = 1e-10


class ParameterDomainError(ValueError):
    """Family parameter outside its admissible domain."""


class HypothesisError(ValueError):
    """Base map does not satisfy the construction's hypotheses."""


def _require_utp(base: QuantumMap, who: str) -> None:
    if not (base.unital and base.trace_preserving):
        raise HypothesisError(
            f"{who} requires a unital trace-preserving base map "
            f"(unital={base.unital}, trace_preserving={base.trace_preserving})"
        )


def _check_utp(out: QuantumMap) -> None:
    """A constructor's result must be unital and trace-preserving."""
    if not (out.unital and out.trace_preserving):
        raise RuntimeError(
            f"'{out.label}' came out unital={out.unital}, "
            f"trace_preserving={out.trace_preserving}"
        )


def depolarizing(d: int) -> QuantumMap:
    """Completely depolarizing channel X -> Tr(X) I / d."""
    if d < 1:
        raise ParameterDomainError("d must be >= 1")
    v = vec(np.eye(d)).astype(complex)
    return QuantumMap(np.outer(v, v) / d, label=f"delta(d={d})")


def transpose_rows(T: np.ndarray) -> np.ndarray:
    """Transfer matrix of tau o Phi, tau the transposition, from that of Phi:
    vec(X^T) is vec(X) with its row and column indices swapped."""
    d = int(round(np.sqrt(len(T))))
    return T.reshape(d, d, -1).swapaxes(0, 1).reshape(d * d, -1)


def transpose_map(d: int) -> QuantumMap:
    """Transposition X -> X^T."""
    return QuantumMap(transpose_rows(np.eye(d * d)), label=f"transpose(d={d})")


def reduction(d: int, a: float) -> QuantumMap:
    """Reduction map R_a(X) = (Tr(X) I - a X) / (d - a), for a < d."""
    if a >= d:
        raise ParameterDomainError(f"reduction map needs a < d, got a={a}, d={d}")
    v = vec(np.eye(d)).astype(complex)
    T = (np.outer(v, v) - a * np.eye(d * d)) / (d - a)
    return QuantumMap(T, label=f"reduction(d={d}, a={a})")


def _lambda_line(base: QuantumMap, who: str, a: float, w_delta: float, w_base: float) -> QuantumMap:
    """w_delta*Delta + w_base*Phi: both Lambda families lie on this line."""
    _require_utp(base, who)
    label = f"{who}(a={a}, base={base.label})"
    out = mix([(w_delta, depolarizing(base.d)), (w_base, base)], label=label)
    _check_utp(out)
    return out


def lambda_minus(base: QuantumMap, a: float) -> QuantumMap:
    """Lambda^-_a = (d*Delta - a*Phi) / (d - a) over a unital TP base."""
    d = base.d
    if a >= d:
        raise ParameterDomainError(f"lambda_minus needs a < d, got a={a}, d={d}")
    return _lambda_line(base, "lambda_minus", a, d / (d - a), -a / (d - a))


def lambda_plus(base: QuantumMap, a: float) -> QuantumMap:
    """Lambda^+_a = a*Delta + (1-a)*Phi over a unital TP base.

    Any real a is admitted; positivity outside [0, 1] is not assumed,
    only certified numerically downstream.
    """
    return _lambda_line(base, "lambda_plus", a, a, 1 - a)


def unitary_sandwich(Phi: QuantumMap, U: np.ndarray, V: np.ndarray) -> QuantumMap:
    """X -> U Phi(V X V*) U* for unitaries U, V."""
    d = Phi.d
    for name, M in (("U", U), ("V", V)):
        if np.linalg.norm(M @ linalg.dagger(M) - np.eye(d)) > 1e-10:
            raise ValueError(f"{name} is not unitary within tolerance")
    T = np.kron(U.conj(), U) @ Phi.transfer @ np.kron(V.conj(), V)
    return QuantumMap(T, label=f"sandwich({Phi.label})")


def bound_lambda_minus(d: int, k: int) -> float:
    """Largest a for which Lambda^-_a is guaranteed k-KS: d / (kd + 1)."""
    if not 1 <= k <= d:
        raise ParameterDomainError(f"need 1 <= k <= d, got k={k}, d={d}")
    return d / (k * d + 1)


def bounds_lambda_plus(d: int, k: int) -> tuple[float, float]:
    """Interval of a guaranteeing Lambda^+_a is k-KS.

    Endpoints are the roots of a/(kd) - (1-a)^2 = 0:
    1 -+ (sqrt(4kd+1) -+ 1) / (2kd).
    """
    if k < 1 or d < 1:
        raise ParameterDomainError("k and d must be >= 1")
    kd = k * d
    s = np.sqrt(4 * kd + 1)
    return float(1 - (s - 1) / (2 * kd)), float(1 + (s + 1) / (2 * kd))


def sample_utp_cp(d: int, seed: int, n_kraus: int = 3) -> QuantumMap:
    """Random unital trace-preserving CP map, deterministic in the seed.

    Kraus operators come from a Haar-random isometry (a trace-preserving
    channel); the Choi matrix is then alternately projected onto the
    trace-preserving and unital affine constraints (with a PSD clip) until
    both residuals drop below 1e-10.
    """
    if n_kraus < 1:
        raise ParameterDomainError("n_kraus must be >= 1")
    V = haar_isometry(linalg.rng(seed), n_kraus * d, d)
    kraus = [V[i * d : (i + 1) * d, :] for i in range(n_kraus)]
    Phi = QuantumMap.from_kraus(kraus)
    if n_kraus == 1:
        # single Kraus operator of a TP map is unitary, hence already unital
        Phi.label = f"random-utp(d={d}, seed={seed}, n_kraus=1)"
        return Phi

    I = np.eye(d)
    C = Phi.choi().copy()  # updated in place below
    for _ in range(500):
        # joint orthogonal projection onto {Tr_2 C = I} ∩ {Tr_1 C = I}
        M = np.trace(C.reshape(d, d, d, d), axis1=1, axis2=3)  # Tr_2 C
        N = np.trace(C.reshape(d, d, d, d), axis1=0, axis2=2)  # Tr_1 C = Phi(I)
        shift = (np.trace(C).real - d) / (2 * d * d)
        A = (I - M) / d + shift * I
        B = (I - N) / d + shift * I
        # C += kron(A, I) + kron(I, B), added on the block diagonals only
        C4 = C.reshape(d, d, d, d)  # [(i, p), (j, q)]
        for r in range(d):
            C4[:, r, :, r] += A
        for r in range(d):
            C4[r, :, r, :] += B
        # keep complete positivity: clip negative Choi eigenvalues
        w, Q = np.linalg.eigh(linalg.hermitianize(C))
        if w[0] < 0:
            C = (Q * np.maximum(w, 0.0)) @ Q.conj().T
        r_tp = hs_norm(np.trace(C.reshape(d, d, d, d), axis1=1, axis2=3) - I)
        r_un = hs_norm(np.trace(C.reshape(d, d, d, d), axis1=0, axis2=2) - I)
        if r_tp < UTP_TOL and r_un < UTP_TOL:
            break
    else:
        raise RuntimeError(
            f"doubly-stochastic projection did not converge (residuals {r_tp:.2e}, {r_un:.2e})"
        )
    out = QuantumMap.from_choi(C, label=f"random-utp(d={d}, seed={seed}, n_kraus={n_kraus})")
    _check_utp(out)
    return out


#: family names exposed through the CLI
FAMILY_NAMES = (
    "delta",
    "reduction",
    "lambda-minus",
    "lambda-plus",
    "identity",
    "transpose",
    "random-utp",
)


def build_family(
    name: str,
    d: int,
    a: float | None = None,
    base: QuantumMap | None = None,
    seed: int = 0,
    n_kraus: int = 3,
) -> QuantumMap:
    """Construct a named family member (CLI entry point)."""
    if name == "delta":
        return depolarizing(d)
    if name == "identity":
        return QuantumMap.identity(d)
    if name == "transpose":
        return transpose_map(d)
    if name == "random-utp":
        return sample_utp_cp(d, seed=seed, n_kraus=n_kraus)
    if name not in ("reduction", "lambda-minus", "lambda-plus"):
        raise ParameterDomainError(
            f"unknown family '{name}'; valid names: {', '.join(FAMILY_NAMES)}"
        )
    if a is None or not np.isfinite(a):
        raise ParameterDomainError(f"family '{name}' needs a finite parameter a, got {a}")
    if name == "reduction":
        return reduction(d, a)
    family = lambda_minus if name == "lambda-minus" else lambda_plus
    return family(base if base is not None else QuantumMap.identity(d), a)
