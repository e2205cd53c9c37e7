"""Constructive convex decompositions Phi = lambda*Phi1 + (1-lambda)*Phi2
into a KS component and a co-KS component, with verifiable certificates:
the reconstruction residual, falsifier verdicts on both components, and
the Jordan-product defect inequality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import dagger, hs_norm, unit_ginibre
from .certify import CertificateVerdict, SearchBudget, falsify_co_ks, falsify_ks
from .maps import QuantumMap, mix
from .zoo import ParameterDomainError, lambda_plus, reduction, transpose_map

RECONSTRUCTION_TOL = 1e-10
JORDAN_TOL = 1e-9
IDENTITY_TOL = 1e-14


class DecompositionInfeasibleError(RuntimeError):
    """No KS/co-KS split exists at the requested parameters."""


@dataclass
class DecompositionResult:
    lam: float
    phi1: QuantumMap  # claimed KS
    phi2: QuantumMap  # claimed co-KS
    params: dict
    reconstruction_residual: float

    def reconstruction(self) -> QuantumMap:
        return mix([(self.lam, self.phi1), (1 - self.lam, self.phi2)], label="reconstruction")


def _residual(lam: float, phi1: QuantumMap, phi2: QuantumMap, target: QuantumMap) -> float:
    """HS norm of lam*phi1 + (1-lam)*phi2 - target on transfer matrices."""
    if not phi1.d == phi2.d == target.d:
        raise ValueError(f"components act on d={phi1.d} and d={phi2.d}, the target on d={target.d}")
    return hs_norm(lam * phi1.transfer + (1 - lam) * phi2.transfer - target.transfer)


def _result(lam: float, phi1: QuantumMap, phi2: QuantumMap, target: QuantumMap, params: dict) -> DecompositionResult:
    residual = _residual(lam, phi1, phi2, target)
    if residual > RECONSTRUCTION_TOL:
        raise RuntimeError(f"reconstruction residual {residual:.3e} exceeds tolerance")
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        if not phi.unital:
            raise RuntimeError(f"decomposition component {name} is not unital")
    return DecompositionResult(
        lam=lam, phi1=phi1, phi2=phi2, params=params, reconstruction_residual=residual
    )


def ks_threshold_depolarized_transpose(d: int) -> float:
    """Smallest b for which Psi_b = b*Delta + (1-b)*T is a KS operator:
    (2d + 1 - sqrt(4d + 1)) / (2d)."""
    return float((2 * d + 1 - np.sqrt(4 * d + 1)) / (2 * d))


def decompose_lambda_plus_T(d: int, a: float) -> DecompositionResult:
    """KS/co-KS split of Psi_a = a*Delta + (1-a)*T for a in [0, 1].

    Above the KS threshold t(d) the split is trivial (lambda = 1); below it,
    Psi_a = lambda * Psi_t + (1 - lambda) * T with lambda = a / t(d), so the
    KS component sits exactly at the threshold and lambda*beta = a.
    """
    if not 0 <= a <= 1:
        raise ParameterDomainError(f"decompose_lambda_plus_T needs a in [0, 1], got {a}")
    t = ks_threshold_depolarized_transpose(d)
    target = lambda_plus(transpose_map(d), a)
    if a >= t:
        lam, beta = 1.0, a
        phi1 = target
    else:
        lam = a / t
        beta = t
        if not abs(lam * beta - a) <= IDENTITY_TOL:
            raise RuntimeError(f"split weights give lambda*beta = {lam * beta!r}, not a = {a!r}")
        phi1 = lambda_plus(transpose_map(d), beta)
    # at lambda = 1 the co-KS component has weight 0 but is still co-KS
    return _result(lam, phi1, transpose_map(d), target, params={"lambda": lam, "beta": beta})


def reduction_split_params(d: int, a: float, alpha: float, lam: float) -> dict:
    """Derived coefficients of the split R_a(X) = alpha*Tr(X)I - beta*X
    + gamma*Tr(X)I + delta*X for a chosen free pair (alpha, lambda)."""
    beta = alpha * d - lam
    gamma = 1 / (d - a) - alpha
    delta = alpha * d - lam - a / (d - a)
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "delta": delta}


def _reduction_components(
    d: int, lam: float, p: dict
) -> tuple[QuantumMap, QuantumMap]:
    alpha, beta, gamma, delta = p["alpha"], p["beta"], p["gamma"], p["delta"]
    v = linalg.vec(np.eye(d)).astype(complex)
    trace_part = np.outer(v, v)
    phi1 = QuantumMap(
        (alpha * trace_part - beta * np.eye(d * d)) / lam, label="phi1"
    )
    phi2 = QuantumMap(
        (gamma * trace_part + delta * np.eye(d * d)) / (1 - lam), label="phi2"
    )
    return phi1, phi2


def _check_reduction_split(d: int, a: float, lam: float, p: dict) -> str | None:
    """Return the name of the first failing feasibility inequality, or None."""
    alpha, beta, gamma, delta = p["alpha"], p["beta"], p["gamma"], p["delta"]
    if not alpha > 0:
        return "alpha > 0"
    if not beta > 0:
        return "beta > 0"
    if not gamma > 0:
        return "gamma > 0 (alpha < 1/(d-a))"
    if not delta < 0:
        return "delta < 0"
    if not beta / alpha <= d / (d + 1) + 1e-12:
        return "beta/alpha <= d/(d+1) (KS condition on phi1)"
    if not -delta / gamma <= 1 + 1e-12:
        return "-delta/gamma <= 1 (co-CP condition on phi2)"
    if not 0 < lam <= 1:
        return "lambda in (0, 1]"
    return None


def decompose_reduction(d: int, a: float) -> DecompositionResult:
    """KS/co-KS split of the reduction map R_a for a in [0, 1).

    For a <= d/(d+1) the map is itself KS and the split is trivial. Above
    that, the free parameter is fixed at alpha = (1-a)/(d-a) (the largest
    value keeping the feasible lambda-window simple) and lambda at the
    midpoint of [alpha d^2/(d+1), alpha d], which maximizes the margin to
    both endpoint constraints.

    At a = 1 no split exists within this two-parameter ansatz with
    alpha > 0 and lambda in (0, 1], and DecompositionInfeasibleError says
    why. Whether a split with lambda > 0 exists outside the ansatz is open.
    R_1 is itself co-CP (C_{tau o R_1} = (I - F)/(d - 1) >= 0, F the swap),
    so lambda = 0 is a trivial split, which this function does not return.
    """
    if not 0 <= a <= 1:
        raise ParameterDomainError(f"decompose_reduction needs a in [0, 1], got {a}")
    target = reduction(d, a)
    if a <= d / (d + 1):
        return _result(
            1.0,
            target,
            transpose_map(d),
            target,
            params={"alpha": 1 / (d - a), "beta": a / (d - a), "gamma": 0.0, "delta": 0.0},
        )
    if a == 1:
        raise DecompositionInfeasibleError(
            f"no KS/co-KS split of R_1 with lambda in (0, 1] exists for d={d} within "
            "the two-parameter ansatz: at a = 1 the KS condition on phi1 needs "
            "lambda >= alpha d^2/(d+1) and the co-CP condition on phi2 needs "
            "lambda <= alpha (d-1), so alpha > 0 would need d^2 <= d^2 - 1. R_1 is "
            "itself co-CP, so lambda = 0 is a trivial split"
        )
    alpha = (1 - a) / (d - a)
    lam = (alpha * d * d / (d + 1) + alpha * d) / 2
    p = reduction_split_params(d, a, alpha, lam)
    failing = _check_reduction_split(d, a, lam, p)
    if failing is not None:
        raise RuntimeError(
            f"reduction split construction violated '{failing}' "
            f"(d={d}, a={a}, alpha={alpha}, lambda={lam})"
        )
    phi1, phi2 = _reduction_components(d, lam, p)
    return _result(lam, phi1, phi2, target, params=p)


# ---------------------------------------------------------------------------
# certificate inequalities
# ---------------------------------------------------------------------------


def jordan_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Unnormalized Jordan product A o B = AB + BA."""
    return A @ B + B @ A


def jordan_defect(
    phi1: QuantumMap, phi2: QuantumMap, lam: float, X: np.ndarray
) -> np.ndarray:
    """Refined Jordan-product defect of the convex mix Phi = lam*phi1 +
    (1-lam)*phi2:

    Phi(X* o X) - Phi(X)* o Phi(X)
        - lam(1-lam) (phi1(X) - phi2(X))* o (phi1(X) - phi2(X)),

    of one d x d X, or of each matrix of a (B, d, d) stack.
    """
    if phi1.d != phi2.d:
        raise ValueError("component maps must act on the same dimension")
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    # Phi = lam*phi1 + (1-lam)*phi2 is applied term by term, not built as a map
    Y1, Y2 = phi1.apply_amplified(X, 1), phi2.apply_amplified(X, 1)
    Z = lam * Y1 + (1 - lam) * Y2
    D = jordan_product(dagger(X), X)
    out = (
        lam * phi1.apply_amplified(D, 1)
        + (1 - lam) * phi2.apply_amplified(D, 1)
        - jordan_product(dagger(Z), Z)
    )
    if lam not in (0.0, 1.0):
        W = Y1 - Y2
        out = out - lam * (1 - lam) * jordan_product(dagger(W), W)
    return out


def stormer_defect(Phi: QuantumMap, X: np.ndarray) -> np.ndarray:
    """Phi(X* o X) - Phi(X)* o Phi(X) for sub-unital positive Phi, of one
    d x d X or of each matrix of a (B, d, d) stack; the Phi(I) <= I
    precondition is checked once per call."""
    d = Phi.d
    if not linalg.is_psd(np.eye(d) - Phi(np.eye(d))):
        raise ValueError("precondition failed: Phi(I) <= I does not hold")
    Z = Phi.apply_amplified(X, 1)
    return Phi.apply_amplified(jordan_product(dagger(X), X), 1) - jordan_product(dagger(Z), Z)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    reconstruction_ok: bool
    reconstruction_residual: float
    phi1_ks: CertificateVerdict
    phi2_co_ks: CertificateVerdict
    jordan_min_eigenvalue: float
    jordan_ok: bool
    n_jordan_samples: int

    @property
    def all_ok(self) -> bool:
        return (
            self.reconstruction_ok
            and self.phi1_ks.verdict == "NoViolationFound"
            and self.phi2_co_ks.verdict == "NoViolationFound"
            and self.jordan_ok
        )


def verify_decomposition(
    result: DecompositionResult,
    target: QuantumMap,
    budget: SearchBudget = SearchBudget(),
    n_jordan_samples: int = 100,
) -> VerificationReport:
    """Independent checks of a claimed KS/co-KS decomposition:
    reconstruction residual, falsifier runs on both components, and the
    Jordan-product defect on n_jordan_samples random unit-HS-norm inputs,
    evaluated as one stack; jordan_min_eigenvalue is the smallest
    eigenvalue over all of them. A target of another dimension than the
    components is a ValueError."""
    if n_jordan_samples < 1:
        raise ValueError(f"n_jordan_samples must be >= 1, got {n_jordan_samples}")
    residual = _residual(result.lam, result.phi1, result.phi2, target)
    phi1_verdict = falsify_ks(result.phi1, 1, budget)
    phi2_verdict = falsify_co_ks(result.phi2, budget)
    X = unit_ginibre(linalg.rng(budget.seed, 97), n_jordan_samples, target.d)
    jmin = linalg.min_eigenvalue(jordan_defect(result.phi1, result.phi2, result.lam, X))
    return VerificationReport(
        reconstruction_ok=residual <= RECONSTRUCTION_TOL,
        reconstruction_residual=residual,
        phi1_ks=phi1_verdict,
        phi2_co_ks=phi2_verdict,
        jordan_min_eigenvalue=jmin,
        jordan_ok=jmin >= -JORDAN_TOL,
        n_jordan_samples=n_jordan_samples,
    )
