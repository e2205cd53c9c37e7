"""Defect operators; optimization-based falsifiers for the Kadison-Schwarz
inequality and its variants and for k-positivity; and the closed-form
decision of the Phi_k domination condition, which holds iff Phi is an HS
contraction, from one SVD of the transfer matrix.

A falsifier searches for a witness making a defect negative. Its verdicts
are one-sided: ``Violated`` comes with a self-certifying witness,
``NoViolationFound`` is evidence that the property holds, not a proof.

The three falsifiers (KS, co-KS and k-positivity) run on one
random-restart driver, ``_falsify``, which seeds every restart from the
budget seed, stops at the first violation and re-checks the violating point.
The k-positivity restart minimizes <psi|C_Phi|psi> over Schmidt-rank-k unit
vectors by alternating least squares over the two Schmidt factors. The
others minimize f(X) = lambda_min(defect(X)), for the module-level defects,
over the Hilbert-Schmidt unit sphere by alternating minimization of the
bilinear objective g(X, v) = v* defect(X) v: for fixed X the optimal v is
the bottom eigenvector of the defect, and for fixed v the objective is an
exact Hermitian quadratic form in vec(X), so both half-steps are global
eigenvector computations. The iteration is monotone in f, which avoids the
flat zero-level plateaus where plain projected gradient descent on
lambda_min stalls.

For the KS and co-KS defects the X half-step matrix is
M_v = W^T (x) I_n - G*G, a Kronecker term minus a term of rank at most n.
From n = SECULAR_MIN_N up its bottom eigenpair is found without forming
M_v, as the root of an n x n secular equation (Golub 1973; Bunch, Nielsen
and Sorensen 1978): one n x n eigh of W and a few n x n eighs in Newton
steps replace one n^2 x n^2 eigh. A residual check guards the result; when
it fails, and below the crossover, the dense eigh of M_v is used.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import linalg
from .linalg import dagger, ginibre, hermitianize, hs_norm, partial_trace_second
from .maps import BlockOperator, QuantumMap
from .zoo import (
    ParameterDomainError,
    bound_lambda_minus,
    bounds_lambda_plus,
    build_family,
    sample_utp_cp,
)

EIG_DEGENERACY_GAP = 1e-8
STALL_TOL = 1e-12
STALL_WINDOW = 10
WITNESS_RECHECK_TOL = 1e-8
# the KS/co-KS X half-step solves the secular equation from n = SECULAR_MIN_N
# up; at n <= 6 the dense n^2 x n^2 eigh measured faster, at n = 7 slower
SECULAR_MIN_N = 7
SECULAR_MAX_STEPS = 60
SECULAR_RESIDUAL_RTOL = 1e-10


class WitnessRecheckError(RuntimeError):
    """A Violated witness, re-evaluated away from the optimizer state, does
    not reproduce the value the search reported."""


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 32
    max_iters: int = 500
    seed: int = 0
    violation_tol: float = 1e-9

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.violation_tol > 0:  # NaN fails too
            raise ValueError("violation_tol must be positive")


def _derive_seed(seed: int, *key: int) -> int:
    """Child seed of ``seed`` at ``key``: the first word of
    SeedSequence(seed, spawn_key=key). Scan points, sampled maps and the
    suite criteria all take their seeds from here."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


@dataclass
class SchmidtWitness:
    """Schmidt-rank-k witness vector psi = sum_i u_i (x) v_i for the
    k-positivity falsifier; columns of u/v hold the factors."""

    u: np.ndarray  # d x k
    v: np.ndarray  # d x k

    @property
    def psi(self) -> np.ndarray:
        return np.einsum("ai,bi->ab", self.u, self.v).reshape(-1)


@dataclass
class CertificateVerdict:
    verdict: str  # "Violated" | "NoViolationFound"
    worst_value: float
    witness: BlockOperator | SchmidtWitness | None
    budget_used: dict
    seed: int

    @property
    def violated(self) -> bool:
        return self.verdict == "Violated"


# ---------------------------------------------------------------------------
# defect operators
# ---------------------------------------------------------------------------


def ks_defect(Phi: QuantumMap, X: np.ndarray) -> np.ndarray:
    """Phi(X*X) - Phi(X)*Phi(X)."""
    Y = Phi(X)
    return Phi(dagger(X) @ X) - dagger(Y) @ Y


def co_ks_defect(Phi: QuantumMap, X: np.ndarray) -> np.ndarray:
    """Phi(X*X) - Phi(X)Phi(X)*."""
    Y = Phi(X)
    return Phi(dagger(X) @ X) - Y @ dagger(Y)


def amplified_ks_defect(Phi: QuantumMap, k: int, X: np.ndarray | BlockOperator) -> np.ndarray:
    """(id_k (x) Phi)(X*X) - [(id_k (x) Phi)(X)]* (id_k (x) Phi)(X)."""
    if isinstance(X, BlockOperator):
        if (X.k, X.d) != (k, Phi.d):
            raise ValueError(
                f"block metadata ({X.k}, {X.d}) does not match (k={k}, d={Phi.d})"
            )
        X = X.data
    Y = Phi.apply_amplified(X, k)
    return Phi.apply_amplified(dagger(X) @ X, k) - dagger(Y) @ Y


def kks_block_defect(Phi: QuantumMap, ops: list[np.ndarray]) -> np.ndarray:
    """Block criterion for the k-KS property: the kd x kd matrix with
    (i, j)-block Phi(X_i* X_j) - Phi(X_i)* Phi(X_j)."""
    k, d = len(ops), Phi.d
    out = np.zeros((k * d, k * d), dtype=complex)
    images = [Phi(X) for X in ops]
    for i in range(k):
        for j in range(k):
            block = Phi(dagger(ops[i]) @ ops[j]) - dagger(images[i]) @ images[j]
            out[i * d : (i + 1) * d, j * d : (j + 1) * d] = block
    return out


def phi_k_defect(Phi: QuantumMap, k: int, X: np.ndarray) -> np.ndarray:
    """k x k matrix Tr_2(X*X) - Tr_2(Phi_k(X)* Phi_k(X)); PSD for all X iff
    the amplified map is dominated by Delta_k in the sense of Delta-ordering."""
    d = Phi.d
    Y = Phi.apply_amplified(X, k)
    return partial_trace_second(dagger(X) @ X, k, d) - partial_trace_second(
        dagger(Y) @ Y, k, d
    )


def strong_kadison_defects(
    Phi: QuantumMap, X: np.ndarray, Y: np.ndarray, tol: float = linalg.PSD_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """(Phi(Y) - Phi(X)*Phi(X), Phi(Y) - Phi(X)Phi(X)*) for Y dominating
    both X*X and XX*."""
    if not linalg.is_psd(Y - dagger(X) @ X, tol):
        raise ValueError("precondition failed: Y - X*X is not positive semidefinite")
    if not linalg.is_psd(Y - X @ dagger(X), tol):
        raise ValueError("precondition failed: Y - XX* is not positive semidefinite")
    PY = Phi(Y)
    Z = Phi(X)
    return PY - dagger(Z) @ Z, PY - Z @ dagger(Z)


# ---------------------------------------------------------------------------
# witness conversion between the block and tuple forms of the k-KS criterion
# ---------------------------------------------------------------------------


def tuple_to_block(ops: list[np.ndarray], d: int) -> BlockOperator:
    """Stack a k-tuple as the first block row of a kd x kd operator; its
    amplified KS defect then equals the block-criterion defect exactly."""
    k = len(ops)
    X = np.zeros((k * d, k * d), dtype=complex)
    for j, op in enumerate(ops):
        X[0:d, j * d : (j + 1) * d] = op
    return BlockOperator(k=k, d=d, data=X)


def block_to_tuple(Phi: QuantumMap, k: int, X: np.ndarray) -> list[np.ndarray]:
    """Extract from a block witness the row tuple with the most negative
    block-criterion defect (the full defect is the sum over row tuples)."""
    d = Phi.d
    rows = [
        [X[i * d : (i + 1) * d, j * d : (j + 1) * d] for j in range(k)]
        for i in range(k)
    ]
    return min(rows, key=lambda t: linalg.min_eigenvalue(kks_block_defect(Phi, t)))


# ---------------------------------------------------------------------------
# half-step kernels
#
# The X half-step needs the Hermitian n^2 x n^2 matrix M_v with
# vec(X)* M_v vec(X) = v* defect(X) v. Every defect has the form
# Tr(W X*X) - ||G vec(X)||^2, where G is the transfer matrix T contracted
# with v once it is reshaped as T3[q, p, :] = T[q*n + p, :] (output column
# q, output row p), and Tr(W X*X) = vec(X)* (W^T (x) I_n) vec(X), so
# M_v = W^T (x) I_n - G*G. The KS and co-KS kernels return (W, G), which is
# all the secular X half-step reads; _qform builds M_v itself.
# ---------------------------------------------------------------------------


def _ks_parts(
    T3: np.ndarray, dual: Callable[[np.ndarray], np.ndarray], v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(W, G) of the KS defect of the map with transfer matrix
    T = T3.reshape(n*n, n*n) and HS dual ``dual``:
    v* defect(X) v = Tr(W X*X) - ||Phi(X) v||^2 with W = dual(vv*), and
    Phi(X) v = sum_q v_q T3[q] vec(X)."""
    n = len(v)
    W = hermitianize(dual(np.outer(v, v.conj())))
    return W, (v @ T3.reshape(n, -1)).reshape(n, n * n)


def _co_ks_parts(
    T3: np.ndarray, dual: Callable[[np.ndarray], np.ndarray], v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(W, G) of the co-KS defect: v* defect(X) v =
    Tr(W X*X) - ||Phi(X)* v||^2, and Phi(X)* v = conj(Phi(X)^T conj(v)) has
    the norm of Phi(X)^T conj(v) = sum_q conj(v_q) T3[:, q] vec(X)."""
    W = hermitianize(dual(np.outer(v, v.conj())))
    return W, v.conj() @ T3  # batched over the leading axis of T3


def _qform(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """M_v = W^T (x) I_n - G*G, Hermitian by construction for Hermitian W;
    W^T is written straight into the diagonal of the I_n factor."""
    n = len(W)
    M = np.zeros((n, n, n, n), dtype=complex)
    M[:, np.arange(n), :, np.arange(n)] = W.T
    return M.reshape(n * n, n * n) - dagger(G) @ G


def _bottom_eigvec(W: np.ndarray, G: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Bottom eigenpair (lambda, x), x of unit norm, of M = W^T (x) I_n - G*G
    for Hermitian n x n W and n' x n^2 G, found without forming M.

    With W^T = U diag(mu) U* (mu ascending) and H = G (U (x) I_n), M is
    unitarily similar to D - H*H, D = diag(mu) (x) I_n. Below mu_0, lambda is
    an eigenvalue iff 1 is an eigenvalue of the n' x n' matrix
    K(lambda) = H (D - lambda)^-1 H* = sum_b P_b / (mu_b - lambda), with
    P_b = H_b H_b* over the column block b of H, and then
    x = (U (x) I_n)(D - lambda)^-1 H* y for K(lambda) y = y. On (-inf, mu_0)
    f = lambda_max(K) increases, and 1/f is concave (it is the minimum over
    y of 1/(y* K y), each a reciprocal sum of positive poles), so the
    bottom eigenvalue is the one root of f = 1 in
    [mu_0 - ||H||_F^2 - 1, mu_0), and Newton steps on 1/f approach it
    monotonically from the right. (Such a step fits f by c/(p - lambda);
    pinning the pole p at mu_0 instead took more steps.) The first point,
    min_b mu_b - Tr(P_b)/n, lies right of the root whenever it is below
    mu_0, since there K >= n P_b / Tr(P_b) and P_b has rank <= n. A step
    that leaves the bracket is replaced by bisection.

    The pair is returned only if ||M x - lambda x|| <= 1e-10 max(|mu|,
    ||H||_F^2, 1), computed as vec(XW) - G*(G x); otherwise, as when the
    bottom eigenvalue sits at the pole mu_0 itself, the result is None.
    """
    n = len(W)
    mu, U = np.linalg.eigh(W.T)
    # Hb[b, r, i] = sum_a U[a, b] G[r, a*n + i]: the column blocks of H
    Hb = (U.T @ G.reshape(-1, n, n).transpose(1, 0, 2).reshape(n, -1)).reshape(n, -1, n)
    P = Hb @ Hb.conj().swapaxes(1, 2)  # P[b] = H_b H_b*
    traces = np.trace(P, axis1=1, axis2=2).real
    h2 = float(traces.sum())
    if not h2 > 0:
        return None  # H = 0: M = D is diagonal in the U basis already
    scale = max(float(np.abs(mu).max()), h2, 1.0)
    lo, hi = mu[0] - h2 - 1.0, mu[0]
    lam = float(np.min(mu - traces / n))
    if not lam < hi:
        lam = lo
    tol = 4 * np.finfo(float).eps * scale
    for _ in range(SECULAR_MAX_STEPS):
        w = 1.0 / (mu - lam)
        kappa, Y = np.linalg.eigh((w @ P.reshape(n, -1)).reshape(P.shape[1:]))
        f, y = float(kappa[-1]), Y[:, -1]
        Hy = y.conj() @ Hb  # Hy[b, i] = (H_b* y)_i conjugated
        slope = float((np.abs(Hy) ** 2).sum(axis=1) @ (w * w))  # y* K'(lambda) y
        step = f * (1.0 - f) / slope
        if abs(step) <= tol:
            break
        if f < 1:
            lo = lam
        else:
            hi = lam
        lam = lam + step if lo < lam + step < hi else 0.5 * (lo + hi)
        if not lo < lam < hi:
            return None  # the bracket collapsed onto mu_0: no root below the pole
    else:
        return None
    x = (U @ (w[:, None] * Hy.conj())).reshape(-1)
    x /= np.linalg.norm(x)
    X = x.reshape(n, n, order="F")
    residual = np.linalg.norm((X @ W).reshape(-1, order="F") - dagger(G) @ (G @ x) - lam * x)
    # explicit branch, written so that a NaN residual fails too
    if not residual <= SECULAR_RESIDUAL_RTOL * scale:
        return None
    return lam, x


def _ks_xstep(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """X half-step of the KS and co-KS searches: the bottom eigenvector of
    M_v = W^T (x) I_n - G*G. From n = SECULAR_MIN_N up it comes from the
    secular equation; below that, and whenever the secular solve is
    refused, from a dense eigh of M_v."""
    if len(W) >= SECULAR_MIN_N:
        found = _bottom_eigvec(W, G)
        if found is not None:
            return found[1]
    return np.linalg.eigh(_qform(W, G))[1][:, 0]


def _compress_right(C4: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(I_d (x) V)* C (I_d (x) V) for C4 = C.reshape(d, d, d, d)."""
    d, k = V.shape
    CV = (C4.reshape(d**3, d) @ V).reshape(d, d, d * k)  # [a, b, (c, t)]
    return (V.conj().T @ CV).reshape(d * k, d * k)  # [(a, s), (c, t)]


def _compress_left(C4: np.ndarray, U: np.ndarray) -> np.ndarray:
    """(U (x) I_d)* C (U (x) I_d) for C4 = C.reshape(d, d, d, d)."""
    d, k = U.shape
    UC = (U.conj().T @ C4.reshape(d, d**3)).reshape(k * d, d, d)  # [(s, b), c, e]
    UCU = np.swapaxes(UC, 1, 2) @ U  # [(s, b), e, t]
    return np.swapaxes(UCU, 1, 2).reshape(k * d, k * d)  # [(s, b), (t, e)]


# ---------------------------------------------------------------------------
# the restart driver
# ---------------------------------------------------------------------------


def _check_witness(recheck: float, worst: float, scale: float = 1.0) -> None:
    # explicit raise rather than assert, so the check survives python -O;
    # written so that a NaN recheck fails too
    if not abs(recheck - worst) <= WITNESS_RECHECK_TOL * scale:
        raise WitnessRecheckError(
            f"witness re-evaluates to {recheck!r}, the search reported {worst!r}"
        )


def _falsify(
    restart: Callable[[np.random.Generator], tuple[float, object, dict]],
    value: Callable[[object], float],
    make_witness: Callable[[object], BlockOperator | SchmidtWitness],
    budget: SearchBudget,
) -> CertificateVerdict:
    """Random-restart driver shared by the three falsifiers.

    ``restart(rng)`` runs one search and returns (best value, best point,
    counters). Restarts are seeded independently from the budget seed so the
    result is deterministic; the loop stops early once a violation is
    certain. A violating point is re-evaluated by ``value``, away from the
    optimizer state, and ``make_witness`` turns it into the witness.
    """
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
    if violated:
        _check_witness(value(worst_point), worst)
    return CertificateVerdict(
        verdict="Violated" if violated else "NoViolationFound",
        worst_value=float(worst),
        witness=make_witness(worst_point) if violated else None,
        budget_used=counters,
        seed=budget.seed,
    )


# ---------------------------------------------------------------------------
# restarts: alternating minimization on the HS unit sphere and over the
# Schmidt factors of psi
# ---------------------------------------------------------------------------


def _min_eig_vector(D: np.ndarray, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a vector from its eigenspace; inside a
    near-degenerate bottom cluster a random unit combination is taken
    (subgradient choice)."""
    w, V = np.linalg.eigh(hermitianize(D))
    cluster = np.flatnonzero(w - w[0] < EIG_DEGENERACY_GAP)
    if len(cluster) == 1:
        return float(w[0]), V[:, 0]
    c = rng.standard_normal(len(cluster)) + 1j * rng.standard_normal(len(cluster))
    c /= np.linalg.norm(c)
    return float(w[0]), V[:, cluster] @ c


def _min_eig_value(defect: Callable[[np.ndarray], np.ndarray], X: np.ndarray) -> float:
    """f(X) = lambda_min(defect(X)), the value a sphere witness re-checks."""
    return float(np.linalg.eigvalsh(hermitianize(defect(X)))[0])


def _alternating_restart(
    defect: Callable[[np.ndarray], np.ndarray],
    xstep: Callable[[np.ndarray], np.ndarray],
    n: int,
    budget: SearchBudget,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray, dict]:
    """One run of alternating minimization of g(X, v) = v* defect(X) v from
    a Ginibre start on the HS unit sphere.

    ``xstep(v)`` must return vec(X) for a unit bottom eigenvector of the
    Hermitian n^2 x n^2 matrix M_v with vec(X)* M_v vec(X) = v* defect(X) v;
    the X half-step is then exact, giving a monotone decrease of
    f(X) = lambda_min(defect(X)). Returns (best value, best X, counters).
    """
    X = ginibre(rng, n)
    X /= hs_norm(X)
    stall = 0
    recent_best = np.inf
    f, v = _min_eig_vector(defect(X), rng)
    best_f, best_X = f, X
    for iters in range(1, budget.max_iters + 1):
        X = xstep(v).reshape(n, n, order="F")
        f, v = _min_eig_vector(defect(X), rng)
        if f < best_f:
            best_f, best_X = f, X
        if recent_best - best_f < STALL_TOL:
            stall += 1
            if stall >= STALL_WINDOW:
                break
        else:
            stall = 0
            recent_best = best_f
    # one defect evaluation at the start and one per iteration
    return best_f, best_X, {"iterations": iters, "defect_evals": iters + 1}


def _schmidt_value(C: np.ndarray, w: SchmidtWitness) -> float:
    """<psi|C|psi> / <psi|psi>, the value a Schmidt witness re-checks."""
    psi = w.psi
    return float(np.real(psi.conj() @ C @ psi) / np.vdot(psi, psi).real)


def _kpos_restart(
    C4: np.ndarray, k: int, budget: SearchBudget, rng: np.random.Generator
) -> tuple[float, SchmidtWitness, dict]:
    """One run of alternating least squares over the two Schmidt factor
    stacks of psi from random orthonormal starts, for C4 = C.reshape(d, d,
    d, d); each half-step is an exact eigenvector update, so the value is
    non-increasing. Returns (value, witness, counters)."""
    d = len(C4)
    U = np.linalg.qr(ginibre(rng, d, k))[0]
    V = np.linalg.qr(ginibre(rng, d, k))[0]
    prev = np.inf
    for it in range(1, budget.max_iters + 1):
        # psi = (I (x) V) r, r = vec_row(U); with V orthonormal the
        # smallest eigenvector of the compressed Choi is the exact
        # minimizer over U
        V = np.linalg.qr(V)[0]
        _, Q = np.linalg.eigh(_compress_right(C4, V))
        U = Q[:, 0].reshape(d, k)
        # psi = (U (x) I) x, x = vec_row(V^T); same update for V
        U = np.linalg.qr(U)[0]
        w, Q = np.linalg.eigh(_compress_left(C4, U))
        V = Q[:, 0].reshape(k, d).T
        val = float(w[0])
        if prev - val < STALL_TOL:
            break
        prev = val
    # U orthonormal and the V-slices come from a unit eigenvector, so psi
    # already has unit norm
    return val, SchmidtWitness(U, V), {"iterations": it, "defect_evals": 2 * it}


# ---------------------------------------------------------------------------
# falsifiers
# ---------------------------------------------------------------------------


def falsify_ks(
    Phi: QuantumMap, k: int = 1, budget: SearchBudget = SearchBudget()
) -> CertificateVerdict:
    """Search for a violation of the k-KS inequality of Phi."""
    if not Phi.unital:
        warnings.warn(
            f"map '{Phi.label}' is not unital; the KS inequality is stated for unital maps",
            stacklevel=2,
        )
    d = Phi.d
    n = k * d
    amp = Phi.amplify(k)
    T3, dual = amp.transfer_matrix().reshape(n, n, n * n), amp.dual()
    defect = partial(amplified_ks_defect, Phi, k)

    def xstep(v):
        return _ks_xstep(*_ks_parts(T3, dual, v))

    restart = partial(_alternating_restart, defect, xstep, n, budget)
    return _falsify(restart, partial(_min_eig_value, defect), partial(BlockOperator, k, d), budget)


def falsify_co_ks(Phi: QuantumMap, budget: SearchBudget = SearchBudget()) -> CertificateVerdict:
    """Search for a violation of the co-KS inequality of Phi."""
    if not Phi.unital:
        warnings.warn(
            f"map '{Phi.label}' is not unital; the co-KS inequality is stated for unital maps",
            stacklevel=2,
        )
    d = Phi.d
    T3, dual = Phi.transfer.reshape(d, d, d * d), Phi.dual()
    defect = partial(co_ks_defect, Phi)

    def xstep(v):
        return _ks_xstep(*_co_ks_parts(T3, dual, v))

    restart = partial(_alternating_restart, defect, xstep, d, budget)
    return _falsify(restart, partial(_min_eig_value, defect), partial(BlockOperator, 1, d), budget)


def check_phi_k_condition(
    Phi: QuantumMap, k: int, budget: SearchBudget = SearchBudget()
) -> CertificateVerdict:
    """Decide Delta_k(Phi_k(X)* Phi_k(X)) <= Delta_k(X*X), that is, the k x k
    partial-trace defect being PSD, in closed form. With Z = X (v (x) I_d),
    v* phi_k_defect(X) v = sum_i ||Z_i||^2 - ||Phi(Z_i)||^2, and Z ranges
    over the unit ball as X ranges over the HS unit sphere. So the infimum of
    lambda_min is 1 - ||T||_2^2 at k = 1 and min(0, 1 - ||T||_2^2) at k >= 2:
    the condition holds iff Phi is an HS contraction. Both verdicts are exact
    up to one float64 SVD of T; restarts and max_iters are not read. The
    witness is unvec(z), z the top right singular vector, in the top-left
    block, so its defect is diag(1 - ||T||_2^2, 0, ...)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = Phi.d
    _, s, Vh = np.linalg.svd(Phi.transfer)
    s2 = float(s[0]) ** 2
    worst = 1.0 - s2 if k == 1 else min(0.0, 1.0 - s2)
    violated = worst < -budget.violation_tol
    X = np.zeros((k * d, k * d), dtype=complex)
    X[:d, :d] = linalg.unvec(Vh[0].conj(), d)
    if violated:
        # SVD against eigvalsh: their gap grows with the size of the defect
        _check_witness(_min_eig_value(partial(phi_k_defect, Phi, k), X), worst, max(1.0, s2))
    return CertificateVerdict(
        verdict="Violated" if violated else "NoViolationFound",
        worst_value=worst,
        witness=BlockOperator(k, d, X) if violated else None,
        budget_used={"restarts": 1, "iterations": 1, "defect_evals": int(violated)},
        seed=budget.seed,
    )


def falsify_k_positivity(
    Phi: QuantumMap, k: int, budget: SearchBudget = SearchBudget()
) -> CertificateVerdict:
    """Search for a Schmidt-rank-<=k unit vector psi with <psi|C_Phi|psi> < 0
    by alternating least squares over the two Schmidt factor stacks."""
    d = Phi.d
    if not 1 <= k <= d:
        raise ParameterDomainError(f"k-positivity needs 1 <= k <= d, got k={k}, d={d}")
    C = hermitianize(Phi.choi())
    if not Phi.hermiticity_preserving:
        warnings.warn(
            f"map '{Phi.label}' is not hermiticity-preserving; "
            "using the Hermitian part of its Choi matrix",
            stacklevel=2,
        )
    restart = partial(_kpos_restart, C.reshape(d, d, d, d), k, budget)
    # the point a restart returns is the witness already
    return _falsify(restart, partial(_schmidt_value, C), lambda w: w, budget)


# ---------------------------------------------------------------------------
# threshold scans and sampled-property checks
# ---------------------------------------------------------------------------


@dataclass
class ScanPoint:
    a: float
    verdict: str
    worst_value: float


@dataclass
class ScanResult:
    family: str
    d: int
    k: int
    direction: str  # "ascending" | "descending"
    a_certified_ks: float | None
    a_first_violation: float | None
    paper_bound: float
    grid_step: float
    points: list[ScanPoint] = field(default_factory=list)


def paper_bound_for(family: str, d: int, k: int) -> float:
    """Closed-form certified-region boundary for a scanned family."""
    if family in ("lambda-minus", "reduction"):
        return bound_lambda_minus(d, k)
    if family == "lambda-plus":
        return bounds_lambda_plus(d, k)[0]
    raise ParameterDomainError(f"no closed-form bound known for family '{family}'")


def scan_threshold(
    family: str,
    d: int,
    k: int,
    a_min: float,
    a_max: float,
    grid_step: float,
    budget: SearchBudget,
    base: QuantumMap | None = None,
    direction: str = "ascending",
) -> ScanResult:
    """Run the k-KS falsifier on a parameter grid and bracket the boundary
    of the certified region against the closed-form bound."""
    if a_min >= a_max or grid_step <= 0:
        raise ParameterDomainError("need a_min < a_max and grid_step > 0")
    n_pts = int(round((a_max - a_min) / grid_step)) + 1
    grid = [a_min + i * grid_step for i in range(n_pts) if a_min + i * grid_step <= a_max + 1e-12]
    if direction == "descending":
        grid = grid[::-1]
    elif direction != "ascending":
        raise ValueError("direction must be 'ascending' or 'descending'")

    points: list[ScanPoint] = []
    a_first_violation = None
    a_certified = None
    for idx, a in enumerate(grid):
        Phi = build_family(family, d, a=a, base=base)
        res = falsify_ks(Phi, k, replace(budget, seed=_derive_seed(budget.seed, idx)))
        points.append(ScanPoint(a=a, verdict=res.verdict, worst_value=res.worst_value))
        if res.violated:
            if a_first_violation is None:
                a_first_violation = a
        elif a_first_violation is None:
            a_certified = a
    return ScanResult(
        family=family,
        d=d,
        k=k,
        direction=direction,
        a_certified_ks=a_certified,
        a_first_violation=a_first_violation,
        paper_bound=paper_bound_for(family, d, k),
        grid_step=grid_step,
        points=points,
    )


@dataclass
class SampledPropertyReport:
    d: int
    k: int
    n_samples: int
    verdicts: list[CertificateVerdict]

    @property
    def all_pass(self) -> bool:
        return all(v.verdict == "NoViolationFound" for v in self.verdicts)


def check_kp_implies_kks(
    d: int,
    k: int,
    seed: int,
    budget: SearchBudget,
    n_samples: int = 20,
) -> SampledPropertyReport:
    """Sampled check that unital TP CP maps (in particular (k+1)-positive
    ones) pass the k-KS falsifier; any Violated verdict is a hard failure."""
    verdicts = []
    for i in range(n_samples):
        sample_seed = _derive_seed(seed, i)
        Phi = sample_utp_cp(d, seed=sample_seed)
        verdicts.append(falsify_ks(Phi, k, replace(budget, seed=sample_seed)))
    return SampledPropertyReport(d=d, k=k, n_samples=n_samples, verdicts=verdicts)
