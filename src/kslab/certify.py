"""Defect operators; optimization-based falsifiers for the Kadison-Schwarz
inequality and its variants and for k-positivity; and the closed-form
decision of the Phi_k domination condition, which holds iff Phi is an HS
contraction, from one SVD of the transfer matrix.

A falsifier searches for a witness making a defect negative. Its verdicts
are one-sided: ``Violated`` comes with a self-certifying witness,
``NoViolationFound`` is evidence that the property holds, not a proof.
The exceptions are where the maths settles the question and an eigh of
Phi(1) and one of the Choi matrix C_Phi replace the search. One rule
decides k-KS: spec Phi(1) outside [0, 1] is violated at every k; else a
CP Phi is k-KS at every k, as a CP map with Phi(1) <= I is (Choi 1974);
else at k >= d Phi is violated, as k-KS implies k-positive, which for
k >= d is CP (Choi 1975); else the search runs. co-KS reads the rule on
tau o Phi, and d-positivity holds iff lambda_min(C_Phi) >= 0. These
verdicts are exact up to float64 eighs.

The three falsifiers (KS, co-KS and k-positivity) run on one
random-restart driver, ``_falsify``, which seeds every restart from the
budget seed, stops at the first violation and re-checks the violating point.
It drives a list of searches that differ only in their seeds, one per map:
a single falsifier call is a list of one, and a threshold scan hands it the
grid points the closed forms leave open, STACK_SEARCHES at a time, so that
a stack holds at most STACK_SEARCHES (R - 1) members however fine the grid.
Its schedule has two stages: restart 1 of every search runs in lockstep as
one stack through stacked kernels, and then restarts 2..R of every search
whose restart 1 found no violation run as one more. Each member reads its
own map's transfer matrix. A stack member computes bit for bit what it
would compute alone, so the verdicts depend neither on the schedule nor on
the other searches in the stack. That holds for the random combinations
drawn inside a degenerate bottom cluster too: each member draws from its
own generator, one call per member, and one _cluster_draws call runs the
combinations, their norms and their products with the cluster's
eigenvectors as one stacked product per cluster size, which makes, member
by member, the BLAS call of a member alone on the same strides.

The k-positivity restart minimizes <psi|C_Phi|psi> over Schmidt-rank-k unit
vectors by alternating least squares over the two Schmidt factors. The KS
restart minimizes f(X) = lambda_min(defect(X)) over the Hilbert-Schmidt
unit sphere by alternating minimization of the bilinear objective
g(X, v) = v* defect(X) v: for fixed X the optimal v is the bottom
eigenvector of the defect, and for fixed v the objective is an exact
Hermitian quadratic form in vec(X), so both half-steps are global
eigenvector computations. The iteration is monotone in f, which avoids the
flat zero-level plateaus where plain projected gradient descent on
lambda_min stalls. The co-KS defect of Phi is the transposed KS defect of
tau o Phi, tau the transposition, so co-KS is the KS verdict of tau o Phi,
decided and searched on its transfer matrix transpose_rows(T).

The k-KS defect separates over the block rows of X, so the X half-step
matrix is M_v = I_k (x) M'_v up to the order of vec(X), with
M'_v = W^T (x) I_d - G*G of side n d read from the base transfer matrix;
its bottom eigenvector, from one dense eigh, fills block row 0 of X.

Most X half-steps of a clean or converged restart need no eigenvector. The
certificate (_certified): for a unit candidate c, a Cholesky factor of
M'_v - (c* M'_v c - eps) I, eps = STALL_TOL / STALL_WINDOW, shows that
lambda_min(M'_v) > c* M'_v c - eps up to the rounding of the
factorization; where that rounding exceeds eps it fails, safe, to the
dense step. Where it passes, the step keeps c: it forgoes less than eps,
and a stall window of such steps less than STALL_TOL, the stall rule's own
resolution. The X half-step tests one candidate, the start point X_0,
e_0^T (x) I_d / sqrt(d) in block row 0, at a restart's first step only.
For Y = c^T (x) I_d and unital Phi, Phi_k(Y*Z) = Phi_k(Y)* Phi_k(Z) for
every Z (Kadison 1952), so X_0 is a null vector of every M'_v, and passes
wherever Phi is k-KS and M'_v >= 0, at a KS threshold too. A restart's own
X is tested in one place, its window, opened after a step that kept X_0 or
while the restart stalls; a descending restart tests nothing. An X that
keeps itself has the defect, spectrum and stall rule input of its step
before, bit for bit, so the window runs the rest of the stall window at
once (_alternating_restart): with one bottom eigenvalue v repeats, and one
test of X at v tells every step; with a degenerate bottom only the draw v
changes, and the draws are made ahead and tested as stacked Cholesky
calls. Both keep the counters, draws and tests of the step-by-step route.

Near a threshold a violated restart converges linearly, slowly and along
a line, so the restart takes a safeguarded Aitken step (Aitken 1926) on
every second of a run of descending steps whose defects have one bottom
eigenvalue: from its last three X, phase-aligned, it evaluates D once at
X_2 + r/(1 - r) (X_2 - X_1), r the ratio of the last two step lengths,
when those steps point the same way within EXTRAPOLATION_ALIGNMENT and
shrink, and keeps that point only where its bottom eigenvalue is single
and lower (_aitken, _alternating_restart). The step draws nothing; the
steps line up in a degenerate bottom eigenspace through _ks_xstep's choice.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from . import linalg
from .linalg import _derive_seed, dagger, ginibre, hermitianize, hs_norm, partial_trace_second
from .maps import BlockOperator, QuantumMap, apply_amplified, choi
from .zoo import (
    ParameterDomainError,
    bound_lambda_minus,
    bounds_lambda_plus,
    build_family,
    transpose_rows,
)

EIG_DEGENERACY_GAP = 1e-8
STALL_TOL = 1e-12
STALL_WINDOW = 10
WITNESS_RECHECK_TOL = 1e-8
# the most maps one KS stack searches at once; a longer list runs in chunks,
# so that the memory of a threshold scan does not grow with its grid
STACK_SEARCHES = 16
# the cosine |<d_0, d_1>| / (||d_0|| ||d_1||) of two successive steps from
# which _aitken extrapolates; most steps of the near-threshold Lambda^-(id)
# runs at (3,2), (4,3) and, with _ks_xstep's projection, (4,2) read above it
EXTRAPOLATION_ALIGNMENT = 0.99


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
        for name in ("restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer too, as JSON takes it
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:  # a SeedSequence entropy must be non-negative
            raise ValueError("seed must be >= 0")
        if not self.violation_tol > 0:  # NaN fails too
            raise ValueError("violation_tol must be positive")


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
    """Phi(X*X) - Phi(X)*Phi(X): the amplified KS defect at k = 1."""
    return amplified_ks_defect(Phi, 1, X)


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
    return _ks_defect(Phi.transfer, k, X)


def _ks_defect(T: np.ndarray, k: int, X: np.ndarray) -> np.ndarray:
    """The amplified KS defect of the map with transfer matrix T at X; T and
    X may be stacks, one map per matrix (see maps.apply_amplified)."""
    Y = apply_amplified(T, X, k)
    return apply_amplified(T, dagger(X) @ X, k) - dagger(Y) @ Y


def kks_block_defect(Phi: QuantumMap, ops: list[np.ndarray]) -> np.ndarray:
    """Block criterion for the k-KS property: the kd x kd matrix with
    (i, j)-block Phi(X_i* X_j) - Phi(X_i)* Phi(X_j)."""
    images = [Phi(X) for X in ops]
    return linalg.from_blocks(np.array([
        [Phi(dagger(Xi) @ Xj) - dagger(Yi) @ Yj for Xj, Yj in zip(ops, images)]
        for Xi, Yi in zip(ops, images)
    ]))


def phi_k_defect(Phi: QuantumMap, k: int, X: np.ndarray) -> np.ndarray:
    """k x k matrix Tr_2(X*X) - Tr_2(Phi_k(X)* Phi_k(X)); PSD for all X iff
    the amplified map is dominated by Delta_k in the sense of Delta-ordering."""
    d = Phi.d
    Y = Phi.apply_amplified(X, k)
    return partial_trace_second(dagger(X) @ X, k, d) - partial_trace_second(
        dagger(Y) @ Y, k, d
    )


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
    rows = [list(row) for row in linalg.blocks(X, k, Phi.d)]
    return min(rows, key=lambda t: linalg.min_eigenvalue(kks_block_defect(Phi, t)))


# ---------------------------------------------------------------------------
# half-step kernels
#
# The X half-step needs a bottom eigenvector of the n^2 x n^2 M_v with
# vec(X)* M_v vec(X) = v* defect(X) v, n = k d. Phi_k acts block-wise and
# X*X = sum_R (P_R X)*(P_R X), P_R the projection onto block row R, so
# defect(X) = sum_R defect(P_R X), each term one form M'_v in the d x n row
# Y = P_R X: M_v = I_k (x) M'_v up to the order of vec(X). With
# T3[q, p, :] = T[q*d + p, :] (output column q, output row p) for the base
# transfer matrix T and G = [G_0 | ... | G_{k-1}], G_C = sum_q (v_C)_q T3[q],
# G vec(Y) = sum_C Phi(Y_C) v_C, and W = Phi_k*(vv*) is read off the same
# contraction, so M'_v = W^T (x) I_d - G*G. _ks_parts returns (W, G) and
# _qform builds M'_v from them. At k = 1, M'_v is M_v.
# _certified tells, from one Cholesky factorization, whether a candidate
# vector is within STALL_TOL / STALL_WINDOW of the bottom of M'_v, so that
# the X half-step may keep it with no eigh (see the module docstring).
# The kernels work on stacks, one member per restart of a lockstep batch.
# ---------------------------------------------------------------------------


def _ks_parts(T3: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, G) of M'_v for the map with transfer matrix
    T = T3.reshape(d*d, d*d), for each row v of the B x k d stack; T3 is
    d x d x d^2, one map for every row, or a stack of B of them, one per row.
    Block (C, C') of W is Phi*(v_C v_C'*) = unvec(conj(v_C* G_C')), as
    T* vec(v_C v_C'*) = conj(v_C* G_C')."""
    (B, n), d = v.shape, T3.shape[-3]
    k = n // d
    # a vector-matrix product per block: a member's bits depend on neither k,
    # B nor its neighbours' maps
    G3 = v.reshape(B, k, 1, d) @ T3.reshape(-1, 1, d, d**3)  # [., C, 0, (p, :)]
    G = G3.reshape(B, k, d, d * d).swapaxes(1, 2).reshape(B, d, n * d)
    vW = (v.conj().reshape(B, k, d) @ G).conj()  # [., C, (C', j, i)] = vec(W_CC')
    return hermitianize(vW.reshape(B, k, k, d, d).transpose(0, 1, 4, 2, 3).reshape(B, n, n)), G


def _qform(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """M = W^T (x) I_m - G*G for each (W, G) of a stack, W n x n and G with
    n m columns, Hermitian by construction for Hermitian W; W^T is written
    straight into the diagonal of the I_m factor."""
    n = W.shape[-1]
    m = G.shape[-1] // n
    M = np.zeros(W.shape[:-2] + (n, m, n, m), dtype=complex)
    i = np.arange(m)
    M[..., :, i, :, i] = np.swapaxes(W, -1, -2)
    M = M.reshape(W.shape[:-2] + (n * m, n * m))
    M -= dagger(G) @ G  # in place: a batch holds a stack of these
    return M


def _certified(A: np.ndarray, c: np.ndarray) -> np.ndarray:
    """For each form A of the stack and its unit candidate x, the matching
    row of c, whether A - (g - eps) I, g = x* A x and eps = STALL_TOL /
    STALL_WINDOW, has a Cholesky factor: then lambda_min(A) > g - eps, up to
    the rounding of the factorization, and where that rounding exceeds eps
    the test fails. A is overwritten. numpy refuses a whole stack for one member
    that does not factor, so after a refused stack each member is tested on
    its own."""
    g = (c.conj()[:, None] @ (A @ c[:, :, None]))[:, 0, 0].real
    i = np.arange(A.shape[-1])
    A[:, i, i] -= (g - STALL_TOL / STALL_WINDOW)[:, None]
    ok = np.ones(len(A), dtype=bool)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for b, a in enumerate(A):
            try:
                np.linalg.cholesky(a)
            except np.linalg.LinAlgError:
                ok[b] = False
    return ok


def _ks_xstep(
    W: np.ndarray, G: np.ndarray, X: np.ndarray, c: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """X half-steps of the KS search for stacks W, G, as a fresh
    C-contiguous array with one row per member, since the bits of the
    defect depend on the layout of X, and the mask of the members that kept
    their candidate. Unless c is None, each member keeps its unit
    candidate, its row of the C-contiguous c, where _certified passes it on
    M'_v = W^T (x) I_m - G*G; the others take a bottom eigenvector of M'_v
    from one stacked dense eigh.
    One of those whose bottom cluster (as _clusters counts it) has more than
    one eigenvalue, below -EIG_DEGENERACY_GAP, takes the unit projection
    onto it of vec(block row 0 of its iterate in X), on its own arrays,
    unless that is within EIG_DEGENERACY_GAP of 0: the minimizer nearest
    the iterate, so the Aitken step cuts Lambda^-(id) at (4,2) from 31-35 to
    15-19 iterations."""
    M = _qform(W, G)
    kept = np.zeros(len(M), dtype=bool) if c is None else _certified(M.copy(), c)
    if not kept.any():  # the dense step for every member
        w, U = np.linalg.eigh(M)
        out, refused = U[:, :, 0].copy(), range(len(M))
    else:
        out, refused = np.array(c), np.flatnonzero(~kept)
        if not len(refused):
            return out, kept
        w, U = np.linalg.eigh(M[refused])
        out[refused] = U[:, :, 0]
    if w[:, 0].min() < -EIG_DEGENERACY_GAP:
        d = G.shape[-2]
        for i in np.flatnonzero((w[:, 1] - w[:, 0] < EIG_DEGENERACY_GAP) & (w[:, 0] < -EIG_DEGENERACY_GAP)).tolist():
            Ui, b = U[i, :, : int((w[i] - w[i, 0] < EIG_DEGENERACY_GAP).sum())].copy(), refused[i]
            p = Ui @ (Ui.conj().T @ X[b, :d].T.ravel())
            if (norm := math.sqrt(np.vdot(p, p).real)) > EIG_DEGENERACY_GAP:
                out[b] = p / norm
    return out, kept


def _compress_right(C4: np.ndarray, V: np.ndarray) -> np.ndarray:
    """(I_d (x) V)* C (I_d (x) V) for C4 = C.reshape(d, d, d, d), for each V
    of a stack."""
    d, k = V.shape[-2:]
    CV = (C4.reshape(d**3, d) @ V).reshape(-1, d, d, d * k)  # [., a, b, (c, t)]
    return (dagger(V)[..., None, :, :] @ CV).reshape(V.shape[:-2] + (d * k, d * k))  # [(a, s), (c, t)]


def _compress_left(C4: np.ndarray, U: np.ndarray) -> np.ndarray:
    """(U (x) I_d)* C (U (x) I_d) for C4 = C.reshape(d, d, d, d), for each U
    of a stack."""
    d, k = U.shape[-2:]
    UC = (dagger(U) @ C4.reshape(d, d**3)).reshape(-1, k * d, d, d)  # [., (s, b), c, e]
    UCU = np.swapaxes(UC, -1, -2) @ U[..., None, :, :]  # [., (s, b), e, t]
    return np.swapaxes(UCU, -1, -2).reshape(U.shape[:-2] + (k * d, k * d))  # [(s, b), (t, e)]


# ---------------------------------------------------------------------------
# the restart driver
# ---------------------------------------------------------------------------


def _verdict(
    worst: float,
    point: object,
    recheck: Callable[[object], float],
    make_witness: Callable[[object], BlockOperator | SchmidtWitness],
    counters: dict,
    budget: SearchBudget,
    scale: float = 1.0,
) -> CertificateVerdict:
    """The verdict on the worst value found, at ``point``: Violated below
    -budget.violation_tol, once ``recheck(point)``, evaluated away from the
    search, reproduces it within WITNESS_RECHECK_TOL * scale; the witness is
    then make_witness(point)."""
    violated = worst < -budget.violation_tol
    # explicit raise rather than assert, so the check survives python -O;
    # written so that a NaN recheck fails too
    if violated and not abs((value := recheck(point)) - worst) <= WITNESS_RECHECK_TOL * scale:
        raise WitnessRecheckError(
            f"witness re-evaluates to {value!r}, the search reported {worst!r}"
        )
    return CertificateVerdict(
        verdict="Violated" if violated else "NoViolationFound",
        worst_value=float(worst),
        witness=make_witness(point) if violated else None,
        budget_used=counters,
        seed=budget.seed,
    )


def _decided(
    worst: float,
    point: object,
    recheck: Callable[[object], float],
    make_witness: Callable[[object], BlockOperator | SchmidtWitness],
    budget: SearchBudget,
    scale: float,
) -> CertificateVerdict:
    """The verdict of a closed-form decision, counted as one restart of one
    iteration whose one defect evaluation is the recheck of a violation."""
    counters = {"restarts": 1, "iterations": 1, "defect_evals": int(worst < -budget.violation_tol)}
    return _verdict(worst, point, recheck, make_witness, counters, budget, scale)


def _falsify(
    restart: Callable[..., list[tuple[float, object, dict]]],
    values: list[Callable[[object], float]],
    make_witness: Callable[[object], BlockOperator | SchmidtWitness],
    budgets: list[SearchBudget],
    *maps: np.ndarray,
) -> list[CertificateVerdict]:
    """Random-restart driver shared by the three falsifiers, for a list of
    searches whose budgets differ only in their seeds; one verdict each.

    ``restart(rngs, *rows)`` runs one search per generator, in lockstep, and
    returns for each the (best value, best point, counters) of a run with
    that generator alone. Each array of ``maps`` has a row per search, and
    ``rows`` holds its rows for the members, in order. Restart r of
    1..R of search s draws from linalg.rng(budgets[s].seed, r - 1), so the
    result is deterministic. Stage 1 runs restart 1 of every search as one
    stack; stage 2 runs restarts 2..R of every search whose restart 1 found
    no violation, as one more. Each search's results are folded in restart
    order up to its first violation, as if its restarts had run one by one
    and stopped there: the counters are summed over that prefix and the
    worst value is its minimum. ``_verdict`` rechecks a violating point of
    search s with ``values[s]`` and turns it into the witness with
    ``make_witness``.
    """
    first = budgets[0]
    if any(replace(b, seed=first.seed) != first for b in budgets):
        raise ValueError("the searches of one stack may differ only in their seeds")

    def stage(owners: list[int], tries: list[int]) -> list[tuple[float, object, dict]]:
        rngs = [linalg.rng(budgets[s].seed, r) for s, r in zip(owners, tries)]
        return restart(rngs, *(M[owners] for M in maps))

    searches = range(len(budgets))
    runs = [[run] for run in stage(list(searches), [0] * len(budgets))]
    again = [s for s in searches if not runs[s][0][0] < -first.violation_tol]
    later = range(1, first.restarts)
    owners = [s for s in again for _ in later]
    if owners:
        for s, run in zip(owners, stage(owners, [r for _ in again for r in later])):
            runs[s].append(run)
    verdicts = []
    for s in searches:
        worst, worst_point = np.inf, None
        counters = {"restarts": 0, "iterations": 0, "defect_evals": 0}
        for f, point, used in runs[s]:
            counters["restarts"] += 1
            counters["iterations"] += used["iterations"]
            counters["defect_evals"] += used["defect_evals"]
            if f < worst:
                worst, worst_point = f, point
            if worst < -first.violation_tol:
                break
        verdicts.append(_verdict(worst, worst_point, values[s], make_witness, counters, budgets[s]))
    return verdicts


# ---------------------------------------------------------------------------
# restarts: alternating minimization on the HS unit sphere and over the
# Schmidt factors of psi, in lockstep over a batch of generators. Each member
# draws its start and its cluster combinations from its own generator and
# leaves the batch by its own stall rule; every stacked kernel gives on each
# member what the unstacked call gives.
# ---------------------------------------------------------------------------


def _clusters(D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ascending spectrum w and the eigenvectors V of each matrix of
    the stack D, Hermitianized, and the number of eigenvalues in its bottom
    cluster, those within EIG_DEGENERACY_GAP of the smallest."""
    w, V = np.linalg.eigh(hermitianize(D))
    return w, V, (w - w[:, :1] < EIG_DEGENERACY_GAP).sum(axis=1)


def _cluster_draws(U: np.ndarray, sizes: list[int], rngs: list[np.random.Generator]) -> np.ndarray:
    """U[i, :, :m] @ c_i for each row i of the stack U, m = sizes[i] and c_i a
    random unit vector of C^m drawn by rngs[i]; a generator listed more than
    once draws for its rows in order.

    Only the draws stay per row: row i calls standard_normal(2 m) on its
    generator, in row order. The rows of one cluster size m run their
    combination c, its norm and its product with the columns as one stack,
    with the arithmetic of a single row's call, so each row gets the bits it
    would get alone. The sums, square roots and divisions are elementwise;
    the squared norm is a stacked (1 x m)(m x 1) product over the real and
    the imaginary view, the strided BLAS dot of c.real.dot(c.real); and the
    product is a stacked (n x m)(m x 1) product over per-row Fortran-ordered
    copies of the columns, the gemv of np.asfortranarray(U[i, :, :m]) @ c."""
    z = [rng.standard_normal(2 * m) for rng, m in zip(rngs, sizes)]
    out = np.empty(U.shape[:2], dtype=complex)
    for m in set(sizes):
        rows = [i for i, mi in enumerate(sizes) if mi == m]
        c = np.array([z[i] for i in rows])
        c = c[:, :m] + 1j * c[:, m:]
        re, im = c.real[:, None], c.imag[:, None]
        c /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
        # the rows' m x n transposes, gathered in one copy: their columns in Fortran order
        cols = np.take(U.swapaxes(1, 2)[:, :m], rows, axis=0, out=np.empty((len(rows), m, U.shape[1]), dtype=complex))
        out[rows] = (cols.swapaxes(1, 2) @ c[:, :, None])[:, :, 0]
    return out


def _min_eig_vectors(
    D: np.ndarray, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray]:
    """Smallest eigenvalue of each matrix of the stack D, and a vector from
    its eigenspace; inside a near-degenerate bottom cluster a random unit
    combination is taken (subgradient choice), drawn from that member's rng.

    Returns (f, V, sizes, bottom): column 0 of V[b] holds the vector, the
    bottom eigenvector bottom[b] or the draw written over it, a strided
    column whose strides are part of the bits of an X half-step from it, and
    sizes[b] is the number of eigenvalues in the bottom cluster, the first m
    of the ascending spectrum. The members whose bottom cluster is
    degenerate draw through one _cluster_draws call, each from its own rng,
    so the order of the draws across members does not matter.
    """
    w, V, sizes = _clusters(D)
    sizes, bottom = sizes.tolist(), V[:, :, 0].copy()
    if drawn := [b for b, m in enumerate(sizes) if m > 1]:
        V[drawn, :, 0] = _cluster_draws(V[drawn, :, : max(sizes)], [sizes[b] for b in drawn],
                                        [rngs[b] for b in drawn])
    return w[:, 0], V, sizes, bottom


def _min_eig_value(defect: Callable[[np.ndarray], np.ndarray], X: np.ndarray) -> float:
    """f(X) = lambda_min(defect(X)), the value a sphere witness re-checks."""
    return linalg.min_eigenvalue(defect(X))


def _aitken(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray | None:
    """The safeguarded Aitken point of three successive unit iterates vec(X):
    each is phase-aligned to the one before (D(e^{it} X) = D(X)), and where
    d_0 = x1 - x0 and d_1 = x2 - x1 point the same way (cosine at least
    EXTRAPOLATION_ALIGNMENT) and shrink, r = ||d_1|| / ||d_0|| < 1, it is
    x2 + r/(1 - r) d_1 scaled to norm 1; else None. One member's arithmetic
    on its own 1-D arrays, so a stack member gets the bits of a run alone."""
    c = np.vdot(x0, x1)
    x1 = x1 * (c.conjugate() / abs(c)) if c else x1
    c = np.vdot(x1, x2)
    x2 = x2 * (c.conjugate() / abs(c)) if c else x2
    d0, d1 = x1 - x0, x2 - x1
    n0, n1 = math.sqrt(np.vdot(d0, d0).real), math.sqrt(np.vdot(d1, d1).real)
    if not (abs(np.vdot(d0, d1)) >= EXTRAPOLATION_ALIGNMENT * n0 * n1 and n1 < n0):
        return None
    x = x2 + (n1 / (n0 - n1)) * d1
    return x / math.sqrt(np.vdot(x, x).real)


def _alternating_restart(
    defect: Callable[..., np.ndarray],
    xstep: Callable[..., tuple[np.ndarray, np.ndarray]],
    certified: Callable[..., np.ndarray],
    n: int,
    budget: SearchBudget,
    rngs: list[np.random.Generator],
    *maps: np.ndarray,
) -> list[tuple[float, np.ndarray, dict]]:
    """Alternating minimization of g(X, v) = v* defect(X) v from a Ginibre
    start on the HS unit sphere, one run per generator.

    ``defect`` maps a stack of n x n matrices to the stack of their defects.
    ``xstep(v, X, first, *rows)`` maps a stack of vectors v, and the X
    they came from, to the stack of X with vec(X) a unit bottom eigenvector
    of each Hermitian n^2 x n^2 M_v with vec(X)* M_v vec(X) = v* defect(X) v
    (for k-KS, that of M'_v in block row 0), so the X half-step is exact and
    f(X) decreases monotonely; and to the mask of the members that kept
    the search's start point X_0 instead, which it may test at the
    ``first`` X half-step only. ``certified(vs, X, *rows)`` tells for each
    vector v of vs whether the X of its row would keep itself as its X
    half-step from v. Both take the arrays of ``maps`` after their stack:
    each has a row per member, and a member's row leaves the batch with its
    vector. Each member counts its own iterations and stops by its own
    stall rule. Returns (best value, best X, counters) per run.

    After each step, a member that kept X_0 or has stalled runs its window
    (see the module docstring), the only test of its own X: the L steps
    after which the stall rule or max_iters would stop it, should each keep
    its X, each an iteration and a defect evaluation. ``certified`` tests
    the vector v of its next X half-step at its X. With one bottom
    eigenvalue, a kept X repeats its defect and v, so that one test tells
    all L steps; in a degenerate bottom cluster, read from the step's own
    eigh, the L - 1 later draws are made ahead and tested too. The tests
    run at most max(live members, STALL_WINDOW) to a stack. A member whose
    first p vectors pass takes p steps at X, which, as any kept step, end
    its run of descending steps. Unless that stops it, its generator is set
    back and advanced by those p steps' draws only, and it holds the
    refused vector, for which its next xstep takes the dense step: the
    step-by-step route's draws, tests and counters. xstep gets v as column
    0 of the step's V, strided as the eigh left it: v's strides are part of
    the bits of the X half-step.

    A member whose last 3, 5, 7, ... xsteps each left a one-eigenvalue
    bottom cluster and lowered its best value evaluates D at the _aitken
    point of its last three X, if its gate lets one through, and takes it in
    place of the last X where its cluster is one eigenvalue and its
    lambda_min lower: no draw, one more defect evaluation, and a real point
    that _verdict rechecks as any other.
    """
    B = len(rngs)
    X = np.stack([X0 / hs_norm(X0) for X0 in (ginibre(rng, n) for rng in rngs)])
    f, V, sizes, _ = _min_eig_vectors(defect(X, *maps), rngs)
    f = f.tolist()
    best_f, best_X = list(f), list(X)
    recent_best, stall, iters = [np.inf] * B, [0] * B, [0] * B
    # the xsteps in a row that qualify for the Aitken step, the candidates
    # evaluated, and the X of the two xsteps before the last, rows as live
    run, tried, past = [0] * B, [0] * B, (X, X)
    live = list(range(B))  # the members still iterating
    out: list = [None] * B

    def stops(b: int, fb: float, Xb: np.ndarray) -> bool:
        """Count one iteration of member b that ended at the value fb at Xb;
        whether its stall rule or max_iters stops it there."""
        iters[b] += 1
        if fb < best_f[b]:
            best_f[b], best_X[b] = fb, Xb.copy()
        if recent_best[b] - best_f[b] < STALL_TOL:
            stall[b] += 1
        else:
            stall[b], recent_best[b] = 0, best_f[b]
        if stall[b] >= STALL_WINDOW or iters[b] == budget.max_iters:
            # one defect evaluation at the start, one per iteration and one
            # per candidate
            out[b] = (best_f[b], best_X[b], {"iterations": iters[b], "defect_evals": iters[b] + 1 + tried[b]})
            return True
        return False

    def going() -> tuple:
        """live, X, f, V, sizes, maps and past without the members that
        stopped."""
        keep = [j for j, b in enumerate(live) if out[b] is None]
        if len(keep) == len(live):
            return live, X, f, V, sizes, maps, past
        return ([live[j] for j in keep], X[keep], [f[j] for j in keep], V[keep], [sizes[j] for j in keep],
                tuple(M[keep] for M in maps), tuple(P[keep] for P in past))

    def extrapolate(due: list[int]) -> None:
        """The Aitken step of the members at the positions ``due`` of live,
        which may replace their rows of X, f, V and sizes."""
        found = [(j, x) for j in due if (x := _aitken(*(P[j].T.ravel() for P in (*past, X)))) is not None]
        if not found:
            return
        on = [j for j, _ in found]
        Xa = np.stack([x for _, x in found]).reshape(-1, n, n).swapaxes(1, 2)  # laid out as xstep's
        w, U, cluster = _clusters(defect(Xa, *(M[on] for M in maps)))
        for i, (j, fa, m) in enumerate(zip(on, w[:, 0].tolist(), cluster.tolist())):
            tried[live[j]] += 1
            if m == 1 and fa < f[j]:
                X[j], f[j], V[j], sizes[j] = Xa[i], fa, U[i], 1

    def window(on: list[int], bottom: np.ndarray) -> None:
        """Run the stall window of the members at the positions ``on`` of
        live for as long as their X keeps itself; bottom[j] is the bottom
        eigenvector of live[j]'s defect, which a draw overwrote in V."""
        # each step at X has the value f[j] >= best_f[b] and adds 1 to the
        # stall count, as stops left recent_best within STALL_TOL of best_f
        steps = {j: min(STALL_WINDOW - stall[live[j]], budget.max_iters - iters[live[j]]) for j in on}
        windows = [steps[j] if sizes[j] > 1 else 1 for j in on]  # the vectors each tests
        ends = np.cumsum(windows)
        vs = np.empty((ends[-1], n), dtype=complex)
        vs[ends - windows] = V[on, :, 0]
        saved = [rngs[live[j]].bit_generator.state for j in on]
        # (position in on, row of vs) of each draw made ahead, in order
        if ahead := [(i, e - L + r) for i, (L, e) in enumerate(zip(windows, ends.tolist())) for r in range(1, L)]:
            top = max(sizes[j] for j in on)
            U = np.concatenate([bottom[on, :, None], V[on, :, 1:top]], axis=2)  # the clusters
            take = [i for i, _ in ahead]
            vs[[row for _, row in ahead]] = _cluster_draws(U[take], [sizes[on[i]] for i in take],
                                                           [rngs[live[on[i]]] for i in take])
        owner, cap = np.repeat(on, windows), max(len(live), STALL_WINDOW)
        ok = np.concatenate([certified(vs[s], X[owner[s]], *(M[owner[s]] for M in maps))
                             for s in (slice(a, a + cap) for a in range(0, len(vs), cap))])
        for i, (j, L, e) in enumerate(zip(on, windows, ends.tolist())):
            b = live[j]
            p = int(np.argmin(np.append(ok[e - L : e], False)))  # the first refused vector, or L
            if p < L:  # b holds the refused vector, and its next xstep takes the dense step from it
                steps[j] = p
                rngs[b].bit_generator.state = saved[i]
                if p:
                    V[j, :, 0] = _cluster_draws(U[[i] * p], [sizes[j]] * p, [rngs[b]] * p)[-1]
        for j, p in steps.items():
            if p:
                run[live[j]] = 0
            for _ in range(p):
                stops(live[j], f[j], X[j])

    first = True
    while True:
        X, kept = xstep(V[:, :, 0], X, first, *maps)
        f, V, sizes, bottom = _min_eig_vectors(defect(X, *maps), [rngs[b] for b in live])
        f, due = f.tolist(), []
        for j, b in enumerate(live):
            run[b] = run[b] + 1 if sizes[j] == 1 and f[j] < best_f[b] else 0
            if run[b] > 2 and run[b] % 2:
                due.append(j)
        if due:
            extrapolate(due)
        past = (past[1], X)
        stopped = any([stops(b, f[j], X[j]) for j, b in enumerate(live)])
        if on := [j for j, b in enumerate(live) if out[b] is None and (kept[j] or stall[b] > 0)]:
            window(on, bottom)
            stopped = True
        first = False
        if stopped:
            live, X, f, V, sizes, maps, past = going()
            if not live:
                break
    return out


def _schmidt_value(C: np.ndarray, w: SchmidtWitness) -> float:
    """<psi|C|psi> / <psi|psi>, the value a Schmidt witness re-checks."""
    psi = w.psi
    return float(np.real(psi.conj() @ C @ psi) / np.vdot(psi, psi).real)


def _kpos_restart(
    C4: np.ndarray, k: int, budget: SearchBudget, rngs: list[np.random.Generator]
) -> list[tuple[float, SchmidtWitness, dict]]:
    """Alternating least squares over the two Schmidt factor stacks of psi
    from random orthonormal starts, for C4 = C.reshape(d, d, d, d), one run
    per generator; each half-step is an exact eigenvector update, so the
    value is non-increasing. Returns (value, witness, counters) per
    generator."""
    d = len(C4)
    # U is set by the first half-step; its start only advances the rng
    starts = np.array([[ginibre(rng, d, k), ginibre(rng, d, k)] for rng in rngs])
    V = np.linalg.qr(starts[:, 1])[0]
    prev = [np.inf] * len(rngs)
    live = list(range(len(rngs)))  # the members still iterating
    out: list = [None] * len(rngs)
    for it in range(1, budget.max_iters + 1):
        # psi = (I (x) V) r, r = vec_row(U); with V orthonormal the
        # smallest eigenvector of the compressed Choi is the exact
        # minimizer over U
        V = np.linalg.qr(V)[0]
        U = np.linalg.eigh(_compress_right(C4, V))[1][:, :, 0].reshape(-1, d, k)
        # psi = (U (x) I) x, x = vec_row(V^T); same update for V
        U = np.linalg.qr(U)[0]
        w, Q = np.linalg.eigh(_compress_left(C4, U))
        V = Q[:, :, 0].reshape(-1, k, d).swapaxes(1, 2)
        going = []
        for j, (b, val) in enumerate(zip(live, w[:, 0].tolist())):
            if prev[b] - val < STALL_TOL or it == budget.max_iters:
                # U orthonormal and the V-slices come from a unit
                # eigenvector, so psi already has unit norm
                out[b] = (val, SchmidtWitness(U[j].copy(), V[j].copy()), {"iterations": it, "defect_evals": 2 * it})
            else:
                prev[b] = val
                going.append(j)
        if len(going) < len(live):
            if not going:
                break
            live, V = [live[j] for j in going], V[going]
    return out


# ---------------------------------------------------------------------------
# falsifiers
# ---------------------------------------------------------------------------


def _ks_search(transfers: list[np.ndarray], k: int, budgets: list[SearchBudget]) -> list[CertificateVerdict]:
    """The k-KS searches of the maps on one M_d with these transfer
    matrices, which the KS and co-KS falsifiers reach through _ks_decide
    only for maps that are not CP, below d, at budgets that differ only in
    their seeds; one verdict each. The maps are searched as lockstep stacks
    (see _falsify) of at most STACK_SEARCHES maps."""
    d = math.isqrt(len(transfers[0]))
    n = k * d
    # vec(block row 0) of the start point X_0, e_0^T (x) I_d / sqrt(d)
    x0 = np.zeros(n * d, dtype=complex)
    x0[np.arange(d) * (d + 1)] = 1 / math.sqrt(d)

    def defect(X, T):
        return _ks_defect(T, k, X)

    def unvec(xs):
        # X with vec(block row 0) = xs, for each row of xs
        if k == 1:  # block row 0 is all of X
            return xs.reshape(-1, n, n).swapaxes(1, 2)
        x = np.zeros((len(xs), n, n), dtype=complex)  # [., column, row]
        x[:, :, :d] = xs.reshape(-1, n, d)
        return x.swapaxes(1, 2)

    def rows(X):
        # vec(block row 0) of each X
        return X[:, :d].swapaxes(1, 2).reshape(len(X), n * d)

    def xstep(v, X, first, T):
        c = np.tile(x0, (len(v), 1)) if first else None
        xs, kept = _ks_xstep(*_ks_parts(T.reshape(-1, d, d, d * d), v), X, c)
        return unvec(xs), kept

    def certified(vs, X, T):
        return _certified(_qform(*_ks_parts(T.reshape(-1, d, d, d * d), vs)), rows(X))

    restart = partial(_alternating_restart, defect, xstep, certified, n, budgets[0])
    verdicts = []
    for c in range(0, len(transfers), STACK_SEARCHES):
        chunk = range(c, min(c + STACK_SEARCHES, len(transfers)))
        values = [partial(_min_eig_value, partial(_ks_defect, transfers[i], k)) for i in chunk]
        T = np.stack([transfers[i] for i in chunk])
        verdicts += _falsify(restart, values, partial(BlockOperator, k, d), [budgets[i] for i in chunk], T)
    return verdicts


def _refuse_non_hp(Phi: QuantumMap, what: str) -> None:
    """Refuse a map that is not Hermiticity-preserving: its ``what`` is not
    Hermitian, so that the property searched for has no meaning there."""
    if not Phi.hermiticity_preserving:
        raise linalg.HermiticityError(
            f"map '{Phi.label}' is not Hermiticity-preserving; the {what} is not Hermitian"
        )


def _check_ks_map(Phi: QuantumMap, inequality: str) -> None:
    """Refuse a map that is not Hermiticity-preserving; warn on one that is
    not unital, for which the inequality is not stated."""
    _refuse_non_hp(Phi, f"{inequality} defect")
    if not Phi.unital:
        warnings.warn(
            f"map '{Phi.label}' is not unital; the {inequality} inequality is stated for unital maps",
            stacklevel=3,
        )


def _ks_decide(
    transfers: list[np.ndarray], unital: list[bool], k: int, budgets: list[SearchBudget]
) -> list[CertificateVerdict]:
    """The k-KS verdicts of the maps on one M_d with these transfer matrices
    and QuantumMap.unital flags, for the KS and co-KS falsifiers and the
    scan: decided in closed form where the maths settles it
    (_ks_closed_form), and otherwise from one _ks_search call, which
    searches every map left as one stack. co-KS of Phi is the KS verdict of
    tau o Phi, on transpose_rows(T), which is unital iff Phi is."""
    verdicts = [_ks_closed_form(T, k, b, u) for T, u, b in zip(transfers, unital, budgets)]
    searched = [i for i, v in enumerate(verdicts) if v is None]
    if searched:
        found = _ks_search([transfers[i] for i in searched], k, [budgets[i] for i in searched])
        for i, v in zip(searched, found):
            verdicts[i] = v
    return verdicts


def _ks_closed_form(T: np.ndarray, k: int, budget: SearchBudget, unital: bool) -> CertificateVerdict | None:
    """The k-KS verdict of the map Phi with transfer matrix T in closed
    form, or None where that does not settle it and the search must run:
    - spec Phi(1) outside [0, 1]: Violated at every k, with X = I/sqrt(kd);
    - else C >= 0, C the Choi matrix: NoViolationFound at every k;
    - else k >= d: Violated, with X = P_Omega/d;
    - else None.
    The witnesses: X = I/sqrt(kd) has the defect I_k (x) (Phi(1) -
    Phi(1)^2)/(kd), so it attains min(mu - mu^2)/(kd), mu = spec Phi(1), at
    every k, and 0 on a unital Phi, whose Phi(1) is not read. For k >= d,
    X = P_Omega/d, Omega = sum_i e_i (x) e_i in C^k (x) C^d, has the defect
    (C/d - C^2/d^2) (+) 0 for any Phi, so it attains the smaller of
    f(lambda) = lambda/d - lambda^2/d^2 at the two ends of spec C at k = d,
    and min(0, .) of that at k > d. Both have HS norm 1, and the verdict
    reports the least value they attain at k, an upper bound on the infimum
    as a search's value is, not a margin (0.5 id at (2,1) reads 0.125, where
    X = E_12 attains 0); a unital Phi's clean value below d keeps its k = d
    value, the rounding of a zero eigenvalue. At k >= d the value is the
    verdict, as a CP Phi's is >= 0 there; below d the gate is C >= 0 up to
    the rounding of its eigh. A decided verdict reads no restarts or
    max_iters."""
    d = math.isqrt(len(T))
    recheck = partial(_min_eig_value, partial(_ks_defect, T, k))
    worst = 0.0
    if not unital:
        mu = np.linalg.eigvalsh(hermitianize(linalg.unvec(T @ linalg.vec(np.eye(d)), d)))
        worst = float(np.min(mu - mu * mu)) / (k * d)
        if worst < -budget.violation_tol:
            X = np.eye(k * d, dtype=complex) / math.sqrt(k * d)
            scale = max(1.0, float(np.abs(mu).max()) ** 2)
            return _decided(worst, X, recheck, partial(BlockOperator, k, d), budget, scale)
    lam = np.linalg.eigh(hermitianize(choi(T)))[0][[0, -1]]
    w = lam / d
    if unital or k >= d:  # P_Omega/d's value, and at k > d the 0 of its (+) 0
        worst = min(worst, float(np.min(w - w * w)))
        worst = min(worst, 0.0) if k > d else worst
    if k < d:
        # C >= 0 up to the rounding of a d^2 x d^2 eigh; a value below
        # -violation_tol (a tol under that rounding) has no witness to give
        psd = lam[0] >= -d * d * np.finfo(float).eps * max(1.0, float(np.abs(lam).max()))
        if psd and worst >= -budget.violation_tol:
            return _decided(worst, None, None, None, budget, 1.0)
        return None
    omega = np.arange(d) * (d + 1)  # the support of Omega in C^k (x) C^d
    X = np.zeros((k * d, k * d), dtype=complex)
    X[np.ix_(omega, omega)] = 1 / d
    # scaled, as the d^2 and (kd)^2 eighs drift apart with the size of C^2/d^2
    scale = max(1.0, float(np.abs(w).max()) ** 2)
    return _decided(worst, X, recheck, partial(BlockOperator, k, d), budget, scale)


def falsify_ks(
    Phi: QuantumMap, k: int = 1, budget: SearchBudget = SearchBudget()
) -> CertificateVerdict:
    """Search for a violation of the k-KS inequality of Phi. The closed
    form decides every Phi with spec Phi(1) outside [0, 1], every CP Phi and
    every Phi at k >= d (see _ks_closed_form); a Phi that is not CP runs the
    search below d. A decided clean worst_value below d is the least value of
    the closed-form witnesses: an upper bound on the infimum, not a margin."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_ks_map(Phi, "KS")
    return _ks_decide([Phi.transfer], [Phi.unital], k, [budget])[0]


def falsify_co_ks(Phi: QuantumMap, budget: SearchBudget = SearchBudget()) -> CertificateVerdict:
    """Search for a violation of the co-KS inequality of Phi. With tau the
    transposition, the co-KS defect of Phi at X is the transpose of the KS
    defect of tau o Phi at X, so this is the KS verdict of tau o Phi at
    k = 1 (see _ks_decide), and a witness X serves both."""
    _check_ks_map(Phi, "co-KS")
    return _ks_decide([transpose_rows(Phi.transfer)], [Phi.unital], 1, [budget])[0]


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
    X = np.zeros((k * d, k * d), dtype=complex)
    X[:d, :d] = linalg.unvec(Vh[0].conj(), d)
    recheck = partial(_min_eig_value, partial(phi_k_defect, Phi, k))
    # scaled, as SVD and eigvalsh drift apart with the size of the defect
    return _decided(worst, X, recheck, partial(BlockOperator, k, d), budget, max(1.0, s2))


def falsify_k_positivity(
    Phi: QuantumMap, k: int, budget: SearchBudget = SearchBudget()
) -> CertificateVerdict:
    """Search for a Schmidt-rank-<=k unit vector psi with <psi|C_Phi|psi> < 0
    by alternating least squares over the two Schmidt factor stacks.

    At k = d every unit psi qualifies, so the minimum is lambda_min(C_Phi),
    decided from one eigh of C_Phi; restarts and max_iters are not read, and
    both verdicts are exact up to that float64 eigh. The witness is the
    bottom eigenvector psi written as SchmidtWitness(I, Psi^T),
    Psi = unvec_row(psi)."""
    d = Phi.d
    if not 1 <= k <= d:
        raise ParameterDomainError(f"k-positivity needs 1 <= k <= d, got k={k}, d={d}")
    # a k-positive map is Hermiticity-preserving
    _refuse_non_hp(Phi, "Choi matrix")
    C = hermitianize(Phi.choi())
    if k == d:
        lam, V = np.linalg.eigh(C)
        witness = SchmidtWitness(np.eye(d, dtype=complex), V[:, 0].reshape(d, d).T)
        scale = max(1.0, float(np.abs(lam).max()))
        return _decided(float(lam[0]), witness, partial(_schmidt_value, C), lambda w: w, budget, scale)
    restart = partial(_kpos_restart, C.reshape(d, d, d, d), k, budget)
    # the point a restart returns is the witness already
    return _falsify(restart, [partial(_schmidt_value, C)], lambda w: w, [budget])[0]


# ---------------------------------------------------------------------------
# threshold scans
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
    of the certified region against the closed-form bound.

    Grid point i gets the budget with seed _derive_seed(budget.seed, i), and
    its verdict is falsify_ks's at that budget, bit for bit. The points are
    decided together (_ks_decide): the closed form settles those it can,
    and the others are searched as one lockstep stack in two stages,
    restart 1 of every searched point, then restarts 2..R of every point
    whose restart 1 came back clean. The searched points run in chunks of
    STACK_SEARCHES, so a stack holds at most STACK_SEARCHES (R - 1) members,
    each a k d x k d iterate and an n d x n d X half-step form, n = k d,
    whatever the grid.

    a_certified_ks is the last grid point, in scan order, whose verdict is
    NoViolationFound before the first violation: search evidence, not a
    certificate."""
    if not (np.isfinite([a_min, a_max, grid_step]).all() and a_min < a_max and grid_step > 0):
        raise ParameterDomainError("need finite a_min < a_max and grid_step > 0")
    n_pts = int(round((a_max - a_min) / grid_step)) + 1
    grid = [a_min + i * grid_step for i in range(n_pts) if a_min + i * grid_step <= a_max + 1e-12]
    if direction == "descending":
        grid = grid[::-1]
    elif direction != "ascending":
        raise ValueError("direction must be 'ascending' or 'descending'")
    # before the grid, so a family or (d, k) without a bound fails at once
    paper_bound = paper_bound_for(family, d, k)

    maps = [build_family(family, d, a=a, base=base) for a in grid]
    for Phi in maps:
        _check_ks_map(Phi, "KS")
    budgets = [replace(budget, seed=_derive_seed(budget.seed, idx)) for idx in range(len(grid))]
    points: list[ScanPoint] = []
    a_first_violation = None
    a_certified = None
    for a, res in zip(grid, _ks_decide([M.transfer for M in maps], [M.unital for M in maps], k, budgets)):
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
        paper_bound=paper_bound,
        grid_step=grid_step,
        points=points,
    )
