"""Acceptance battery: ten numbered criteria covering threshold scans,
sampled sufficiency checks, the depolarizing-projection lemma, the
HS-contraction property, k-positivity brackets, decompositions with their
certificate inequalities, and determinism.

Each criterion is a function seed -> (passed, details); run_suite wraps
them with wall-clock timing and substring filtering and never raises —
failures are reported, not thrown. Everything is deterministic in the
seed (criterion 10 pins its own seed by contract).
"""

from __future__ import annotations

import json
import time

import numpy as np

from . import linalg, serialize
from .certify import (
    SearchBudget,
    _ks_search,
    check_phi_k_condition,
    falsify_k_positivity,
    falsify_ks,
    scan_threshold,
)
from .decompose import (
    decompose_lambda_plus_T,
    decompose_reduction,
    jordan_defect,
    stormer_defect,
    verify_decomposition,
)
from .linalg import _derive_seed, dagger, ginibre, hs_norm, min_eigenvalue, unit_ginibre
from .maps import QuantumMap
from .zoo import (
    bound_lambda_minus,
    bounds_lambda_plus,
    depolarizing,
    lambda_minus,
    lambda_plus,
    reduction,
    sample_utp_cp,
    transpose_map,
)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_1(seed: int):
    """Threshold bracketing of Lambda^-(id): first violation lands in
    (bound, bound + 0.05], no violation at grid points <= bound."""
    cases = []
    ok = True
    for d, k in ((2, 1), (3, 1), (3, 2)):
        bound = bound_lambda_minus(d, k)
        a_min = round(bound - 0.06, 2)
        a_max = round(bound + 0.08, 2)
        scan = scan_threshold(
            "lambda-minus", d, k, a_min, a_max, 0.01,
            SearchBudget(restarts=32, max_iters=500, seed=_derive_seed(seed, 1, d, k)),
        )
        first = scan.a_first_violation
        first_ok = first is not None and bound < first <= bound + 0.05 + 1e-12
        below_ok = all(
            p.verdict == "NoViolationFound" for p in scan.points if p.a <= bound + 1e-12
        )
        ok = ok and first_ok and below_ok
        cases.append(
            {
                "d": d, "k": k, "bound": bound,
                "a_first_violation": first,
                "first_in_window": first_ok,
                "clean_below_bound": below_ok,
            }
        )
    return ok, {"cases": cases}


def criterion_2(seed: int):
    """Lambda^+(T) at k=1: first violation within 0.05 below the lower
    sufficiency endpoint; no violation on [endpoint, 1]."""
    cases = []
    ok = True
    for d in (2, 3):
        lo, _ = bounds_lambda_plus(d, 1)
        a_min = round(lo, 2) - 0.06
        scan = scan_threshold(
            "lambda-plus", d, 1, a_min, 1.0, 0.01,
            SearchBudget(restarts=16, max_iters=300, seed=_derive_seed(seed, 2, d)),
            base=transpose_map(d),
            direction="descending",
        )
        first = scan.a_first_violation
        first_ok = bool(first is not None and lo - 0.05 - 1e-12 <= first < lo)
        clean_ok = all(
            p.verdict == "NoViolationFound" for p in scan.points if p.a >= lo - 1e-12
        )
        ok = ok and first_ok and clean_ok
        cases.append(
            {
                "d": d, "lower_bound": lo,
                "a_first_violation": first,
                "first_in_window": first_ok,
                "clean_above_bound": clean_ok,
            }
        )
    return ok, {"cases": cases}


UTP_SAMPLE_SIZE = 20


def _utp_sample(seed: int, d: int):
    """The UTP_SAMPLE_SIZE (sample seed, random unital TP CP map) pairs of
    dimension d that criteria 3 and 6 both certify."""
    seed_d = _derive_seed(seed, 3, d)
    for i in range(UTP_SAMPLE_SIZE):
        sample_seed = _derive_seed(seed_d, i)
        yield sample_seed, sample_utp_cp(d, seed=sample_seed)


def criterion_3(seed: int):
    """Sufficiency at the closed-form boundaries over random unital TP CP
    bases: Lambda^-_a at a = bound and Lambda^+_a at both endpoints of the
    sufficiency interval must come back clean for k in {1, 2}."""
    failures = []
    n_checks = 0
    max_norm = 0.0
    for d in (2, 3):
        for s, Phi in _utp_sample(seed, d):
            # unital TP CP maps are HS contractions; record the norm so a
            # sample needing rescaling would be caught rather than silently used
            max_norm = max(max_norm, Phi.hs_norm())
            for k in (1, 2):
                lo, hi = bounds_lambda_plus(d, k)
                checks = [
                    ("lambda-minus@bound", lambda_minus(Phi, bound_lambda_minus(d, k))),
                    ("lambda-plus@lower", lambda_plus(Phi, lo)),
                    ("lambda-plus@upper", lambda_plus(Phi, hi)),
                ]
                for name, M in checks:
                    v = falsify_ks(M, k, SearchBudget(restarts=8, max_iters=200, seed=s))
                    n_checks += 1
                    if v.violated:
                        failures.append(
                            {
                                "d": d, "k": k, "check": name,
                                "sample_seed": s,
                                "worst_value": v.worst_value,
                            }
                        )
    return len(failures) == 0, {
        "n_checks": n_checks,
        "n_failures": len(failures),
        "max_base_hs_norm": max_norm,
        "failures": failures,
    }


def criterion_4(seed: int):
    """Depolarizing-projection identities on random block operators:
    (i) Delta_k is a projector; (ii) it fixes Delta_k(X)*Delta_k(X);
    (iii) Delta_k(Y) = 0 implies Delta_k(Y Delta_k(X)) = 0."""
    rng = linalg.rng(seed, 4)
    worst = {"i": 0.0, "ii": 0.0, "iii": 0.0}
    for d in (2, 3):
        D = depolarizing(d)
        for k in (1, 2, 3):
            # X and Z of each of the 200 trials, drawn in turn
            for X, Z in unit_ginibre(rng, 400, k * d).reshape(200, 2, k * d, k * d):
                DX = D.apply_amplified(X, k)
                worst["i"] = max(worst["i"], hs_norm(D.apply_amplified(DX, k) - DX))
                P = dagger(DX) @ DX
                worst["ii"] = max(worst["ii"], hs_norm(D.apply_amplified(P, k) - P))
                Y = Z - D.apply_amplified(Z, k)
                worst["iii"] = max(
                    worst["iii"], hs_norm(D.apply_amplified(Y @ DX, k))
                )
    ok = all(v <= 1e-10 for v in worst.values())
    return ok, {"worst_residuals": worst, "tolerance": 1e-10}


def criterion_5(seed: int):
    """HS contraction implies the partial-trace domination condition:
    maps at norm 0.99 never violate; maps inflated to 1.05 are violated,
    as the closed form decides (the rate is recorded, threshold 15/20)."""
    rng = linalg.rng(seed, 5)

    def rand_map(d, norm):
        T = ginibre(rng, d * d)
        return QuantumMap(T * (norm / np.linalg.norm(T, 2)))

    contraction_failures = 0
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        Phi = rand_map(d, 0.99)
        for k in (1, 2, 3):
            v = check_phi_k_condition(Phi, k, SearchBudget(seed=_derive_seed(seed, 5, i, k)))
            if v.violated:
                contraction_failures += 1
    violated_count = 0
    for i in range(20):
        d = 2 if i % 2 == 0 else 3
        Phi = rand_map(d, 1.05)
        v = check_phi_k_condition(Phi, 1, SearchBudget(seed=_derive_seed(seed, 5, 100 + i, 1)))
        if v.violated:
            violated_count += 1
    ok = contraction_failures == 0 and violated_count >= 15
    return ok, {
        "contraction_failures": contraction_failures,
        "inflated_violation_rate": f"{violated_count}/20",
        "required_rate": "15/20",
    }


def criterion_6(seed: int):
    """Complete positivity implies the k-KS property: criterion 3's
    sample, certified directly at k = 1 and k = 2. falsify_ks decides a
    unital CP map from this very theorem, so the search itself is run, on
    the whole sample of each (d, k) at once."""
    reports = []
    for d in (2, 3):
        seeds, maps = zip(*_utp_sample(seed, d))
        budgets = [SearchBudget(restarts=8, max_iters=200, seed=s) for s in seeds]
        transfers = [M.transfer for M in maps]
        n_violated = {k: sum(v.violated for v in _ks_search(transfers, k, budgets)) for k in (1, 2)}
        reports += [
            {"d": d, "k": k, "n_samples": UTP_SAMPLE_SIZE, "n_violated": n}
            for k, n in n_violated.items()
        ]
    return all(r["n_violated"] == 0 for r in reports), {"reports": reports}


def criterion_7(seed: int):
    """k-positivity bracket of the reduction family at d = 3: violated at
    a = 1/k + 0.05, clean at a = 1/k - 0.05, all six cases."""
    d = 3
    cases = []
    ok = True
    for k in (1, 2, 3):
        for sign, expect in ((+1, "Violated"), (-1, "NoViolationFound")):
            a = 1 / k + sign * 0.05
            b = SearchBudget(restarts=16, max_iters=300, seed=_derive_seed(seed, 7, k, sign + 1))
            v = falsify_k_positivity(reduction(d, a), k, b)
            good = v.verdict == expect
            ok = ok and good
            cases.append(
                {
                    "k": k, "a": a, "expected": expect,
                    "verdict": v.verdict, "worst_value": v.worst_value,
                    "ok": good,
                }
            )
    return ok, {"cases": cases}


def _reduction_grid(d: int):
    """Grid over the open interval (d/(d+1), 1) aligned to multiples of 0.02."""
    step = 0.02
    lo = d / (d + 1)
    start = (int(lo / step) + 1) * step
    return [round(start + i * step, 10) for i in range(int((1 - start) / step) + 1)
            if start + i * step < 1 - 1e-12]


def _decompositions(d: int):
    """All (target, result) pairs criterion 8 produces for one dimension."""
    out = []
    for a in _reduction_grid(d):
        out.append(("reduction", a, reduction(d, a), decompose_reduction(d, a)))
    for i in range(21):
        a = round(0.05 * i, 10)
        out.append(
            ("lambda-plus-t", a, lambda_plus(transpose_map(d), a), decompose_lambda_plus_T(d, a))
        )
    return out


def criterion_8(seed: int):
    """Decompositions verify on the full grids and the linear parameter
    identities hold to 1e-14."""
    id_tol = 1e-14
    n_points = 0
    bad = []
    for d in (2, 3):
        for kind, a, target, r in _decompositions(d):
            n_points += 1
            rep = verify_decomposition(
                r, target,
                SearchBudget(
                    restarts=8, max_iters=200, seed=_derive_seed(seed, 8, d, int(round(a * 100)))
                ),
                n_jordan_samples=100,
            )
            if not rep.all_ok:
                bad.append({"kind": kind, "d": d, "a": a, "failed": "verify",
                            "reconstruction_ok": rep.reconstruction_ok,
                            "phi1_ks": rep.phi1_ks.verdict,
                            "phi2_co_ks": rep.phi2_co_ks.verdict,
                            "jordan_ok": rep.jordan_ok})
            if kind == "reduction":
                p, lam = r.params, r.lam
                residuals = [
                    abs(p["alpha"] + p["gamma"] - 1 / (d - a)),
                    abs(p["beta"] - p["delta"] - a / (d - a)),
                    abs(p["alpha"] * d - p["beta"] - lam),
                    abs(p["gamma"] * d + p["delta"] - (1 - lam)),
                ]
            else:
                residuals = [abs(r.lam * r.params["beta"] - a)]
            if max(residuals) > id_tol:
                bad.append({"kind": kind, "d": d, "a": a, "failed": "identities",
                            "max_residual": max(residuals)})
    return len(bad) == 0, {"n_points": n_points, "failures": bad}


def criterion_9(seed: int):
    """Jordan-product and sub-unital defect inequalities: minimal
    eigenvalue >= -1e-9 over 100 random X for every criterion-8
    decomposition (components and target are all positive and unital)."""
    rng = linalg.rng(seed, 9)
    jordan_min = np.inf
    stormer_min = np.inf
    n_decomps = 0
    for d in (2, 3):
        for _, _, target, r in _decompositions(d):
            n_decomps += 1
            X = unit_ginibre(rng, 100, d)
            jordan_min = min(jordan_min, min_eigenvalue(jordan_defect(r.phi1, r.phi2, r.lam, X)))
            for Phi in (r.phi1, r.phi2, target):
                stormer_min = min(stormer_min, min_eigenvalue(stormer_defect(Phi, X)))
    ok = jordan_min >= -1e-9 and stormer_min >= -1e-9
    return ok, {
        "n_decompositions": n_decomps,
        "jordan_min_eigenvalue": float(jordan_min),
        "stormer_min_eigenvalue": float(stormer_min),
        "tolerance": -1e-9,
    }


def criterion_10(seed: int):
    """Determinism contract: a representative bundle of every verdict
    type, run twice at seed 42, serializes byte-identically."""

    def bundle():
        b = SearchBudget(restarts=6, max_iters=150, seed=42)
        out = {
            "ks": serialize.verdict_to_json(
                falsify_ks(lambda_minus(QuantumMap.identity(2), 0.7), 1, b)
            ),
            "kpos": serialize.verdict_to_json(
                falsify_k_positivity(reduction(3, 0.55), 2, b)
            ),
            "scan": serialize.scan_to_json(
                scan_threshold("lambda-minus", 2, 1, 0.6, 0.75, 0.05, b)
            ),
        }
        r = decompose_reduction(2, 0.9)
        out["decomposition"] = serialize.decomposition_to_json(r)
        out["verification"] = serialize.verification_to_json(
            verify_decomposition(r, reduction(2, 0.9), b, n_jordan_samples=20)
        )
        return json.dumps(out, sort_keys=True)

    first, second = bundle(), bundle()
    return first == second, {"identical": first == second, "bytes": len(first)}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

CRITERIA = (
    (1, "scan threshold lambda-minus", "Lambda^-(id) threshold bracketing at grid 0.01", criterion_1),
    (2, "scan threshold lambda-plus transpose", "Lambda^+(T) boundary scan at k=1", criterion_2),
    (3, "random sufficiency endpoints", "sufficiency at closed-form boundaries over random UTP CP bases", criterion_3),
    (4, "delta lemma projector", "depolarizing-projection identities on random block operators", criterion_4),
    (5, "contraction phi-k", "HS contraction implies the partial-trace domination condition", criterion_5),
    (6, "random positivity kks", "complete positivity implies k-KS on the shared sample", criterion_6),
    (7, "kpos positivity reduction", "k-positivity bracket of the reduction family at d=3", criterion_7),
    (8, "decompose verify identities", "decomposition grids verify; parameter identities to 1e-14", criterion_8),
    (9, "decompose jordan stormer", "Jordan and sub-unital defect inequalities on random inputs", criterion_9),
    (10, "determinism reproducibility", "seeded runs serialize byte-identically", criterion_10),
)


def run_criterion(cid: int, seed: int) -> dict:
    for num, tags, desc, fn in CRITERIA:
        if num == cid:
            t0 = time.perf_counter()
            try:
                passed, details = fn(seed)
            except Exception as exc:  # report, never throw
                passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            return {
                "id": num,
                "description": desc,
                "passed": bool(passed),
                "details": details,
                "seconds": round(time.perf_counter() - t0, 3),
            }
    raise ValueError(f"no criterion numbered {cid}")


def run_suite(seed: int = 0, filter: str | None = None) -> dict:
    """Run the (possibly filtered) battery; deterministic given seed. A
    filter that selects no criterion is refused with a ValueError."""
    records = []
    for num, tags, desc, fn in CRITERIA:
        if filter and filter not in tags and filter != str(num):
            continue
        records.append(run_criterion(num, seed))
    if not records:
        raise ValueError(f"no criterion matches the filter '{filter}'")
    return {
        "seed": seed,
        "filter": filter,
        "all_passed": all(r["passed"] for r in records),
        "criteria": records,
    }


def format_table(report: dict) -> str:
    """Pass/fail table with timings, one criterion per line."""
    lines = []
    for r in report["criteria"]:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"[{status}] criterion {r['id']:>2}  {r['seconds']:>8.2f}s  {r['description']}")
    n_pass = sum(r["passed"] for r in report["criteria"])
    lines.append(f"{n_pass}/{len(report['criteria'])} criteria passed (seed={report['seed']})")
    return "\n".join(lines)
