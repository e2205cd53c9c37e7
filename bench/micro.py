"""Micro phase of the traced run: each layer timed alone, untraced, at the
sizes the workloads use. Every figure is a median over repeats."""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Callable

import numpy as np

from kslab import cli, serialize
from kslab.certify import (
    SearchBudget,
    amplified_ks_defect,
    check_phi_k_condition,
    falsify_k_positivity,
    falsify_ks,
    phi_k_defect,
)
from kslab.decompose import (
    DecompositionInfeasibleError,
    decompose_lambda_plus_T,
    decompose_reduction,
    jordan_defect,
    verify_decomposition,
)
from kslab.linalg import min_eigenvalue, spectral_decomposition
from kslab.maps import QuantumMap
from kslab.zoo import build_family, lambda_minus, reduction, sample_utp_cp

DK = {"d2k1": (2, 1), "d3k1": (3, 1), "d3k2": (3, 2), "d4k2": (4, 2), "d4k4": (4, 4)}
REPEATS = 5


def per_call(fn: Callable[[], object], min_seconds: float = 0.01) -> float:
    """Median seconds per call over REPEATS batches of at least min_seconds."""
    fn()
    t0 = time.perf_counter()
    fn()
    n = max(1, int(min_seconds / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def ms_per_iteration(solve: Callable[[], object], repeats: int = 3) -> float:
    """Median over repeats of a solver call's time divided by its iterations."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = solve()
        samples.append((time.perf_counter() - t0) / res.budget_used["iterations"])
    return statistics.median(samples) * 1e3


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (G + G.conj().T) / 2


def _contraction(rng: np.random.Generator, d: int, norm: float = 0.99) -> np.ndarray:
    G = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    return G * (norm / np.linalg.norm(G, 2))


def _expect_infeasible() -> None:
    try:
        decompose_reduction(3, 1.0)
    except DecompositionInfeasibleError:
        return
    raise RuntimeError("decompose_reduction(3, 1) was expected to be infeasible")


def micro_metrics(seed: int, workdir: str) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    out: dict[str, tuple[float, str]] = {}
    bases = {d: sample_utp_cp(d, seed=seed + d) for d in (2, 3, 4)}

    for d in (2, 3, 4):
        H = _hermitian(rng, d)
        out[f"linalg.min_eigenvalue_us.d{d}"] = (per_call(lambda: min_eigenvalue(H)) * 1e6, "us")
        T = _contraction(rng, d)
        out[f"maps.construct_us.d{d}"] = (per_call(lambda: QuantumMap(T)) * 1e6, "us")
        out[f"zoo.sample_utp_cp_ms.d{d}"] = (per_call(lambda: sample_utp_cp(d, seed=seed)) * 1e3, "ms")

    for tag, (d, k) in DK.items():
        n = k * d
        Phi = bases[d]
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X /= np.linalg.norm(X)
        H = _hermitian(rng, n * n)
        out[f"linalg.eigh_us.{tag}"] = (per_call(lambda: spectral_decomposition(H)) * 1e6, "us")
        out[f"maps.amplify_transfer_us.{tag}"] = (per_call(lambda: Phi.amplify(k).transfer_matrix()) * 1e6, "us")
        out[f"maps.apply_amplified_us.{tag}"] = (per_call(lambda: Phi.apply_amplified(X, k)) * 1e6, "us")
        out[f"certify.amplified_ks_defect_us.{tag}"] = (per_call(lambda: amplified_ks_defect(Phi, k, X)) * 1e6, "us")
        out[f"certify.phi_k_defect_us.{tag}"] = (per_call(lambda: phi_k_defect(Phi, k, X)) * 1e6, "us")
        # certified inputs, so every restart runs to the stall window
        restarts = 1 if n >= 16 else 4
        clean = lambda_minus(QuantumMap.identity(d), d / (n + 1) - 0.02)
        budget = SearchBudget(restarts=restarts, max_iters=500, seed=seed)
        out[f"certify.ks_ms_per_iter.{tag}"] = (ms_per_iteration(lambda: falsify_ks(clean, k, budget)), "ms")
        contraction = QuantumMap(_contraction(rng, d))
        out[f"certify.phi_k_ms_per_iter.{tag}"] = (
            ms_per_iteration(lambda: check_phi_k_condition(contraction, k, budget)), "ms")

    for d in (3, 4, 6):
        R = reduction(d, 0.45)  # 2-positive, so every restart runs
        budget = SearchBudget(restarts=16, max_iters=300, seed=seed)
        out[f"certify.kpos_ms_per_iter.d{d}"] = (ms_per_iteration(lambda: falsify_k_positivity(R, 2, budget)), "ms")

    r3 = decompose_reduction(3, 0.9)
    out["decompose.reduction_us"] = (per_call(lambda: decompose_reduction(3, 0.9)) * 1e6, "us")
    out["decompose.lambda_plus_T_us"] = (per_call(lambda: decompose_lambda_plus_T(3, 0.3)) * 1e6, "us")
    out["decompose.reduction_infeasible_ms"] = (per_call(_expect_infeasible) * 1e3, "ms")
    for d in (2, 3, 4):
        r, target = decompose_reduction(d, 0.95), reduction(d, 0.95)
        budget = SearchBudget(restarts=8, max_iters=200, seed=seed)
        out[f"decompose.verify_ms.d{d}"] = (per_call(lambda: verify_decomposition(r, target, budget)) * 1e3, "ms")
    Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    out["decompose.jordan_defect_us"] = (per_call(lambda: jordan_defect(r3.phi1, r3.phi2, r3.lam, Y)) * 1e6, "us")

    violated = falsify_ks(lambda_minus(QuantumMap.identity(3), 3 / 7 + 0.05), 2, SearchBudget(restarts=8, seed=seed))
    out["serialize.verdict_to_json_us"] = (per_call(lambda: serialize.verdict_to_json(violated)) * 1e6, "us")
    out["serialize.decomposition_roundtrip_us"] = (per_call(
        lambda: serialize.decomposition_from_json(json.loads(json.dumps(serialize.decomposition_to_json(r3))))
    ) * 1e6, "us")
    out["serialize.map_roundtrip_us"] = (per_call(
        lambda: serialize.map_from_json(json.loads(json.dumps(serialize.map_to_json(bases[3]))))
    ) * 1e6, "us")
    report = verify_decomposition(r3, reduction(3, 0.9), SearchBudget(restarts=8, max_iters=200, seed=seed))
    payload = {"decomposition": serialize.decomposition_to_json(r3),
               "verification": serialize.verification_to_json(report)}
    out["serialize.artifact_bytes"] = (float(len(json.dumps(serialize.to_jsonable(payload), indent=2))), "bytes")

    out.update(_cli_overheads(seed, workdir))
    return out


def _cli_overheads(seed: int, workdir: str) -> dict[str, tuple[float, str]]:
    """CLI call time minus the same library calls made directly."""
    small = SearchBudget(restarts=2, max_iters=100, seed=seed)
    flags = ["--restarts", "2", "--max-iters", "100", "--seed", str(seed)]

    def certify_direct():
        Phi = build_family("lambda-minus", 2, a=0.6, base=QuantumMap.identity(2))
        return serialize.verdict_to_json(falsify_ks(Phi, 1, small))

    def kpos_direct():
        return serialize.verdict_to_json(falsify_k_positivity(reduction(3, 0.45), 2, small))

    def decompose_direct():
        reduction(3, 0.9)
        return serialize.decomposition_to_json(decompose_reduction(3, 0.9))

    out = {}
    path = os.path.join(workdir, "micro-artifact.json")
    cases = {
        "certify": (["certify", "--family", "lambda-minus", "--d", "2", "--a", "0.6", "--k", "1"] + flags,
                    certify_direct),
        "kpos": (["kpos", "--family", "reduction", "--d", "3", "--a", "0.45", "--k", "2"] + flags, kpos_direct),
        "decompose": (["decompose", "--family", "reduction", "--d", "3", "--a", "0.9"] + flags,
                      decompose_direct),
    }
    for name, (argv, direct) in cases.items():
        argv = argv + ["--out", path]
        via_cli = per_call(lambda: cli.main(argv), min_seconds=0.02)
        out[f"cli.overhead_ms.{name}"] = ((via_cli - per_call(direct, min_seconds=0.02)) * 1e3, "ms")
    return out

