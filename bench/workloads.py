"""The four benchmark workloads.

Each workload is a function ``(seed, workdir) -> list[Op]``: the call
builds every input from the seed (the timed set-up) and returns the ops of
one round; ``workdir`` receives the artifacts of CLI ops.
An op is one user-level call into kslab, timed alone, and a check that
judges its output against the reference checker and against verdicts
whose truth is known from the maths, never against stored output.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
# solvers are looked up on their module at call time, so the tracer sees them
from kslab import certify, cli, serialize
from kslab.certify import SearchBudget
from kslab.maps import QuantumMap
from kslab.zoo import lambda_minus, lambda_plus, sample_utp_cp, transpose_map

EDGE = 1e-12  # slack for grid points that land on a closed-form bound
IDENTITY_TOL = 1e-14
RESIDUAL_TOL = 1e-10


class OpFailed(RuntimeError):
    """The call did not complete (for the CLI: exit code 1)."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    # output -> (problems, verdict/value pairs for the digest)
    check: Callable[[object], tuple[list[str], list]]


def derive(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def bound_lambda_minus(d: int, k: int) -> float:
    return d / (k * d + 1)


def lower_lambda_plus(d: int, k: int) -> float:
    """Smaller root of a/(kd) - (1 - a)^2 = 0."""
    kd = k * d
    return 1 - (np.sqrt(4 * kd + 1) - 1) / (2 * kd)


def lazy(fn, *args) -> Callable[[], np.ndarray]:
    """Reference data built on first use, so that it stays out of the timed set-up."""
    return functools.cache(functools.partial(fn, *args))


def _input_problems(kslab_map: QuantumMap | None, T: np.ndarray, base: QuantumMap | None,
                    hs_norm: float | None) -> list[str]:
    """The op's input is the map the workload says it is."""
    problems = []
    if hs_norm is not None and abs(ref.hs_operator_norm(T) - hs_norm) > 1e-12:
        problems.append(f"map has HS norm {ref.hs_operator_norm(T)!r}, not {hs_norm}")
    if kslab_map is not None:
        err = float(np.linalg.norm(kslab_map.transfer - T))
        if err > 1e-12:
            problems.append(f"kslab map differs from its closed form by {err:.2e}")
    if base is not None:
        Tb = base.transfer
        if not (ref.is_completely_positive(Tb) and ref.is_unital(Tb) and ref.is_trace_preserving(Tb)):
            problems.append("random base is not unital TP CP")
    return problems


def _verdict_check(ref_map, prop: str, k: int, expect: str | None, what: str,
                   kslab_map: QuantumMap | None = None, base: QuantumMap | None = None,
                   hs_norm: float | None = None):
    """Check a CertificateVerdict: the expected verdict where the truth is
    known (expect=None where it is not), and every witness independently."""

    def check(res) -> tuple[list[str], list]:
        T = ref_map()
        problems = [f"{what}: {p}" for p in _input_problems(kslab_map, T, base, hs_norm)]
        if expect is not None and res.verdict != expect:
            problems.append(f"{what}: expected {expect}, got {res.verdict} ({res.worst_value!r})")
        if res.violated:
            X = res.witness.data
            problems += [f"{what}: {p}" for p in ref.check_block_witness(prop, T, k, X, res.worst_value)]
        return problems, [(res.verdict, res.worst_value)]

    return check


# -- ks-scan-small -------------------------------------------------------------


def _scan_lambda_minus_check(d: int, k: int):
    bound = bound_lambda_minus(d, k)

    def check(scan) -> tuple[list[str], list]:
        what = f"scan lambda-minus d={d} k={k}"
        pts = sorted(scan.points, key=lambda p: p.a)
        problems = [f"{what}: violated at a={p.a} <= bound {bound}"
                    for p in pts if p.a <= bound + EDGE and p.verdict != "NoViolationFound"]
        first = next((p.a for p in pts if p.verdict == "Violated"), None)
        if first is None or not bound < first <= bound + 0.05 + EDGE:
            problems.append(f"{what}: first violation {first} not in ({bound}, {bound} + 0.05]")
        if abs(scan.paper_bound - bound) > 1e-15:
            problems.append(f"{what}: paper_bound {scan.paper_bound!r} is not d/(kd+1)")
        return problems, [(p.verdict, p.worst_value) for p in scan.points]

    return check


def _scan_lambda_plus_check(d: int):
    lo = lower_lambda_plus(d, 1)

    def check(scan) -> tuple[list[str], list]:
        what = f"scan lambda-plus(T) d={d}"
        problems = [f"{what}: violated at a={p.a} >= lower endpoint {lo}"
                    for p in scan.points if p.a >= lo - EDGE and p.verdict != "NoViolationFound"]
        if abs(scan.paper_bound - lo) > 1e-12:
            problems.append(f"{what}: paper_bound {scan.paper_bound!r} is not {lo!r}")
        return problems, [(p.verdict, p.worst_value) for p in scan.points]

    return check


def ks_scan_small(seed: int, workdir: str) -> list[Op]:
    """Threshold scans and sufficiency checks at n = kd <= 6."""
    ops = []
    for d, k in ((2, 1), (3, 1), (3, 2)):
        bound = bound_lambda_minus(d, k)
        budget = SearchBudget(restarts=16, max_iters=300, seed=derive(seed, 1, d, k))
        lo_a, hi_a = round(bound - 0.03, 2), round(bound + 0.05, 2)
        ops.append(Op(f"scan lambda-minus d={d} k={k}",
                      lambda d=d, k=k, lo_a=lo_a, hi_a=hi_a, b=budget:
                      certify.scan_threshold("lambda-minus", d, k, lo_a, hi_a, 0.01, b),
                      _scan_lambda_minus_check(d, k)))
    for d in (2, 3):
        base = transpose_map(d)
        budget = SearchBudget(restarts=16, max_iters=300, seed=derive(seed, 2, d))
        a_min = round(lower_lambda_plus(d, 1), 2) - 0.04
        ops.append(Op(f"scan lambda-plus(T) d={d}",
                      lambda d=d, base=base, a_min=a_min, b=budget:
                      certify.scan_threshold("lambda-plus", d, 1, a_min, 1.0, 0.04, b,
                                             base=base, direction="descending"),
                      _scan_lambda_plus_check(d)))
    # the transposition base at d = 3 stops being KS at a = 1 + 1/(d - 1) = 1.5
    for j, a in enumerate((1.6, 1.7)):
        M = lambda_plus(transpose_map(3), a)
        what = f"ks lambda-plus(T) d=3 a={a}"
        budget = SearchBudget(restarts=32, max_iters=500, seed=derive(seed, 3, j))
        T = lazy(lambda a=a: ref.lambda_plus_transfer(ref.transpose_transfer(3), a))
        ops.append(Op(what, lambda M=M, b=budget: certify.falsify_ks(M, 1, b),
                      _verdict_check(T, "ks", 1, "Violated", what, kslab_map=M)))
    # random unital TP CP bases: the Lambda^- bound is the paper's claim; at
    # the Lambda^+ lower endpoint the map is unital CP, hence k-KS (Choi 1974)
    for d in (2, 3, 4):
        for i in range(3):
            base = sample_utp_cp(d, seed=derive(seed, 4, d, i))
            for k in (1, 2):
                if k * d > 6:
                    continue
                for name, family, a in (("lambda-minus@bound", lambda_minus, bound_lambda_minus(d, k)),
                                        ("lambda-plus@lower", lambda_plus, lower_lambda_plus(d, k))):
                    M = family(base, a)
                    reference_family = (ref.lambda_minus_transfer if family is lambda_minus
                                        else ref.lambda_plus_transfer)
                    what = f"ks {name} random base d={d} #{i} k={k}"
                    budget = SearchBudget(restarts=8, max_iters=200, seed=derive(seed, 5, d, i, k, len(ops)))
                    T = lazy(reference_family, base.transfer, a)
                    ops.append(Op(what, lambda M=M, k=k, b=budget: certify.falsify_ks(M, k, b),
                                  _verdict_check(T, "ks", k, "NoViolationFound", what, kslab_map=M, base=base)))
    return ops


# -- phik-contraction ------------------------------------------------------------


def phik_contraction(seed: int, workdir: str) -> list[Op]:
    """Partial-trace domination on random maps at HS norm 0.99 (an HS
    contraction, so never violated) and 1.05 (truth unknown; witnesses are
    checked). Each op builds its QuantumMap and amplified transfer matrix."""
    ops = []
    for d in (2, 3):
        for k in (1, 2, 3):
            for n, (norm, restarts, max_iters) in enumerate(((0.99, 4, 100), (1.05, 8, 200))):
                for rep in range(4):
                    rng = np.random.default_rng(derive(seed, 6, d, k, n, rep))
                    G = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
                    T = G * (norm / np.linalg.norm(G, 2))
                    budget = SearchBudget(restarts=restarts, max_iters=max_iters,
                                          seed=derive(seed, 7, d, k, n, rep))
                    expect = "NoViolationFound" if norm < 1 else None
                    what = f"phi-k d={d} k={k} norm={norm} #{rep}"
                    ops.append(Op(what,
                                  lambda T=T, k=k, b=budget: certify.check_phi_k_condition(QuantumMap(T), k, b),
                                  _verdict_check(lambda T=T: T, "phi-k", k, expect, what, hs_norm=norm)))
    return ops


# -- ks-large ----------------------------------------------------------------------


def ks_large(seed: int, workdir: str) -> list[Op]:
    """Long k-KS searches on Lambda^-(id) just below (clean) and 0.05 above
    (violated) the bound d/(kd + 1), at n = kd of 8, 9 and 16."""
    ops = []
    for d, k in ((4, 2), (3, 3), (4, 4)):
        for j, (offset, expect) in enumerate(((-0.02, "NoViolationFound"), (0.05, "Violated"))):
            a = bound_lambda_minus(d, k) + offset
            M = lambda_minus(QuantumMap.identity(d), a)
            T = lazy(lambda d=d, a=a: ref.lambda_minus_transfer(ref.identity_transfer(d), a))
            what = f"ks lambda-minus(id) d={d} k={k} a=bound{offset:+}"
            budget = SearchBudget(restarts=4, max_iters=500, seed=derive(seed, 8, d, k, j))
            ops.append(Op(what, lambda M=M, k=k, b=budget: certify.falsify_ks(M, k, b),
                          _verdict_check(T, "ks", k, expect, what, kslab_map=M)))
    return ops


# -- decompose-verify (through the CLI, in process) ----------------------------------


def _cli_call(argv: list[str]):
    def call():
        rc = cli.main(argv)
        if rc == 1:
            raise OpFailed(f"kslab {' '.join(argv)} exited with 1")
        return rc

    return call


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _decompose_check(family: str, d: int, a: float, path: str):
    what = f"decompose {family} d={d} a={a}"
    target = (lazy(ref.reduction_transfer, d, a) if family == "reduction"
              else lazy(lambda: ref.lambda_plus_transfer(ref.transpose_transfer(d), a)))

    def check(rc) -> tuple[list[str], list]:
        art = _read(path)
        if family == "reduction" and a == 1:
            # lambda >= alpha d^2/(d+1) and lambda <= alpha (d-1) need
            # d^2/(d+1) <= d-1, i.e. d^2 <= d^2 - 1: no alpha > 0 works
            problems = [] if d * d > (d - 1) * (d + 1) else [f"{what}: window is not empty"]
            if rc != 0 or art.get("feasible") is not False:
                problems.append(f"{what}: expected an infeasible artifact, got rc={rc}")
            return problems, [("infeasible", 0.0)]
        problems = [] if rc == 0 else [f"{what}: exit code {rc}"]
        r = serialize.decomposition_from_json(art["decomposition"])
        residual = float(np.linalg.norm(r.lam * r.phi1.transfer + (1 - r.lam) * r.phi2.transfer - target()))
        if not residual <= RESIDUAL_TOL:
            problems.append(f"{what}: reconstruction residual {residual:.2e} from the artifact")
        p, lam = r.params, r.lam
        if family == "reduction":
            identities = [p["alpha"] + p["gamma"] - 1 / (d - a), p["beta"] - p["delta"] - a / (d - a),
                          p["alpha"] * d - p["beta"] - lam, p["gamma"] * d + p["delta"] - (1 - lam)]
        else:
            identities = [lam * p["beta"] - a]
        if max(abs(x) for x in identities) > IDENTITY_TOL:
            problems.append(f"{what}: parameter identities off by {max(abs(x) for x in identities):.2e}")
        v = art["verification"]
        if not (v["all_ok"] and v["phi1_ks"]["verdict"] == "NoViolationFound"
                and v["phi2_co_ks"]["verdict"] == "NoViolationFound" and v["jordan_ok"]):
            problems.append(f"{what}: verification did not pass")
        return problems, [(v["phi1_ks"]["verdict"], v["phi1_ks"]["worst_value"]),
                          (v["phi2_co_ks"]["verdict"], v["phi2_co_ks"]["worst_value"]),
                          ("jordan", v["jordan_min_eigenvalue"]), ("lambda", lam)]

    return check


def _artifact_verdict_check(ref_map, prop: str, k: int, expect: str, path: str, what: str):
    def check(rc) -> tuple[list[str], list]:
        T = ref_map()
        res = serialize.verdict_from_json(_read(path)["result"])
        problems = [] if rc == 0 else [f"{what}: exit code {rc}"]
        if res.verdict != expect:
            problems.append(f"{what}: expected {expect}, got {res.verdict} ({res.worst_value!r})")
        if res.violated:
            w = res.witness
            found = (ref.check_schmidt_witness(T, k, w.u, w.v, res.worst_value) if prop == "kpos"
                     else ref.check_block_witness(prop, T, k, w.data, res.worst_value))
            problems += [f"{what}: {p}" for p in found]
        return problems, [(res.verdict, res.worst_value)]

    return check


def decompose_verify(seed: int, workdir: str) -> list[Op]:
    """`kslab decompose --verify`, `kslab kpos` and `kslab certify --property
    co-ks` through kslab.cli.main, each artifact read back and checked."""
    ops = []

    def add(label, argv, make_check):
        path = os.path.join(workdir, f"op{len(ops):03d}.json")
        argv = argv + ["--seed", str(derive(seed, 9, len(ops))), "--out", path]
        ops.append(Op(label, _cli_call(argv), make_check(path)))

    small = ["--restarts", "8", "--max-iters", "200"]
    for d in (2, 3, 4):
        lo = d / (d + 1)
        grid = [a for a in (round(0.05 * i, 10) for i in range(1, 20)) if a > lo] + [1.0]
        for a in grid:
            add(f"decompose reduction d={d} a={a}",
                ["decompose", "--family", "reduction", "--d", str(d), "--a", repr(a), "--verify"] + small,
                lambda path, d=d, a=a: _decompose_check("reduction", d, a, path))
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            add(f"decompose lambda-plus-t d={d} a={a}",
                ["decompose", "--family", "lambda-plus-t", "--d", str(d), "--a", repr(a), "--verify"] + small,
                lambda path, d=d, a=a: _decompose_check("lambda-plus-t", d, a, path))
    # R_a = (Tr(X) I - a X)/(d - a) is k-positive iff a <= 1/k
    for d in (3, 4, 5, 6):
        for k in (1, 2, 3):
            for sign, expect in ((+1, "Violated"), (-1, "NoViolationFound")):
                a = round(1 / k + sign * 0.05, 10)
                what = f"kpos reduction d={d} k={k} a={a}"
                T = lazy(ref.reduction_transfer, d, a)
                add(what, ["kpos", "--family", "reduction", "--d", str(d), "--k", str(k), "--a", repr(a),
                           "--restarts", "16", "--max-iters", "300"],
                    lambda path, T=T, k=k, expect=expect, what=what:
                    _artifact_verdict_check(T, "kpos", k, expect, path, what))
    # the transposition is exactly co-KS; the identity is not (X*X != XX*)
    for d in (2, 3):
        for family, T, expect in (("transpose", lazy(ref.transpose_transfer, d), "NoViolationFound"),
                                  ("identity", lazy(ref.identity_transfer, d), "Violated")):
            what = f"certify co-ks {family} d={d}"
            add(what, ["certify", "--family", family, "--d", str(d), "--property", "co-ks"] + small,
                lambda path, T=T, expect=expect, what=what:
                _artifact_verdict_check(T, "co-ks", 1, expect, path, what))
    return ops


WORKLOADS = {
    "ks-scan-small": ks_scan_small,
    "phik-contraction": phik_contraction,
    "ks-large": ks_large,
    "decompose-verify": decompose_verify,
}
