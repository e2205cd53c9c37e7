"""JSON interchange for matrices, maps, verdicts, scans and decompositions.

Complex matrices are nested row-major arrays of [re, im] pairs. Maps are
tagged with their representation ("transfer", "choi" or "kraus") and with
the vectorization convention ("col-vec"), so files are self-describing.
Python's float repr is shortest-round-trip, so serialized values survive
a JSON round trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

import numpy as np

from .certify import CertificateVerdict, SchmidtWitness, ScanResult
from .decompose import DecompositionResult, VerificationReport
from .maps import BlockOperator, QuantumMap


def matrix_to_json(A: np.ndarray) -> list:
    A = np.asarray(A, dtype=complex)
    # tolist gives Python floats, bit for bit the float64 entries
    return np.stack((A.real, A.imag), -1).tolist()


def matrix_from_json(data: list) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix data: expected nested [re, im] pairs ({exc})")


def _integer(obj: dict, field: str, least: int = 1) -> int:
    """obj[field], which must be an integer >= least: a d, k or seed read
    from outside."""
    n = obj[field]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"field '{field}': expected an integer >= {least}, got {n!r}")
    return int(n)


def map_to_json(Phi: QuantumMap, repr_: str = "transfer") -> dict:
    if repr_ == "transfer":
        data = matrix_to_json(Phi.transfer)
    elif repr_ == "choi":
        data = matrix_to_json(Phi.choi())
    elif repr_ == "kraus":
        data = [matrix_to_json(K) for K in Phi.kraus()]
    else:
        raise ValueError(f"unknown map representation '{repr_}'")
    return {"d": Phi.d, "repr": repr_, "conv": "col-vec", "data": data, "label": Phi.label}


def map_from_json(obj: dict) -> QuantumMap:
    for field in ("d", "repr", "data"):
        if field not in obj:
            raise ValueError(f"map JSON is missing required field '{field}'")
    if obj.get("conv", "col-vec") != "col-vec":
        raise ValueError(f"unsupported vectorization convention '{obj['conv']}'")
    d, repr_, label = _integer(obj, "d"), obj["repr"], obj.get("label", "")
    if repr_ == "transfer":
        T = matrix_from_json(obj["data"])
        if T.shape != (d * d, d * d):
            raise ValueError(f"field 'data': transfer shape {T.shape} does not match d={d}")
        return QuantumMap(T, label=label)
    if repr_ == "choi":
        C = matrix_from_json(obj["data"])
        if C.shape != (d * d, d * d):
            raise ValueError(f"field 'data': Choi shape {C.shape} does not match d={d}")
        return QuantumMap.from_choi(C, label=label)
    if repr_ == "kraus":
        kraus = [matrix_from_json(K) for K in obj["data"]]
        for K in kraus:
            if K.shape != (d, d):
                raise ValueError(f"field 'data': Kraus shape {K.shape} does not match d={d}")
        return QuantumMap.from_kraus(kraus, label=label)
    raise ValueError(f"field 'repr': unknown representation '{repr_}'")


def witness_to_json(w: BlockOperator | SchmidtWitness | None) -> dict | None:
    if w is None:
        return None
    if isinstance(w, BlockOperator):
        return {"kind": "block", "k": w.k, "d": w.d, "matrix": matrix_to_json(w.data)}
    return {"kind": "schmidt", "u": matrix_to_json(w.u), "v": matrix_to_json(w.v)}


def witness_from_json(obj: dict | None) -> BlockOperator | SchmidtWitness | None:
    if obj is None:
        return None
    if obj["kind"] == "block":
        return BlockOperator(k=_integer(obj, "k"), d=_integer(obj, "d"), data=matrix_from_json(obj["matrix"]))
    if obj["kind"] == "schmidt":
        return SchmidtWitness(u=matrix_from_json(obj["u"]), v=matrix_from_json(obj["v"]))
    raise ValueError(f"unknown witness kind '{obj['kind']}'")


def verdict_to_json(v: CertificateVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "worst_value": v.worst_value,
        "witness": witness_to_json(v.witness),
        "seed": v.seed,
        "budget": dict(v.budget_used),
    }


def verdict_from_json(obj: dict) -> CertificateVerdict:
    if obj["verdict"] not in ("Violated", "NoViolationFound"):
        raise ValueError(f"field 'verdict': expected 'Violated' or 'NoViolationFound', got {obj['verdict']!r}")
    return CertificateVerdict(
        verdict=obj["verdict"],
        worst_value=float(obj["worst_value"]),
        witness=witness_from_json(obj.get("witness")),
        budget_used=dict(obj.get("budget", {})),
        seed=_integer({"seed": 0, **obj}, "seed", 0),
    )


def scan_to_json(s: ScanResult) -> dict:
    return asdict(s)


def scan_to_csv(s: ScanResult) -> str:
    """CSV rows sorted by a (ascending), regardless of scan direction."""
    lines = ["a,verdict,worst_value"]
    for p in sorted(s.points, key=lambda p: p.a):
        lines.append(f"{p.a!r},{p.verdict},{p.worst_value!r}")
    return "\n".join(lines) + "\n"


def decomposition_to_json(r: DecompositionResult) -> dict:
    return {
        "lambda": r.lam,
        "params": dict(r.params),
        "phi1": map_to_json(r.phi1),
        "phi2": map_to_json(r.phi2),
        "residual": r.reconstruction_residual,
    }


def decomposition_from_json(obj: dict) -> DecompositionResult:
    return DecompositionResult(
        lam=float(obj["lambda"]),
        phi1=map_from_json(obj["phi1"]),
        phi2=map_from_json(obj["phi2"]),
        params=dict(obj["params"]),
        reconstruction_residual=float(obj["residual"]),
    )


def verification_to_json(r: VerificationReport) -> dict:
    return {
        "all_ok": r.all_ok,
        "reconstruction_ok": r.reconstruction_ok,
        "reconstruction_residual": r.reconstruction_residual,
        "phi1_ks": verdict_to_json(r.phi1_ks),
        "phi2_co_ks": verdict_to_json(r.phi2_co_ks),
        "jordan_min_eigenvalue": r.jordan_min_eigenvalue,
        "jordan_ok": r.jordan_ok,
        "n_jordan_samples": r.n_jordan_samples,
    }


def json_default(obj: Any) -> Any:
    """``default`` hook of json.dumps for the leaves of report structures
    that are not JSON types: verdicts and numpy scalars. np.float64 is a
    float, so json encodes it without the hook, through float.__repr__."""
    if isinstance(obj, CertificateVerdict):
        return verdict_to_json(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def to_jsonable(obj: Any) -> Any:
    """Nested report structures as JSON types, leaves converted as by
    json_default: json.dumps(to_jsonable(x)) == json.dumps(x, default=json_default)."""
    return json.loads(json.dumps(obj, default=json_default))
