import json

import numpy as np
import pytest

from kslab.certify import SearchBudget, falsify_k_positivity, falsify_ks, scan_threshold
from kslab.decompose import decompose_reduction
from kslab.linalg import ginibre, hs_norm
from kslab.maps import BlockOperator, QuantumMap
from kslab.serialize import (
    decomposition_from_json,
    decomposition_to_json,
    json_default,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    scan_to_csv,
    scan_to_json,
    to_jsonable,
    verdict_from_json,
    verdict_to_json,
    witness_from_json,
    witness_to_json,
)
from kslab.suite import run_suite
from kslab.zoo import reduction, sample_utp_cp, transpose_map

rng = np.random.default_rng(5)
FAST = SearchBudget(restarts=8, max_iters=200, seed=0)


def test_matrix_round_trip_exact():
    A = ginibre(rng, 4)
    # through an actual JSON string: repr round-trips doubles bit-exactly
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(A))))
    assert np.array_equal(back, A)


def test_matrix_from_json_malformed():
    with pytest.raises(ValueError, match="malformed"):
        matrix_from_json([[1.0, 2.0]])


@pytest.mark.parametrize("repr_", ["transfer", "choi", "kraus"])
def test_map_round_trip(repr_):
    Phi = sample_utp_cp(2, seed=3)
    back = map_from_json(json.loads(json.dumps(map_to_json(Phi, repr_))))
    assert back.d == 2
    assert hs_norm(back.transfer - Phi.transfer) < 1e-10


def test_map_json_is_self_describing():
    obj = map_to_json(transpose_map(2))
    assert obj["repr"] == "transfer"
    assert obj["conv"] == "col-vec"
    assert obj["d"] == 2
    assert "transpose" in obj["label"]


def test_map_from_json_field_errors():
    with pytest.raises(ValueError, match="'d'"):
        map_from_json({"repr": "transfer", "data": []})
    with pytest.raises(ValueError, match="conv"):
        map_from_json({"d": 2, "repr": "transfer", "data": [], "conv": "row-vec"})
    with pytest.raises(ValueError, match="'data'"):
        map_from_json({"d": 3, "repr": "transfer", "data": matrix_to_json(np.eye(4))})
    with pytest.raises(ValueError, match="repr"):
        map_from_json({"d": 2, "repr": "stinespring", "data": []})
    # a d that is not an integer >= 1, with data whose side d * d = 4 would
    # otherwise pass the shape check
    for d in (-2, 2.7, 2.0, "2", True, 0):
        for repr_ in ("transfer", "choi"):
            with pytest.raises(ValueError, match="'d'.*integer >= 1"):
                map_from_json({"d": d, "repr": repr_, "data": matrix_to_json(np.eye(4))})


def test_block_witness_round_trip():
    w = BlockOperator(k=2, d=2, data=ginibre(rng, 4))
    back = witness_from_json(json.loads(json.dumps(witness_to_json(w))))
    assert isinstance(back, BlockOperator)
    assert (back.k, back.d) == (2, 2)
    assert np.array_equal(back.data, w.data)
    assert witness_to_json(None) is None
    assert witness_from_json(None) is None


def test_block_witness_dimensions_are_checked():
    # k = d = -2 has k d = 4, the side of the matrix, so only the dimension
    # check refuses it
    obj = witness_to_json(BlockOperator(k=2, d=2, data=ginibre(rng, 4)))
    for k, d in ((-2, -2), (2.0, 2), (1, 4.0), (0, 2)):
        with pytest.raises(ValueError, match="integer >= 1"):
            witness_from_json({**obj, "k": k, "d": d})
    verdict = verdict_to_json(falsify_ks(reduction(2, 0.7), 1, FAST))
    with pytest.raises(ValueError, match="'k'"):
        verdict_from_json({**verdict, "witness": {**verdict["witness"], "k": -2, "d": -2}})


def test_schmidt_witness_round_trip():
    res = falsify_k_positivity(transpose_map(2), 2, FAST)
    back = witness_from_json(json.loads(json.dumps(witness_to_json(res.witness))))
    assert np.array_equal(back.psi, res.witness.psi)


def test_verdict_round_trip():
    res = falsify_ks(reduction(2, 0.7), 1, FAST)
    back = verdict_from_json(json.loads(json.dumps(verdict_to_json(res))))
    assert back.verdict == res.verdict
    assert back.worst_value == res.worst_value
    assert back.seed == res.seed
    assert np.array_equal(back.witness.data, res.witness.data)


@pytest.mark.parametrize("field,value", [
    ("verdict", "Violatd"), ("verdict", "violated"), ("verdict", None),
    ("seed", -3), ("seed", 2.5), ("seed", True), ("seed", "7"),
])
def test_verdict_from_json_refuses_an_unknown_verdict_or_a_bad_seed(field, value):
    # a misspelt verdict or a seed that is not an integer >= 0 would load as
    # a clean verdict that no search gave
    obj = verdict_to_json(falsify_ks(QuantumMap.identity(2), 1, FAST))
    with pytest.raises(ValueError, match=f"'{field}'"):
        verdict_from_json({**obj, field: value})


def test_scan_json_and_csv():
    scan = scan_threshold("lambda-minus", 2, 1, 0.6, 0.72, 0.04, FAST,
                          direction="descending")
    obj = json.loads(json.dumps(scan_to_json(scan)))
    assert obj["family"] == "lambda-minus"
    assert len(obj["points"]) == 4
    csv = scan_to_csv(scan)
    lines = csv.strip().split("\n")
    assert lines[0] == "a,verdict,worst_value"
    a_col = [float(l.split(",")[0]) for l in lines[1:]]
    assert a_col == sorted(a_col)  # ascending regardless of scan direction


def test_decomposition_round_trip():
    r = decompose_reduction(2, 0.9)
    back = decomposition_from_json(json.loads(json.dumps(decomposition_to_json(r))))
    assert back.lam == r.lam
    assert back.params == r.params
    assert hs_norm(back.phi1.transfer - r.phi1.transfer) < 1e-12
    assert hs_norm(back.reconstruction().transfer - r.reconstruction().transfer) < 1e-12


def test_to_jsonable_handles_nested():
    res = falsify_ks(reduction(2, 0.7), 1, FAST)
    obj = to_jsonable({"x": [res, np.float64(1.5)], "y": (np.int64(3),)})
    json.dumps(obj)  # must not raise
    assert obj["x"][1] == 1.5
    assert obj["y"][0] == 3


def test_json_default_encodes_as_to_jsonable():
    res = falsify_ks(reduction(2, 0.7), 1, FAST)
    payload = {
        "verdicts": (res, [res]),
        "nested": {"t": (1, (2.5, "x")), "v": {"inner": res}},
        "f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True), "pair": (np.bool_(False), np.int64(7)),
    }
    report = run_suite(0, filter="7")
    for x in (payload, report):
        assert json.dumps(x, default=json_default) == json.dumps(to_jsonable(x))
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps({"m": np.eye(2)}, default=json_default)
