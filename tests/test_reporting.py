"""Report serialization and atomic writes."""

import json
import os

import numpy as np
import pytest

from flab.errors import ConfigError
from flab.reporting import Report, _jsonify


def test_jsonify_numpy_and_complex():
    out = _jsonify(
        {
            "f": np.float64(1.5),
            "i": np.int32(3),
            "b": np.bool_(True),
            "arr": np.array([1.0, 2.0]),
            "c": 1 + 2j,
            "creal": 2 + 0j,
            "nested": [np.int64(7), {"x": None}],
            "rows": [{"f": np.float64(0.1), "i": np.int64(-2), "b": np.bool_(False), "plain": 0.1}],
        }
    )
    assert out["f"] == 1.5 and isinstance(out["f"], float)
    assert out["i"] == 3 and isinstance(out["i"], int)
    assert out["b"] is True
    assert out["arr"] == [1.0, 2.0]
    assert out["c"] == {"re": 1.0, "im": 2.0}
    assert out["creal"] == 2.0
    assert out["nested"] == [7, {"x": None}]
    # numpy scalars in a table row become exact built-ins
    row = out["rows"][0]
    assert row == {"f": 0.1, "i": -2, "b": False, "plain": 0.1}
    assert [type(row[key]) for key in ("f", "i", "b", "plain")] == [float, int, bool, float]
    with pytest.raises(ConfigError):
        _jsonify(object())


def test_report_assertions_and_duplicates():
    rep = Report("demo", {"a": 1}, seed=5)
    rep.add_assertion("first", True, "ok")
    rep.add_assertion("second", False, "bad")
    assert rep.passed is False
    with pytest.raises(ValueError):
        rep.add_assertion("first", True)
    rep.add_table("t", [{"x": 1}])
    with pytest.raises(ValueError):
        rep.add_table("t", [])
    lines = rep.summary_lines()
    assert any(line.startswith("[FAIL] second") for line in lines)
    assert lines[-1] == "overall: FAIL"


def test_write_json_roundtrip(tmp_path):
    rep = Report("demo", {"a": 1}, seed=9)
    rep.add_table("vals", [{"x": 1.0, "y": np.float64(2.0)}])
    rep.add_assertion("check", True)
    path = tmp_path / "out.json"
    rep.write_json(str(path))
    data = json.loads(path.read_text())
    assert data["metadata"]["experiment"] == "demo"
    assert data["metadata"]["seed"] == 9
    assert data["tables"]["vals"][0]["y"] == 2.0
    assert data["passed"] is True
    # no temp files left behind
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_write_csv_single_and_multi(tmp_path):
    rep = Report("demo", {}, seed=1)
    rep.add_table("only", [{"x": 1, "y": "a,b"}])
    rep.add_assertion("ok", True)
    single = tmp_path / "single.csv"
    rep.write_csv(str(single))
    body = single.read_text()
    assert "# assertion:ok=pass" in body
    assert '"a,b"' in body  # comma needs quoting

    rep2 = Report("demo", {}, seed=1)
    rep2.add_table("t1", [{"x": 1}])
    rep2.add_table("t2", [{"x": 2}])
    rep2.write_csv(str(tmp_path / "multi.csv"))
    assert (tmp_path / "multi_t1.csv").exists()
    assert (tmp_path / "multi_t2.csv").exists()
