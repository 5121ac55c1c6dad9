"""The golden-file comparison in ``tests/golden_diff.py``."""

from __future__ import annotations

import json

from golden_diff import compare, main


def _kinds(old, new, may_change=frozenset()):
    return sorted(kind for _, kind, _ in compare(old, new, may_change))


def _stdout(payload) -> dict:
    return {"cases": [{"argv": ["x"], "stdout": json.dumps(payload)}]}


def test_identical_recordings_have_no_differences():
    doc = {"a": [1, 2.5, "0x1.8p+0", True, None], "b": {"c": "1,0,0"}}
    assert _kinds(doc, json.loads(json.dumps(doc))) == []


def test_floats_change_within_the_tolerance_and_fail_beyond():
    assert _kinds({"x": 1.0}, {"x": 1.0 + 2e-16}) == ["float"]
    assert _kinds({"x": 1.0}, {"x": 1.0 + 1e-11}) == ["fail"]
    assert _kinds({"x": (1.0).hex()}, {"x": (1.0 + 4e-16).hex()}) == ["float"]
    assert _kinds({"x": (1.0).hex()}, {"x": (1.5).hex()}) == ["fail"]


def test_integers_booleans_strings_and_structure_must_match():
    assert _kinds({"size_cap": 40}, {"size_cap": 80}) == ["fail"]
    assert _kinds({"terms_used": 3}, {"terms_used": 3.0}) == ["fail"]
    assert _kinds({"certified": True}, {"certified": False}) == ["fail"]
    assert _kinds({"argmax": "1,1,0"}, {"argmax": "1,0,0"}) == ["fail"]
    assert _kinds({"a": 1}, {"b": 1}) == ["fail"]
    assert _kinds([1, 2], [1]) == ["fail"]


def test_recorded_stdout_is_compared_through_its_parse():
    old = _stdout({"argmax_weight": "1,1", "max_value": 0.66})
    assert _kinds(old, _stdout({"argmax_weight": "1,1",
                                "max_value": 0.66 * (1 + 3e-16)})) == ["float"]
    assert _kinds(old, _stdout({"argmax_weight": "1,0",
                                "max_value": 0.66})) == ["fail"]
    csv_old = {"cases": [{"argv": ["x"], "stdout": "t,upper,n\n0.5,0.25,3\n"}]}
    csv_new = {"cases": [{"argv": ["x"], "stdout": "t,upper,n\n0.5,0.2500000000000001,3\n"}]}
    assert _kinds(csv_old, csv_new) == ["float"]
    csv_int = {"cases": [{"argv": ["x"], "stdout": "t,upper,n\n0.5,0.25,4\n"}]}
    assert _kinds(csv_old, csv_int) == ["fail"]


def test_named_keys_may_change_outright(tmp_path, capsys):
    old = {"SO(3)": {"log_dim": "ab12", "b": "cd34"}}
    new = {"SO(3)": {"log_dim": "ef56", "b": "cd34"}}
    assert _kinds(old, new, frozenset({"log_dim"})) == ["changed"]
    assert _kinds(old, {"SO(3)": {"log_dim": "ab12", "b": "0000"}},
                  frozenset({"log_dim"})) == ["fail"]
    paths = []
    for name, doc in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    assert main([str(p) for p in paths]) == 1
    assert main([*map(str, paths), "--may-change", "log_dim"]) == 0
    assert "changed: /SO(3)/log_dim" in capsys.readouterr().out
