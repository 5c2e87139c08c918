"""File emitters: provenance headers, formatting, round-trips."""

import json

import numpy as np
import pytest

from nvcr.serialize import read_decay_csv, write_csv, write_json
from nvcr.version import TOOL_NAME, __version__


def test_write_csv_header_formats_params(tmp_path):
    path = write_csv(tmp_path / "out.csv", {"x": [1.0]}, "demo",
                     {"third": 1.0 / 3.0, "tenth": 0.1, "a": "csv",
                      "v": np.array([1.0, 2.5]), "w": [1.0, 2.5]})
    assert path.read_text().splitlines()[:3] == [
        f"# {TOOL_NAME} {__version__}",
        "# subcommand: demo",
        "# params: a=csv tenth=0.1 third=0.3333333333 v=[1,2.5] w=[1,2.5]"]
    write_csv(path, {"x": [1.0]}, "demo", {})
    assert path.read_text().splitlines()[2] == "# params:"


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, {"label": ["p", "q"], "value": [1.5, 2.0 / 3.0]},
              "demo", {"n": 2}, extra_comments=["units: none"])
    raw = path.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8").splitlines()
    assert text[0] == f"# {TOOL_NAME} {__version__}"
    assert text[2] == "# params: n=2"
    assert "# units: none" in text
    assert text[4] == "label,value"
    assert text[5] == "p,1.5"
    assert text[6] == "q,0.6666666667"


def test_write_csv_matches_cell_by_cell_formatting(tmp_path):
    # 1100 rows: several write chunks, the last one partial
    rng = np.random.default_rng(3)
    cols = {"x": rng.normal(size=1100) * 10.0 ** rng.integers(-12, 12, 1100),
            "i": np.arange(1100), "s": [f"r{i}" for i in range(1100)]}
    path = write_csv(tmp_path / "out.csv", cols, "demo", {})
    rows = "".join("%.10g,%.10g,%s\n" % (cols["x"][i], i, cols["s"][i])
                   for i in range(1100))
    assert path.read_text().endswith("\nx,i,s\n" + rows)


@pytest.mark.parametrize("cells", [
    np.array([np.float64(0.1), "", 3], dtype=object),
    np.array([1.0, 2.0 + 1.0j, 3.0]),
    np.array([True, False, True]),
], ids=["object", "complex", "bool"])
def test_write_csv_refuses_a_column_of_other_cells(cells, tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=f"^column 'o' holds {cells.dtype} "
                       "cells, not numbers or strings$"):
        write_csv(path, {"x": np.ones(3), "o": cells}, "demo", {})
    assert not path.exists()


def test_write_csv_validation(tmp_path):
    with pytest.raises(ValueError, match="share a length"):
        write_csv(tmp_path / "bad.csv", {"a": np.ones(3), "b": np.ones(4)},
                  "demo", {})
    assert not any(tmp_path.iterdir())


def test_writers_refuse_non_finite_values(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="'signal'"):
        write_csv(path, {"tau_s": np.ones(3),
                         "signal": np.array([1.0, np.nan, 2.0])}, "demo", {})
    with pytest.raises(ValueError, match="'value' holds a non-finite"):
        write_csv(path, {"key": ["x"], "value": [np.inf]}, "demo", {})
    for payload in ({"x": np.inf}, {"columns": {"y": [0.0, np.nan]}}):
        with pytest.raises(ValueError,
                           match="^result holds a non-finite value$"):
            write_json(tmp_path / "bad.json", payload, "demo", {})
    assert not any(tmp_path.iterdir())


def test_write_json_refuses_a_value_json_cannot_hold(tmp_path):
    # the document is encoded before the file is opened: no half record
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        write_json(path, {"n": np.int64(3)}, "demo", {})
    assert not path.exists()


@pytest.mark.parametrize("top", [np.finfo(float).max, 1.7976931345e308])
def test_write_csv_refuses_a_cell_that_reads_back_as_inf(tmp_path, top):
    # both print as 1.797693135e+308, which float() reads as inf; the
    # largest magnitude is found on either sign
    path = tmp_path / "bad.csv"
    for col in (np.array([1.0, top]), np.array([-top, 0.0])):
        with pytest.raises(ValueError, match="'x' holds 1.79769e[+]308"):
            write_csv(path, {"i": np.arange(2), "x": col}, "demo", {})
        assert not path.exists()
    # one step below at ten digits reads back finite and is written
    edge = float("1.797693134e308")
    write_csv(path, {"x": np.array([-edge, 0.0])}, "demo", {})
    assert path.read_text().endswith("\nx\n-1.797693134e+308\n0\n")


def test_write_json_meta(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"answer": 42.0}, "demo",
               {"seed": 7, "tau_s": 1.0 / 3.0, "direction": [1.0, 2.5]})
    doc = json.loads(path.read_text())
    assert doc["answer"] == 42.0
    assert doc["meta"]["tool"] == TOOL_NAME
    assert doc["meta"]["version"] == __version__
    assert doc["meta"]["subcommand"] == "demo"
    assert doc["meta"]["params"] == {"seed": "7", "tau_s": "0.3333333333",
                                     "direction": "[1,2.5]"}


def test_read_decay_csv(tmp_path):
    path = tmp_path / "curve.csv"
    tau = np.geomspace(1e-5, 1e-3, 12)
    sig = np.exp(-np.sqrt(tau / 2e-4))
    write_csv(path, {"tau_s": tau, "signal": sig}, "decay-sim", {})
    curve = read_decay_csv(path)
    assert curve.tau_s == pytest.approx(tau, rel=1e-9)
    assert curve.signal == pytest.approx(sig, rel=1e-9)
    assert curve.sigma is None


def test_read_decay_csv_with_sigma(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("# comment\ntau_s,signal,sigma\n" + "".join(
        f"{t},1.0,0.1\n" for t in np.linspace(1e-5, 1e-3, 9)))
    curve = read_decay_csv(path)
    assert curve.sigma == pytest.approx(np.full(9, 0.1), abs=1e-12)


def test_read_decay_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,signal\n1,2\n")
    with pytest.raises(ValueError):
        read_decay_csv(path)
    path.write_text("tau_s,signal,weight\n1,2,3\n")
    with pytest.raises(ValueError):
        read_decay_csv(path)
