"""Command-line surface: flags, exit codes, files, reproducibility."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nvcr import LineShape
from nvcr.cli import (_COMMON, _SHAPES, _SUBCOMMANDS, _Number, build_parser,
                      main)
from nvcr.odmr import _class_fields
from nvcr.serialize import read_decay_csv
from reference import (ETA_REFERENCE, SCENARIO_DIRECTIONS, class_eigensystem_mp,
                       scenario_counts)

SUBCOMMANDS = (
    "eigen-map", "transverse-scan", "eta-table", "multipliers",
    "transitions", "degeneracy", "spectrum", "decay-sim",
    "fit-t1", "fit-beta", "overlap", "sensitivity",
)

# at least one unit-bearing flag description per physical subcommand
UNIT_MENTIONS = {
    "eigen-map": "Gauss",
    "transverse-scan": "MHz",
    "transitions": "Gauss",
    "degeneracy": "MHz",
    "spectrum": "GHz",
    "decay-sim": "seconds",
    "fit-t1": "seconds",
    "overlap": "MHz",
    "sensitivity": "Tesla",
}


GOLDEN_DIR = Path(__file__).parent / "golden"

# golden file -> command line that writes it.  Each command runs in an
# empty directory; a file that is an input of a later command is read
# from GOLDEN_DIR, so a fit is checked against the committed curve.
GOLDEN = {
    "eigen_map.csv": ["eigen-map", "--n-b", "5", "--n-theta", "4",
                      "--b-max-gauss", "150"],
    "transverse_scan.csv": ["transverse-scan", "--n-b", "7",
                            "--b-max-gauss", "150"],
    "eta_table.csv": ["eta-table"],
    "multipliers.csv": ["multipliers"],
    "transitions.csv": ["transitions", "--direction", "1,1,1",
                        "--b-max-gauss", "20", "--n-b", "11"],
    "degeneracy.csv": ["degeneracy", "--n-b", "31"],
    "spectrum.csv": ["spectrum", "--b-gauss", "10", "--direction", "1,0,0",
                     "--shape", "gaussian", "--f-min-ghz", "2.8",
                     "--f-max-ghz", "2.94", "--n-freq", "41"],
    "decay_curve.csv": ["decay-sim", "--t1dd-s", "0.6e-3", "--t1ph-s",
                        "3.62e-3", "--log-spacing", "--n-tau", "32"],
    "fit_t1.json": ["fit-t1", "--input", "decay_curve.csv",
                    "--fix-t1ph", "3.62e-3", "--seed", "3"],
    "fit_beta.json": ["fit-beta", "--input", "decay_curve.csv"],
    "overlap.csv": ["overlap"],
    "overlap_lorentzian.csv": ["overlap", "--shape1", "lorentzian",
                               "--shape2", "lorentzian", "--width2-mhz", "2",
                               "--center2-mhz", "1",
                               "--output", "overlap_lorentzian.csv"],
    "overlap_mixed.csv": ["overlap", "--shape2", "lorentzian",
                          "--width1-mhz", "1.5", "--center1-mhz", "-0.5",
                          "--output", "overlap_mixed.csv"],
    "sensitivity.json": ["sensitivity", "--sigma-b-t", "2e-6",
                         "--tau-lp-s", "1e-3"],
}


def _run_golden(name, work):
    """Run the command of golden file ``name`` inside ``work``."""
    argv = GOLDEN[name]
    if "--input" in argv:
        source = argv[argv.index("--input") + 1]
        shutil.copy(GOLDEN_DIR / source, work / source)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return work / name


def _parser_surface() -> str:
    """Every flag of every subcommand: names, dest, default, choices."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    lines = []
    for name, parser in sub.choices.items():
        lines.append(name)
        for a in parser._actions:
            choices = None if a.choices is None else list(a.choices)
            lines.append(f"  {' '.join(a.option_strings)} dest={a.dest} "
                         f"default={a.default!r} choices={choices} "
                         f"required={a.required}")
    return "\n".join(lines) + "\n"


def write_golden():
    """Regenerate every golden file from the current code."""
    for name in GOLDEN:
        with tempfile.TemporaryDirectory() as work:
            shutil.copy(_run_golden(name, Path(work)), GOLDEN_DIR / name)
    (GOLDEN_DIR / "flags.txt").write_text(_parser_surface())


def _read_csv(path):
    comments, rows = [], []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_help_every_subcommand(capsys):
    for sub in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--output" in text
        if sub in UNIT_MENTIONS:
            assert UNIT_MENTIONS[sub] in text, sub


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "nvcr" in capsys.readouterr().out


@pytest.mark.parametrize("argv, vector", [
    (["transitions", "--n-b", "5"], "-1,0,0"),
    (["spectrum", "--b-gauss", "3", "--n-freq", "9"], "-.5,1,0.25"),
    (["degeneracy", "--n-b", "9"], "-1,-1,1"),
])
def test_direction_takes_a_leading_minus(argv, vector, tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(argv + ["--direction", vector, "--output", str(spaced)]) == 0
    assert main(argv + [f"--direction={vector}", "--output", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("command", ["transitions", "degeneracy",
                                     "spectrum"])
@pytest.mark.parametrize("vector", ["1e200,0,0", "0,0,0", "1e-200,0,0"])
def test_direction_without_a_finite_nonzero_length_exits_2(command, vector,
                                                           tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--direction", vector, "--output", str(out)])
    assert exc.value.code == 2
    assert "cannot normalize a vector of length" in capsys.readouterr().err
    assert not out.exists()


def test_direction_is_normalized_but_kept_in_the_header(tmp_path):
    rows = {}
    for vector in ("1,0,0", "0.001,0,0"):
        out = tmp_path / f"{vector}.csv"
        assert main(["transitions", "--n-b", "7", "--direction", vector,
                     "--output", str(out)]) == 0
        comments, _, rows[vector] = _read_csv(out)
        assert f"direction=[{vector}]" in "\n".join(comments)
    assert rows["1,0,0"] == rows["0.001,0,0"]


def test_bad_flags_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # spectrum's frequency range has no defaults: one end alone is refused
    lone = (["spectrum", "--f-min-ghz", "2.8"],
            ["spectrum", "--f-max-ghz", "2.9"])
    for argv in (*lone,
                 ["sensitivity", "--nope"],
                 ["fit-t1"],
                 ["frobnicate"],
                 ["transitions", "--b-max-gauss", "-5"],
                 ["degeneracy", "--n-b", "3"],
                 ["transitions", "--direction", "1,2"],
                 ["transitions", "--direction", "1,nan,0"],
                 ["overlap", "--center1-mhz", "nan"],
                 ["spectrum", "--linewidth-mhz", "inf"],
                 ["decay-sim", "--amplitude", "inf"],
                 ["spectrum", "--contrast", "1"],
                 ["decay-sim", "--beta", "1.6"],
                 ["decay-sim", "--mode", "stretched"],
                 ["eigen-map", "--class-id", "1"],
                 ["transverse-scan", "--class-id", "0"],
                 ["sensitivity", "--sigma-b-t", "inf"],
                 ["eigen-map", "--b-min-gauss", "50", "--b-max-gauss", "10"],
                 ["transverse-scan", "--b-min-gauss", "9", "--b-max-gauss",
                  "9"],
                 ["transitions", "--b-min-gauss", "50", "--b-max-gauss", "10"],
                 ["degeneracy", "--b-min-gauss", "50", "--b-max-gauss", "10"],
                 ["eigen-map", "--theta-min-rad", "1", "--theta-max-rad",
                  "0.5"],
                 ["spectrum", "--f-min-ghz", "3", "--f-max-ghz", "2"],
                 ["decay-sim", "--tau-min-s", "1e-2", "--tau-max-s", "1e-3"],
                 ["overlap", "--dnu-min-mhz", "5", "--dnu-max-mhz", "-5"],
                 ["fit-t1", "--input", "curve.csv", "--seed", "-1"],
                 ["sensitivity", "--format", "json"],
                 ["transverse-scan", "--format", "json"],
                 ["sensitivity", "--config", "x.cfg"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        if argv in lone:
            assert "--f-min-ghz and --f-max-ghz go together" in err, err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["eigen-map", "--n-b", "abc"], "not an integer: 'abc'"),
    (["overlap", "--width1-mhz", "wide"], "not a number: 'wide'"),
], ids=["integer", "number"])
def test_text_that_is_not_a_number_exits_2(argv, message, tmp_path,
                                           monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]
    assert not any(tmp_path.iterdir())


# a 16-row weighted curve, each with one bad cell: (row, column, value);
# row k is on line k + 2, below the header
@pytest.mark.parametrize("row, column, value", [
    (5, "tau_s", "nan"), (15, "tau_s", "inf"), (0, "tau_s", "-1e-06"),
    (5, "signal", "nan"), (11, "signal", "inf"),
    (5, "sigma", "nan"), (7, "sigma", "inf"),
], ids=["tau_nan", "tau_inf", "tau_negative", "signal_nan", "signal_inf",
        "sigma_nan", "sigma_inf"])
@pytest.mark.parametrize("command", ["fit-t1", "fit-beta"])
def test_fit_refuses_non_finite_or_negative_curve_cells(command, row, column,
                                                       value, tmp_path,
                                                       capsys):
    tau = np.geomspace(1e-5, 5e-3, 16)
    cells = [[repr(t), repr(float(np.exp(-np.sqrt(t / 6e-4)))), "0.01"]
             for t in tau.tolist()]
    cells[row][["tau_s", "signal", "sigma"].index(column)] = value
    curve = tmp_path / "curve.csv"
    curve.write_text("tau_s,signal,sigma\n"
                     + "".join(",".join(r) + "\n" for r in cells))
    out = tmp_path / "fit.json"
    assert main([command, "--input", str(curve), "--output", str(out)]) == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "ValueError" and column in diag["message"], diag
    if value in ("nan", "inf"):
        assert diag["message"] == (f"line {row + 2}: {column} {value!r} "
                                   "is not a finite number")
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("# no rows\ntau_s,signal,sigma\n", "the decay table has no rows"),
    ("tau_s,signal,sigma\n1e-05,0.9,0.01\n2e-05,0.8\n",
     "line 3 has 2 cells, but the header has 3"),
    ("# a comment\n\ntau_s,signal\n1e-05,0.9\n2e-05,0.8,0.01\n",
     "line 5 has 3 cells, but the header has 2"),
    # the header is checked on its own line, before any row
    ("time,signal\n1e-5,abc\n",
     "line 1: expected the header 'tau_s,signal[,sigma]', got 'time,signal'"),
    ("# a comment\ntime,signal\n1e-5,0.9,0.1\n",
     "line 2: expected the header 'tau_s,signal[,sigma]', got 'time,signal'"),
    ("tau_s,signal\n" + "".join(f"{k}e-05,0.{9 - k}\n" for k in range(1, 8))
     + "8e-05,0.2x\n", "line 9: signal '0.2x' is not a number"),
    # the times must increase row by row
    ("tau_s,signal\n1e-05,0.9\n3e-05,0.7\n2e-05,0.8\n",
     "line 4: tau_s 2e-05 does not exceed the previous row's 3e-05"),
    ("# a comment\ntau_s,signal,sigma\n1e-05,0.9,0.01\n2e-05,0.8,0.01\n"
     "2e-05,0.7,0.01\n",
     "line 5: tau_s 2e-05 does not exceed the previous row's 2e-05"),
], ids=["empty", "short_row", "long_row", "bad_header", "bad_header_long_row",
        "bad_cell", "swapped_rows", "repeated_time"])
def test_fit_refuses_an_empty_or_ragged_curve(text, message, tmp_path,
                                              capsys):
    curve, out = tmp_path / "curve.csv", tmp_path / "fit.json"
    curve.write_text(text)
    assert main(["fit-t1", "--input", str(curve), "--output", str(out)]) == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag == {"error": "ValueError", "message": message}
    assert not out.exists()


def test_fit_reads_a_curve_that_starts_with_a_byte_order_mark(tmp_path):
    # as Excel's "CSV UTF-8" export and PowerShell 5's utf8 Out-File write
    text = (GOLDEN_DIR / "decay_curve.csv").read_text()
    rows = [line for line in text.splitlines(keepends=True)
            if not line.startswith("#")]
    curves, records = [], []
    for mark in ("", "\ufeff"):
        curve = tmp_path / f"curve{len(mark)}.csv"
        curve.write_text(mark + "".join(rows), encoding="utf-8")
        out = tmp_path / f"fit{len(mark)}.json"
        assert main(["fit-t1", "--input", str(curve), "--output",
                     str(out)]) == 0
        curves.append(read_decay_csv(curve))
        records.append({k: v for k, v in json.loads(out.read_text()).items()
                        if k != "meta"})
    assert curves[1].tau_s.tobytes() == curves[0].tau_s.tobytes()
    assert curves[1].signal.tobytes() == curves[0].signal.tobytes()
    assert curves[0].sigma is None and curves[1].sigma is None
    assert records[1] == records[0]


@pytest.mark.parametrize("curve_flags, fit_flags", [
    (["--t1ph-s", "3.62e-3", "--log-spacing"], ["--fix-t1ph", "3.62e-3"]),
    ([], []),
], ids=["fixed", "free"])
def test_fit_on_a_window_edge_exits_1_with_that_fit(curve_flags, fit_flags,
                                                    tmp_path, capsys):
    # a 1e4 s dipolar timescale lies beyond the window, whose top is the
    # last wait time widened 1e4-fold: 50 s
    curve, out = tmp_path / "curve.csv", tmp_path / "fit.json"
    assert main(["decay-sim", "--t1dd-s", "1e4", *curve_flags,
                 "--output", str(curve)]) == 0
    capsys.readouterr()
    assert main(["fit-t1", "--input", str(curve), *fit_flags,
                 "--output", str(out)]) == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "FitError" and "edge" in diag["message"], diag
    best = diag["best"]
    assert best["converged"] is False
    assert best["A"] > 0.0 and best["iterations"] > 0
    assert not out.exists()
    if fit_flags:
        assert best["T1_dd_s"] == pytest.approx(50.0, rel=1e-12)
        assert best["T1_ph_s"] == 3.62e-3 and best["beta"] == 0.5


def test_numeric_failure_exit_1_with_json(tmp_path, capsys):
    rc = main(["fit-t1", "--input", str(tmp_path / "missing.csv")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "FileNotFoundError"
    assert "message" in diag


def test_output_into_a_missing_directory_exits_1_without_file(tmp_path,
                                                               capsys):
    missing = tmp_path / "missing"
    for argv in (["sensitivity"], ["transitions", "--n-b", "3"]):
        assert main([*argv, "--output", str(missing / "out")]) == 1, argv
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"] == "FileNotFoundError", argv
    assert not any(tmp_path.iterdir())


def test_non_finite_result_exit_1_without_file(tmp_path, capsys):
    out = tmp_path / "sens.json"
    # finite flags whose product overflows
    rc = main(["sensitivity", "--sigma-b-t", "1e300", "--tau-lp-s",
               "1e300", "--output", str(out)])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["error"] == "ValueError"
    assert not out.exists()


def _flag_kwargs(command):
    flags = _COMMON + _SUBCOMMANDS[command].flags
    return {names[0]: kw for names, kw in flags}


def _floor(kw):
    """The ``_Number`` type that bounds a flag, if any."""
    kind = kw.get("type")
    if isinstance(kind, _Number) and kind.low is not None:
        return kind
    return None


# every (subcommand, flag) with a floor or a max partner
_BOUNDED = [(command, flag) for command in _SUBCOMMANDS
            for flag, kw in _flag_kwargs(command).items()
            if _floor(kw) is not None or "-min-" in flag]


@st.composite
def _out_of_range(draw, command, flag):
    """``--flag=value`` arguments of ``command`` with ``flag`` out of
    range: below its floor (at it for a positive flag), above its
    ceiling (at it for an open one), or, for a --X-min-Y, at or above
    its --X-max-Y."""
    flags = _flag_kwargs(command)
    argv = [f"{name}=curve.csv" for name, kw in flags.items()
            if kw.get("required")]
    kind = _floor(flags[flag])
    if "-min-" in flag and (kind is None or draw(st.booleans())):
        top = draw(st.floats(1e-3, 1e3))
        bottom = top * draw(st.floats(1.0, 10.0))
        return argv + [f"{flag}={bottom!r}",
                       f"{flag.replace('-min-', '-max-')}={top!r}"]
    if kind.high is not None and draw(st.booleans()):
        value = draw(st.floats(min_value=kind.high,
                               exclude_min=not kind.high_strict,
                               allow_nan=False, allow_infinity=False))
    elif kind.cast is int:
        value = draw(st.integers(max_value=int(kind.low) - (not kind.strict)))
    else:
        value = draw(st.floats(max_value=kind.low, exclude_max=not kind.strict,
                               allow_nan=False, allow_infinity=False))
    return argv + [f"{flag}={value!r}"]


@pytest.mark.parametrize("command, flag", _BOUNDED)
@settings(max_examples=8,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_out_of_range_flags_exit_2_without_file(command, flag, data,
                                                tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    argv = [command, *data.draw(_out_of_range(command, flag))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2, argv
    assert flag in capsys.readouterr().err, argv
    assert not any(tmp_path.iterdir())


# a value for each flag that has no default; a --f-*-ghz needs its partner
_NO_DEFAULT = {
    "--direction": ["--direction", "1,1,0"],
    "--t1ph-s": ["--t1ph-s", "1e-3"],
    "--fix-t1ph-s": ["--fix-t1ph-s", "1e-3"],
    "--f-min-ghz": ["--f-min-ghz", "2.8", "--f-max-ghz", "2.95"],
    "--f-max-ghz": ["--f-min-ghz", "2.8", "--f-max-ghz", "2.95"],
}


def _other_value(flag, kw):
    """Arguments that set ``flag`` to one valid value besides its default."""
    default = kw.get("default")
    if kw.get("action") == "store_true":
        return [flag]
    if "choices" in kw:
        return [flag, str(next(c for c in kw["choices"] if c != default))]
    if default is None:
        return _NO_DEFAULT[flag]
    if isinstance(default, int):
        return [flag, str(default + 1)]
    return [flag, repr(2.0 * default if default else 1.0)]


def _without_params(out):
    """A written file less its parameter record: a JSON record without its
    ``meta`` block, a CSV table without its ``# params:`` line."""
    if out.suffix == ".json":
        doc = json.loads(out.read_text())
        del doc["meta"]
        return doc
    return [line for line in out.read_text().splitlines()
            if not line.startswith("# params:")]


def test_every_flag_changes_the_output(tmp_path):
    # everything but the parameter record; for degeneracy --cr-range-mhz
    # only the comment lines move
    inert = []
    for command, spec in _SUBCOMMANDS.items():
        # the row's own flags: _COMMON holds only --output, which the
        # runs below set to read the file back
        flags = {names[0]: kw for names, kw in spec.flags}
        # at the default zero field the direction of a spectrum is moot
        base = [command, *(["--b-gauss", "10"] if command == "spectrum"
                           else [])]
        base += [arg for flag, kw in flags.items() if kw.get("required")
                 for arg in (flag, str(GOLDEN_DIR / "decay_curve.csv"))]

        def output(*extra):
            out = tmp_path / spec.output
            assert main([*base, *extra, "--output", str(out)]) == 0, extra
            return _without_params(out)

        default = output()
        for flag, kw in flags.items():
            # a fit's --seed is accepted and changes nothing but the
            # parameter record: test_fits_ignore_the_seed holds it to that
            if kw.get("required") or flag == "--seed":
                continue
            if output(*_other_value(flag, kw)) == default:
                inert.append(f"{command} {flag}")
    assert inert == []


_B_GAUSS = st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 300.0))
_E_PERP_MHZ = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
# orthogonal to one or two class axes, along one, or anything
_DIRECTIONS = st.one_of(
    st.sampled_from(["1,-1,0", "0,1,-1", "1,0,-1", "1,1,0", "1,1,1",
                     "1,0,0"]),
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any).map(
        lambda v: ",".join(map(str, v))))


@st.composite
def _field_runs(draw):
    """One field subcommand with flags drawn inside their ranges."""
    cmd = draw(st.sampled_from(["transitions", "degeneracy", "spectrum",
                                "eigen-map", "transverse-scan"]))
    argv = [cmd, "--e-perp-mhz", repr(draw(_E_PERP_MHZ))]
    if cmd == "spectrum":
        return argv + ["--b-gauss", repr(draw(_B_GAUSS)),
                       "--direction=" + draw(_DIRECTIONS)]
    b_max = draw(st.one_of(st.floats(1e-4, 0.05), st.floats(0.05, 300.0)))
    b_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.99))) * b_max
    argv += ["--b-min-gauss", repr(b_min), "--b-max-gauss", repr(b_max)]
    if cmd in ("transitions", "degeneracy"):
        return argv + ["--n-b", str(draw(st.integers(8, 24))),
                       "--direction=" + draw(_DIRECTIONS)]
    if cmd == "eigen-map":
        return argv + ["--n-b", str(draw(st.integers(2, 12))),
                       "--n-theta", str(draw(st.integers(2, 8)))]
    return argv + ["--n-b", str(draw(st.integers(2, 64)))]


@settings(max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_field_runs())
# a weak field orthogonal to a class axis splits that class's |+-1> pair
# by ~1e-10 GHz: the first run wrote its lines out of energy order, the
# other five exited 1 on the eigen-residual check
@example(argv=["transitions", "--e-perp-mhz", "0", "--direction", "1,-1,0",
               "--b-min-gauss", "0.01", "--b-max-gauss", "10", "--n-b", "11"])
@example(argv=["spectrum", "--b-gauss", "0.0122382", "--direction",
               "1,-1,0", "--e-perp-mhz", "0"])
@example(argv=["transitions", "--direction", "1,-1,0", "--e-perp-mhz", "0",
               "--b-max-gauss", "0.05", "--n-b", "41"])
@example(argv=["degeneracy", "--direction", "1,-1,0", "--e-perp-mhz", "0",
               "--b-max-gauss", "0.05", "--n-b", "41"])
@example(argv=["transverse-scan", "--e-perp-mhz", "0", "--b-max-gauss",
               "0.05", "--n-b", "201"])
@example(argv=["eigen-map", "--e-perp-mhz", "0", "--b-max-gauss", "0.05",
               "--n-b", "101", "--n-theta", "31"])
def test_field_commands_exit_0_with_finite_files(argv, tmp_path):
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    assert main([*argv, "--output", str(out)]) == 0, argv
    _, header, rows = _read_csv(out)
    table = np.array(rows, dtype=float)
    assert table.shape == (len(rows), len(header)) and len(rows) > 0
    assert np.all(np.isfinite(table)), argv
    if argv[0] == "transitions":
        # columns nu1..nu8: each class's lower line, then its upper line
        assert np.all(table[:, 1:9:2] <= table[:, 2:9:2]), argv


def _range(draw, low, high, flag):
    """``--X-min-Y``/``--X-max-Y`` flags of a drawn range low <= a < b <= high."""
    a, b = sorted(draw(st.lists(st.floats(low, high), min_size=2, max_size=2,
                                unique=True)))
    return [f"--{flag.replace('*', 'min')}={a!r}",
            f"--{flag.replace('*', 'max')}={b!r}"]


_POSITIVE = st.floats(1e-300, 1e300)


@st.composite
def _fieldless_runs(draw):
    """One of the commands that take no field, with in-range flags: wide
    positive values, so products and quotients may overflow."""
    cmd = draw(st.sampled_from(["decay-sim", "overlap", "sensitivity",
                                "spectrum"]))
    if cmd == "decay-sim":
        argv = [cmd, "--t1dd-s", repr(draw(_POSITIVE)),
                "--amplitude", repr(draw(_POSITIVE)),
                "--beta", repr(draw(st.floats(1e-6, 1.5))),
                "--n-tau", str(draw(st.integers(2, 64))),
                *_range(draw, 1e-300, 1e300, "tau-*-s")]
        if draw(st.booleans()):
            argv += ["--t1ph-s", repr(draw(_POSITIVE))]
        return argv + (["--log-spacing"] if draw(st.booleans()) else [])
    if cmd == "overlap":
        argv = [cmd, "--n-dnu", str(draw(st.integers(2, 64))),
                *_range(draw, -1e6, 1e6, "dnu-*-mhz")]
        for k in (1, 2):
            argv += [f"--shape{k}", draw(st.sampled_from(["gaussian",
                                                          "lorentzian"])),
                     f"--width{k}-mhz", repr(draw(st.floats(1e-6, 1e6))),
                     f"--center{k}-mhz", repr(draw(st.floats(-1e6, 1e6)))]
        return argv
    if cmd == "sensitivity":
        return [cmd, "--sigma-b-t", repr(draw(_POSITIVE)),
                "--tau-lp-s", repr(draw(_POSITIVE))]
    argv = [cmd, "--shape", draw(st.sampled_from(["gaussian", "lorentzian"])),
            "--linewidth-mhz", repr(draw(st.floats(1e-6, 1e4))),
            "--contrast", repr(draw(st.floats(1e-9, 0.5))),
            "--n-freq", str(draw(st.integers(2, 256)))]
    if draw(st.booleans()):
        argv += _range(draw, 1e-6, 1e3, "f-*-ghz")
    return argv


@settings(max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_fieldless_runs())
# argparse reads a spaced value like -1e-05 (no plain decimal) as a flag;
# it exited 2 with "expected one argument" until the CLI folded it
@example(argv=["overlap", "--center1-mhz", "-1e-05", "--dnu-min-mhz",
               "-2e1", "--dnu-max-mhz", "-1e1"])
def test_fieldless_commands_exit_0_finite_or_1_without_file(argv, tmp_path,
                                                           capsys):
    out = tmp_path / _SUBCOMMANDS[argv[0]].output
    out.unlink(missing_ok=True)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main([*argv, "--output", str(out)])
    if rc == 1:
        diag = json.loads(capsys.readouterr().out)
        assert set(diag) == {"error", "message"}, argv
        assert not out.exists(), argv
        return
    assert rc == 0, argv
    if out.suffix == ".json":
        values = list(_without_params(out).values())
    else:
        values = _read_csv(out)[2]
    table = np.array(values, dtype=float)
    assert table.size > 0 and np.all(np.isfinite(table)), argv


def _extreme_runs():
    """(argv, flag, value) for every float flag of the subcommand table
    at 1e300, 1e-300 and DBL_MAX where its parser admits the value: the flag
    alone, and a --X-min-Y or --X-max-Y also with its partner set so that
    the range holds.  Grids are small; an --input is the golden curve."""
    small = {"--n-b": "8", "--n-theta": "2", "--n-freq": "9",
             "--n-tau": "8", "--n-dnu": "5"}
    # flag pairs whose product, sum or quotient overflows: the noise
    # times the root of the time, a probe frequency in MHz, the peak of
    # two narrow lines, the offset of two far centers, and the summed
    # width of two Lorentzians; then the ends of the float range: a
    # timescale whose quotient overflows, a ramp of repeated denormals,
    # cells that print at ten digits as text that reads back as inf, and
    # a ramp whose span passes DBL_MAX
    top, tiny = sys.float_info.max, 5e-324
    curve = str(GOLDEN_DIR / "decay_curve.csv")
    runs = [pytest.param(argv, flag, value,
                         id=" ".join(argv).replace(curve, "decay_curve.csv"))
            for argv, flag, value in [
                (["sensitivity", "--sigma-b-t=1e+300", "--tau-lp-s=1e+300"],
                 "--tau-lp-s", 1e300),
                (["spectrum", "--f-min-ghz=1e+306", "--f-max-ghz=1e+308"],
                 "--f-max-ghz", 1e308),
                (["overlap", "--width1-mhz=5e-324", "--width2-mhz=5e-324",
                  "--n-dnu=3"], "--width2-mhz", 5e-324),
                (["overlap", "--center1-mhz=-1e+308", "--center2-mhz=1e+308"],
                 "--center2-mhz", 1e308),
                (["overlap", "--dnu-max-mhz=1e+308", "--center2-mhz=1e+308"],
                 "--center2-mhz", 1e308),
                (["overlap", "--shape1=lorentzian", "--shape2=lorentzian",
                  "--width1-mhz=1e+308", "--width2-mhz=1e+308"],
                 "--width2-mhz", 1e308),
                (["decay-sim", f"--t1dd-s={tiny!r}"], "--t1dd-s", tiny),
                (["decay-sim", f"--t1ph-s={tiny!r}"], "--t1ph-s", tiny),
                (["fit-t1", "--input", curve, f"--fix-t1ph-s={tiny!r}"],
                 "--fix-t1ph-s", tiny),
                (["degeneracy", f"--b-max-gauss={tiny!r}"],
                 "--b-max-gauss", tiny),
                (["degeneracy", f"--b-max-gauss={tiny!r}", "--b-min-gauss=0.0"],
                 "--b-max-gauss", tiny),
                (["degeneracy", f"--b-min-gauss={tiny!r}",
                  f"--b-max-gauss={2 * tiny!r}"], "--b-max-gauss", 2 * tiny),
                (["eigen-map", "--n-b=8", "--n-theta=2",
                  f"--theta-max-rad={top!r}"], "--theta-max-rad", top),
                (["eigen-map", "--n-b=8", "--n-theta=2",
                  f"--theta-max-rad={top!r}", f"--theta-min-rad={top / 2!r}"],
                 "--theta-max-rad", top),
                (["transverse-scan", "--n-b=8", f"--e-perp-mhz={top!r}"],
                 "--e-perp-mhz", top),
                (["spectrum", "--n-freq=9", f"--f-min-ghz={top / 2!r}",
                  f"--f-max-ghz={top!r}"], "--f-max-ghz", top),
                (["overlap", "--n-dnu=5", f"--dnu-max-mhz={top!r}"],
                 "--dnu-max-mhz", top),
                (["overlap", "--n-dnu=5", f"--dnu-max-mhz={top!r}",
                  f"--dnu-min-mhz={top / 2!r}"], "--dnu-max-mhz", top),
                (["overlap", "--n-dnu=5", f"--dnu-max-mhz={top!r}",
                  f"--dnu-min-mhz={-top!r}"], "--dnu-max-mhz", top),
                # along [111] a class projection passes 1 by an ulp
                (["transitions", "--n-b=8", "--direction=1,1,1",
                  f"--b-max-gauss={top!r}"], "--b-max-gauss", top),
                (["degeneracy", "--n-b=8", "--direction=1,1,1",
                  f"--b-max-gauss={top!r}"], "--b-max-gauss", top)]]
    for command, spec in _SUBCOMMANDS.items():
        flags = {names[0]: kw for names, kw in spec.flags}
        base = [command, *(f"{f}={n}" for f, n in small.items() if f in flags)]
        base += [arg for flag, kw in flags.items() if kw.get("required")
                 for arg in (flag, str(GOLDEN_DIR / "decay_curve.csv"))]
        for flag, kw in flags.items():
            kind = kw.get("type")
            if not (isinstance(kind, _Number) and kind.cast is float):
                continue
            for value in (1e300, 1e-300, sys.float_info.max):
                try:
                    kind(repr(value))
                except argparse.ArgumentTypeError:
                    continue
                low = "-min-" in flag
                partner = flag.replace(*(("-min-", "-max-") if low
                                         else ("-max-", "-min-")))
                tails = [[f"{flag}={value!r}"]]
                if partner in flags.keys() - {flag}:
                    # a min at DBL_MAX meets its max there: the order is
                    # refused, naming both flags
                    bound = min(2.0 * value, top) if low else value / 2.0
                    tails.append([*tails[0], f"{partner}={bound!r}"])
                runs += [pytest.param([*base, *tail], flag, value,
                                      id=" ".join([command, *tail]))
                         for tail in tails]
    return runs


@pytest.mark.parametrize("argv, flag, value", _extreme_runs())
def test_extreme_flag_values_compute_or_are_refused_by_name(argv, flag, value,
                                                            tmp_path, capsys):
    # exit 0 with a finite file, or exit 1 or 2 naming the flag or its
    # value and writing nothing; a numpy warning fails the run
    out = tmp_path / _SUBCOMMANDS[argv[0]].output
    try:
        rc = main([*argv, "--output", str(out)])
    except SystemExit as exc:
        rc = exc.code
    stdout, err = capsys.readouterr()
    names = (flag, f"{value:g}")
    if rc == 0:
        assert err == "", argv
        if out.suffix == ".json":
            cells = [v for v in _without_params(out).values() if v is not None]
        else:
            cells = _read_csv(out)[2]
        assert np.all(np.isfinite(np.array(cells, dtype=float))), argv
        return
    assert not out.exists(), argv
    if rc == 1:
        assert err == "", argv
        message = json.loads(stdout)["message"]
        assert any(name in message for name in names), message
    else:
        assert rc == 2, argv
        # the usage lines above the error list every flag
        error = err.splitlines()[-1]
        assert "error:" in error and any(n in error for n in names), err


def test_sensitivity_record(tmp_path, capsys):
    out = tmp_path / "sens.json"
    rc = main(["sensitivity", "--sigma-b-t", "1.5e-6", "--tau-lp-s", "3e-3",
               "--output", str(out)])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["sensitivity_t_per_sqrt_hz"] == pytest.approx(
        1.5e-6 * np.sqrt(3e-3), rel=1e-12)
    assert doc["meta"]["subcommand"] == "sensitivity"
    assert doc["meta"]["tool"] == "nvcr"


def test_sensitivity_record_as_csv(tmp_path):
    # a record is JSON only: a .csv name does not pick the format
    out = tmp_path / "sens.csv"
    assert main(["sensitivity", "--output", str(out)]) == 0
    assert "sensitivity_t_per_sqrt_hz" in json.loads(out.read_text())


def test_transverse_scan_json(tmp_path):
    # a table is CSV only: a .json name does not pick the format
    out = tmp_path / "scan.json"
    assert main(["transverse-scan", "--b-max-gauss", "150", "--n-b", "4",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    dnu = [float(r[header.index("dnu_MHz")]) for r in rows]
    assert dnu[0] == pytest.approx(8.0, abs=1e-6)
    assert dnu == sorted(dnu)


def test_transverse_scan_against_the_two_level_closed_form(tmp_path):
    # with B along x, |-> stays at D - eps and |e> is the top level of
    # the {|0>, |+>} block [[0, a], [a, s]]; no zero cell reads -0
    out = tmp_path / "scan.csv"
    assert main(["transverse-scan", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert len(rows) == 201
    assert not [c for r in rows for c in r
                if c.startswith("-") and float(c) == 0.0]
    row = dict(zip(header, map(float, rows[150])))
    assert row["B_gauss"] == 150.0, row
    eps, s = 4.0, 2870.0 + 4.0          # MHz
    a = 2.8 * row["B_gauss"]
    r = np.sqrt(s * s + 4.0 * a * a)
    assert row["dnu_MHz"] == pytest.approx(2.0 * eps + 2.0 * a * a / (r + s),
                                           rel=1e-9)
    assert row["overlap_e_plus"] == pytest.approx(0.5 * (1.0 + s / r),
                                                  rel=1e-9)


# at e_perp = 0 a field of 0-10 mG along x splits |+-> by less than the
# tie-break tolerance, and at B = 0 the excited pair is an exact double
# root, where a closed form can divide 0 by 0: every cell is finite and
# |e> follows |+>.  On the weak map that is required only at theta =
# pi/2, printed as 1.570796327: at 1.5, B_z splits |+-1> and |e> follows
# |+1>
_WEAK = ["--e-perp-mhz", "0", "--b-max-gauss", "0.01", "--n-b", "21"]
_ZERO = ["--e-perp-mhz", "0", "--b-max-gauss", "1e-9", "--n-b", "3"]


@pytest.mark.parametrize("argv, n_rows, theta_from", [
    (["eigen-map", *_WEAK, "--theta-min-rad", "1.5",
      "--theta-max-rad=1.5707963267948966", "--n-theta", "2"], 42, 1.570796),
    (["transverse-scan", *_WEAK], 21, 0.0),
    (["eigen-map", *_ZERO, "--n-theta", "3"], 9, 0.0),
    (["transitions", *_ZERO], 3, 0.0),
], ids=["weak-map", "weak-scan", "zero-map", "zero-lines"])
def test_zero_e_perp_keeps_e_on_plus_with_finite_cells(argv, n_rows,
                                                      theta_from, tmp_path):
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    table = dict(zip(header, np.array(rows, dtype=float).T))
    assert len(rows) == n_rows
    assert all(np.all(np.isfinite(column)) for column in table.values())
    if "overlap_e_plus" in table:
        edge = table.get("theta_rad", np.zeros(n_rows)) >= theta_from
        assert np.all(table["overlap_e_plus"][edge] >= 0.99)


def test_decay_sim_then_fit(tmp_path):
    curve = tmp_path / "curve.csv"
    fit = tmp_path / "fit.json"
    assert main(["decay-sim", "--t1dd-s", "0.6e-3", "--t1ph-s", "3.62e-3",
                 "--log-spacing", "--output", str(curve)]) == 0
    assert main(["fit-t1", "--input", str(curve), "--fix-t1ph", "3.62e-3",
                 "--output", str(fit)]) == 0
    doc = json.loads(fit.read_text())
    assert doc["converged"] is True
    assert 0.588e-3 <= doc["T1_dd_s"] <= 0.612e-3
    assert doc["T1_ph_s"] == pytest.approx(3.62e-3, rel=1e-12)
    # the free fit recovers both timescales of the noiseless curve
    assert main(["fit-t1", "--input", str(curve), "--output", str(fit)]) == 0
    doc = json.loads(fit.read_text())
    assert doc["converged"] is True
    assert doc["T1_dd_s"] == pytest.approx(0.6e-3, rel=1e-6)
    assert doc["T1_ph_s"] == pytest.approx(3.62e-3, rel=1e-6)
    assert main(["fit-beta", "--input", str(curve), "--output", str(fit)]) == 0
    assert json.loads(fit.read_text())["converged"] is True


def test_fit_beta_cli(tmp_path):
    curve = tmp_path / "curve.csv"
    fit = tmp_path / "fit.json"
    assert main(["decay-sim", "--t1dd-s", "2e-3",
                 "--beta", "0.5", "--tau-max-s", "2e-2", "--log-spacing",
                 "--output", str(curve)]) == 0
    assert main(["fit-beta", "--input", str(curve),
                 "--output", str(fit)]) == 0
    doc = json.loads(fit.read_text())
    assert doc["beta"] == pytest.approx(0.5, abs=0.01)
    assert doc["T1_ph_s"] is None


@pytest.mark.parametrize("argv", [
    ["fit-t1", "--input", "decay_curve.csv", "--fix-t1ph", "3.62e-3"],
    ["fit-t1", "--input", "decay_curve.csv"],
    ["fit-beta", "--input", "decay_curve.csv"],
], ids=["fit-t1-fixed", "fit-t1-free", "fit-beta"])
def test_fits_ignore_the_seed(argv, tmp_path, monkeypatch):
    # --seed is parsed and echoed in the header but draws nothing
    monkeypatch.chdir(tmp_path)
    shutil.copy(GOLDEN_DIR / "decay_curve.csv", tmp_path)
    docs = []
    for k, seed in enumerate([None, "0", "7"]):
        out = tmp_path / f"fit{k}.json"
        flags = [] if seed is None else ["--seed", seed]
        assert main(argv + flags + ["--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["params"].get("seed") == seed
        del doc["meta"]
        docs.append(doc)
    assert docs[0] == docs[1] == docs[2]


@pytest.mark.parametrize("command", [c for c in SUBCOMMANDS
                                     if c not in ("fit-t1", "fit-beta")])
def test_seed_is_refused_where_no_fit_runs(command, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_fix_t1ph_flag_spellings():
    parser = build_parser()
    for flag in ("--fix-t1ph-s", "--fix-t1ph"):
        args = parser.parse_args(["fit-t1", "--input", "x.csv",
                                  flag, "1e-3"])
        assert args.fix_t1ph_s == pytest.approx(1e-3)


def test_byte_identical_outputs(tmp_path):
    curve = tmp_path / "curve.csv"
    main(["decay-sim", "--output", str(curve)])
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["fit-t1", "--input", str(curve), "--fix-t1ph-s",
                     "3.62e-3", "--seed", "5", "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    scans = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["transitions", "--n-b", "21",
                     "--output", str(out)]) == 0
        scans.append(out.read_bytes())
    assert scans[0] == scans[1]


def test_degeneracy_comments(tmp_path):
    out = tmp_path / "deg.csv"
    assert main(["degeneracy", "--output", str(out)]) == 0
    comments, header, rows = _read_csv(out)
    assert header[0] == "B_gauss"
    assert any(h.startswith("dnu_pair1") for h in header)
    sep = [c for c in comments if "all_separated_B_gauss:" in c]
    assert len(sep) == 1
    value = float(sep[0].split(":")[1])
    assert 10.0 <= value <= 18.0


def test_degeneracy_along_111_reads_three_classes_degenerate(tmp_path):
    # along [111] classes 2-4 share their field shares, so their lines
    # agree to the bit and every gap between them is 0
    out = tmp_path / "deg.csv"
    assert main(["degeneracy", "--direction", "1,1,1",
                 "--output", str(out)]) == 0
    comments, header, rows = _read_csv(out)
    pairs = {m[2]: (m[1], m[3]) for m in (
        re.fullmatch(r"# (pair\d): (\w+) crossing_B_gauss=(\S+)", c)
        for c in comments) if m}
    equal = ["lower_23", "lower_34", "upper_23", "upper_34"]
    assert [pairs[p][1] for p in equal] == 4 * ["degenerate"], pairs
    cols = [header.index(f"dnu_{pairs[p][0]}_MHz") for p in equal]
    assert rows and all(float(r[c]) == 0.0 for r in rows for c in cols)


@pytest.mark.parametrize("argv, dip", [
    (["--b-gauss", "0", "--direction", "1,0,0"], 0.95),
    (["--b-gauss", "20"], 0.99),
], ids=["0G", "20G"])
def test_spectrum_csv(argv, dip, tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", *argv, "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["freq_GHz", "pl_norm"] and len(rows) == 2001
    pl = np.array([float(r[1]) for r in rows])
    assert np.all((0.0 < pl) & (pl <= 1.0))
    assert pl.min() < dip


def test_spectrum_n_freq_without_range(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n-freq", "11", "--output", str(out)]) == 0
    comments, _, rows = _read_csv(out)
    assert len(rows) == 11
    assert any("n_freq=11" in c for c in comments)


def test_mixed_overlap_peaks_at_zero_detuning(tmp_path):
    # the Voigt pair, the one overlap that loads SciPy
    out = tmp_path / "mixed.csv"
    assert main(["overlap", "--shape1", "gaussian", "--shape2", "lorentzian",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["dnu_MHz", "overlap_per_MHz"] and len(rows) == 201
    dnu, values = np.array(rows, dtype=float).T
    assert np.all(np.isfinite(values) & (values > 0.0))
    assert values.max() == values[100] and dnu[100] == 0.0


def test_eigen_map_grid(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["eigen-map", "--n-b", "3", "--n-theta", "3",
                 "--b-max-gauss", "150", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["B_gauss", "theta_rad", "overlap_e_p1",
                      "overlap_e_plus"]
    assert len(rows) == 9
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_golden_flags():
    # defaults a golden command overrides are pinned here instead
    assert _parser_surface() == (GOLDEN_DIR / "flags.txt").read_text()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output(name, tmp_path):
    out = _run_golden(name, tmp_path)
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def _half_unit(text):
    """Half a unit in the last digit of a cell printed at %.10g."""
    value = abs(float(text))
    return 0.0 if value == 0.0 else 0.5 * 10.0 ** (np.floor(np.log10(value))
                                                   - 9)


_AXIS_CLASSES = ("same", "close", "far")


def _overlap_mp(args, dnu):
    """The overlap of the two lines of ``args`` at detuning ``dnu`` (MHz)
    in closed form at 40 digits: a Gaussian of sigma = hypot(sigma1,
    sigma2), a Lorentzian of gamma = gamma1 + gamma2, or for a mixed
    pair the Voigt profile Re w(z) / (sigma sqrt(2 pi)), z = (x + i
    gamma) / (sigma sqrt 2), w(z) = exp(-z^2) erfc(-iz)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(dnu) + args.center2_mhz - args.center1_mhz
        widths = {args.shape1: mpmath.mpf(args.width1_mhz),
                  args.shape2: mpmath.mpf(args.width2_mhz)}
        if args.shape1 != args.shape2:
            sigma, gamma = widths["gaussian"], widths["lorentzian"]
            z = (x + 1j * gamma) / (sigma * mpmath.sqrt(2))
            value = mpmath.re(mpmath.exp(-z * z) * mpmath.erfc(-1j * z)) \
                / (sigma * mpmath.sqrt(2 * mpmath.pi))
        elif args.shape1 == "gaussian":
            sigma = mpmath.hypot(args.width1_mhz, args.width2_mhz)
            value = mpmath.exp(-x * x / (2 * sigma * sigma)) \
                / (sigma * mpmath.sqrt(2 * mpmath.pi))
        else:
            gamma = mpmath.mpf(args.width1_mhz) + args.width2_mhz
            value = gamma / (mpmath.pi * (x * x + gamma * gamma))
        return float(value)


def _golden_reference_rows(name):
    """Per row of golden table ``name``: its input cells, then each
    computed cell's reference value and stated bound.  The inputs are
    rebuilt from the golden's command line and the CLI defaults, not
    read from its header."""
    args = build_parser().parse_args(GOLDEN[name])

    def level(v, k=1):      # GHz: a level (k = 1) or a difference (k = 2)
        return v, k * 1e-12 * max(1.0, abs(v))

    if name == "transverse_scan.csv":
        for amp in np.linspace(args.b_min_gauss, args.b_max_gauss, args.n_b):
            levels, w_plus, _, gap = class_eigensystem_mp(amp, 0.0,
                                                          args.e_perp_mhz)
            dnu = [1e3 * x for x in level(gap, 2)]          # MHz
            yield [amp], [*map(level, levels), dnu, (w_plus, 1e-10)]
    elif name == "eigen_map.csv":
        theta = np.linspace(args.theta_min_rad, args.theta_max_rad,
                            args.n_theta)
        for amp in np.linspace(args.b_min_gauss, args.b_max_gauss, args.n_b):
            for th in theta:
                _, w_plus, w_p1, _ = class_eigensystem_mp(
                    amp * np.sin(th), amp * np.cos(th), args.e_perp_mhz)
                yield [amp, th], [(w_p1, 1e-10), (w_plus, 1e-10)]
    elif name == "transitions.csv":
        fields = _class_fields(args.direction)
        for amp in np.linspace(args.b_min_gauss, args.b_max_gauss, args.n_b):
            cells = []
            for b_perp, b_z in amp * fields:
                levels = class_eigensystem_mp(b_perp, b_z,
                                              args.e_perp_mhz)[0]
                cells += [level(levels[1] - levels[0], 2),
                          level(levels[2] - levels[0], 2)]
            yield [amp], cells
    elif name == "eta_table.csv":
        for family in ("magnetic", "nonmagnetic_random",
                       "nonmagnetic_aligned"):
            yield [family], [(ETA_REFERENCE[family, z], 1e-10)
                             for z in _AXIS_CLASSES]
    elif name == "multipliers.csv":
        # (S / A0)^2 with S = sum n_k A_k, to first order in the 1e-10
        # of each A: S moves by sum(n) 1e-10 and A0 by 1e-10.  The
        # counts follow from the class axes (tests/reference.py), and
        # zero field draws on the nonmagnetic random row
        base = ETA_REFERENCE["magnetic", "same"]
        for scenario, direction in SCENARIO_DIRECTIONS.items():
            family = "nonmagnetic_random" if direction is None \
                else "magnetic"
            counts = scenario_counts(direction)
            ratio = sum(n * ETA_REFERENCE[family, z] for n, z in
                        zip(counts, _AXIS_CLASSES)) / base
            yield [scenario], [(ratio ** 2, 2.0 * ratio / base
                                * (sum(counts) + ratio) * 1e-10)]
    elif name == "spectrum.csv":
        # pl = 1 - c sum exp(-u^2 / 2), u = (f - nu) / w, over the eight
        # lines of the class solve: a line off by its 2e-12 max(1, |nu|)
        # GHz moves pl by that much times the slope c |u| exp(-u^2 / 2) / w
        assert args.shape == "gaussian"
        lines = []
        for b_perp, b_z in args.b_gauss * _class_fields(args.direction):
            levels = class_eigensystem_mp(b_perp, b_z, args.e_perp_mhz)[0]
            lines += [levels[1] - levels[0], levels[2] - levels[0]]
        with mpmath.workdps(40):
            lo, hi, n = mpmath.mpf(args.f_min_ghz), args.f_max_ghz, args.n_freq
            width = mpmath.mpf(args.linewidth_mhz) / 1000          # GHz
            for k in range(n):
                freq = lo + (hi - lo) * k / (n - 1)
                pl, bound = mpmath.mpf(1), 0.0
                for nu in lines:
                    u = (freq - nu) / width
                    dip = args.contrast * mpmath.exp(-u * u / 2)
                    pl -= dip
                    bound += float(dip * abs(u) / width) * level(nu, 2)[1]
                yield [float(freq)], [(float(pl), bound)]
    elif name == "decay_curve.csv":
        # 1e-14 relative: a few roundings of doubles
        with mpmath.workdps(40):
            lo, hi, n = mpmath.mpf(args.tau_min_s), args.tau_max_s, args.n_tau
            for k in range(n):
                tau = lo * (hi / lo) ** (mpmath.mpf(k) / (n - 1)) \
                    if args.log_spacing else lo + (hi - lo) * k / (n - 1)
                signal = args.amplitude * mpmath.exp(
                    -(tau / args.t1dd_s) ** mpmath.mpf(args.beta)
                    - (0 if args.t1ph_s is None else tau / args.t1ph_s))
                yield [], [(float(x), 1e-14 * float(x))
                           for x in (tau, signal)]
    else:
        # 1e-13 relative: a Gaussian's exponent of up to ~100 carries
        # that much of its argument's rounding
        for dnu in np.linspace(args.dnu_min_mhz, args.dnu_max_mhz,
                               args.n_dnu):
            value = _overlap_mp(args, dnu)
            yield [dnu], [(value, 1e-13 * value)]


@pytest.mark.parametrize("name", [
    "transverse_scan.csv", "eigen_map.csv", "transitions.csv",
    "spectrum.csv", "eta_table.csv", "multipliers.csv", "decay_curve.csv",
    "overlap.csv", "overlap_lorentzian.csv", "overlap_mixed.csv"])
def test_goldens_match_independent_references(name):
    # each input cell prints its input, and each computed cell lies
    # within half a unit of its last printed digit plus its stated
    # bound: for a solver golden against the 40-digit class solve,
    # 1e-12 max(1, |E|) GHz per level, twice that per line or
    # splitting, 1e-10 per weight.  degeneracy.csv is left out: its 8 G
    # upper_14 cell lies 2.1e-13 MHz past a rounding boundary, closer
    # than two rounded lines can settle
    _, _, rows = _read_csv(GOLDEN_DIR / name)
    expected = list(_golden_reference_rows(name))
    assert len(rows) == len(expected)
    for row, (inputs, cells) in zip(rows, expected):
        assert row[:len(inputs)] == [
            x if isinstance(x, str) else f"{x:.10g}" for x in inputs], row
        for text, (value, bound) in zip(row[len(inputs):], cells,
                                        strict=True):
            assert abs(float(text) - value) <= _half_unit(text) + bound, \
                (row, text, value)


def _golden_record(name):
    """Each checked key of golden record ``name``: its reference value
    and stated bound, from the golden's command line and the CLI
    defaults.  The fit of the noiseless golden curve recovers the
    parameters that made it, to the 1e-8 relative that the nested
    search held them to (tests/test_analysis.py); its cells carry 10
    digits."""
    args = build_parser().parse_args(GOLDEN[name])
    if name == "sensitivity.json":
        with mpmath.workdps(40):
            eta = float(args.sigma_b_t * mpmath.sqrt(args.tau_lp_s))
        return {"sigma_b_tesla": (args.sigma_b_t, 0.0),
                "tau_lp_s": (args.tau_lp_s, 0.0),
                "sensitivity_t_per_sqrt_hz": (eta, 1e-12 * eta)}
    curve = build_parser().parse_args(GOLDEN["decay_curve.csv"])
    return {"A": (curve.amplitude, 1e-8 * curve.amplitude),
            "T1_dd_s": (curve.t1dd_s, 1e-8 * curve.t1dd_s),
            "T1_ph_s": (args.fix_t1ph_s, 0.0),
            "beta": (curve.beta, 0.0)}


# fit_beta.json is left out: a single stretch fitted to the two-channel
# golden curve has no true parameters to recover
@pytest.mark.parametrize("name", ["sensitivity.json", "fit_t1.json"])
def test_golden_records_match_independent_references(name):
    doc = json.loads((GOLDEN_DIR / name).read_text())
    for key, (value, bound) in _golden_record(name).items():
        assert abs(doc[key] - value) <= bound, (key, doc[key], value)


def _fresh_python(script, *args, cwd=None, env=None):
    """Run ``script`` in a fresh interpreter that imports nvcr from src;
    a ``script`` of ``-m`` runs the module named by the first of ``args``."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        src, env.get("PYTHONPATH")]))
    code = ["-m"] if script == "-m" else ["-c", textwrap.dedent(script)]
    return subprocess.run([sys.executable, *code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_import_nvcr_is_lazy():
    done = _fresh_python("""
        import sys
        import nvcr

        assert "numpy" not in sys.modules
        assert [m for m in sys.modules if m.startswith("nvcr.")] == \\
            ["nvcr.version"]
        assert set(nvcr.__all__) <= set(dir(nvcr))
        for name in nvcr.__all__:
            getattr(nvcr, name)
        names = {}
        exec("from nvcr import *", names)
        assert set(names) - {"__builtins__"} == set(nvcr.__all__)
        assert not hasattr(nvcr, "no_such_name")
        import nvcr.odmr
        import nvcr.serialize
        assert nvcr.odmr.degeneracy_lift is nvcr.degeneracy_lift
        assert callable(nvcr.serialize.write_csv)
    """)
    assert done.returncode == 0, done.stderr


# the nvcr modules that ``import nvcr.cli`` loads, and those loaded once
# each subcommand has run: a runner imports only the functions it calls
CLI_MODULES = {"cli", "constants", "serialize", "version"}
SUBCOMMAND_MODULES = {
    ("eta-table", "multipliers"):
        CLI_MODULES | {"dipolar", "eta_average", "geometry"},
    ("eigen-map", "transverse-scan"): CLI_MODULES | {"spin_model"},
    ("transitions", "degeneracy"):
        CLI_MODULES | {"spin_model", "geometry", "odmr"},
    ("fit-t1", "fit-beta", "overlap", "sensitivity"):
        CLI_MODULES | {"analysis", "relaxation"},
    ("decay-sim",): CLI_MODULES | {"relaxation"},
    ("spectrum",):
        CLI_MODULES | {"spin_model", "geometry", "odmr", "analysis",
                       "relaxation"},
}
# the nvcr modules a library import loads: the Hamiltonian takes its
# field in the NV frame, so spin_model needs no geometry, and the pair
# amplitudes need no single-center model
IMPORT_MODULES = {
    "nvcr.cli": CLI_MODULES,
    "nvcr.dipolar": {"dipolar", "geometry", "version"},
    "nvcr.spin_model": {"constants", "spin_model", "version"},
}

# numpy's eigensolvers raise before nvcr loads; then the script imports
# the module of its argument, or runs its argv through main, and prints
# every loaded module
_AUDIT = """
    import importlib
    import sys

    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolver was called")

    for solver in ("eigh", "eigvalsh", "eig", "eigvals"):
        setattr(np.linalg, solver, refuse)
    if sys.argv[1].startswith("nvcr."):
        importlib.import_module(sys.argv[1])
    else:
        from nvcr.cli import main

        assert main(sys.argv[1:]) == 0
    print(*sorted(sys.modules))
"""


@pytest.mark.parametrize("name", [*GOLDEN, *IMPORT_MODULES])
def test_fresh_process_loads_only_its_modules_and_no_eigensolver(name,
                                                                tmp_path):
    # a fresh interpreter per golden command and per library import,
    # because this session has every module loaded.  A command writes
    # its golden's bytes with no LAPACK eigensolve (the class
    # Hamiltonians are solved in closed form; the first eigensolve costs
    # a process ~1.2 MB of resident memory) and loads exactly its row of
    # modules.  No row loads SciPy, numpy.random or numpy.polynomial
    # (Gauss-Legendre nodes come from a Newton iteration, not from
    # companion-matrix eigenvalues), except that the mixed overlap loads
    # scipy.special, which itself loads the other two
    assert sorted(c for row in SUBCOMMAND_MODULES for c in row) == \
        sorted(SUBCOMMANDS) == sorted({argv[0] for argv in GOLDEN.values()})
    shutil.copy(GOLDEN_DIR / "decay_curve.csv", tmp_path)
    done = _fresh_python(_AUDIT, *GOLDEN.get(name, [name]), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()[-1].split()
    if name in GOLDEN:
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN_DIR / name).read_bytes(), name
        modules = next(modules for row, modules in SUBCOMMAND_MODULES.items()
                       if GOLDEN[name][0] in row)
    else:
        modules = IMPORT_MODULES[name]
    assert {m.removeprefix("nvcr.") for m in loaded
            if m.startswith("nvcr.")} == modules
    if name == "overlap_mixed.csv":
        assert "scipy.special" in loaded
    else:
        assert [m for m in loaded if m.split(".")[0] == "scipy"
                or m.startswith(("numpy.random", "numpy.polynomial"))] == []


def test_shape_choices_are_the_line_shapes():
    # typed out in cli, so that parsing loads no analysis
    assert _SHAPES == tuple(shape.value for shape in LineShape)


def test_fit_error_exits_1_in_a_fresh_process(tmp_path):
    # the exit status and diagnostic through `python -m nvcr.cli`, the
    # way bench/run.py starts the tool, not through main(argv) in process
    curve = tmp_path / "curve.csv"
    assert main(["decay-sim", "--t1dd-s", "1e4", "--t1ph-s", "3.62e-3",
                 "--log-spacing", "--output", str(curve)]) == 0
    done = _fresh_python("-m", "nvcr.cli", "fit-t1", "--input", "curve.csv",
                         "--fix-t1ph", "3.62e-3", cwd=tmp_path)
    assert done.returncode == 1, done.stderr
    diag = json.loads(done.stdout)
    assert diag["error"] == "FitError" and "edge" in diag["message"], diag
    assert diag["best"]["converged"] is False
    assert diag["best"]["T1_dd_s"] == pytest.approx(50.0, rel=1e-12)
    assert not (tmp_path / "fit_t1.json").exists()


@pytest.mark.parametrize("name", [
    "build_two_spin_hamiltonian", "nonmagnetic_spin_matrices",
    "nonmagnetic_change_of_basis", "paper_hamiltonian",
    "polarization_from_density", "resonant_partners", "rotation_matrix",
    "scenario_counts"])
def test_reference_names_are_not_exported(name):
    # the second derivations the tests check against live in
    # tests/reference.py, not in the package
    import nvcr

    with pytest.raises(AttributeError):
        getattr(nvcr, name)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("4", "4")])
def test_cli_runs_blas_on_one_thread_unless_set(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = _fresh_python("""
        import os
        import nvcr.cli

        tasks = "/proc/self/task"
        threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 1
        print(os.environ["OPENBLAS_NUM_THREADS"], threads)
    """, env=env)
    assert done.returncode == 0, done.stderr
    value, threads = done.stdout.split()
    assert value == expected
    if expected == "1":
        assert threads == "1"      # numpy loaded, no BLAS worker started


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    write_golden()
