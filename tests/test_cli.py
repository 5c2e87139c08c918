"""Command-line surface: flags, exit codes, files, reproducibility."""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nvcr.cli import (_COMMON, _SUBCOMMANDS, OUTPUT_DIR_ENV, _Number,
                      build_parser, main)

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
    "transverse_scan.json": ["transverse-scan", "--n-b", "5",
                             "--format", "json"],
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
    "sensitivity.csv": ["sensitivity", "--format", "csv"],
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


def test_bad_flags_exit_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    for argv in (["sensitivity", "--nope"],
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
                 ["fit-t1", "--input", "curve.csv", "--seed", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert not any(tmp_path.iterdir())


# a 16-row weighted curve, each with one bad cell: (row, column, value)
@pytest.mark.parametrize("row, column, value", [
    (5, "tau_s", "nan"), (15, "tau_s", "inf"), (0, "tau_s", "-1e-06"),
    (5, "sigma", "nan"), (7, "sigma", "inf"),
], ids=["tau_nan", "tau_inf", "tau_negative", "sigma_nan", "sigma_inf"])
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
    assert not out.exists()


def test_numeric_failure_exit_1_with_json(tmp_path, capsys):
    rc = main(["fit-t1", "--input", str(tmp_path / "missing.csv")])
    assert rc == 1
    diag = json.loads(capsys.readouterr().out)
    assert diag["error"] == "FileNotFoundError"
    assert "message" in diag


def test_non_finite_result_exit_1_without_file(tmp_path, capsys):
    out = tmp_path / "sens.json"
    # finite flags whose product overflows
    with np.errstate(over="ignore"):
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
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
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


def test_every_flag_changes_the_output(tmp_path, monkeypatch):
    # every line but the parameter record; for degeneracy --cr-range-mhz
    # only the comment lines move
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    inert = []
    for command, spec in _SUBCOMMANDS.items():
        flags = {names[0]: kw for names, kw in spec.flags}   # not _COMMON
        # at the default zero field the direction of a spectrum is moot
        base = [command, "--format", "csv",
                *(["--b-gauss", "10"] if command == "spectrum" else [])]
        base += [arg for flag, kw in flags.items() if kw.get("required")
                 for arg in (flag, str(GOLDEN_DIR / "decay_curve.csv"))]

        def output(*extra):
            out = tmp_path / "out.csv"
            assert main([*base, *extra, "--output", str(out)]) == 0, extra
            return [line for line in out.read_text().splitlines()
                    if not line.startswith("# params:")]

        default = output()
        for flag, kw in flags.items():
            if kw.get("required"):
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
    out = tmp_path / "out.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main([*argv, "--format", "csv", "--output", str(out)])
    if rc == 1:
        diag = json.loads(capsys.readouterr().out)
        assert set(diag) == {"error", "message"}, argv
        assert not out.exists(), argv
        return
    assert rc == 0, argv
    _, header, rows = _read_csv(out)
    values = [r[1:] for r in rows] if header == ["key", "value"] else rows
    table = np.array(values, dtype=float)
    assert table.size > 0 and np.all(np.isfinite(table)), argv


def test_sensitivity_record(tmp_path, capsys):
    out = tmp_path / "sens.json"
    rc = main(["sensitivity", "--sigma-b-t", "1.5e-6", "--tau-lp-s", "3e-3",
               "--output", str(out)])
    assert rc == 0
    assert str(out) in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["sensitivity_t_per_sqrt_hz"] == pytest.approx(82e-9, abs=1e-9)
    assert doc["meta"]["subcommand"] == "sensitivity"
    assert doc["meta"]["tool"] == "nvcr"


def test_sensitivity_record_as_csv(tmp_path):
    out = tmp_path / "sens.csv"
    assert main(["sensitivity", "--format", "csv",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["key", "value"]
    assert any(r[0] == "sensitivity_t_per_sqrt_hz" for r in rows)


def test_multipliers_table(tmp_path):
    out = tmp_path / "mult.csv"
    assert main(["multipliers", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["scenario", "multiplier"]
    values = {name: float(v) for name, v in rows}
    assert list(values) == ["RANDOM", "PLANE_100", "PLANE_110",
                            "AXIS_111", "AXIS_100", "ZERO_FIELD"]
    assert values["RANDOM"] == pytest.approx(1.0, abs=1e-12)
    assert values["PLANE_100"] == pytest.approx(7.24, abs=0.1)
    assert values["PLANE_110"] == pytest.approx(10.0, abs=0.1)
    assert values["AXIS_111"] == pytest.approx(28.4, abs=0.2)
    assert values["AXIS_100"] == pytest.approx(42.8, abs=0.3)
    assert values["ZERO_FIELD"] == pytest.approx(51.4, abs=0.3)


def test_eta_table_csv(tmp_path):
    out = tmp_path / "eta.csv"
    assert main(["eta-table", "--output", str(out)]) == 0
    comments, header, rows = _read_csv(out)
    assert comments[0].startswith("# nvcr ")
    assert header == ["family", "same", "close", "far"]
    table = {r[0]: [float(x) for x in r[1:]] for r in rows}
    assert table["magnetic"][0] == pytest.approx(0.3849, abs=2e-4)
    assert table["nonmagnetic_aligned"][0] == pytest.approx(0.7698, abs=2e-4)
    assert len(rows) == 3


def test_transverse_scan_json(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["transverse-scan", "--b-max-gauss", "150", "--n-b", "4",
                 "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    dnu = doc["columns"]["dnu_MHz"]
    assert dnu[0] == pytest.approx(8.0, abs=1e-6)
    assert dnu == sorted(dnu)


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


def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--b-gauss", "0", "--direction", "1,0,0",
                 "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["freq_GHz", "pl_norm"]
    pl = np.array([float(r[1]) for r in rows])
    assert pl.max() <= 1.0 + 1e-9
    assert pl.min() < 0.95


def test_spectrum_n_freq_without_range(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--n-freq", "11", "--output", str(out)]) == 0
    comments, _, rows = _read_csv(out)
    assert len(rows) == 11
    assert any("n_freq=11" in c for c in comments)


def test_eigen_map_grid(tmp_path):
    out = tmp_path / "map.csv"
    assert main(["eigen-map", "--n-b", "3", "--n-theta", "3",
                 "--b-max-gauss", "150", "--output", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["B_gauss", "theta_rad", "overlap_e_p1",
                      "overlap_e_plus"]
    assert len(rows) == 9
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["sensitivity"]) == 0
    assert (tmp_path / "sensitivity.json").exists()


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nd_ghz = 3.0\nformat = json\n")
    out = tmp_path / "t.json"
    assert main(["transitions", "--n-b", "8", "--b-max-gauss", "7",
                 "--config", str(cfg), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    # zero-field lines follow the overridden splitting constant
    assert doc["columns"]["nu1_GHz"][0] == pytest.approx(3.0 - 0.004,
                                                         abs=1e-9)


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\n")
    out = tmp_path / "sens.csv"
    assert main(["sensitivity", "--config", str(cfg), "--format", "csv",
                 "--output", str(out)]) == 0
    _, header, _ = _read_csv(out)
    assert header == ["key", "value"]


def test_config_rejects_unknown_keys(tmp_path, capsys):
    # the electric susceptibility keys, J0 and the seed are unknown: no
    # formula or subcommand reads them
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "sens.json"
    for key, value in [("frobnication", "7"), ("d_perp_hz_cm_per_v", "17"),
                       ("d_par_hz_cm_per_v", "0.35"), ("j0_mhz_nm3", "52"),
                       ("seed", "9")]:
        cfg.write_text(f"{key} = {value}\n")
        assert main(["sensitivity", "--config", str(cfg), "--output",
                     str(out)]) == 2, key
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err, key
        assert not out.exists(), key


def test_config_rejects_bad_syntax(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_ghz 3.0\n")
    assert main(["sensitivity", "--config", str(cfg)]) == 2
    cfg.write_text("d_ghz = 3.0\nd_ghz = 2.9\n")
    assert main(["sensitivity", "--config", str(cfg)]) == 2
    cfg.write_text("d_ghz = -1.0\n")
    assert main(["sensitivity", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("line", ["max_doublings = -1", "tolerance = nan",
                                  "tolerance = inf", "n_theta = 4"])
def test_config_rejects_bad_quadrature(line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "eta.csv"
    assert main(["eta-table", "--config", str(cfg), "--output", str(out)]) \
        == 2, line
    assert "bad quadrature override" in capsys.readouterr().err
    assert not out.exists()


_QUAD_IN_RANGE = {
    "n_theta": st.integers(8, 40), "n_phi": st.integers(8, 40),
    "n_psi": st.integers(8, 40), "max_doublings": st.integers(0, 3),
    "tolerance": st.floats(1e-12, 1.0),
}
_QUAD_OUT_OF_RANGE = {
    k: st.one_of(low, st.sampled_from(["nan", "inf", "-inf"]))
    for k, low in [("n_theta", st.integers(max_value=7)),
                   ("n_phi", st.integers(max_value=7)),
                   ("n_psi", st.integers(max_value=7)),
                   ("max_doublings", st.integers(max_value=-1)),
                   ("tolerance", st.floats(max_value=0.0, allow_nan=False))]
}


@st.composite
def _quadrature_lines(draw):
    """Config lines for some quadrature keys, and whether one of them is
    out of range or non-finite."""
    keys = draw(st.lists(st.sampled_from(sorted(_QUAD_IN_RANGE)),
                         min_size=1, unique=True))
    values = {k: draw(_QUAD_IN_RANGE[k]) for k in keys}
    bad = draw(st.booleans())
    if bad:
        key = draw(st.sampled_from(keys))
        values[key] = draw(_QUAD_OUT_OF_RANGE[key])
    return [f"{k} = {v}" for k, v in values.items()], bad


@settings(max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_quadrature_lines())
def test_quadrature_config_lines_follow_the_exit_contract(drawn, tmp_path,
                                                          capsys):
    lines, bad = drawn
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eta.csv"
    out.unlink(missing_ok=True)
    capsys.readouterr()
    rc = main(["eta-table", "--config", str(cfg), "--output", str(out)])
    if bad:
        assert rc == 2 and not out.exists(), lines
    elif rc == 1:
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"] == "ConvergenceError", lines
        assert not out.exists(), lines
    else:
        assert rc == 0, lines
        _, _, rows = _read_csv(out)
        assert np.all(np.isfinite(np.array([r[1:] for r in rows],
                                           dtype=float))), lines


_CONST_KEYS = ("d_ghz", "gamma_e_mhz_per_g")
_GOOD_VALUES = {
    **{k: _POSITIVE.map(repr) for k in _CONST_KEYS},
    "format": st.sampled_from(["csv", "json"]),
    # resolved inside the run's scratch directory by the test
    "output_dir": st.sampled_from(["<existing>", "<missing>"]),
}
_BAD_VALUES = {
    **{k: st.one_of(st.floats(max_value=0.0).map(repr),
                    st.sampled_from(["nan", "inf", "-inf", "1e400", "",
                                     "abc", "1,5", "0x10"]))
       for k in _CONST_KEYS},
    "format": st.sampled_from(["CSV", "xml", "", "csv json", "jsonl"]),
}
_KNOWN_KEYS = {*_GOOD_VALUES, "n_theta", "n_phi", "n_psi", "tolerance",
               "max_doublings"}


@st.composite
def _config_files(draw):
    """Config lines of the non-quadrature keys, at most one of them faulty
    (a bad value, an unknown or duplicate key, or a line without '='),
    the fault drawn (None when there is none) and the values set."""
    keys = draw(st.lists(st.sampled_from(sorted(_GOOD_VALUES)), min_size=1,
                         unique=True))
    pairs = [(k, draw(_GOOD_VALUES[k])) for k in keys]
    fault = draw(st.sampled_from([None, "value", "unknown", "duplicate",
                                  "no_equals"]))
    if fault == "value":
        k = draw(st.sampled_from(sorted(_BAD_VALUES)))
        pairs = [p for p in pairs if p[0] != k] + [(k, draw(_BAD_VALUES[k]))]
    elif fault == "unknown":
        pairs.append((draw(st.from_regex(r"\A[a-z][a-z0-9_]{0,15}\Z").filter(
            lambda k: k not in _KNOWN_KEYS)), "1"))
    elif fault == "duplicate":
        pairs.append(draw(st.sampled_from(pairs)))
    lines = [f"{k}{draw(st.sampled_from(['', ' ']))}="
             f"{draw(st.sampled_from(['', ' ']))}{v}" for k, v in pairs]
    if fault == "no_equals":
        lines.append(draw(st.text("abcdefgxyz0123456789 .,-_", min_size=1)
                          .filter(str.strip)))
    lines += draw(st.lists(st.sampled_from(["", "   ", "# a comment"]),
                           max_size=2))
    return draw(st.permutations(lines)), fault, dict(pairs)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=_config_files())
def test_config_lines_follow_the_exit_contract(drawn, monkeypatch, capsys):
    lines, fault, values = drawn
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        text = "\n".join(lines).replace("<existing>", str(work)).replace(
            "<missing>", str(work / "missing"))
        (work / "run.cfg").write_text(text + "\n")
        monkeypatch.chdir(work)
        capsys.readouterr()
        rc = main(["transitions", "--n-b", "3", "--config", "run.cfg"])
        out, err = capsys.readouterr()
        written = sorted(p.name for p in work.rglob("*") if p.is_file())
        assert "Traceback" not in out + err, text
        if fault is not None:
            assert rc == 2 and written == ["run.cfg"], text
        elif values.get("output_dir") == "<missing>":
            assert rc == 1 and written == ["run.cfg"], text
            assert json.loads(out)["error"] == "FileNotFoundError", text
        else:
            assert rc == 0, text
            path = work / f"transitions.{values.get('format', 'csv')}"
            assert written == sorted(["run.cfg", path.name]), text
            if path.suffix == ".json":
                cells = list(json.loads(path.read_text())["columns"].values())
            else:
                cells = _read_csv(path)[2]
            assert np.all(np.isfinite(np.array(cells, dtype=float))), text


def test_golden_flags():
    # defaults a golden command overrides are pinned here instead
    assert _parser_surface() == (GOLDEN_DIR / "flags.txt").read_text()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    out = _run_golden(name, tmp_path)
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def _fresh_python(script, *args, cwd=None, env=None):
    """Run ``script`` in a fresh interpreter that imports nvcr from src."""
    env = dict(os.environ if env is None else env)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args], cwd=cwd,
        env=env, capture_output=True, text=True)


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


def test_tables_load_no_numpy_polynomial(tmp_path):
    # Gauss-Legendre nodes come from a Newton iteration, not from
    # numpy.polynomial's companion-matrix eigenvalues
    env = {k: v for k, v in os.environ.items() if k != OUTPUT_DIR_ENV}
    done = _fresh_python("""
        import sys
        from nvcr.cli import main

        for argv in (["eta-table"], ["multipliers"]):
            assert main(argv) == 0, argv
            assert "numpy.polynomial" not in sys.modules, argv
    """, cwd=tmp_path, env=env)
    assert done.returncode == 0, done.stderr


def test_only_a_mixed_overlap_loads_scipy(tmp_path, monkeypatch):
    # a fresh interpreter, because this test session has SciPy and
    # numpy.random loaded; no command path may load numpy.random
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    shutil.copy(GOLDEN_DIR / "decay_curve.csv", tmp_path)
    commands = [GOLDEN[name] for name in (
        "fit_t1.json", "decay_curve.csv", "overlap.csv", "degeneracy.csv",
        "spectrum.csv", "sensitivity.json")]
    commands += [["fit-beta", "--input", "decay_curve.csv"],
                 GOLDEN["overlap_mixed.csv"]]
    script = """
        import json
        import sys
        from nvcr.analysis import fit_beta, fit_decay
        from nvcr.cli import main
        from nvcr.serialize import read_decay_csv

        def unwanted():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"
                    or m.startswith("numpy.random")]

        curve = read_decay_csv("decay_curve.csv")
        fit_decay(curve, fixed_t1_ph_s=3.62e-3)
        fit_beta(curve)
        assert not unwanted(), unwanted()
        *commands, mixed = json.loads(sys.argv[1])
        for argv in commands:
            assert main(argv) == 0, argv
            assert not unwanted(), (argv, unwanted())
        assert main(mixed) == 0
        assert "scipy.special" in sys.modules
    """
    done = _fresh_python(script, json.dumps(commands), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "overlap_mixed.csv").read_bytes() == \
        (GOLDEN_DIR / "overlap_mixed.csv").read_bytes()


if __name__ == "__main__":
    os.environ.pop(OUTPUT_DIR_ENV, None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    write_golden()
