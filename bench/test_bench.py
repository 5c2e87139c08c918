"""Self-tests of the benchmark: output checks, tracer and workloads.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ETA_GOOD = """# nvcr 0.1.0
# subcommand: eta-table
# params:
family,same,close,far
magnetic,0.3849001795,0.6507146153,0.8327792062
nonmagnetic_random,0.710980843,0.6827358125,0.6827358125
nonmagnetic_aligned,0.7698003589,0.6951597622,0.6951597622
"""


def _check(tmp_path, name, text, kind, expect=None):
    path = tmp_path / name
    path.write_text(text)
    return checks.check_output(kind, path, expect or {})


def test_good_eta_table_passes(tmp_path):
    errors, fingerprint = _check(tmp_path, "eta.csv", ETA_GOOD, "eta_table")
    assert errors == []
    assert fingerprint["eta_table"]["magnetic/same"] == 0.3849001795


def test_nan_row_fails(tmp_path):
    text = ETA_GOOD.replace("0.710980843,0.6827358125,0.6827358125",
                            "nan,nan,nan")
    errors, _ = _check(tmp_path, "eta.csv", text, "eta_table")
    assert errors and "non-finite" in errors[0]
    errors, _ = _check(tmp_path, "scan.csv", "B_gauss,x\n0,1\n1,inf\n", "csv")
    assert errors == ["row 1: non-finite value inf"]


def test_wrong_eta_entry_fails(tmp_path):
    # off by 2e-10 from 2/(3 sqrt 3): inside every printed digit but one
    text = ETA_GOOD.replace("0.3849001795", "0.3849001797")
    errors, _ = _check(tmp_path, "eta.csv", text, "eta_table")
    assert errors == [f"magnetic/same = 0.3849001797, expected "
                      f"{2 / (3 * math.sqrt(3)):.12f}"]


def test_multiplier_bands(tmp_path):
    rows = ["RANDOM,1", "PLANE_100,7.239", "PLANE_110,10.01",
            "AXIS_111,28.38", "AXIS_100,42.83", "ZERO_FIELD,51.39"]
    head = "scenario,multiplier\n"
    assert _check(tmp_path, "m.csv", head + "\n".join(rows) + "\n",
                  "multipliers")[0] == []
    rows[0] = "RANDOM,1.000000000001"
    errors, _ = _check(tmp_path, "m.csv", head + "\n".join(rows) + "\n",
                       "multipliers")
    assert len(errors) == 1 and errors[0].startswith("RANDOM")


def test_row_count_and_fit_band(tmp_path):
    errors, _ = _check(tmp_path, "a.csv", "x,y\n1,2\n", "csv", {"rows": 2})
    assert errors == ["1 rows, expected 2"]
    fit = '{"T1_dd_s": 0.00065, "converged": false, "A": 1.0}'
    assert _check(tmp_path, "f.json", fit, "fit",
                  {"t1_dd_s": 6e-4, "rel_band": 0.12})[0] == []
    errors, _ = _check(tmp_path, "f.json", fit, "fit",
                       {"t1_dd_s": 5e-4, "rel_band": 0.12})
    assert errors and errors[0].startswith("T1_dd_s")
    errors, _ = _check(tmp_path, "n.json", '{"x": NaN}', "json")
    assert errors == ["non-finite value at $.x"]


def test_degeneracy_band(tmp_path):
    text = ("# pair1: lower_14 crossing_B_gauss=13.7056\n"
            "# pair2: lower_23 crossing_B_gauss=degenerate\n"
            "# all_separated_B_gauss: 19.5\nB_gauss,d\n0,1\n")
    errors, fingerprint = _check(tmp_path, "d.csv", text, "degeneracy",
                                 {"all_separated_B_gauss": [10.0, 18.0]})
    assert errors == ["all_separated_B_gauss = 19.5, expected [10.0, 18.0]"]
    assert fingerprint["crossings"] == {"lower_14": 13.7056,
                                        "lower_23": "degenerate",
                                        "all_separated_B_gauss": 19.5}


def _fake_module():
    """A module of two functions that claim to live in the nvcr package."""
    mod = types.ModuleType("nvcr_fake")

    def leaf(x):
        return x + 1

    def outer(n):
        return sum(mod.leaf(k) for k in range(n))

    for fn in (leaf, outer):
        fn.__module__ = "nvcr.fake"
        setattr(mod, fn.__name__, fn)
    alias = types.ModuleType("nvcr_alias")
    alias.leaf = leaf          # a second binding of the same function
    return mod, alias


def test_wrappers_count_exactly_and_restore():
    mod, alias = _fake_module()
    originals = (mod.leaf, mod.outer, alias.leaf)
    ticks = iter(range(1000))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    t.install([mod, alias])
    assert mod.leaf is alias.leaf is not originals[0]
    assert mod.outer(5) == 15
    alias.leaf(0)
    t.restore()
    assert (mod.leaf, mod.outer, alias.leaf) == originals
    stats = tracer.span_stats(t.spans)
    assert stats["fake.leaf"]["calls"] == 6
    assert stats["fake.outer"]["calls"] == 1
    # each clock read is one tick: outer spans ticks 0..11 and its five
    # one-tick leaves cover 5 of them
    assert stats["fake.leaf"]["self"] == 6.0
    assert stats["fake.outer"]["total"] == 11.0
    assert stats["fake.outer"]["self"] == 6.0


def test_nested_same_name_counts_once_in_total():
    spans = [["f", 0.0, 10.0, -1], ["f", 2.0, 5.0, 0], ["g", 6.0, 7.0, 0]]
    stats = tracer.span_stats(spans)
    assert stats["f"] == {"calls": 2, "total": 10.0, "self": 9.0}


def test_traced_library_calls_match_the_code():
    import nvcr.odmr
    import nvcr.spin_model
    from nvcr.dipolar import BasisChoice
    from nvcr.eta_average import QuadratureSpec, XMode, scenario_frames

    t = tracer.Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "nvcr" or n.startswith("nvcr.")]
    before = [(m, k, v) for m in modules for k, v in vars(m).items()]
    original = nvcr.spin_model.diagonalize
    t.install(modules)
    # one wrapper, bound wherever the function was
    assert nvcr.odmr.diagonalize is nvcr.spin_model.diagonalize
    assert nvcr.spin_model.diagonalize is not original
    nvcr.odmr.all_transitions(None, [0.0, 1.0, 2.0])
    light = QuadratureSpec(n_theta=8, n_phi=8, n_psi=8, tolerance=1.0,
                           max_doublings=0)
    for _ in range(2):
        f1, f2 = scenario_frames(nvcr.eta_average.ZAngle.SAME)
        nvcr.eta_average.pair_average(f1, f2, BasisChoice.MAGNETIC,
                                      XMode.RANDOM, light)
    t.restore()
    assert all(vars(m)[k] is v for m, k, v in before)
    metrics = tracer.layer_metrics([t.document()])
    # three field points for each of the four orientation classes
    assert metrics["spin_model.diagonalize.calls"] == 12
    assert metrics["spin_model.build_hamiltonian.calls"] == 12
    assert metrics["odmr.all_transitions.calls"] == 1
    assert metrics["eta_average.pair_average.calls"] == 2
    assert metrics["eta_average.pair_average.distinct"] == 1


def test_workloads_are_seeded_and_parse():
    from nvcr.cli import build_parser
    parser = build_parser()
    for name in workloads.WORKLOADS:
        first = workloads.build(name, 7)
        again = workloads.build(name, 7)
        assert first == again
        for cmd in first.commands:
            args = parser.parse_args(cmd.args)
            assert args.output == cmd.output
            assert args.func is not None
    assert workloads.build("lab", 7).inputs != workloads.build("lab", 8).inputs
    assert workloads.build("grids", 7).truth != \
        workloads.build("grids", 8).truth


def test_output_differing_between_passes_fails():
    import run
    first = run.Pass(1.0, hashes={"a": "x", "b": "y"})
    second = run.Pass(1.0, hashes={"a": "x", "b": "z"})
    run.compare_outputs(first, second, "pass 0")
    assert second.failures == {"b": ["output differs from pass 0"]}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results",
                                                  "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
