"""Transition fans, class degeneracy analysis, synthetic spectra."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy import optimize

from nvcr import (
    CLASS_AXES,
    LineProfile,
    LineShape,
    all_transitions,
    degeneracy_lift,
    synth_spectrum,
    tilted_field_direction,
)
from nvcr.constants import (D_GHZ as D, DEFAULT_E_PERP_MHZ,
                            GAMMA_E_MHZ_PER_G as GAMMA)
from nvcr.geometry import as_unit
from nvcr.spin_model import _class_blocks, build_hamiltonian

from reference import class_eigensystem_mp


def _nv_fields(k, direction, amps):
    """The ramp ``amps`` along the unit ``direction`` in the NV frame of
    class ``k``, whose x axis follows the field's transverse part: its
    transverse and axial shares (|d x z_k|, 0, |d . z_k|), computed by
    the scan's numpy calls."""
    shares = np.column_stack([
        np.linalg.norm(np.cross(direction, CLASS_AXES), axis=1),
        np.zeros(len(CLASS_AXES)), np.abs(CLASS_AXES @ direction)])
    return amps[:, None] * shares[k]


def _dip_indices(pl, depth=0.01):
    idx = []
    for i in range(1, len(pl) - 1):
        if pl[i] < pl[i - 1] and pl[i] <= pl[i + 1] and pl[i] < 1.0 - depth:
            idx.append(i)
    return idx


def test_b100_all_classes_identical():
    for f in all_transitions([1.0, 0.0, 0.0], [0.0, 10.0, 20.0, 30.0]):
        assert np.ptp(f[0::2]) < 1e-9
        assert np.ptp(f[1::2]) < 1e-9


def test_b111_one_distinct_three_degenerate():
    f = all_transitions(CLASS_AXES[0], [30.0])[0]
    for block in (f[0::2], f[1::2]):
        gaps = np.diff(np.sort(block))
        # two zero gaps (three coincident classes) and one real split
        assert np.sum(gaps < 1e-9) == 2
        assert np.sum(gaps > 1e-3) == 1
    # the three equivalent classes get the same bits along a whole ramp
    f = all_transitions([1.0, 1.0, 1.0], np.linspace(0.0, 30.0, 121))
    for branch in (0, 1):
        for k in (2, 3):
            assert np.array_equal(f[:, 2 * k + branch], f[:, 2 + branch])


def test_zero_field_two_lines():
    f = all_transitions([1.0, 0.0, 0.0], [0.0], e_perp_mhz=4.0)[0]
    assert f[0::2] == pytest.approx(np.full(4, D - 0.004), abs=1e-9)
    assert f[1::2] == pytest.approx(np.full(4, D + 0.004), abs=1e-9)


def test_frequency_window():
    freqs = all_transitions(tilted_field_direction(), [0.0, 100.0, 200.0])
    assert freqs.shape == (3, 8)
    assert np.all((freqs >= 2.0) & (freqs <= 4.0))


def test_secular_match_aligned_class():
    for k in range(4):
        f = all_transitions(CLASS_AXES[k], [10.0])[0]
        secular_lower = D - GAMMA * 10.0 * 1e-3
        secular_upper = D + GAMMA * 10.0 * 1e-3
        assert abs(f[2 * k] - secular_lower) / secular_lower < 1e-3
        assert abs(f[2 * k + 1] - secular_upper) / secular_upper < 1e-3


def test_branch_continuity():
    freqs = all_transitions()   # default tilted direction, 121-point ramp
    # one 0.25 G step moves a line by at most ~0.7 MHz; a branch swap
    # would show up as a far larger jump
    assert np.max(np.abs(np.diff(freqs, axis=0))) < 2e-3



@pytest.mark.parametrize("direction, amps, e_perp", [
    ([1.0, -1.0, 0.0], np.linspace(0.01, 10.0, 11), 0.0),   # B _|_ two axes
    (None, np.linspace(0.0, 30.0, 13), 4.0),
    ([0.3, 0.5, -0.2], np.linspace(0.0, 200.0, 9), 1.0),
])
def test_lines_follow_energy_order(direction, amps, e_perp):
    freqs = all_transitions(direction, amps, e_perp_mhz=e_perp)
    assert freqs.shape == (amps.size, 8)
    assert np.all(freqs[:, 0::2] <= freqs[:, 1::2])
    u = tilted_field_direction() if direction is None else as_unit(direction)
    for k in range(4):
        # x follows the field's transverse part, and phi_E = 0 puts the
        # electric field of eq. (1) against it
        e = np.linalg.eigvalsh(build_hamiltonian(_nv_fields(k, u, amps),
                                                 e_perp))
        assert freqs[:, 2 * k:2 * k + 2] == pytest.approx(
            e[:, 1:] - e[:, :1], abs=1e-12)


def test_crossing_does_not_depend_on_ramp_start():
    # e_perp = 0 and a field orthogonal to two class axes: the excited
    # levels of those classes start near-degenerate
    found = []
    for start in (0.005, 0.01, 0.02):
        rep = degeneracy_lift([1.0, -1.0, 0.0], np.linspace(start, 30.0, 121),
                              e_perp_mhz=0.0)
        found.append(dict(zip(rep.pair_labels,
                              rep.pair_crossings_b_gauss))["lower_13"])
    assert max(found) - min(found) <= 1e-3


def test_solver_calls_per_scan_and_refinement(monkeypatch):
    import nvcr.odmr
    import nvcr.spin_model
    eigensolver = []
    for name in ("diagonalize", "build_hamiltonian"):
        solve = getattr(nvcr.spin_model, name)

        def counted(*args, _name=name, _solve=solve):
            eigensolver.append(_name)
            return _solve(*args)

        monkeypatch.setattr(nvcr.spin_model, name, counted)
    calls = []
    solve = nvcr.odmr._class_blocks
    # the axial share of the default field tells the four classes apart
    axial = np.abs(CLASS_AXES @ tilted_field_direction())

    def recorded(b_perp, b_z, e_perp_mhz):
        share = b_z[-1] / np.hypot(b_perp[-1], b_z[-1])
        calls.append((int(np.abs(axial - share).argmin()), b_perp.shape))
        return solve(b_perp, b_z, e_perp_mhz)

    monkeypatch.setattr(nvcr.odmr, "_class_blocks", recorded)
    all_transitions(None, [0.0, 1.0, 2.0])
    assert len(calls) == 4      # one closed-form call per class
    calls.clear()
    report = degeneracy_lift()
    # 4 for the scan; each pair then takes three rounds (a 0.25 G step
    # narrowed 65-fold per round to <= 1e-5 G) solving its two classes,
    # and the envelope three rounds solving all four
    assert len(calls) == 4 + 6 * 3 * 2 + 3 * 4
    rounds = [cls for cls, shape in calls if shape == (64,)]
    for n, label in enumerate(report.pair_labels):
        pair = {int(label[-2]) - 1, int(label[-1]) - 1}
        assert set(rounds[6 * n:6 * n + 6]) == pair, label
    assert sorted(rounds[36:]) == sorted(3 * [0, 1, 2, 3])
    assert eigensolver == []


@pytest.mark.parametrize("e_perp", [0.0, DEFAULT_E_PERP_MHZ])
@pytest.mark.parametrize("direction", [None, [1.0, 1.0, 1.0],
                                       [0.3, -0.7, 0.5]])
def test_stacked_scan_equals_point_by_point_solves(direction, e_perp):
    # 1100 points from 0 G: three solver blocks, the last partial; at
    # e_perp = 0 the excited levels are exactly degenerate at B = 0
    amps = np.linspace(0.0, 40.0, 1100)
    lines = all_transitions(direction, amps, e_perp)
    u = tilted_field_direction() if direction is None else as_unit(direction)
    expected = np.empty((amps.size, 8))
    for k in range(len(CLASS_AXES)):
        b = _nv_fields(k, u, amps)
        for i in range(amps.size):
            (_, e, _, _, _), = _class_blocks(b[i:i + 1, 0],
                                             b[i:i + 1, 2], e_perp)
            expected[i, 2 * k:2 * k + 2] = e[0, 1:] - e[0, 0]
    assert np.array_equal(lines, expected)


def test_scan_memory_grows_only_by_fields_and_lines():
    # past one solver block, a 4x ramp may add to the peak only its
    # amplitudes (8 B), one class's B_perp and B_z (16 B, of the 24 B
    # allowed) and line rows (64 B) per point; _class_blocks' per-block
    # temporaries stay one block in size
    def peak(n):
        tracemalloc.start()
        try:
            all_transitions(None, np.linspace(0.0, 30.0, n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1024)                            # warm up lazy imports and caches
    assert peak(4096) - peak(1024) <= 3072 * 96 + 64 * 1024


def _distinct_columns(lines):
    """Column pairs of every same-branch class pair whose gap is not
    identically zero along the scan ``lines``."""
    return [(a, b) for a, b in combinations(range(8), 2) if a % 2 == b % 2
            and np.max(np.abs(lines[:, a] - lines[:, b])) * 1e3 >= 1e-9]


def _label_columns(label):
    """The two scan columns of a pair label such as ``lower_13``."""
    branch = 0 if label.startswith("lower") else 1
    return (2 * (int(label[-2]) - 1) + branch,
            2 * (int(label[-1]) - 1) + branch)


def _reference_crossing(direction, amps, e_perp, columns, cr_range):
    """First field where the smallest gap of the column pairs reaches
    ``cr_range``, bisected to 1e-9 G with single-point scans."""
    def gap(lines):
        return np.min([np.abs(lines[..., a] - lines[..., b]) * 1e3
                       for a, b in columns], axis=0)

    above = gap(all_transitions(direction, amps, e_perp)) >= cr_range
    k = int(np.argmax(above))
    lo, hi = amps[k - 1], amps[k]
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if gap(all_transitions(direction, [mid], e_perp)[0]) >= cr_range:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("direction, e_perp", [
    (None, DEFAULT_E_PERP_MHZ),
    ([1.0, 1.0, 1.0], DEFAULT_E_PERP_MHZ),
    ([1.0, -1.0, 0.0], 0.0),
])
def test_crossings_match_a_fine_bisection(direction, e_perp):
    amps = np.linspace(0.0, 30.0, 121)
    rep = degeneracy_lift(direction, amps, e_perp_mhz=e_perp)
    for label, found in zip(rep.pair_labels, rep.pair_crossings_b_gauss):
        if label in rep.degenerate_pairs:
            continue
        assert found == pytest.approx(_reference_crossing(
            direction, amps, e_perp, [_label_columns(label)],
            rep.cr_range_mhz), abs=1e-5)
    kept = _distinct_columns(all_transitions(direction, amps, e_perp))
    assert rep.all_separated_b_gauss == pytest.approx(_reference_crossing(
        direction, amps, e_perp, kept, rep.cr_range_mhz), abs=1e-5)


def _reference_gap(direction, b_gauss, columns):
    """Smallest gap (MHz) of the column pairs at the amplitude
    ``b_gauss``, from the 40-digit levels of ``class_eigensystem_mp``."""
    lines = {}
    for k in {c // 2 for pair in columns for c in pair}:
        b_perp, _, b_z = _nv_fields(k, direction, np.array([b_gauss]))[0]
        levels = class_eigensystem_mp(b_perp, b_z, DEFAULT_E_PERP_MHZ)[0]
        lines[2 * k], lines[2 * k + 1] = levels[1:] - levels[0]
    return min(abs(lines[a] - lines[b]) for a, b in columns) * 1e3


def test_default_crossings_are_roots_of_the_reference_gap():
    # a root of the gap of the 40-digit levels, in the scan interval
    # that holds the crossing, checks the solver and the refinement
    # together; the crossing is the midpoint of a 1e-5 G bracket
    rep = degeneracy_lift()
    direction, amps = tilted_field_direction(), rep.b_gauss
    checks = [([_label_columns(label)], found) for label, found in
              zip(rep.pair_labels, rep.pair_crossings_b_gauss)]
    checks.append((_distinct_columns(all_transitions()),
                   rep.all_separated_b_gauss))
    for columns, found in checks:
        def excess(b):
            return _reference_gap(direction, b, columns) - rep.cr_range_mhz

        k = int(np.searchsorted(amps, found))
        lo, hi = amps[k - 1], amps[k]
        assert excess(lo) < 0.0 <= excess(hi), (columns, lo, hi)
        root = optimize.brentq(excess, lo, hi, xtol=1e-10)
        assert found == pytest.approx(root, abs=1e-5), columns


@pytest.mark.parametrize("b_max, n_b", [(300.0, 1201), (2000.0, 401)])
def test_envelope_takes_every_same_branch_pair(b_max, n_b):
    # lines of a branch reorder along the longer ramp: the pairs that are
    # neighbors at its top clear 8.04 MHz by 50 G, but another pair stays
    # closer until ~57.5 G
    direction, amps = [1.0, 0.2, 0.05], np.linspace(0.0, b_max, n_b)
    rep = degeneracy_lift(direction, amps)
    lines = all_transitions(direction, amps)
    kept = _distinct_columns(lines)
    assert len(kept) == 12
    envelope = np.min([np.abs(lines[:, a] - lines[:, b]) * 1e3
                       for a, b in kept], axis=0)
    assert np.array_equal(rep.envelope_mhz, envelope)
    k = int(np.argmax(envelope >= rep.cr_range_mhz))
    assert amps[k - 1] <= rep.all_separated_b_gauss <= amps[k]
    assert rep.all_separated_b_gauss == pytest.approx(_reference_crossing(
        direction, amps, DEFAULT_E_PERP_MHZ, kept, rep.cr_range_mhz),
        abs=1e-5)


def test_class_permutation_invariance():
    d = tilted_field_direction()
    swapped = d[[0, 2, 1]]
    f1 = np.sort(all_transitions(d, [17.0])[0])
    f2 = np.sort(all_transitions(swapped, [17.0])[0])
    assert f1 == pytest.approx(f2, abs=1e-12)


def test_degeneracy_default_direction():
    report = degeneracy_lift()
    assert report.cr_range_mhz == pytest.approx(8.04)
    assert len(report.pair_labels) == 6
    assert report.degenerate_pairs == []
    crossings = report.pair_crossings_b_gauss
    assert all(c is not None for c in crossings)
    assert all(10.0 <= c <= 18.0 for c in crossings)
    assert report.envelope_mhz is not None
    assert report.envelope_mhz.shape == report.b_gauss.shape
    assert report.all_separated_b_gauss >= max(crossings) - 0.05
    assert report.all_separated_b_gauss <= 18.0


def test_degeneracy_b100_never_lifts():
    report = degeneracy_lift([1.0, 0.0, 0.0])
    assert len(report.degenerate_pairs) == 6
    assert all(c is None for c in report.pair_crossings_b_gauss)
    assert report.envelope_mhz is None
    assert report.all_separated_b_gauss is None


def test_degeneracy_b111_excludes_coincident_classes():
    report = degeneracy_lift(CLASS_AXES[0])
    assert len(report.degenerate_pairs) > 0
    assert report.all_separated_b_gauss is not None
    assert 2.0 <= report.all_separated_b_gauss <= 8.0


@pytest.mark.parametrize("direction, fault", [
    ([1e200, 0.0, 0.0], "length inf"),   # the length overflows
    ([0.0, 0.0, 0.0], "length 0"),
    ([1e-200, 0.0, 0.0], "length 0"),
    ([1e-10, 0.0, 0.0], "length 1e-10"),
    ([np.nan, 0.0, 0.0], "length nan"),
    ([1.0, 0.0], r"3-vector, got shape \(2,\)"),
])
def test_direction_outside_the_unit_rule_raises(direction, fault):
    for run in (all_transitions, degeneracy_lift):
        with pytest.raises(ValueError, match=fault):
            run(direction=direction)


@pytest.mark.parametrize("exponent", [-30, -1, 64, 500])
def test_scan_depends_on_the_field_direction_only(exponent):
    # only the unit direction reaches the class projection; a power of
    # two scales the direction exactly, so the lines keep every bit
    d = np.array([1.0, -2.0, 0.5])
    amps = np.linspace(0.0, 30.0, 7)
    assert np.array_equal(all_transitions(2.0 ** exponent * d, amps),
                          all_transitions(d, amps))


def test_degeneracy_small_range_limit():
    report = degeneracy_lift(cr_range_mhz=1e-6)
    assert report.all_separated_b_gauss < 0.5
    with pytest.raises(ValueError):
        degeneracy_lift(cr_range_mhz=0.0)
    with pytest.raises(ValueError, match="at least 8 scan points"):
        degeneracy_lift(None, np.linspace(0.0, 10.0, 7))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_are_refused(bad):
    # a NaN range once passed the sign check and reported every crossing
    # absent; a NaN field reached LAPACK
    with pytest.raises(ValueError, match="cr_range_mhz"):
        degeneracy_lift(cr_range_mhz=bad)
    for run in (all_transitions, degeneracy_lift):
        with pytest.raises(ValueError, match="e_perp_mhz"):
            run(e_perp_mhz=bad)


def test_projection_past_the_float_range_is_refused_by_value():
    # along [111] a class projection passes 1 by an ulp, so a DBL_MAX
    # field overflows in it; the message gives the field's amplitude
    amps = np.finfo(float).max * np.linspace(0.0, 1.0, 8)
    with np.errstate(over="raise", invalid="raise"):
        for run in (all_transitions, degeneracy_lift):
            with pytest.raises(ValueError, match=r"field of 1\.79769e\+308 G"):
                run([1.0, 1.0, 1.0], amps)


_CUBIC_ROTATIONS = {
    "90 deg about [001]": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    "90 deg about [100]": [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
    "120 deg about [111]": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
}


@pytest.mark.parametrize("rot", _CUBIC_ROTATIONS.values(),
                         ids=_CUBIC_ROTATIONS.keys())
@pytest.mark.parametrize("direction", [None, [0.3, -0.7, 0.5]])
def test_cubic_rotations_permute_the_class_lines(rot, direction):
    # each rotation maps every class axis onto +- another one, so the
    # rotated field gives the same lines with the classes permuted
    rot = np.array(rot, dtype=float)
    u = tilted_field_direction() if direction is None else as_unit(direction)
    amps = np.linspace(0.0, 40.0, 9)
    perm = np.abs(CLASS_AXES @ rot @ CLASS_AXES.T).argmax(axis=0)
    assert sorted(perm) == [0, 1, 2, 3]
    cols = [c for k in perm for c in (2 * k, 2 * k + 1)]
    np.testing.assert_allclose(all_transitions(rot @ u, amps)[:, cols],
                               all_transitions(u, amps), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_ramp_refuses_non_finite_amplitudes(bad):
    # an infinite point once failed on a RuntimeWarning while the class
    # frames were built, a NaN one only after them
    for run in (all_transitions, degeneracy_lift):
        with pytest.raises(ValueError, match="field amplitudes"):
            run(None, [bad, 10.0])


def test_spectrum_zero_field_two_dips():
    f = all_transitions([1.0, 0.0, 0.0], [0.0], e_perp_mhz=4.0)[0]
    profile = LineProfile(LineShape.GAUSSIAN, width_mhz=0.5)
    freq, pl = synth_spectrum(f, profile)
    dips = _dip_indices(pl)
    assert len(dips) == 2
    assert freq[dips] == pytest.approx([D - 0.004, D + 0.004], abs=1e-3)
    assert pl.max() == pytest.approx(1.0, abs=1e-6)
    assert pl.min() < 0.95


def test_spectrum_b100_two_dips():
    f = all_transitions([1.0, 0.0, 0.0], [20.0])[0]
    freq, pl = synth_spectrum(f, LineProfile(LineShape.LORENTZIAN,
                                             width_mhz=1.0))
    assert len(_dip_indices(pl)) == 2


def test_spectrum_b111_four_dips():
    f = all_transitions(CLASS_AXES[0], [30.0])[0]
    _, pl = synth_spectrum(f, LineProfile(LineShape.GAUSSIAN, width_mhz=0.5))
    assert len(_dip_indices(pl)) == 4


def test_spectrum_explicit_grid_and_validation():
    f = all_transitions([1.0, 0.0, 0.0], [0.0])[0]
    grid = np.linspace(2.80, 2.94, 1001)
    freq, pl = synth_spectrum(f, LineProfile(LineShape.GAUSSIAN,
                                             width_mhz=1.0), freq_ghz=grid)
    assert freq == pytest.approx(grid, abs=0.0)
    assert pl.shape == grid.shape
    with pytest.raises(ValueError):
        synth_spectrum(f, LineProfile(LineShape.GAUSSIAN, width_mhz=1.0),
                       contrast_per_line=1.5)



@pytest.mark.parametrize("shape", list(LineShape))
def test_spectrum_dip_depth_is_the_contrast(shape):
    # a dip is the line's profile over its peak: at the centre of an
    # isolated line the depth is the contrast
    grid = np.array([2.80, 2.87, 2.94])
    _, pl = synth_spectrum([2.87], LineProfile(shape, width_mhz=0.5),
                           contrast_per_line=0.03, freq_ghz=grid)
    assert 1.0 - pl[1] == pytest.approx(0.03, abs=1e-15)


@pytest.mark.parametrize("freq", [[np.nan, 2.8], [2.8, np.inf]],
                         ids=["nan", "inf"])
def test_spectrum_refuses_a_non_finite_grid(freq):
    # a NaN frequency once gave a NaN row, an infinite one a flat one
    with pytest.raises(ValueError, match="freq_ghz"):
        synth_spectrum([2.87], LineProfile(LineShape.GAUSSIAN, width_mhz=1.0),
                       freq_ghz=freq)


@pytest.mark.parametrize("lines", [[], [2.87, np.nan], [[2.86, 2.88]]])
def test_spectrum_refuses_bad_lines(lines):
    with pytest.raises(ValueError):
        synth_spectrum(lines, LineProfile(LineShape.GAUSSIAN, width_mhz=1.0))
