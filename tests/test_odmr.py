"""Transition fans, class degeneracy analysis, synthetic spectra."""

from itertools import combinations

import numpy as np
import pytest

from nvcr import (
    CLASS_AXES,
    LineProfile,
    LineShape,
    all_transitions,
    class_frame,
    degeneracy_lift,
    synth_spectrum,
    tilted_field_direction,
)
from nvcr.constants import DEFAULT_CONSTANTS, DEFAULT_E_PERP_MHZ
from nvcr.spin_model import FieldConfiguration, build_hamiltonian

D = DEFAULT_CONSTANTS.d_ghz
GAMMA = DEFAULT_CONSTANTS.gamma_e_mhz_per_g


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
    u = tilted_field_direction() if direction is None else \
        np.asarray(direction) / np.linalg.norm(direction)
    f = FieldConfiguration(b_gauss=amps[:, None] * u, e_perp_mhz=e_perp)
    for k in range(4):
        # the scan's frame: x follows the field, phi_E = 0 along it
        frame = class_frame(k, b_field=amps.max() * u)
        e = np.linalg.eigvalsh(build_hamiltonian(frame, f))
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
    calls = []
    solve = nvcr.odmr.diagonalize

    def counted(h):
        calls.append(1)
        return solve(h)

    monkeypatch.setattr(nvcr.odmr, "diagonalize", counted)
    all_transitions(None, [0.0, 1.0, 2.0])
    assert len(calls) == 12     # one per class and field point
    calls.clear()
    report = degeneracy_lift()
    # 484 for the scan; each pair then takes three rounds (a 0.25 G step
    # narrowed 65-fold per round to <= 1e-5 G) solving its two classes,
    # and the envelope three rounds solving all four
    assert len(calls) == 484 + 6 * 3 * 2 + 3 * 4

    built = []
    build = nvcr.odmr.build_hamiltonian

    def recorded(frame, f, c):
        built.append((frame.class_id, f.b_gauss.shape[:-1]))
        return build(frame, f, c)

    monkeypatch.setattr(nvcr.odmr, "build_hamiltonian", recorded)
    degeneracy_lift()
    rounds = [cls for cls, shape in built if shape == (64,)]
    for n, label in enumerate(report.pair_labels):
        pair = {int(label[-2]) - 1, int(label[-1]) - 1}
        assert set(rounds[6 * n:6 * n + 6]) == pair, label
    assert sorted(rounds[36:]) == sorted(3 * [0, 1, 2, 3])


def _distinct_columns(lines):
    """Column pairs of every same-branch class pair whose gap is not
    identically zero along the scan ``lines``."""
    return [(a, b) for a, b in combinations(range(8), 2) if a % 2 == b % 2
            and np.max(np.abs(lines[:, a] - lines[:, b])) * 1e3 >= 1e-9]


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
        branch = 0 if label.startswith("lower") else 1
        cols = (2 * (int(label[-2]) - 1) + branch,
                2 * (int(label[-1]) - 1) + branch)
        assert found == pytest.approx(_reference_crossing(
            direction, amps, e_perp, [cols], rep.cr_range_mhz), abs=1e-5)
    kept = _distinct_columns(all_transitions(direction, amps, e_perp))
    assert rep.all_separated_b_gauss == pytest.approx(_reference_crossing(
        direction, amps, e_perp, kept, rep.cr_range_mhz), abs=1e-5)


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
])
def test_direction_outside_the_unit_rule_raises(direction, fault):
    for run in (all_transitions, degeneracy_lift):
        with pytest.raises(ValueError, match=fault):
            run(direction=direction)


def test_degeneracy_small_range_limit():
    report = degeneracy_lift(cr_range_mhz=1e-6)
    assert report.all_separated_b_gauss < 0.5
    with pytest.raises(ValueError):
        degeneracy_lift(cr_range_mhz=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_are_refused(bad):
    # a NaN range once passed the sign check and reported every crossing
    # absent; a NaN field reached LAPACK
    with pytest.raises(ValueError, match="cr_range_mhz"):
        degeneracy_lift(cr_range_mhz=bad)
    for run in (all_transitions, degeneracy_lift):
        with pytest.raises(ValueError, match="e_perp_mhz"):
            run(e_perp_mhz=bad)


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


@pytest.mark.parametrize("lines", [[], [2.87, np.nan], [[2.86, 2.88]]])
def test_spectrum_refuses_bad_lines(lines):
    with pytest.raises(ValueError):
        synth_spectrum(lines, LineProfile(LineShape.GAUSSIAN, width_mhz=1.0))
