"""Solid-angle averages and scenario rate multipliers."""

import math

import numpy as np
import pytest
from scipy import integrate

from nvcr import (
    CLASS_AXES,
    BasisChoice,
    XMode,
    ZAngle,
    all_transitions,
    degeneracy_lift,
    eta_bar,
    pair_average,
    scenario_frames,
)
from nvcr import eta_average
from nvcr.eta_average import (ETA_PREFACTOR, _SCENARIOS, _gl_nodes, _graded,
                              _pair_kernel_batch, eta_table, multiplier_table)

from reference import (ETA_REFERENCE, SCENARIO_DIRECTIONS, resonant_partners,
                       rotate, rotation_matrix, scenario_counts)


def test_prefactor():
    assert ETA_PREFACTOR == pytest.approx(0.25 * np.sqrt(1.0 / 3.0), abs=1e-15)


def test_scenario_frames_geometry():
    cosines = {ZAngle.SAME: 1.0, ZAngle.CLOSE: 1.0 / 3.0,
               ZAngle.FAR: -1.0 / 3.0}
    for z, c in cosines.items():
        f1, f2 = scenario_frames(z)
        assert f1.z_hat @ f2.z_hat == pytest.approx(c, abs=1e-12)


def test_same_class_closed_form():
    value = pair_average(*scenario_frames(ZAngle.SAME), BasisChoice.MAGNETIC,
                         XMode.RANDOM)
    assert value == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-12)


def test_same_axis_entries_are_their_constants():
    # K(1)/2 and K(1) to the bit, as Python floats: neither is integrated
    table = eta_table()
    magnetic = table[("magnetic", "same")]
    aligned = table[("nonmagnetic_aligned", "same")]
    assert type(magnetic) is float and type(aligned) is float
    assert magnetic == 2.0 / (3.0 * math.sqrt(3.0))
    assert aligned == 4.0 / (3.0 * math.sqrt(3.0))


def test_eta_bar_same_is_one_eighteenth():
    value = eta_bar(BasisChoice.MAGNETIC, ZAngle.SAME)
    assert value == pytest.approx(1.0 / 18.0, abs=1e-12)


def test_nonmagnetic_close_equals_far():
    close, far = (pair_average(*scenario_frames(z), BasisChoice.NONMAGNETIC,
                               XMode.RANDOM) for z in (ZAngle.CLOSE, ZAngle.FAR))
    # R depends on czz^2 only, so the two are one integral
    assert close == far


def test_aligned_mode_interpretations():
    # the aligned average couples the in-plane axes to a shared field
    # direction averaged over the sphere
    f1, f2 = scenario_frames(ZAngle.CLOSE)
    shared = pair_average(f1, f2, BasisChoice.NONMAGNETIC, XMode.ALIGNED)
    assert shared == pytest.approx(0.6951, abs=2e-3)


def test_magnetic_mode_free():
    # flip-flop magnitudes carry no in-plane axis dependence
    f1, f2 = scenario_frames(ZAngle.CLOSE)
    base = pair_average(f1, f2, BasisChoice.MAGNETIC, XMode.RANDOM)
    for mode in (XMode.RANDOM, XMode.ALIGNED):
        value = pair_average(f1, f2, BasisChoice.MAGNETIC, mode)
        assert value == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("mode", [XMode.RANDOM, XMode.ALIGNED])
def test_frame_invariance_nonmagnetic(mode):
    rng = np.random.default_rng(5)
    f1, f2 = scenario_frames(ZAngle.FAR)
    base = pair_average(f1, f2, BasisChoice.NONMAGNETIC, mode)
    for _ in range(3):
        rot = rotation_matrix(rng.normal(size=3),
                              float(rng.uniform(0.0, 2.0 * np.pi)))
        rotated = pair_average(rotate(f1, rot), rotate(f2, rot),
                               BasisChoice.NONMAGNETIC, mode)
        assert abs(rotated - base) < 1e-8


def test_random_direction_multiplier_is_unity():
    assert multiplier_table()["RANDOM"] == pytest.approx(1.0, abs=1e-12)


def test_axis_100_composition():
    a = eta_table()
    same, close, far = (a[("magnetic", z)] for z in ("same", "close", "far"))
    expected = ((same + 2.0 * close + far) / same) ** 2
    assert multiplier_table()["AXIS_100"] == pytest.approx(expected, abs=1e-12)


def test_zero_field_composition():
    a = eta_table()
    same = a[("nonmagnetic_random", "same")]
    diff = a[("nonmagnetic_random", "close")]
    base = a[("magnetic", "same")]
    expected = ((same + 3.0 * diff) / base) ** 2
    assert multiplier_table()["ZERO_FIELD"] == pytest.approx(expected, abs=1e-12)


def _kernel_reference(c: float) -> float:
    """K(c) by nested adaptive quadrature of the raw integrand.

    |A cos psi + B| with A = (3/2)(1 - t^2), B = (A - 1) c, averaged over
    psi = 2 phi in [0, pi] and t in [0, 1]; each quad is told where its
    integrand kinks, so both converge to rounding.
    """
    def over_psi(t):
        a = 1.5 * (1.0 - t * t)
        b = (a - 1.0) * c
        kink = [np.arccos(-b / a)] if abs(b) < a else None
        return integrate.quad(lambda psi: abs(a * np.cos(psi) + b),
                              0.0, np.pi, points=kink, epsabs=1e-13,
                              epsrel=1e-13, limit=200)[0] / np.pi

    t_kink = np.sqrt(1.0 - (2.0 / 3.0) * abs(c) / (1.0 + abs(c)))
    return integrate.quad(over_psi, 0.0, 1.0, points=[t_kink], epsabs=1e-13,
                          epsrel=1e-13, limit=200)[0]


# the six positive nodes and their weights of the 12-point rule, from a
# 40-digit Newton iteration in mpmath
_GL12 = [
    ("0.1252334085114689154724", "0.2491470458134027850006"),
    ("0.3678314989981801937527", "0.2334925365383548087608"),
    ("0.5873179542866174472967", "0.2031674267230659217491"),
    ("0.7699026741943046870369", "0.1600783285433462263347"),
    ("0.9041172563704748566785", "0.1069393259953184309603"),
    ("0.9815606342467192506905", "0.04717533638651182719462"),
]


def test_gauss_legendre_nodes_are_made_once_and_read_only():
    x, w = _gl_nodes(12)
    assert _gl_nodes(12)[0] is x
    with pytest.raises(ValueError):
        w[0] = 0.0
    half = np.array([[float(v) for v in row] for row in _GL12])
    np.testing.assert_allclose(x, np.r_[-half[::-1, 0], half[:, 0]],
                               rtol=0.0, atol=2e-16)
    np.testing.assert_allclose(w, np.r_[half[::-1, 1], half[:, 1]],
                               rtol=2e-15, atol=0.0)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_gauss_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    x, w = _gl_nodes(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 1e-14, k


def test_gauss_legendre_newton_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(eta_average, "_NEWTON_STEPS", 1)
    with pytest.raises(ArithmeticError, match="Newton"):
        _gl_nodes.__wrapped__(40)


def test_kernel_closed_values():
    k = _pair_kernel_batch(np.array([0.0, 1.0, -1.0]))
    assert k[0] == pytest.approx(2.0 / np.pi, abs=1e-14)
    assert k[1] == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-14)
    assert k[2] == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-14)


def test_kernel_even_and_finite():
    c = np.linspace(0.0, 1.0, 101)
    np.testing.assert_array_equal(_pair_kernel_batch(-c), _pair_kernel_batch(c))
    edge = _pair_kernel_batch(np.array([0.0, 1e-12, -1e-12, 1.0, -1.0]))
    assert np.all(np.isfinite(edge))


@pytest.mark.parametrize("c", [0.05, 1.0 / 3.0, 0.9])
def test_kernel_matches_adaptive_reference(c):
    assert _pair_kernel_batch(c)[0] == pytest.approx(_kernel_reference(c),
                                                     abs=1e-9)


def test_every_entry_matches_its_reference():
    table = eta_table()
    assert table.keys() == ETA_REFERENCE.keys()
    for key, ref in ETA_REFERENCE.items():
        assert abs(table[key] - ref) <= 1e-10, key


@pytest.mark.parametrize("k", [0, 1, 5])
def test_graded_nodes_integrate_powers_and_endpoint_roots(k):
    # the map flattens both ends, so sqrt(t) and t^k are integrated to
    # rounding on 48 nodes, on one interval and on a stack of them
    t, w = _graded(48, [0.0, 0.5], [1.0, 2.0])
    assert t.shape == w.shape == (2, 48)
    assert np.all(np.diff(t, axis=1) > 0.0)
    exact = (np.array([1.0, 2.0]) ** (k + 1) - [0.0, 0.5 ** (k + 1)]) / (k + 1)
    np.testing.assert_allclose(np.sum(w * t ** k, axis=1), exact, rtol=1e-14)
    assert abs(np.sqrt(t[0]) @ w[0] - 2.0 / 3.0) <= 1e-13


def test_tables_evaluate_each_average_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return pair_average(*args, **kwargs)

    monkeypatch.setattr("nvcr.eta_average.pair_average", counting)
    multiplier_table()
    assert len(calls) == 5   # magnetic same/close/far, nonmagnetic same/close
    calls.clear()
    eta_table()
    assert len(calls) == 7   # zero-field-basis far reuses close


@pytest.mark.parametrize("name", sorted(
    name for name, d in SCENARIO_DIRECTIONS.items() if d is not None))
def test_scenario_counts_follow_from_the_class_geometry(name):
    # classes k and l are resonant when the field reaches them with equal
    # shares; tests/reference.py counts the pairs from the class axes
    d = SCENARIO_DIRECTIONS[name]
    assert _SCENARIOS[name] == (BasisChoice.MAGNETIC, scenario_counts(d))
    partners = resonant_partners(d)
    # the line scan finds the same resonant classes: the identically
    # degenerate neighbor pairs of each branch join exactly those groups
    report = degeneracy_lift(d)
    for branch in ("lower", "upper"):
        groups = {m: {m} for m in range(4)}
        for label in report.degenerate_pairs:
            if label.startswith(branch):
                a, b = (int(c) - 1 for c in label[-2:])
                joined = groups[a] | groups[b]
                for m in joined:
                    groups[m] = joined
        assert all(groups[m] == {m} | partners[m] for m in range(4)), name


def test_zero_field_scenario_counts_follow_from_the_class_geometry():
    # with no field every class has the same lines, and the zero-field
    # basis sees only |z_k . z_l| = 1/3, so close and far are one entry
    lines = all_transitions(None, [0.0]).reshape(4, 2)
    assert np.all(lines == lines[0])
    czz = CLASS_AXES @ CLASS_AXES.T
    np.testing.assert_allclose(np.abs(czz[~np.eye(4, dtype=bool)]), 1.0 / 3.0,
                               rtol=0.0, atol=1e-15)
    assert _SCENARIOS["ZERO_FIELD"] == (BasisChoice.NONMAGNETIC,
                                        scenario_counts(None))
