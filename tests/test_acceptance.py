"""Acceptance gate: one test per numbered release criterion.

Runs first in the suite (alphabetical collection) and must finish,
together with its own checks, inside the two-minute budget asserted by
criterion 10.  conftest.py prints a one-line PASS/FAIL verdict per
criterion after the run.
"""

import time

import numpy as np
import pytest
from scipy import optimize

from nvcr import (
    BasisChoice,
    DecayCurve,
    DecayModel,
    EtaScenario,
    LineProfile,
    LineShape,
    PairGeometry,
    XMode,
    ZAngle,
    build_two_spin_hamiltonian,
    class_frame,
    decay_signal,
    degeneracy_lift,
    double_flip_amplitude,
    eta_bar,
    eta_table,
    fit_beta,
    fit_decay,
    flip_flop_amplitude,
    multiplier_table,
    nonmagnetic_change_of_basis,
    pair_average,
    polarization,
    polarization_from_density,
    rotation_matrix,
    scenario_frames,
    spectral_overlap,
    transverse_field_scan,
    zero_field_states,
)
from nvcr.constants import DEFAULT_CONSTANTS
from nvcr.eta_average import QuadratureSpec
from nvcr.spin_model import FieldConfiguration, build_hamiltonian, diagonalize

_T0 = time.perf_counter()

# light spec for invariance checks: the properties hold at any
# resolution, so the convergence ladder is effectively disabled
_LIGHT_Q = QuadratureSpec(n_theta=16, n_phi=16, n_psi=16,
                          tolerance=1.0, max_doublings=0)


def test_criterion_01_eta_table():
    t0 = time.perf_counter()
    table = eta_table()
    elapsed = time.perf_counter() - t0

    # the two same-axis entries are the pair kernel at c = 1 (halved in
    # the magnetic basis), exact in phi and split at its kink in theta
    exact_same = 2.0 / (3.0 * np.sqrt(3.0))
    assert table[("magnetic", "same")] == pytest.approx(exact_same, abs=1e-10)
    assert table[("nonmagnetic_aligned", "same")] == pytest.approx(
        2.0 * exact_same, abs=1e-10)

    numeric = {
        ("magnetic", "close"): 0.6507,
        ("magnetic", "far"): 0.8328,
        ("nonmagnetic_random", "same"): 0.7110,
        ("nonmagnetic_random", "close"): 0.6828,
        ("nonmagnetic_random", "far"): 0.6828,
        ("nonmagnetic_aligned", "close"): 0.6951,
        ("nonmagnetic_aligned", "far"): 0.6951,
    }
    for key, value in numeric.items():
        assert table[key] == pytest.approx(value, abs=2e-3), key
    assert len(table) == 9
    assert elapsed < 30.0


def test_criterion_02_scenario_multipliers():
    m = multiplier_table()
    assert m["RANDOM_DIRECTION"] == pytest.approx(1.0, abs=1e-12)
    assert m["PLANE_100"] == pytest.approx(7.24, abs=0.1)
    assert m["PLANE_110"] == pytest.approx(10.0, abs=0.1)
    assert m["AXIS_111"] == pytest.approx(28.4, abs=0.2)
    assert m["AXIS_100"] == pytest.approx(42.8, abs=0.3)
    assert m["ZERO_FIELD_ELECTRIC"] == pytest.approx(51.4, abs=0.3)
    ratio = m["ZERO_FIELD_ELECTRIC"] / m["AXIS_100"]
    assert 1.18 <= ratio <= 1.22


def test_criterion_03_intermediate_eta_values():
    assert eta_bar(EtaScenario(BasisChoice.MAGNETIC, ZAngle.SAME)) == \
        pytest.approx(5.55e-2, abs=1e-3)
    assert eta_bar(EtaScenario(BasisChoice.MAGNETIC, ZAngle.CLOSE)) == \
        pytest.approx(9.39e-2, abs=1e-3)
    assert eta_bar(EtaScenario(BasisChoice.MAGNETIC, ZAngle.FAR)) == \
        pytest.approx(1.20e-1, abs=1e-3)


def _transverse_closed_form(b_gauss, e_perp_mhz):
    """Exact (dnu_MHz, |<e|+>|^2) for B along the electric azimuth.

    Sx annihilates |->, so |-> is an eigenstate at D - eps; the
    remaining {|0>, |+>} block is [[0, a], [a, s]] with s = D + eps and
    a = gamma_e * B (all in MHz).
    """
    d_mhz = DEFAULT_CONSTANTS.d_ghz * 1e3
    s = d_mhz + e_perp_mhz
    a = DEFAULT_CONSTANTS.gamma_e_mhz_per_g * np.asarray(b_gauss, dtype=float)
    root = np.sqrt(s**2 + 4.0 * a**2)
    dnu = 0.5 * (s + root) - (d_mhz - e_perp_mhz)
    return dnu, 0.5 * (1.0 + s / root)


def test_criterion_04_transverse_field_emulation():
    frame = class_frame(0)
    b = np.array([0.0, 150.0])
    _, dnu, matching = transverse_field_scan(frame, b, e_perp_mhz=4.0)
    assert dnu[0] == pytest.approx(8.0, abs=1e-6)
    assert 65.0 <= dnu[1] <= 75.0
    # both follow the exact two-level solution; at 150 G the overlap is
    # 0.979921..., short of 1 only by the second-order |0> admixture
    exact_dnu, exact_matching = _transverse_closed_form(b, 4.0)
    np.testing.assert_allclose(dnu, exact_dnu, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(matching, exact_matching, rtol=0.0, atol=1e-9)
    # emulation: the transverse field mixes |+> with |0> only, never
    # with |->, so |e> keeps the zero-field |+> character
    f = FieldConfiguration(b_gauss=150.0 * frame.x_hat, e_perp_mhz=4.0)
    e = diagonalize(build_hamiltonian(frame, f)).e
    s0, sm, sp = zero_field_states(0.0)
    w0, wm, wp = (abs(ref.conj() @ e) ** 2 for ref in (s0, sm, sp))
    assert wm <= 1e-12
    assert w0 + wp == pytest.approx(1.0, abs=1e-12)


def test_criterion_05_degeneracy_lift():
    report = degeneracy_lift()
    assert report.all_separated_b_gauss is not None
    assert 10.0 <= report.all_separated_b_gauss <= 18.0


def test_criterion_06_laplace_identity():
    for big_t in (1.0, 2.5e-3):
        assert polarization_from_density(0.0, big_t) == \
            pytest.approx(1.0, abs=1e-6)
        for ratio in (0.01, 0.25, 1.0, 4.0, 100.0):
            t = ratio * big_t
            assert polarization_from_density(t, big_t) == \
                pytest.approx(polarization(t, big_t), abs=1e-6)


def _fitted_width(shifts, values, shape):
    if shape is LineShape.GAUSSIAN:
        def model(x, a, w):
            return a * np.exp(-0.5 * (x / w) ** 2)
    else:
        def model(x, a, w):
            return a * w**2 / (x**2 + w**2)
    popt, _ = optimize.curve_fit(model, shifts, values,
                                 p0=[values.max(), 1.0])
    return abs(popt[1])


def test_criterion_07_overlap_widths():
    sigma = 3.0
    gauss = LineProfile(LineShape.GAUSSIAN, width_mhz=sigma)
    shifts = np.linspace(-20.0, 20.0, 161)
    s_gg = spectral_overlap(gauss, gauss, shifts)
    assert _fitted_width(shifts, s_gg, LineShape.GAUSSIAN) == \
        pytest.approx(np.sqrt(2.0) * sigma, rel=0.01)

    lor = LineProfile(LineShape.LORENTZIAN, width_mhz=sigma)
    shifts = np.linspace(-60.0, 60.0, 241)
    s_ll = spectral_overlap(lor, lor, shifts)
    assert _fitted_width(shifts, s_ll, LineShape.LORENTZIAN) == \
        pytest.approx(2.0 * sigma, rel=0.01)


def test_criterion_08_fit_round_trips():
    t1ph = 3.62e-3
    for t1dd in (0.6e-3, 13.0e-3):
        tau = np.geomspace(2e-5, 6.0 * t1dd, 48)
        model = DecayModel(t1_dd_s=t1dd, t1_ph_s=t1ph)
        curve = DecayCurve(tau, decay_signal(tau, model))
        res = fit_decay(curve, fixed_t1_ph_s=t1ph)
        assert res.converged
        assert res.model.t1_dd_s == pytest.approx(t1dd, rel=0.02)
        assert res.model.amplitude == pytest.approx(1.0, rel=0.02)

    tau = np.geomspace(2e-5, 2e-2, 48)
    for beta in (0.5, 1.0):
        model = DecayModel(t1_dd_s=2.0e-3, beta=beta)
        curve = DecayCurve(tau, decay_signal(tau, model))
        res = fit_beta(curve)
        assert res.converged
        assert res.model.beta == pytest.approx(beta, abs=0.01)


def test_criterion_09_property_suites():
    rng = np.random.default_rng(7)
    c = DEFAULT_CONSTANTS

    # Hamiltonian trace and hermiticity at random fields
    for _ in range(5):
        b = rng.normal(size=3) * 40.0
        f = FieldConfiguration(b_gauss=b,
                               e_perp_mhz=float(rng.uniform(0.0, 6.0)),
                               phi_e_rad=float(rng.uniform(0.0, 2.0 * np.pi)))
        frame = class_frame(int(rng.integers(4)), b)
        h = build_hamiltonian(frame, f, c)
        assert np.linalg.norm(h - h.conj().T) < 1e-12
        assert np.trace(h).real == pytest.approx(2.0 * c.d_ghz, abs=1e-12)

    # frame invariance of the angular average under common rotations
    f1, f2 = scenario_frames(ZAngle.CLOSE)
    base = pair_average(f1, f2, BasisChoice.MAGNETIC, XMode.RANDOM, _LIGHT_Q)
    for _ in range(5):
        rot = rotation_matrix(rng.normal(size=3),
                              float(rng.uniform(0.0, 2.0 * np.pi)))
        rotated = pair_average(f1.rotated(rot), f2.rotated(rot),
                               BasisChoice.MAGNETIC, XMode.RANDOM, _LIGHT_Q)
        assert abs(rotated - base) < 1e-8

    # basis equivalence: conjugating the magnetic-basis pair operator by
    # the per-spin change of basis gives the nonmagnetic-basis operator
    u = nonmagnetic_change_of_basis()
    uu = np.kron(u, u)
    frame_a = class_frame(0)
    frame_b = class_frame(2)
    for _ in range(5):
        u_hat = rng.normal(size=3)
        u_hat /= np.linalg.norm(u_hat)
        g = PairGeometry(u_hat, frame_a, frame_b)
        h_mag = build_two_spin_hamiltonian(g, BasisChoice.MAGNETIC)
        h_non = build_two_spin_hamiltonian(g, BasisChoice.NONMAGNETIC)
        assert np.linalg.norm(uu.conj().T @ h_mag @ uu - h_non) < 1e-12

    # same-class flip-flop magnitude against the analytic angular law
    for _ in range(20):
        u_hat = rng.normal(size=3)
        u_hat /= np.linalg.norm(u_hat)
        g = PairGeometry(u_hat, frame_a, frame_a)
        cos_t = float(u_hat @ frame_a.z_hat)
        expected = abs(1.0 - 3.0 * cos_t**2) / 2.0
        assert flip_flop_amplitude(g, BasisChoice.MAGNETIC) == \
            pytest.approx(expected, abs=1e-10)

    # axial same-class double flips cancel exactly
    g_axial = PairGeometry(frame_a.z_hat, frame_a, frame_a)
    assert double_flip_amplitude(g_axial, BasisChoice.MAGNETIC) == \
        pytest.approx(0.0, abs=1e-12)


def test_criterion_10_runtime_and_determinism():
    # bitwise repeatability of a quadrature and of a fit
    f1, f2 = scenario_frames(ZAngle.FAR)
    a1 = pair_average(f1, f2, BasisChoice.NONMAGNETIC, XMode.RANDOM, _LIGHT_Q)
    a2 = pair_average(f1, f2, BasisChoice.NONMAGNETIC, XMode.RANDOM, _LIGHT_Q)
    assert a1 == a2

    tau = np.geomspace(2e-5, 4e-3, 40)
    model = DecayModel(t1_dd_s=0.6e-3, t1_ph_s=3.62e-3)
    curve = DecayCurve(tau, decay_signal(tau, model))
    r1 = fit_decay(curve, fixed_t1_ph_s=3.62e-3)
    r2 = fit_decay(curve, fixed_t1_ph_s=3.62e-3)
    assert r1.model == r2.model
    assert r1.residual_rss == r2.residual_rss

    assert time.perf_counter() - _T0 < 120.0
