"""Decay-curve fitting, spectral overlaps, sensitivity."""

import numpy as np
import pytest

from nvcr import (
    DecayCurve,
    DecayModel,
    FitError,
    LineProfile,
    LineShape,
    decay_signal,
    fit_beta,
    fit_decay,
    sensitivity,
    spectral_overlap,
)

T1PH = 3.62e-3


def _synthetic(t1_dd, t1_ph=T1PH, n=48):
    tau = np.geomspace(2e-5, 6.0 * t1_dd, n)
    model = DecayModel(t1_dd_s=t1_dd, t1_ph_s=t1_ph)
    return DecayCurve(tau, decay_signal(tau, model))


def test_fixed_phonon_roundtrip_band():
    res = fit_decay(_synthetic(0.6e-3), fixed_t1_ph_s=T1PH)
    assert res.converged
    assert 0.588e-3 <= res.model.t1_dd_s <= 0.612e-3
    assert res.model.t1_ph_s == T1PH


def test_free_phonon_roundtrip():
    tau = np.geomspace(2e-5, 3e-2, 64)
    model = DecayModel(t1_dd_s=0.6e-3, t1_ph_s=T1PH)
    curve = DecayCurve(tau, decay_signal(tau, model))
    res = fit_decay(curve)
    assert res.converged
    assert res.model.t1_dd_s == pytest.approx(0.6e-3, rel=0.02)
    assert res.model.t1_ph_s == pytest.approx(T1PH, rel=0.02)
    assert res.model.amplitude == pytest.approx(1.0, rel=0.02)


def test_constant_curve_rejected():
    tau = np.linspace(1e-5, 1e-3, 16)
    with pytest.raises(ValueError):
        fit_decay(DecayCurve(tau, np.ones_like(tau)), fixed_t1_ph_s=T1PH)


def test_fit_determinism():
    curve = _synthetic(1.3e-3)
    r1 = fit_decay(curve, fixed_t1_ph_s=T1PH)
    r2 = fit_decay(curve, fixed_t1_ph_s=T1PH)
    assert r1.model == r2.model
    assert r1.residual_rss == r2.residual_rss
    assert r1.iterations == r2.iterations


def test_optimum_beats_every_start():
    curve = _synthetic(0.9e-3)
    res = fit_decay(curve, fixed_t1_ph_s=T1PH)
    # trial models log-spaced from well inside the sampled window to
    # well beyond it
    for t1_start in np.geomspace(curve.tau_s[1], 10.0 * curve.tau_s[-1], 5):
        start = DecayModel(t1_dd_s=float(t1_start), t1_ph_s=T1PH,
                           amplitude=float(curve.signal[0]))
        rss = float(np.sum((decay_signal(curve.tau_s, start)
                            - curve.signal) ** 2))
        assert res.residual_rss <= rss + 1e-15


def _bench_like_curve(t1_dd, noise, rng):
    tau = np.geomspace(1e-5, 5e-3, 64)
    clean = decay_signal(tau, DecayModel(t1_dd_s=t1_dd, t1_ph_s=T1PH))
    return DecayCurve(tau, clean + rng.normal(scale=noise, size=tau.size),
                      sigma=np.full(tau.size, noise))


def test_weighted_noisy_fit_converges():
    # with a sigma column the residual sum is chi^2 ~ N; the search
    # tolerance is on the timescale, so its cost does not depend on the
    # size of the residual
    rng = np.random.default_rng(11)
    for t1_dd in (0.4e-3, 0.6e-3, 1.1e-3):
        res = fit_decay(_bench_like_curve(t1_dd, 0.01, rng),
                        fixed_t1_ph_s=T1PH)
        assert res.converged
        assert res.iterations < 100
        assert res.model.t1_dd_s == pytest.approx(t1_dd, rel=0.12)


def test_pure_stretch_fits_with_the_phonon_channel_off():
    tau = np.geomspace(1e-5, 5e-3, 64)
    curve = DecayCurve(tau, decay_signal(tau, DecayModel(t1_dd_s=0.7e-3)))
    res = fit_decay(curve)
    assert res.converged
    assert res.model.t1_ph_s == np.inf
    assert res.model.t1_dd_s == pytest.approx(0.7e-3, rel=1e-7)


def test_phonon_channel_beyond_its_grid_is_fitted():
    # t_max / T1_ph = 1/300 lies between rate 0 and the first rate node
    # (T1_ph = 100 t_max), so the search must look inside that interval
    tau = np.geomspace(1e-5, 5e-3, 64)
    model = DecayModel(t1_dd_s=0.7e-3, t1_ph_s=1.5)
    res = fit_decay(DecayCurve(tau, decay_signal(tau, model)))
    assert res.converged
    assert res.model.t1_ph_s == pytest.approx(1.5, rel=1e-6)
    assert res.model.t1_dd_s == pytest.approx(0.7e-3, rel=1e-7)


def test_fast_phonon_channel_over_seven_decades_is_fitted():
    # the phonon rate t_max / T1_ph is 5e6 here, far beyond where an
    # absolute search tolerance falls below the spacing of floats
    tau = np.geomspace(1e-9, 1e-2, 64)
    model = DecayModel(t1_dd_s=2e-8, t1_ph_s=2e-9)
    res = fit_decay(DecayCurve(tau, decay_signal(tau, model)))
    assert res.converged
    assert res.model.t1_ph_s == pytest.approx(2e-9, rel=1e-6)
    assert res.model.t1_dd_s == pytest.approx(2e-8, rel=1e-6)


def test_slow_dipolar_channel_inside_the_window_is_fitted():
    # (t_max / T1_dd)^(1/2) = 0.022: a 2 % dipolar loss over the samples
    tau = np.geomspace(1e-5, 5e-3, 64)
    curve = DecayCurve(tau, decay_signal(
        tau, DecayModel(t1_dd_s=10.0, t1_ph_s=T1PH)))
    res = fit_decay(curve, fixed_t1_ph_s=T1PH)
    assert res.converged
    assert res.model.t1_dd_s == pytest.approx(10.0, rel=1e-7)


@pytest.mark.parametrize("t1_dd", [1e-12, 1e4])
def test_timescale_outside_the_window_raises_with_the_best_fit(t1_dd):
    # at beta = 1/2 the window runs from (t/T1_dd)^(1/2) = 100 at the
    # first positive time, 1e-5 s, to 0.01 at the last one, 5e-3 s:
    # T1_dd from 1e-9 to 50 s.  The sample at t = 0 keeps the signal
    # of the fastest curve from being all zeros.
    tau = np.concatenate([[0.0], np.geomspace(1e-5, 5e-3, 63)])
    curve = DecayCurve(tau, decay_signal(
        tau, DecayModel(t1_dd_s=t1_dd, t1_ph_s=T1PH)))
    with pytest.raises(FitError) as exc:
        fit_decay(curve, fixed_t1_ph_s=T1PH)
    best = exc.value.best
    assert not best.converged
    assert best.model.t1_dd_s == pytest.approx(
        1e-9 if t1_dd < 1e-5 else 50.0, rel=1e-12)


def test_signal_without_a_positive_decay_is_refused():
    tau = np.geomspace(1e-5, 5e-3, 16)
    curve = DecayCurve(tau, -decay_signal(tau, DecayModel(t1_dd_s=1e-3)))
    for fit in (fit_decay, fit_beta):
        with pytest.raises(ValueError, match="amplitude"):
            fit(curve)


@pytest.mark.parametrize("weighted", [False, True])
def test_noiseless_roundtrip_precision(weighted):
    tau = np.geomspace(1e-5, 5e-3, 64)
    model = DecayModel(t1_dd_s=0.7e-3, t1_ph_s=T1PH)
    sigma = np.full(tau.size, 0.01) if weighted else None
    curve = DecayCurve(tau, decay_signal(tau, model), sigma=sigma)
    res = fit_decay(curve, fixed_t1_ph_s=T1PH)
    assert res.converged
    assert res.model.t1_dd_s == pytest.approx(0.7e-3, rel=1e-6)


def test_beta_roundtrip_intermediate():
    tau = np.geomspace(2e-5, 2e-2, 48)
    model = DecayModel(t1_dd_s=2.0e-3, beta=0.8)
    curve = DecayCurve(tau, decay_signal(tau, model))
    res = fit_beta(curve)
    assert res.converged
    assert res.model.beta == pytest.approx(0.8, abs=0.01)
    assert res.model.t1_dd_s == pytest.approx(2.0e-3, rel=0.02)


@pytest.mark.parametrize("beta", [0.07, 1.45])
def test_beta_roundtrip_near_the_ends_of_its_grid(beta):
    # the beta grid runs from 0.05 to 1.5, the top of DecayModel's range
    tau = np.geomspace(1e-5, 5e-3, 64)
    model = DecayModel(t1_dd_s=0.7e-3, beta=beta)
    res = fit_beta(DecayCurve(tau, decay_signal(tau, model)))
    assert res.converged
    assert res.model.beta == pytest.approx(beta, rel=1e-7)
    assert res.model.t1_dd_s == pytest.approx(0.7e-3, rel=1e-7)


def test_beta_at_the_top_of_its_range_raises_with_the_best_fit():
    tau = np.geomspace(1e-5, 5e-3, 64)
    model = DecayModel(t1_dd_s=0.7e-3, beta=1.5)
    with pytest.raises(FitError) as exc:
        fit_beta(DecayCurve(tau, decay_signal(tau, model)))
    assert exc.value.best.model.beta == 1.5


def test_beta_of_two_channel_curve_near_half():
    # fast dipolar channel with a slow phonon floor: the single-stretch
    # description lands much nearer beta = 1/2 than a pure exponential
    tau = np.geomspace(2e-5, 6e-3, 48)
    model = DecayModel(t1_dd_s=0.5e-3, t1_ph_s=10e-3)
    curve = DecayCurve(tau, decay_signal(tau, model))
    res = fit_beta(curve)
    assert res.converged
    assert abs(res.model.beta - 0.5) < abs(res.model.beta - 1.0)


def test_overlap_peak_and_symmetry():
    gauss = LineProfile(LineShape.GAUSSIAN, width_mhz=2.0)
    shifts = np.linspace(-10.0, 10.0, 41)
    s = spectral_overlap(gauss, gauss, shifts)
    assert np.argmax(s) == 20
    assert s == pytest.approx(s[::-1], abs=1e-10)


def test_overlap_swap_relation():
    p1 = LineProfile(LineShape.GAUSSIAN, width_mhz=1.5, center_mhz=2.0)
    p2 = LineProfile(LineShape.LORENTZIAN, width_mhz=3.0, center_mhz=-1.0)
    shifts = np.linspace(-12.0, 12.0, 49)
    assert spectral_overlap(p1, p2, shifts) == \
        pytest.approx(spectral_overlap(p2, p1, -shifts), abs=1e-8)


def test_overlap_scalar_argument():
    lor = LineProfile(LineShape.LORENTZIAN, width_mhz=4.02)
    assert np.ndim(spectral_overlap(lor, lor, 0.0)) == 0


def test_cr_width_consistency():
    # two half-width-4.02 lines overlap into a half-width-8.04 curve
    lor = LineProfile(LineShape.LORENTZIAN, width_mhz=4.02)
    s0, s_half = spectral_overlap(lor, lor, np.array([0.0, 8.04]))
    assert s_half == pytest.approx(0.5 * s0, rel=0.01)


def test_closed_form_overlaps_match_numeric_convolution():
    # trapezoid convolution on a uniform grid: spectrally accurate for
    # these smooth lines, and +-5000 MHz leaves Lorentzian tails of
    # order gamma^2 / L^3 ~ 1e-11 outside it
    nu = np.linspace(-5000.0, 5000.0, 200001)
    shifts = np.linspace(-8.0, 8.0, 9)
    shapes = (LineShape.GAUSSIAN, LineShape.LORENTZIAN)
    for shape1 in shapes:
        for shape2 in shapes:
            p1 = LineProfile(shape1, width_mhz=1.5, center_mhz=0.7)
            p2 = LineProfile(shape2, width_mhz=0.8, center_mhz=-1.2)
            numeric = [np.trapezoid(p1(nu) * p2(nu - d), nu) for d in shifts]
            assert spectral_overlap(p1, p2, shifts) == \
                pytest.approx(numeric, rel=1e-9), (shape1, shape2)


def test_line_profile_validation():
    for shape in LineShape:
        for width in (0.0, -1.0):
            with pytest.raises(ValueError):
                LineProfile(shape, width_mhz=width)


@pytest.mark.parametrize("values", [
    {"width_mhz": np.nan},
    {"width_mhz": np.inf},
    {"center_mhz": np.nan},
    {"center_mhz": np.inf},
    {"center_mhz": -np.inf},
], ids=["width_nan", "width_inf", "center_nan", "center_inf",
        "center_minus_inf"])
def test_line_profile_refuses_non_finite(values):
    # a NaN width once gave a NaN overlap
    for shape in LineShape:
        with pytest.raises(ValueError):
            LineProfile(shape, **values)


@pytest.mark.parametrize("args", [
    (np.nan, 1.0), (np.inf, 1.0), (1e-6, np.nan), (1e-6, np.inf),
], ids=["sigma_nan", "sigma_inf", "tau_nan", "tau_inf"])
def test_sensitivity_refuses_non_finite(args):
    with pytest.raises(ValueError, match="finite"):
        sensitivity(*args)


def test_sensitivity_values():
    assert sensitivity(1.5e-6, 3e-3) == pytest.approx(82e-9, abs=1e-9)
    assert sensitivity(3.0e-6, 3e-3) == \
        pytest.approx(2.0 * sensitivity(1.5e-6, 3e-3), rel=1e-12)
    assert sensitivity(2.2e-6, 1.0) == pytest.approx(2.2e-6, rel=1e-12)
    with pytest.raises(ValueError):
        sensitivity(0.0, 1.0)
    with pytest.raises(ValueError):
        sensitivity(1.0e-6, -1.0)


def test_decay_curve_validation():
    tau = np.linspace(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        DecayCurve(tau[:5], np.ones(5))
    with pytest.raises(ValueError):
        DecayCurve(tau[::-1], np.ones(8))
    with pytest.raises(ValueError):
        DecayCurve(tau, np.full(8, np.nan))
    with pytest.raises(ValueError):
        DecayCurve(tau, np.ones(8), sigma=np.zeros(8))
    curve = DecayCurve(tau, np.ones(8), sigma=np.full(8, 0.5))
    assert curve.weights == pytest.approx(np.full(8, 4.0), abs=1e-15)
