"""Decay-curve fitting, spectral overlaps, sensitivity."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from nvcr import (
    DecayCurve,
    DecayModel,
    LineProfile,
    LineShape,
    decay_signal,
    fit_beta,
    fit_decay,
    sensitivity,
    spectral_overlap,
)
from nvcr.analysis import _nelder_mead, _run_simplex, _t1_starts

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
    r1 = fit_decay(curve, fixed_t1_ph_s=T1PH, seed=3)
    r2 = fit_decay(curve, fixed_t1_ph_s=T1PH, seed=3)
    assert r1.model == r2.model
    assert r1.residual_rss == r2.residual_rss
    assert r1.iterations == r2.iterations


def test_optimum_beats_every_start():
    curve = _synthetic(0.9e-3)
    res = fit_decay(curve, fixed_t1_ph_s=T1PH)
    for t1_start in _t1_starts(curve):
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


def test_weighted_noisy_fit_every_start_converges(monkeypatch):
    # with a sigma column the residual sum is chi^2 ~ N, whose rounding
    # lies far above any absolute stopping tolerance of order 1e-16
    runs = []

    def spy(*args):
        runs.append(_run_simplex(*args))
        return runs[-1]

    monkeypatch.setattr("nvcr.analysis._run_simplex", spy)
    rng = np.random.default_rng(11)
    for t1_dd in (0.4e-3, 0.6e-3, 1.1e-3):
        runs.clear()
        res = fit_decay(_bench_like_curve(t1_dd, 0.01, rng),
                        fixed_t1_ph_s=T1PH, seed=0)
        assert res.converged
        assert len(runs) == 5
        assert all(r.success for r in runs), [r.nfev for r in runs]
        assert res.model.t1_dd_s == pytest.approx(t1_dd, rel=0.12)


def _simplex_objective(kind, center):
    def quadratic(x):
        return float(np.sum((np.arange(1, x.size + 1) * (x - center)) ** 2))

    def rosenbrock(x):
        z = np.concatenate([x - center, [1.0]])
        return float(np.sum(100.0 * (z[1:] - z[:-1] ** 2) ** 2
                            + (1.0 - z[:-1]) ** 2))

    def steps(x):
        # plateaus: equal values on several vertices exercise the sort
        return float(np.floor(4.0 * quadratic(x)) / 4.0)

    return {"quadratic": quadratic, "rosenbrock": rosenbrock,
            "steps": steps}[kind]


_COORD = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False))


@st.composite
def _simplex_problems(draw):
    n = draw(st.integers(1, 4))
    return (draw(st.sampled_from(["quadratic", "rosenbrock", "steps"])),
            np.array(draw(st.lists(_COORD, min_size=n, max_size=n))),
            np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                   max_size=n))),
            draw(st.sampled_from([1e-4, 1e-10])),
            draw(st.sampled_from([1e-8, 1e-14])),
            draw(st.sampled_from([3, 50, 4000])),
            draw(st.one_of(st.integers(1, 40), st.just(8000))))


@settings(max_examples=150)
@given(_simplex_problems())
@example(("rosenbrock", np.zeros(2), np.zeros(2), 1e-10, 1e-14, 4000, 5))
@example(("quadratic", np.array([0.0, 1.0, 0.0]), np.ones(3), 1e-4, 1e-8,
          4000, 37))
@example(("steps", np.zeros(4), np.full(4, 0.5), 1e-10, 1e-14, 4000, 8000))
def test_nelder_mead_matches_scipy_bitwise(problem):
    kind, x0, center, xatol, fatol, maxiter, maxfev = problem
    func = _simplex_objective(kind, center)
    ref = optimize.minimize(func, x0, method="Nelder-Mead",
                            options={"xatol": xatol, "fatol": fatol,
                                     "maxiter": maxiter, "maxfev": maxfev})
    got = _nelder_mead(func, x0, xatol=xatol, fatol=fatol, maxiter=maxiter,
                       maxfev=maxfev)
    assert got.x.tobytes() == ref.x.tobytes(), (got.x, ref.x)
    assert np.float64(got.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (got.nit, got.nfev, got.success) == \
        (ref.nit, ref.nfev, ref.success)


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
