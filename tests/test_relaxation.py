"""Fluctuator-bath rate, rate distribution, and decay laws."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nvcr import (
    BasisChoice,
    DecayModel,
    FluctuatorParams,
    ZAngle,
    characteristic_rate,
    decay_signal,
    eta_bar,
    multiplier_table,
    polarization,
    rate_density,
)

from reference import polarization_from_density

BASE = FluctuatorParams(n_f_per_nm3=1e-6, gamma_f_per_s=2e7, eta_bar=0.1)


def test_rate_closed_form():
    expected = ((4.0 * np.pi / 3.0) * BASE.n_f_per_nm3
                * BASE.j0_mhz_nm3 * 1e6 * BASE.eta_bar) ** 2 \
        * np.pi / BASE.gamma_f_per_s
    assert characteristic_rate(BASE) == pytest.approx(expected, rel=1e-12)


def test_rate_quadratic_in_eta():
    doubled = FluctuatorParams(BASE.n_f_per_nm3, BASE.gamma_f_per_s,
                               2.0 * BASE.eta_bar)
    assert characteristic_rate(doubled) == \
        pytest.approx(4.0 * characteristic_rate(BASE), rel=1e-12)


def test_rate_density_scaling():
    sparse = FluctuatorParams(1e-3 * BASE.n_f_per_nm3, BASE.gamma_f_per_s,
                              BASE.eta_bar)
    assert characteristic_rate(sparse) == \
        pytest.approx(1e-6 * characteristic_rate(BASE), rel=1e-12)


def test_rate_scenario_ratio():
    # composing the rate with the orientation multiplier: the quadruple
    # resonance speeds relaxation up by the full eta-bar-squared factor
    eta_random = eta_bar(BasisChoice.MAGNETIC, ZAngle.SAME)
    multiplier = multiplier_table()["AXIS_100"]
    eta_quad = eta_random * np.sqrt(multiplier)
    ratio = characteristic_rate(
        FluctuatorParams(BASE.n_f_per_nm3, BASE.gamma_f_per_s, eta_quad)) / \
        characteristic_rate(
            FluctuatorParams(BASE.n_f_per_nm3, BASE.gamma_f_per_s, eta_random))
    assert ratio == pytest.approx(multiplier, rel=1e-10)
    assert ratio == pytest.approx(42.8, abs=0.3)


def test_params_validation():
    with pytest.raises(ValueError):
        characteristic_rate(FluctuatorParams(0.0, 1e7, 0.1))
    with pytest.raises(ValueError):
        characteristic_rate(FluctuatorParams(1e-6, -1.0, 0.1))


@pytest.mark.parametrize("name", ["n_f_per_nm3", "gamma_f_per_s", "eta_bar",
                                  "j0_mhz_nm3"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_params_checked_on_construction(name, bad):
    # a NaN once gave a NaN rate and an infinite gamma_f a rate of 0.0
    values = {"n_f_per_nm3": 1e-6, "gamma_f_per_s": 2e7, "eta_bar": 0.1,
              name: bad}
    with pytest.raises(ValueError, match=name):
        FluctuatorParams(**values)


@pytest.mark.parametrize("values", [(1e300, 1e-300, 1e300),
                                    (1e100, 1.0, 1e100)],
                         ids=["to_inf", "overflow_error"])
def test_rate_overflow_is_refused(values):
    # the first once returned inf, the second raised a bare OverflowError
    with pytest.raises(ValueError, match="rate overflows"):
        characteristic_rate(FluctuatorParams(*values))


def test_density_normalization():
    assert polarization_from_density(0.0, 3.1e-3) == \
        pytest.approx(1.0, abs=1e-6)


def test_density_rejects_bad_args():
    with pytest.raises(ValueError):
        rate_density(0.0, 1.0)
    with pytest.raises(ValueError):
        rate_density(np.array([1.0, -2.0]), 1.0)
    with pytest.raises(ValueError):
        rate_density(1.0, 0.0)


@pytest.mark.parametrize("call, name", [
    (lambda bad: decay_signal(bad, DecayModel(t1_dd_s=1e-3)), "t_s"),
    (lambda bad: decay_signal([0.0, bad], DecayModel(t1_dd_s=1e-3)), "t_s"),
    (lambda bad: polarization_from_density(bad, 1e-3), "t_s"),
    (lambda bad: polarization_from_density(1e-3, bad), "big_t_s"),
    (lambda bad: rate_density(bad, 1e-3), "gamma_per_s"),
    (lambda bad: rate_density([1e3, bad], 1e-3), "gamma_per_s"),
    (lambda bad: rate_density(1e3, bad), "t_s"),
], ids=["decay_t", "decay_t_stack", "density_t", "density_big_t",
        "rate_gamma", "rate_gamma_stack", "rate_t"])
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_arguments_are_refused(call, name, bad):
    # an infinite time once gave NaN with a RuntimeWarning, a NaN one
    # NaN silently
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(bad)


def test_laplace_identity_examples():
    big_t = 1.7e-3
    for t in (big_t / 4.0, big_t, 4.0 * big_t):
        assert polarization_from_density(t, big_t) == \
            pytest.approx(polarization(t, big_t), abs=1e-6)


def test_laplace_identity_to_quadrature_accuracy():
    for big_t in (1.0, 1.7e-3):
        for ratio in np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 61)]):
            assert abs(polarization_from_density(ratio * big_t, big_t)
                       - np.exp(-np.sqrt(ratio))) <= 5e-13, ratio


def test_density_mode():
    big_t = 2.0e-3
    mode = 1.0 / (6.0 * big_t)
    assert rate_density(mode, big_t) > rate_density(0.8 * mode, big_t)
    assert rate_density(mode, big_t) > rate_density(1.25 * mode, big_t)
    assert np.isfinite(rate_density(mode, big_t))


def test_polarization_reference_points():
    big_t = 4.2e-3
    assert polarization(0.0, big_t) == pytest.approx(1.0, abs=1e-15)
    assert polarization(big_t, big_t) == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert polarization(4.0 * big_t, big_t) == \
        pytest.approx(np.exp(-2.0), abs=1e-12)
    grid = np.linspace(0.0, 5.0 * big_t, 64)
    assert np.all(np.diff(polarization(grid, big_t)) < 0.0)


def test_polarization_is_the_two_channel_law():
    tau = np.concatenate([[0.0], np.geomspace(1e-7, 5e-2, 200)])
    for big_t in (1e-4, 4.2e-3, 0.3):
        assert np.array_equal(polarization(tau, big_t),
                              decay_signal(tau, DecayModel(big_t)))
        assert polarization(2e-3, big_t) == \
            decay_signal(2e-3, DecayModel(big_t))


def test_decay_signal_limits():
    tau = np.linspace(0.0, 5e-3, 32)
    no_phonon = DecayModel(t1_dd_s=0.6e-3)   # t1_ph defaults to infinity
    assert decay_signal(tau, no_phonon) == \
        pytest.approx(polarization(tau, 0.6e-3), abs=1e-15)

    exponential = DecayModel(t1_dd_s=1.0e-3, beta=1.0)
    assert decay_signal(tau, exponential) == \
        pytest.approx(np.exp(-tau / 1.0e-3), abs=1e-15)


def test_decay_signal_reference_value():
    model = DecayModel(t1_dd_s=0.6e-3, t1_ph_s=3.6e-3)
    assert decay_signal(0.6e-3, model) == \
        pytest.approx(np.exp(-1.0 - 1.0 / 6.0), abs=1e-15)


@pytest.mark.parametrize("model", [DecayModel(t1_dd_s=5e-324),
                                   DecayModel(t1_dd_s=1e-3, t1_ph_s=5e-324)])
def test_overflowed_exponent_is_fully_decayed(model):
    # t / 5e-324 overflows: the limit 0, and no warning (an error here)
    tau = np.array([0.0, 1e-5, 1.0])
    np.testing.assert_array_equal(decay_signal(tau, model), [1.0, 0.0, 0.0])
    assert decay_signal(1.0, model) == 0.0


@pytest.mark.parametrize("t1_dd", [0.6e-3, 2e-3, 0.3])
def test_one_law_keeps_the_bits_of_both_forms(t1_dd):
    # the two forms the decay law replaced, written out: numpy computes
    # an array's ``** 0.5`` as a square root, and y - t/inf is y
    tau = np.concatenate([[0.0], np.geomspace(1e-8, 5e-2, 400)])
    a, t1_ph = 1.7, 3.62e-3
    for beta in (0.3, 0.5, 0.8, 1.0, 1.5):
        model = DecayModel(t1_dd, amplitude=a, beta=beta)
        stretched = a * np.exp(-((tau / t1_dd) ** beta))
        assert np.array_equal(decay_signal(tau, model), stretched)
        assert all(decay_signal(t, model) == s
                   for t, s in zip(tau, stretched))
    model = DecayModel(t1_dd, t1_ph, amplitude=a)
    two_channel = a * np.exp(-np.sqrt(tau / t1_dd) - tau / t1_ph)
    assert np.array_equal(decay_signal(tau, model), two_channel)
    assert all(decay_signal(t, model) == s for t, s in zip(tau, two_channel))


@given(t1_dd=st.floats(1e-4, 1e-2), t1_ph=st.floats(1e-4, 1e-2),
       a=st.floats(0.1, 10.0))
def test_log_signal_identity(t1_dd, t1_ph, a):
    tau = np.geomspace(1e-5, 2e-2, 16)
    model = DecayModel(t1_dd_s=t1_dd, t1_ph_s=t1_ph, amplitude=a)
    log_s = np.log(decay_signal(tau, model))
    expected = np.log(a) - np.sqrt(tau / t1_dd) - tau / t1_ph
    assert log_s == pytest.approx(expected, abs=1e-12)


def test_decay_signal_monotone():
    tau = np.linspace(0.0, 2e-2, 128)
    model = DecayModel(t1_dd_s=0.6e-3, t1_ph_s=3.62e-3)
    sig = decay_signal(tau, model)
    assert sig[0] == pytest.approx(model.amplitude, abs=1e-15)
    assert np.all(np.diff(sig) < 0.0)


def test_decay_model_validation():
    with pytest.raises(ValueError):
        DecayModel(t1_dd_s=-1.0)
    with pytest.raises(ValueError):
        DecayModel(t1_dd_s=1.0, amplitude=0.0)
    with pytest.raises(ValueError):
        DecayModel(t1_dd_s=1.0, beta=1.6)


@pytest.mark.parametrize("values", [
    {"t1_dd_s": np.nan},
    {"t1_ph_s": np.nan},
    {"amplitude": np.nan},
    {"beta": np.nan},
    {"amplitude": np.inf},
], ids=["t1_dd_nan", "t1_ph_nan", "amplitude_nan", "beta_nan",
        "amplitude_inf"])
def test_decay_model_refuses_non_finite(values):
    # a NaN field or an infinite amplitude gives a NaN or infinite signal
    with pytest.raises(ValueError):
        DecayModel(**{"t1_dd_s": 1e-3, **values})


def test_decay_model_takes_infinite_timescales():
    # an infinite timescale switches its channel off
    tau = np.linspace(0.0, 1e-2, 16)
    no_phonon = DecayModel(t1_dd_s=1e-3, t1_ph_s=np.inf)
    assert np.array_equal(decay_signal(tau, no_phonon),
                          polarization(tau, 1e-3))
    phonon_only = DecayModel(t1_dd_s=np.inf, t1_ph_s=2e-3)
    assert decay_signal(tau, phonon_only) == \
        pytest.approx(np.exp(-tau / 2e-3), rel=1e-15)
