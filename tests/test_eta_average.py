"""Solid-angle averages and scenario rate multipliers."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from nvcr import (
    BasisChoice,
    ConvergenceError,
    EtaScenario,
    FieldOrientationScenario,
    QuadratureSpec,
    XMode,
    ZAngle,
    angular_average,
    eta_bar,
    pair_average,
    scenario_frames,
    scenario_multiplier,
)
from nvcr import eta_average
from nvcr.eta_average import (_BLOCK, ETA_PREFACTOR, _gl_nodes,
                              _magnetic_pair_average,
                              _nonmagnetic_pair_average, _pair_kernel_batch,
                              _relative_triad, _sphere_node_blocks, eta_table,
                              multiplier_table)

from reference import rotate, rotation_matrix

# properties that hold at any resolution run on a cheap grid with the
# convergence ladder effectively off
LIGHT = QuadratureSpec(n_theta=16, n_phi=16, n_psi=16,
                       tolerance=1.0, max_doublings=0)
MEDIUM = QuadratureSpec(n_theta=64, n_phi=64, n_psi=32,
                        tolerance=5e-4, max_doublings=2)


def test_prefactor():
    assert ETA_PREFACTOR == pytest.approx(0.25 * np.sqrt(1.0 / 3.0), abs=1e-15)


def test_scenario_frames_geometry():
    cosines = {ZAngle.SAME: 1.0, ZAngle.CLOSE: 1.0 / 3.0,
               ZAngle.FAR: -1.0 / 3.0}
    for z, c in cosines.items():
        f1, f2 = scenario_frames(z)
        assert f1.z_hat @ f2.z_hat == pytest.approx(c, abs=1e-12)


def test_same_class_closed_form():
    value = angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.SAME),
                            LIGHT)
    assert value == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-12)


def test_eta_bar_same_is_one_eighteenth():
    value = eta_bar(EtaScenario(BasisChoice.MAGNETIC, ZAngle.SAME), LIGHT)
    assert value == pytest.approx(1.0 / 18.0, abs=1e-12)


def test_nonmagnetic_close_equals_far():
    close = angular_average(
        EtaScenario(BasisChoice.NONMAGNETIC, ZAngle.CLOSE, XMode.RANDOM),
        MEDIUM)
    far = angular_average(
        EtaScenario(BasisChoice.NONMAGNETIC, ZAngle.FAR, XMode.RANDOM),
        MEDIUM)
    assert close == pytest.approx(far, abs=MEDIUM.tolerance)


def test_aligned_mode_interpretations():
    # the aligned average couples the in-plane axes to a shared field
    # direction averaged over the sphere
    f1, f2 = scenario_frames(ZAngle.CLOSE)
    shared = pair_average(f1, f2, BasisChoice.NONMAGNETIC, XMode.ALIGNED,
                          MEDIUM)
    assert shared == pytest.approx(0.6951, abs=2e-3)


def test_magnetic_mode_free():
    # flip-flop magnitudes carry no in-plane axis dependence
    for mode in (XMode.RANDOM, XMode.ALIGNED):
        value = angular_average(
            EtaScenario(BasisChoice.MAGNETIC, ZAngle.CLOSE, mode), LIGHT)
        assert value == pytest.approx(
            angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.CLOSE),
                            LIGHT), abs=1e-12)


def test_frame_invariance_nonmagnetic():
    rng = np.random.default_rng(5)
    f1, f2 = scenario_frames(ZAngle.FAR)
    base = pair_average(f1, f2, BasisChoice.NONMAGNETIC, XMode.RANDOM, LIGHT)
    for _ in range(3):
        rot = rotation_matrix(rng.normal(size=3),
                              float(rng.uniform(0.0, 2.0 * np.pi)))
        rotated = pair_average(rotate(f1, rot), rotate(f2, rot),
                               BasisChoice.NONMAGNETIC, XMode.RANDOM, LIGHT)
        assert abs(rotated - base) < 1e-8


def test_convergence_error_diagnostics():
    impossible = QuadratureSpec(n_theta=8, n_phi=8, n_psi=8,
                                tolerance=1e-14, max_doublings=0)
    with pytest.raises(ConvergenceError) as err:
        angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.CLOSE),
                        impossible)
    assert "tolerance" in str(err.value)
    # at the resolution floor the ladder's last rung is the doubled one,
    # and the change reported is that rung's, not zero
    assert "at 2x resolution" in str(err.value)
    change = float(str(err.value).split("last change ")[1].split()[0])
    assert change >= impossible.tolerance


@pytest.mark.parametrize("scenario, spec", [
    (EtaScenario(BasisChoice.NONMAGNETIC, ZAngle.CLOSE, XMode.RANDOM),
     QuadratureSpec(n_theta=64, n_phi=64, n_psi=8, tolerance=1e-12,
                    max_doublings=0)),
    (EtaScenario(BasisChoice.MAGNETIC, ZAngle.CLOSE),
     QuadratureSpec(n_theta=8, n_phi=8, n_psi=64, tolerance=1e-12,
                    max_doublings=0)),
])
def test_ladder_never_compares_a_rung_with_itself(scenario, spec):
    # the sizes this average samples sit at the floor, so the half rung
    # equals the nominal one and the ladder must step up to compare
    with pytest.raises(ConvergenceError):
        angular_average(scenario, spec)


def test_random_direction_multiplier_is_unity():
    assert scenario_multiplier(FieldOrientationScenario.RANDOM_DIRECTION,
                               LIGHT) == pytest.approx(1.0, abs=1e-12)


def test_axis_100_composition():
    same = angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.SAME),
                           MEDIUM)
    close = angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.CLOSE),
                            MEDIUM)
    far = angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.FAR),
                          MEDIUM)
    expected = ((same + 2.0 * close + far) / same) ** 2
    assert scenario_multiplier(FieldOrientationScenario.AXIS_100, MEDIUM) == \
        pytest.approx(expected, abs=1e-12)


def test_zero_field_composition():
    same = angular_average(
        EtaScenario(BasisChoice.NONMAGNETIC, ZAngle.SAME, XMode.RANDOM),
        MEDIUM)
    diff = angular_average(
        EtaScenario(BasisChoice.NONMAGNETIC, ZAngle.CLOSE, XMode.RANDOM),
        MEDIUM)
    base = angular_average(EtaScenario(BasisChoice.MAGNETIC, ZAngle.SAME),
                           MEDIUM)
    expected = ((same + 3.0 * diff) / base) ** 2
    assert scenario_multiplier(FieldOrientationScenario.ZERO_FIELD_ELECTRIC,
                               MEDIUM) == pytest.approx(expected, abs=1e-12)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta=4, n_phi=16, n_psi=16, tolerance=1e-3)
    with pytest.raises(ValueError):
        QuadratureSpec(n_theta=16, n_phi=16, n_psi=16, tolerance=0.0)
    for tolerance in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(tolerance=tolerance)
    with pytest.raises(ValueError, match="max_doublings"):
        QuadratureSpec(max_doublings=-1)


@pytest.mark.parametrize("field, value", [
    ("n_theta", 8.5), ("n_psi", float("nan")), ("max_doublings", 1.5),
    ("n_phi", True)])
def test_quadrature_spec_refuses_non_integer_sizes(field, value):
    # 8.5 was rounded by the ladder, NaN failed late, 1.5 inside range()
    with pytest.raises(TypeError, match=field):
        QuadratureSpec(**{field: value})
    QuadratureSpec(n_theta=8, n_phi=8, n_psi=8, tolerance=1.0,
                   max_doublings=0)
    QuadratureSpec(**{field: np.int64(8)})


def test_quadrature_scaling():
    scaled = MEDIUM.scaled(2.0)
    assert (scaled.n_theta, scaled.n_phi, scaled.n_psi) == (128, 128, 64)
    assert scaled.tolerance == MEDIUM.tolerance


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
    with pytest.raises(ConvergenceError, match="Newton"):
        _gl_nodes.__wrapped__(40)


def _one_block(n_theta, n_phi, triad):
    """The whole product grid of _sphere_node_blocks as a single block."""
    e1, e2, e3 = triad
    t, w = _gl_nodes(n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    ct = np.repeat(t, n_phi)
    st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
    u = np.outer(st * np.tile(np.cos(phi), n_theta), e1) \
        + np.outer(st * np.tile(np.sin(phi), n_theta), e2) + np.outer(ct, e3)
    yield u, np.repeat(w, n_phi) / (2.0 * n_phi)


def _blocked_and_whole(monkeypatch, average, n_theta, n_phi, triad):
    """``average()`` on the row blocks and on one block; the blocks must
    split the grid (more than one of them) and rebuild it exactly."""
    blocks = list(_sphere_node_blocks(n_theta, n_phi, triad))
    assert len(blocks) > 1
    assert all(len(w) <= max(_BLOCK, n_phi) for _, w in blocks)
    (u, w), = _one_block(n_theta, n_phi, triad)
    np.testing.assert_array_equal(np.concatenate([b[0] for b in blocks]), u)
    np.testing.assert_array_equal(np.concatenate([b[1] for b in blocks]), w)
    blocked = average()
    monkeypatch.setattr(eta_average, "_sphere_node_blocks", _one_block)
    return blocked, average()


# odd sizes; a partial last block; n_phi above the block size (one row a block)
@pytest.mark.parametrize("n_theta, n_phi", [(75, 37), (33, 63), (9, 2051)])
def test_blocked_magnetic_average_equals_one_block(monkeypatch, n_theta,
                                                   n_phi):
    f1, f2 = scenario_frames(ZAngle.FAR)
    blocked, whole = _blocked_and_whole(
        monkeypatch, lambda: _magnetic_pair_average(
            f1.z_hat, f2.z_hat, n_theta, n_phi),
        n_theta, n_phi, _relative_triad(f1.z_hat, f2.z_hat))
    assert abs(blocked - whole) <= 1e-14


@pytest.mark.parametrize("n_psi", [63, 75])
def test_blocked_aligned_average_equals_one_block(monkeypatch, n_psi):
    f1, f2 = scenario_frames(ZAngle.CLOSE)
    blocked, whole = _blocked_and_whole(
        monkeypatch, lambda: _nonmagnetic_pair_average(
            f1.z_hat, f2.z_hat, XMode.ALIGNED, n_psi),
        n_psi, n_psi, _relative_triad(f1.z_hat, f2.z_hat))
    assert abs(blocked - whole) <= 1e-14


def _traced_peak(fn, *args):
    """Peak traced heap (bytes) of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_magnetic_average_memory_stays_one_block():
    # 64x more sphere nodes may not grow the heap peak: the grid is held
    # one block of whole rows at a time
    f1, f2 = scenario_frames(ZAngle.CLOSE)

    def run(n):
        return _magnetic_pair_average(f1.z_hat, f2.z_hat, n, n)

    for n in (64, 512):                   # warm up the cached nodes
        run(n)
    assert _traced_peak(run, 512) - _traced_peak(run, 64) <= 64 * 1024


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


def test_default_quadrature_error_of_nonmagnetic_entries():
    # the default n_psi = 64 lies well inside the 5e-4 ladder tolerance
    table = eta_table()
    fine = QuadratureSpec(n_psi=512, tolerance=1.0, max_doublings=0)
    for mode in (XMode.RANDOM, XMode.ALIGNED):
        for z in ZAngle:
            f1, f2 = scenario_frames(z)
            ref = pair_average(f1, f2, BasisChoice.NONMAGNETIC, mode, fine)
            key = (f"nonmagnetic_{mode.value}", z.value)
            assert abs(table[key] - ref) < 2e-5, key


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
