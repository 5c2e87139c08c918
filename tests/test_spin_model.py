"""Single-center Hamiltonian: construction, eigenstructure, scans."""

import tracemalloc
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nvcr import (
    CLASS_AXES,
    FieldConfiguration,
    NVClassFrame,
    build_hamiltonian,
    class_frame,
    diagonalize,
    eigenstate_map,
    rotation_matrix,
    transverse_field_scan,
    zero_field_states,
)
from nvcr.constants import DEFAULT_CONSTANTS, PhysicalConstants

C = DEFAULT_CONSTANTS
D = C.d_ghz

field_components = st.floats(-200.0, 200.0, allow_nan=False)
fields = st.builds(
    FieldConfiguration,
    b_gauss=st.tuples(field_components, field_components, field_components),
    e_perp_mhz=st.floats(0.0, 10.0),
    phi_e_rad=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
)


def _eigensystem(b_gauss, e_perp_mhz=0.0, phi_e_rad=0.0, class_id=0):
    frame = class_frame(class_id, np.asarray(b_gauss, dtype=float))
    f = FieldConfiguration(b_gauss=b_gauss, e_perp_mhz=e_perp_mhz,
                           phi_e_rad=phi_e_rad)
    return diagonalize(build_hamiltonian(frame, f, C))


# the phi_E = 0 zero-field references |0>, |->, |+>
REF_0, REF_MINUS, REF_PLUS = zero_field_states(0.0)


def _weight(states, ref):
    """|<ref|state>|^2 of each state vector (last axis)."""
    return np.abs((states * ref.conj()).sum(-1)) ** 2


def test_zero_field_eigenvalues():
    es = _eigensystem(np.zeros(3))
    assert es.energies_ghz == pytest.approx([0.0, D, D], abs=1e-12)


def test_electric_splitting():
    es = _eigensystem(np.zeros(3), e_perp_mhz=4.0)
    assert es.energies_ghz == pytest.approx([0.0, D - 0.004, D + 0.004],
                                            abs=1e-12)
    splitting_mhz = (es.energies_ghz[2] - es.energies_ghz[1]) * 1e3
    assert splitting_mhz == pytest.approx(8.0, abs=1e-9)


def test_axial_field_transitions():
    frame = class_frame(0)
    es = _eigensystem(50.0 * frame.z_hat)
    transitions = es.energies_ghz[1:] - es.energies_ghz[0]
    assert transitions == pytest.approx([2.730, 3.010], abs=1e-9)


def test_pure_zfs_ground_state():
    es = _eigensystem(np.zeros(3))
    assert _weight(es.g, REF_0) == pytest.approx(1.0, abs=1e-12)
    # degenerate upper level is tie-broken to the zero-field reference pair
    assert _weight(es.d, REF_MINUS) == pytest.approx(1.0, abs=1e-12)
    assert _weight(es.e, REF_PLUS) == pytest.approx(1.0, abs=1e-12)


def test_dark_state_vector():
    es = _eigensystem(np.zeros(3), e_perp_mhz=4.0, phi_e_rad=0.0)
    # basis order (|-1>, |0>, |+1>)
    reference = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert abs(es.d.conj() @ reference) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(f=fields)
def test_hamiltonian_trace_and_hermiticity(f):
    frame = class_frame(1, f.b_gauss)
    h = build_hamiltonian(frame, f, C)
    assert np.linalg.norm(h - h.conj().T) < 1e-12
    assert np.trace(h).real == pytest.approx(2.0 * D, abs=1e-10)


@given(f=fields)
def test_eigen_residuals(f):
    frame = class_frame(0, f.b_gauss)
    h = build_hamiltonian(frame, f, C)
    es = diagonalize(h)
    scale = max(np.linalg.norm(h), 1.0)
    for k in range(3):
        v = es.states[:, k]
        assert np.linalg.norm(h @ v - es.energies_ghz[k] * v) < 1e-10 * scale
    assert np.linalg.norm(es.states.conj().T @ es.states - np.eye(3)) < 1e-10
    for ref in (REF_0, REF_MINUS, REF_PLUS):
        assert np.all(_weight(es.states.T, ref) <= 1.0 + 1e-12)



@settings(max_examples=40)
@given(class_id=st.integers(0, 3),
       phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
       tilt=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
       amps=st.lists(st.floats(1e-3, 0.1), min_size=1, max_size=32),
       e_perp=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)))
@example(class_id=0, phi=-np.pi / 6, tilt=0.0, amps=[0.0122382], e_perp=0.0)
def test_near_degenerate_transverse_fields_solve(class_id, phi, tilt, amps,
                                                 e_perp):
    # a weak field almost orthogonal to the axis splits |+-1> by
    # ~(gamma_e B)^2 / D, around 1e-10 GHz: tie-breaking such a pair
    # must not push its eigen-residual over diagonalize's bound
    frame = class_frame(class_id)
    u = (np.cos(tilt) * (np.cos(phi) * frame.x_hat + np.sin(phi) * frame.y_hat)
         + np.sin(tilt) * frame.z_hat)
    f = FieldConfiguration(b_gauss=np.multiply.outer(amps, u),
                           e_perp_mhz=e_perp)
    h = build_hamiltonian(frame, f, C)
    es = diagonalize(h)
    assert np.all(np.diff(es.energies_ghz, axis=-1) >= 0.0)
    v = es.states
    eye = np.conj(np.swapaxes(v, -1, -2)) @ v
    assert np.abs(eye - np.eye(3)).max() < 1e-10

def test_rotational_consistency():
    b = np.array([23.0, -4.0, 11.0])
    for i, j in ((0, 1), (2, 3), (1, 2)):
        zi, zj = CLASS_AXES[i], CLASS_AXES[j]
        rot = rotation_matrix(np.cross(zi, zj),
                              float(np.arccos(np.clip(zi @ zj, -1.0, 1.0))))
        ei = _eigensystem(b, e_perp_mhz=3.0, phi_e_rad=0.7, class_id=i)
        ej = _eigensystem(rot @ b, e_perp_mhz=3.0, phi_e_rad=0.7, class_id=j)
        assert ei.energies_ghz == pytest.approx(ej.energies_ghz, abs=1e-10)


@given(phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
def test_phi_e_symmetry(phi):
    base = _eigensystem(np.zeros(3), e_perp_mhz=4.0, phi_e_rad=0.0)
    es = _eigensystem(np.zeros(3), e_perp_mhz=4.0, phi_e_rad=phi)
    assert es.energies_ghz == pytest.approx(base.energies_ghz, abs=1e-12)
    _, _, plus = zero_field_states(phi)
    assert abs(es.e.conj() @ plus) ** 2 == pytest.approx(1.0, abs=1e-10)


def _assert_stack_matches_rows(frame, b, **fields):
    """One solve of the field stack ``b`` (..., 3) equals a solve per row."""
    f = FieldConfiguration(b_gauss=b, **fields)
    es = diagonalize(build_hamiltonian(frame, f, C))
    assert es.energies_ghz.shape == b.shape
    assert es.e.shape == b.shape
    for idx in np.ndindex(b.shape[:-1]):
        row = FieldConfiguration(b_gauss=b[idx], **fields)
        one = diagonalize(build_hamiltonian(frame, row, C))
        assert np.array_equal(es.energies_ghz[idx], one.energies_ghz)
        assert np.array_equal(es.states[idx], one.states)
    return es


def test_stack_mixes_degenerate_and_generic_rows():
    frame = class_frame(0)
    rng = np.random.default_rng(7)
    degenerate = np.vstack([np.zeros(3),          # |+-1> at e_perp = 0
                            1e-3 * frame.x_hat])  # gap ~ (gamma B)^2 / D
    # more generic rows than a _solve_fields block, solved in one call
    b = np.vstack([degenerate, 40.0 * frame.y_hat,
                   rng.uniform(-150.0, 150.0, size=(1100, 3)), degenerate])
    es = _assert_stack_matches_rows(frame, b, e_perp_mhz=0.0)
    gaps = np.diff(es.energies_ghz, axis=-1).min(axis=-1)
    assert np.all(gaps[[0, 1, -2, -1]] < 1e-9) and np.all(gaps[2:-2] > 1e-6)
    # the degenerate rows are tie-broken onto the zero-field references
    for row in (0, -2):
        assert _weight(es.d[row], REF_MINUS) == pytest.approx(1.0, abs=1e-12)
        assert _weight(es.e[row], REF_PLUS) == pytest.approx(1.0, abs=1e-12)
    # a field along x leaves |-> an exact eigenstate at D
    assert _weight(es.d[1], REF_MINUS) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(b=arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 4),
                                 st.just(3)),
                elements=st.one_of(st.just(0.0), field_components)),
       e_perp=st.sampled_from([0.0, 4.0]),
       phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
       class_id=st.integers(0, 3))
def test_stacked_solve_equals_row_by_row(b, e_perp, phi, class_id):
    _assert_stack_matches_rows(class_frame(class_id), b, e_perp_mhz=e_perp,
                               phi_e_rad=phi)


def test_field_stack_validation():
    assert FieldConfiguration(b_gauss=np.ones((2, 5, 3))).b_gauss.shape == \
        (2, 5, 3)
    for bad in (np.ones((4, 2)), np.ones(()), [[1.0, 2.0, np.inf]]):
        with pytest.raises(ValueError):
            FieldConfiguration(b_gauss=bad)



@pytest.mark.parametrize("name", ["e_perp_mhz", "phi_e_rad"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_field_configuration_refuses_non_finite_electric_fields(name, bad):
    # these once reached LAPACK and failed there: "Eigenvalues did not
    # converge"
    with pytest.raises(ValueError, match=name):
        FieldConfiguration(**{name: bad})
    if name == "e_perp_mhz":
        with pytest.raises(ValueError, match=name):
            transverse_field_scan(class_frame(0), [1.0, 2.0], bad)
        with pytest.raises(ValueError, match=name):
            eigenstate_map(class_frame(0), [1.0], [0.0, 1.0], bad)


@pytest.mark.parametrize("name", [f.name for f in
                                  dataclass_fields(PhysicalConstants)])
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_constants_checked_on_construction(name, bad):
    with pytest.raises(ValueError, match=name):
        PhysicalConstants(**{name: bad})

def test_diagonalize_rejects_non_hermitian():
    h = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                 dtype=complex)
    with pytest.raises(ValueError):
        diagonalize(h)


@pytest.mark.parametrize("scale", [1e100, 1e200])
def test_diagonalize_rejects_non_hermitian_at_large_scale(scale):
    # at 1e200 the Frobenius norm overflows; the checks must not
    h = np.zeros((3, 3), dtype=complex)
    h[0, 1] = scale
    with pytest.raises(ValueError):
        diagonalize(h)


def test_diagonalize_solves_hermitian_stacks_at_large_scale():
    h = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.3]],
                 dtype=complex)
    es = diagonalize(np.stack([h, 1e200 * h]))
    assert es.energies_ghz[0] == pytest.approx([-1.0, 0.3, 1.0], abs=1e-15)
    assert es.energies_ghz[1] == pytest.approx([-1e200, 3e199, 1e200],
                                               rel=1e-15)


def test_frame_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        NVClassFrame(0, np.array([1.0, 0.1, 0.0]), np.array([0.0, 1.0, 0.0]),
                     np.array([0.0, 0.0, 1.0]))


def test_frame_axes_are_read_only_copies():
    x = np.array([1.0, 0.0, 0.0])
    frame = NVClassFrame(0, x, np.array([0.0, 1.0, 0.0]),
                         np.array([0.0, 0.0, 1.0]))
    for axis in (frame.x_hat, frame.y_hat, frame.z_hat,
                 class_frame(2, [1.0, 0.0, 0.0]).z_hat):
        with pytest.raises(ValueError):
            axis[0] = 2.0
    x[0] = 2.0
    assert frame.x_hat[0] == 1.0


def test_eigenstate_map_limits():
    frame = class_frame(0)
    o_p1, o_plus = eigenstate_map(frame, [0.0, 100.0, 145.0, 150.0],
                                  [0.0, np.pi / 2], e_perp_mhz=4.0)
    assert np.all((0.0 <= o_p1) & (o_p1 <= 1.0))
    assert np.all((0.0 <= o_plus) & (o_plus <= 1.0))
    # zero field: the eigenbasis is the zero-field reference basis
    assert o_plus[0] == pytest.approx([1.0, 1.0], abs=1e-12)
    # strong axial field: upper state goes over to |+1>
    assert o_p1[1, 0] > 0.99
    # strong transverse field: upper state follows |+>
    assert o_plus[2, 1] > 0.98
    # at theta = pi/2 the field lies along the electric azimuth, so |e>
    # lives in the {|0>, |+>} block [[0, a], [a, s]]; the overlap is
    # short of 1 only by its second-order |0> admixture, ~(a/s)^2
    s = D * 1e3 + 4.0
    a = C.gamma_e_mhz_per_g * np.array([0.0, 100.0, 145.0, 150.0])
    exact = 0.5 * (1.0 + s / np.sqrt(s**2 + 4.0 * a**2))
    np.testing.assert_allclose(o_plus[:, 1], exact, rtol=0.0, atol=1e-9)


def test_eigenstate_map_validation():
    frame = class_frame(0)
    with pytest.raises(ValueError):
        eigenstate_map(frame, [], [0.0], e_perp_mhz=4.0)
    with pytest.raises(ValueError):
        eigenstate_map(frame, [-1.0], [0.0], e_perp_mhz=4.0)


def test_transverse_scan_splitting():
    frame = class_frame(0)
    grid = np.linspace(0.0, 150.0, 31)
    energies, dnu, matching = transverse_field_scan(frame, grid,
                                                    e_perp_mhz=4.0)
    assert energies.shape == (31, 3)
    assert dnu[0] == pytest.approx(8.0, abs=1e-9)
    assert np.all(np.diff(dnu) > 0.0)
    assert dnu[grid.searchsorted(20.0)] > 8.0
    assert dnu[-1] == pytest.approx(70.0, abs=5.0)
    assert np.all(matching > 0.97)


def test_empty_transverse_scan_still_checks_the_electric_field():
    frame = class_frame(0)
    energies, dnu, matching = transverse_field_scan(frame, [], 4.0)
    assert energies.shape == (0, 3) and dnu.shape == matching.shape == (0,)
    with pytest.raises(ValueError):
        transverse_field_scan(frame, [], e_perp_mhz=-1.0)


def _assert_same_bits(whole, rows):
    for k, out in enumerate(whole):
        assert out.tobytes() == np.concatenate([r[k] for r in rows]).tobytes()


def test_grid_scans_equal_row_by_row_solves():
    # 37 x 31 = 1147 field points: three solver blocks, the last partial
    frame = class_frame(1)
    b = np.linspace(0.0, 180.0, 37)
    theta = np.linspace(0.0, np.pi / 2, 31)
    _assert_same_bits(eigenstate_map(frame, b, theta, 4.0),
                      [eigenstate_map(frame, b[i:i + 1], theta, 4.0)
                       for i in range(b.size)])
    b = np.linspace(0.0, 180.0, 1147)
    _assert_same_bits(transverse_field_scan(frame, b, 4.0),
                      [transverse_field_scan(frame, b[i:i + 1], 4.0)
                       for i in range(b.size)])


def _traced_peak(fn, *args):
    """Peak traced heap (bytes) of ``fn(*args)`` and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


_SCANS = {
    "eigen-map": lambda frame, n: eigenstate_map(
        frame, np.linspace(0.0, 150.0, n // 64),
        np.linspace(0.0, np.pi / 2, 64), 4.0),
    "transverse-scan": lambda frame, n: transverse_field_scan(
        frame, np.linspace(0.0, 150.0, n), 4.0),
}


@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_grid_scan_memory_grows_only_by_fields_and_results(scan):
    # past one solver block, a 4x grid may add to the peak only its
    # (n, 3) field stack and the returned arrays; the Hamiltonians and
    # eigenvectors stay one block in size
    frame = class_frame(0)
    run = _SCANS[scan]
    run(frame, 1024)                      # warm up lazy imports and caches
    small, _ = _traced_peak(run, frame, 1024)
    large, out = _traced_peak(run, frame, 4096)
    per_point = 3 * 8 + sum(a.nbytes for a in out) / 4096
    assert large - small <= 3 * 1024 * per_point + 64 * 1024
