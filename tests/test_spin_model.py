"""Single-center Hamiltonian: construction, eigenstructure, scans."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nvcr import (
    CLASS_AXES,
    NVClassFrame,
    build_hamiltonian,
    class_frame,
    diagonalize,
    eigenstate_map,
    transverse_field_scan,
    zero_field_states,
)
from nvcr.constants import D_GHZ as D, GAMMA_E_MHZ_PER_G
from nvcr.spin_model import _class_blocks

from reference import class_eigensystem_mp, paper_hamiltonian

field_components = st.floats(-200.0, 200.0, allow_nan=False)
# build_hamiltonian's arguments: an NV-frame field and the electric term
fields = st.fixed_dictionaries({
    "b_gauss": st.tuples(field_components, field_components, field_components),
    "e_perp_mhz": st.floats(0.0, 10.0),
    "phi_e_rad": st.floats(0.0, 2.0 * np.pi, exclude_max=True),
})


def _eigensystem(b_gauss, e_perp_mhz=0.0, phi_e_rad=0.0):
    return diagonalize(build_hamiltonian(b_gauss, e_perp_mhz, phi_e_rad))


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
    es = _eigensystem([0.0, 0.0, 50.0])
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
    h = build_hamiltonian(**f)
    assert np.linalg.norm(h - h.conj().T) < 1e-12
    assert np.trace(h).real == pytest.approx(2.0 * D, abs=1e-10)


@settings(max_examples=200)
@given(f=fields)
def test_electric_term_is_eq_1_with_e_opposite_phi_e(f):
    # <+1|H|-1> = +eps exp(i phi_E) is eq. (1) with
    # d_perp (E_x, E_y) = -eps (cos phi_E, sin phi_E)
    eps, phi = f["e_perp_mhz"], f["phi_e_rad"]
    paper = paper_hamiltonian(f["b_gauss"], -eps * np.cos(phi),
                              -eps * np.sin(phi))
    assert np.abs(build_hamiltonian(**f) - paper).max() <= 1e-15


def test_splitting_past_the_float_range_is_refused_by_value():
    # gamma_e B passes DBL_MAX in MHz near B = 6.4e307 G, not in GHz
    with np.errstate(over="raise", invalid="raise"), \
            pytest.raises(ValueError, match=r"transverse field of 1e\+308 G"):
        transverse_field_scan([0.0, 1e307, 1e308, 1e300], 0.0)


@given(f=fields)
def test_eigen_residuals(f):
    h = build_hamiltonian(**f)
    es = diagonalize(h)
    scale = max(np.linalg.norm(h), 1.0)
    for k in range(3):
        v = es.states[:, k]
        assert np.linalg.norm(h @ v - es.energies_ghz[k] * v) < 1e-10 * scale
    assert np.linalg.norm(es.states.conj().T @ es.states - np.eye(3)) < 1e-10
    for ref in (REF_0, REF_MINUS, REF_PLUS):
        assert np.all(_weight(es.states.T, ref) <= 1.0 + 1e-12)



@settings(max_examples=40)
@given(phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True),
       tilt=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
       amps=st.lists(st.floats(1e-3, 0.1), min_size=1, max_size=32),
       e_perp=st.one_of(st.just(0.0), st.floats(0.0, 1e-6)))
@example(phi=-np.pi / 6, tilt=0.0, amps=[0.0122382], e_perp=0.0)
def test_near_degenerate_transverse_fields_solve(phi, tilt, amps, e_perp):
    # a weak field almost orthogonal to the axis splits |+-1> by
    # ~(gamma_e B)^2 / D, around 1e-10 GHz: tie-breaking such a pair
    # must not push its eigen-residual over diagonalize's bound
    u = [np.cos(tilt) * np.cos(phi), np.cos(tilt) * np.sin(phi), np.sin(tilt)]
    h = build_hamiltonian(np.multiply.outer(amps, u), e_perp)
    es = diagonalize(h)
    assert np.all(np.diff(es.energies_ghz, axis=-1) >= 0.0)
    v = es.states
    eye = np.conj(np.swapaxes(v, -1, -2)) @ v
    assert np.abs(eye - np.eye(3)).max() < 1e-10


@given(phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
def test_phi_e_symmetry(phi):
    base = _eigensystem(np.zeros(3), e_perp_mhz=4.0, phi_e_rad=0.0)
    es = _eigensystem(np.zeros(3), e_perp_mhz=4.0, phi_e_rad=phi)
    assert es.energies_ghz == pytest.approx(base.energies_ghz, abs=1e-12)
    _, _, plus = zero_field_states(phi)
    assert abs(es.e.conj() @ plus) ** 2 == pytest.approx(1.0, abs=1e-10)


def _assert_stack_matches_rows(b, **electric):
    """One solve of the field stack ``b`` (..., 3) equals a solve per row."""
    es = diagonalize(build_hamiltonian(b, **electric))
    assert es.energies_ghz.shape == b.shape
    assert es.e.shape == b.shape
    for idx in np.ndindex(b.shape[:-1]):
        one = diagonalize(build_hamiltonian(b[idx], **electric))
        assert np.array_equal(es.energies_ghz[idx], one.energies_ghz)
        assert np.array_equal(es.states[idx], one.states)
    return es


def test_stack_mixes_degenerate_and_generic_rows():
    rng = np.random.default_rng(7)
    degenerate = np.array([[0.0, 0.0, 0.0],     # |+-1> at e_perp = 0
                           [1e-3, 0.0, 0.0]])   # gap ~ (gamma B)^2 / D
    # more generic rows than a 512-point scan block, solved in one call
    b = np.vstack([degenerate, [[0.0, 40.0, 0.0]],
                   rng.uniform(-150.0, 150.0, size=(1100, 3)), degenerate])
    es = _assert_stack_matches_rows(b, e_perp_mhz=0.0)
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
       phi=st.floats(0.0, 2.0 * np.pi, exclude_max=True))
def test_stacked_solve_equals_row_by_row(b, e_perp, phi):
    _assert_stack_matches_rows(b, e_perp_mhz=e_perp, phi_e_rad=phi)


def test_field_stack_validation():
    assert build_hamiltonian(np.ones((2, 5, 3))).shape == (2, 5, 3, 3)
    for bad in (np.ones((4, 2)), np.ones(()), [[1.0, 2.0, np.inf]]):
        with pytest.raises(ValueError, match="b_gauss"):
            build_hamiltonian(bad)


@pytest.mark.parametrize("name", ["e_perp_mhz", "phi_e_rad"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_hamiltonian_refuses_non_finite_electric_fields(name, bad):
    # these once reached LAPACK and failed there: "Eigenvalues did not
    # converge"
    with pytest.raises(ValueError, match=name):
        build_hamiltonian(np.zeros(3), **{name: bad})
    if name == "e_perp_mhz":
        with pytest.raises(ValueError, match=name):
            transverse_field_scan([1.0, 2.0], bad)
        with pytest.raises(ValueError, match=name):
            eigenstate_map([1.0], [0.0, 1.0], bad)

def test_diagonalize_rejects_non_hermitian():
    h = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                 dtype=complex)
    with pytest.raises(ValueError):
        diagonalize(h)


def test_diagonalize_refuses_eigenvectors_that_do_not_solve(monkeypatch):
    # eigh's columns out of order leave each one a residual of order D
    eigh = np.linalg.eigh

    def permuted(h):
        e, v = eigh(h)
        return e, v[..., ::-1]

    monkeypatch.setattr(np.linalg, "eigh", permuted)
    with pytest.raises(ArithmeticError, match="eigen-residual too large"):
        diagonalize(build_hamiltonian([10.0, 0.0, 30.0], 4.0))


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
        NVClassFrame(np.array([1.0, 0.1, 0.0]), np.array([0.0, 1.0, 0.0]),
                     np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="not right-handed"):
        NVClassFrame(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                     np.array([0.0, 0.0, -1.0]))


def test_frame_axes_are_read_only_copies():
    x = np.array([1.0, 0.0, 0.0])
    frame = NVClassFrame(x, np.array([0.0, 1.0, 0.0]),
                         np.array([0.0, 0.0, 1.0]))
    for axis in (frame.x_hat, frame.y_hat, frame.z_hat,
                 class_frame(2).z_hat):
        with pytest.raises(ValueError):
            axis[0] = 2.0
    x[0] = 2.0
    assert frame.x_hat[0] == 1.0


@pytest.mark.parametrize("k", range(4))
def test_class_frame_is_fixed_by_the_crystal(k):
    # z along the class axis, x the unit part of [100] transverse to it;
    # no field enters the frame any more
    frame = class_frame(k)
    z = CLASS_AXES[k]
    assert np.array_equal(frame.z_hat, z)
    x = np.array([1.0, 0.0, 0.0]) - z[0] * z
    np.testing.assert_allclose(frame.x_hat, x / np.linalg.norm(x),
                               rtol=0.0, atol=1e-15)
    assert np.array_equal(frame.y_hat, np.cross(frame.z_hat, frame.x_hat))
    with pytest.raises(TypeError):
        class_frame(k, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("class_id", [-1, 4])
def test_class_frame_refuses_an_unknown_class(class_id):
    with pytest.raises(ValueError, match="class_id"):
        class_frame(class_id)


def test_eigenstate_map_limits():
    o_p1, o_plus = eigenstate_map([0.0, 100.0, 145.0, 150.0],
                                  [0.0, np.pi / 2], e_perp_mhz=4.0)
    assert np.all((0.0 <= o_p1) & (o_p1 <= 1.0))
    assert np.all((0.0 <= o_plus) & (o_plus <= 1.0))
    # zero field: the eigenbasis is the zero-field reference basis
    assert o_plus[0] == pytest.approx([1.0, 1.0], abs=1e-12)
    # strong axial field: upper state goes over to |+1>
    assert o_p1[1, 0] > 0.99
    # strong transverse field: upper state follows |+>
    assert o_plus[2, 1] > 0.98
    # at theta = pi/2 the field lies along x and, at phi_E = 0, the
    # electric field of eq. (1) along -x, so |e> lives in the {|0>, |+>}
    # block [[0, a], [a, s]]; the overlap is
    # short of 1 only by its second-order |0> admixture, ~(a/s)^2
    s = D * 1e3 + 4.0
    a = GAMMA_E_MHZ_PER_G * np.array([0.0, 100.0, 145.0, 150.0])
    exact = 0.5 * (1.0 + s / np.sqrt(s**2 + 4.0 * a**2))
    np.testing.assert_allclose(o_plus[:, 1], exact, rtol=0.0, atol=1e-9)


def test_eigenstate_map_validation():
    for b in ([], [-1.0], [np.inf]):
        with pytest.raises(ValueError):
            eigenstate_map(b, [0.0], e_perp_mhz=4.0)
    for theta in ([np.nan], [0.0, np.inf]):
        with pytest.raises(ValueError, match="polar angles"):
            eigenstate_map([1.0], theta, e_perp_mhz=4.0)
    for b in ([np.nan], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="b_perp_gauss must be finite"):
            transverse_field_scan(b, e_perp_mhz=4.0)


def test_transverse_scan_splitting():
    grid = np.linspace(0.0, 150.0, 31)
    energies, dnu, matching = transverse_field_scan(grid, e_perp_mhz=4.0)
    assert energies.shape == (31, 3)
    assert dnu[0] == pytest.approx(8.0, abs=1e-9)
    assert np.all(np.diff(dnu) > 0.0)
    assert dnu[grid.searchsorted(20.0)] > 8.0
    assert dnu[-1] == pytest.approx(70.0, abs=5.0)
    assert np.all(matching > 0.97)


_RAMPS = [pytest.param(np.linspace(0.0, 200.0, 101), id="0-200G"),
          pytest.param(np.geomspace(1e-6, 1e6, 101), id="1e-6-1e6G"),
          pytest.param(np.geomspace(1e-7, 1e3, 101), id="1e-7-1e3G"),
          pytest.param(np.linspace(0.0, 0.01, 101), id="0-10mG")]


@pytest.mark.parametrize("e_perp", [0.0, 1e-6, 4.0, 5000.0, 6000.0])
@pytest.mark.parametrize("b", _RAMPS)
def test_transverse_scan_closed_form_matches_the_solver(b, e_perp):
    # the scan's closed form against a numerical solve per point; at
    # 5000 and 6000 MHz the level D - eps of |-> is the lowest.  The d/e
    # splitting is held to 1e-15 relative of the 40-digit gap (measured:
    # 5.5e-16), which the difference of two ~D levels misses by up to
    # its own size: at 1e-7 G and eps = 0 it is 2.7e-17 MHz
    energies, dnu, matching = transverse_field_scan(b, e_perp)
    for k, amp in enumerate(b):
        es = _eigensystem([amp, 0.0, 0.0], e_perp)
        e = es.energies_ghz
        assert np.abs(energies[k] - e).max() <= 1e-14 * max(np.abs(e).max(),
                                                            1.0)
        assert abs(matching[k] - _weight(es.e, REF_PLUS)) <= 1e-10
        gap = class_eigensystem_mp(amp, 0.0, e_perp)[3] * 1e3
        assert abs(dnu[k] - gap) <= 1e-15 * gap, (amp, dnu[k], gap)


def test_transverse_scan_calls_no_eigensolver(monkeypatch):
    import nvcr.spin_model
    calls = []
    for name in ("diagonalize", "build_hamiltonian"):
        solve = getattr(nvcr.spin_model, name)

        def counted(*args, _name=name, _solve=solve):
            calls.append(_name)
            return _solve(*args)

        monkeypatch.setattr(nvcr.spin_model, name, counted)
    transverse_field_scan(np.linspace(0.0, 150.0, 2001), 4.0)
    transverse_field_scan([], 4.0)
    eigenstate_map([0.0, 1.0, 1e-9], [0.0, 0.5, np.pi / 2], 4.0)
    assert calls == []
    # the counting reaches the general solver
    nvcr.spin_model.diagonalize(nvcr.spin_model.build_hamiltonian(np.ones(3)))
    assert calls == ["build_hamiltonian", "diagonalize"]


def _class_solve(b_perp, b_z, e_perp):
    """(levels, w_plus, w_p1) of ``_class_blocks`` over whole arrays."""
    blocks = list(_class_blocks(np.asarray(b_perp, dtype=float),
                                np.asarray(b_z, dtype=float), e_perp))
    return [np.concatenate([blk[k] for blk in blocks]) for k in (1, 2, 3)]


def _class_grid(b, theta):
    """(B_perp, B_z) of eigenstate_map's grid, flattened as it does."""
    return (np.outer(b, np.sin(theta)).ravel(),
            np.outer(b, np.cos(theta)).ravel())


_E_PERPS = [0.0, 1e-6, 4.0, 5000.0]


@pytest.mark.parametrize("e_perp", _E_PERPS)
def test_class_solver_matches_the_40_digit_reference(e_perp):
    # levels and lines to 1e-12 max(1, |E|) GHz and the eigen-map weights
    # to 1e-10 where the top pair is split by more than 1e-6 GHz
    # (measured: 5.6e-16 and 3.3e-16); 1025 G along z crosses |0> with the
    # lower excited level, and at 5000 MHz D - eps lies below zero
    b = np.array([0.0, 1e-8, 1e-3, 0.01, 1.0, 30.0, 200.0, 1025.0, 5000.0])
    theta = np.linspace(0.0, np.pi / 2, 7)
    o_p1, o_plus = eigenstate_map(b, theta, e_perp)
    b_perp, b_z = _class_grid(b, theta)
    levels, _, _ = _class_solve(b_perp, b_z, e_perp)
    for k in range(b_perp.size):
        exact, w_plus, w_p1, _ = class_eigensystem_mp(b_perp[k], b_z[k],
                                                      e_perp)
        lines = levels[k, 1:] - levels[k, 0]
        for ours, ref in [(levels[k], exact), (lines, exact[1:] - exact[0])]:
            assert np.all(np.abs(ours - ref)
                          <= 1e-12 * np.maximum(np.abs(ref), 1.0)), k
        if exact[2] - exact[1] > 1e-6:
            assert abs(o_plus.flat[k] - w_plus) <= 1e-10, k
            assert abs(o_p1.flat[k] - w_p1) <= 1e-10, k
    # the transverse scan at exactly B_z = 0, where the grid's pi/2 leaves
    # cos(pi/2) ~ 6e-17: the same bounds, and no zero level reads -0
    energies, _, matching = transverse_field_scan(b, e_perp)
    assert not np.any(np.signbit(energies[energies == 0.0]))
    for k, amp in enumerate(b):
        exact, w_plus, _, _ = class_eigensystem_mp(amp, 0.0, e_perp)
        assert np.all(np.abs(energies[k] - exact)
                      <= 1e-12 * np.maximum(np.abs(exact), 1.0)), k
        if exact[2] - exact[1] > 1e-6:
            assert abs(matching[k] - w_plus) <= 1e-10, k


@pytest.mark.parametrize("e_perp", _E_PERPS)
def test_class_solver_agrees_with_diagonalize(e_perp):
    # diagonalize's levels carry ~DBL_EPSILON |H| and its eigenvectors
    # that over the top gap, so the weights are held to
    # 1e-14 max(1, |E|) / gap; where the top pair lies within the
    # tie-break tolerance, |e> follows |+> as in diagonalize's tie-break
    b = np.array([0.0, 1e-9, 1e-8, 1e-3, 0.01, 1.0, 30.0, 200.0, 1025.0,
                  5000.0, 1e5])
    b_perp, b_z = _class_grid(b, np.linspace(0.0, np.pi / 2, 13))
    levels, w_plus, w_p1 = _class_solve(b_perp, b_z, e_perp)
    es = _eigensystem(np.column_stack([b_perp, 0.0 * b_perp, b_z]), e_perp)
    e = es.energies_ghz
    scale = np.maximum(np.abs(e).max(axis=-1), 1.0)
    assert np.all(np.abs(levels - e).max(axis=-1) <= 1e-14 * scale)
    gap = e[:, 2] - e[:, 1]
    tol = np.maximum(1e-14 * scale / np.maximum(gap, 1e-10), 1e-12)
    tol[gap < 1e-10] = 1e-12
    assert np.all(np.abs(w_plus - _weight(es.e, REF_PLUS)) <= tol)
    assert np.all(np.abs(w_p1 - np.abs(es.e[:, 2]) ** 2) <= tol)
    if e_perp == 0.0:
        assert np.any(gap < 1e-10) and np.any(b_z[gap < 1e-10] > 0.0)


def test_class_solver_takes_extreme_fields():
    # 1e300 G squares past DBL_MAX, and at B = 0 and eps = 0 the top pair
    # is an exact double root: the levels stay finite and in order
    for e_perp in (0.0, 4.0, 1e300):
        b = np.array([0.0, 1e-300, 1.0, 1e300, np.finfo(float).max / 1e3])
        b_perp, b_z = _class_grid(b, np.linspace(0.0, np.pi / 2, 5))
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            levels, w_plus, w_p1 = _class_solve(b_perp, b_z, e_perp)
        assert np.all(np.isfinite(levels)) and np.all(np.diff(levels) >= 0.0)
        assert np.all((0.0 <= w_plus) & (w_plus <= 1.0 + 1e-15))
        assert np.all((0.0 <= w_p1) & (w_p1 <= 1.0 + 1e-15))
    # a field of 1e300 G along x: levels -+ gamma_e B, and D - eps between
    levels, _, _ = _class_solve([1e300], [0.0], 4.0)
    a = GAMMA_E_MHZ_PER_G * 1e-3 * 1e300
    np.testing.assert_allclose(levels[0], [-a, D - 0.004, a], rtol=1e-15)


def test_weak_transverse_field_at_zero_e_perp_keeps_the_labels():
    # at e_perp = 0, 0-10 mG along x split |+-> by less than the
    # tie-break tolerance, while |0> leaks into that pair with norm
    # ~gamma_e B / D ~ 1e-6: the leak must not take the d slot and swap
    # d and e (it once did from 1.5 to 6 mG)
    b = np.linspace(0.0, 0.01, 21)
    s = D * 1e3
    exact = 0.5 * (1.0 + s / np.hypot(s, 2.0 * GAMMA_E_MHZ_PER_G * b))
    _, o_plus = eigenstate_map(b, [np.pi / 2], 0.0)
    np.testing.assert_allclose(o_plus[:, 0], exact, rtol=0.0, atol=1e-10)
    es = _eigensystem(np.outer(b, [1.0, 0.0, 0.0]))
    np.testing.assert_allclose(_weight(es.d, REF_MINUS), 1.0, atol=1e-12)
    np.testing.assert_allclose(_weight(es.e, REF_PLUS), exact, atol=1e-10)


def test_empty_transverse_scan_still_checks_the_electric_field():
    energies, dnu, matching = transverse_field_scan([], 4.0)
    assert energies.shape == (0, 3) and dnu.shape == matching.shape == (0,)
    with pytest.raises(ValueError):
        transverse_field_scan([], e_perp_mhz=-1.0)


def _assert_same_bits(whole, rows):
    for k, out in enumerate(whole):
        assert out.tobytes() == np.concatenate([r[k] for r in rows]).tobytes()


def test_grid_scans_equal_row_by_row_solves():
    # 37 x 31 = 1147 field points: three solver blocks, the last partial
    b = np.linspace(0.0, 180.0, 37)
    theta = np.linspace(0.0, np.pi / 2, 31)
    _assert_same_bits(eigenstate_map(b, theta, 4.0),
                      [eigenstate_map(b[i:i + 1], theta, 4.0)
                       for i in range(b.size)])
    b = np.linspace(0.0, 180.0, 1147)
    _assert_same_bits(transverse_field_scan(b, 4.0),
                      [transverse_field_scan(b[i:i + 1], 4.0)
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
    "eigen-map": lambda n: eigenstate_map(
        np.linspace(0.0, 150.0, n // 64), np.linspace(0.0, np.pi / 2, 64),
        4.0),
    "transverse-scan": lambda n: transverse_field_scan(
        np.linspace(0.0, 150.0, n), 4.0),
}


@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_grid_scan_memory_grows_only_by_fields_and_results(scan):
    # past one solver block, a 4x grid may add to the peak only its
    # field inputs (24 B a point covers eigen-map's B_perp and B_z and
    # the transverse scan's zero B_z) and the returned arrays;
    # _class_blocks' per-block temporaries stay one block in size
    run = _SCANS[scan]
    run(1024)                             # warm up lazy imports and caches
    small, _ = _traced_peak(run, 1024)
    large, out = _traced_peak(run, 4096)
    per_point = 3 * 8 + sum(a.nbytes for a in out) / 4096
    assert large - small <= 3 * 1024 * per_point + 64 * 1024
