"""Two-spin dipolar operator: coefficients, matrix elements, bases."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nvcr import (
    BasisChoice,
    PairGeometry,
    class_frame,
    dipolar_coefficients,
    double_flip_amplitude,
    flip_flop_amplitude,
    zero_field_states,
)

from reference import (build_two_spin_hamiltonian,
                       nonmagnetic_change_of_basis, swap)

FRAME0 = class_frame(0)
FRAME2 = class_frame(2)

unit_vectors = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
).map(np.asarray).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
    lambda v: v / np.linalg.norm(v))


def _pair(u_hat, frame1=FRAME0, frame2=None):
    return PairGeometry(u_hat, frame1, frame2 if frame2 is not None else frame1)


def test_axial_coefficients():
    cs = dipolar_coefficients(_pair(FRAME0.z_hat))
    assert cs.a_zz == pytest.approx(2.0, abs=1e-12)
    assert cs.a_xx == pytest.approx(-1.0, abs=1e-12)
    assert cs.a_yy == pytest.approx(-1.0, abs=1e-12)
    assert cs.a_xy == pytest.approx(0.0, abs=1e-12)
    assert cs.a_yx == pytest.approx(0.0, abs=1e-12)


def test_transverse_coefficients():
    cs = dipolar_coefficients(_pair(FRAME0.x_hat))
    assert cs.a_xx == pytest.approx(2.0, abs=1e-12)
    assert cs.a_yy == pytest.approx(-1.0, abs=1e-12)
    assert cs.a_zz == pytest.approx(-1.0, abs=1e-12)


@given(u=unit_vectors)
def test_coefficients_bounded(u):
    for frame2 in (FRAME0, FRAME2):
        cs = dipolar_coefficients(_pair(u, FRAME0, frame2))
        for value in (cs.a_xx, cs.a_yy, cs.a_xy, cs.a_yx, cs.a_zz):
            assert -2.0 - 1e-12 <= value <= 2.0 + 1e-12


@given(u=unit_vectors)
def test_swap_symmetry(u):
    g = _pair(u, FRAME0, FRAME2)
    s = swap(g)
    for basis in BasisChoice:
        assert flip_flop_amplitude(g, basis) == \
            pytest.approx(flip_flop_amplitude(s, basis), abs=1e-12)
    assert double_flip_amplitude(g, BasisChoice.MAGNETIC) == \
        pytest.approx(double_flip_amplitude(s, BasisChoice.MAGNETIC),
                      abs=1e-12)
    # the nonmagnetic double flip is a single cross coefficient (a_yx),
    # exchange-even only when a_xy = a_yx, i.e. for same-class pairs
    g_same = _pair(u, FRAME0, FRAME0)
    assert double_flip_amplitude(g_same, BasisChoice.NONMAGNETIC) == \
        pytest.approx(double_flip_amplitude(swap(g_same),
                                            BasisChoice.NONMAGNETIC),
                      abs=1e-12)


@given(u=unit_vectors, c1=st.integers(0, 3), c2=st.integers(0, 3))
def test_amplitudes_match_two_spin_hamiltonian(u, c1, c2):
    # product-space index 3 * i1 + i2, single-spin order (|-1>,|0>,|+1>)
    # or (|->,|0>,|+>): flip-flop |+,0><0,+| = [7, 5] and, nonmagnetic
    # channel x, |-,0><0,-| = [1, 3]; double flip |+,0><0,-| = [7, 3]
    g = _pair(u, class_frame(c1), class_frame(c2))
    for basis in BasisChoice:
        h = build_two_spin_hamiltonian(g, basis)
        assert flip_flop_amplitude(g, basis, "y") == \
            pytest.approx(abs(h[7, 5]), abs=1e-14)
        assert double_flip_amplitude(g, basis) == \
            pytest.approx(abs(h[7, 3]), abs=1e-14)
    h = build_two_spin_hamiltonian(g, BasisChoice.NONMAGNETIC)
    amp_x = flip_flop_amplitude(g, BasisChoice.NONMAGNETIC, "x")
    assert amp_x == pytest.approx(abs(h[1, 3]), abs=1e-14)
    assert flip_flop_amplitude(g, BasisChoice.MAGNETIC, "x") == \
        flip_flop_amplitude(g, BasisChoice.MAGNETIC, "y")


def test_axial_flip_flop_element():
    h = build_two_spin_hamiltonian(_pair(FRAME0.z_hat), BasisChoice.MAGNETIC)
    # basis order (|-1>, |0>, |+1>) per spin: |+1,0> = 7, |0,+1> = 5
    assert h[7, 5] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_axial_double_flip_vanishes():
    h = build_two_spin_hamiltonian(_pair(FRAME0.z_hat), BasisChoice.MAGNETIC)
    # |+1,0> = 7, |0,-1> = 3
    assert h[7, 3] == pytest.approx(0.0, abs=1e-12)
    assert double_flip_amplitude(_pair(FRAME0.z_hat),
                                 BasisChoice.MAGNETIC) == \
        pytest.approx(0.0, abs=1e-12)


def test_transverse_double_flip():
    g = _pair(FRAME0.x_hat)
    assert double_flip_amplitude(g, BasisChoice.MAGNETIC) == \
        pytest.approx(1.5, abs=1e-12)


def test_magic_angle_flip_flop():
    cos_t = 1.0 / np.sqrt(3.0)
    sin_t = np.sqrt(1.0 - cos_t**2)
    u = cos_t * FRAME0.z_hat + sin_t * FRAME0.x_hat
    assert flip_flop_amplitude(_pair(u), BasisChoice.MAGNETIC) == \
        pytest.approx(0.0, abs=1e-12)


def test_flip_flop_analytic_law():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        cos_t = float(u @ FRAME0.z_hat)
        expected = abs(1.0 - 3.0 * cos_t**2) / 2.0
        assert flip_flop_amplitude(_pair(u), BasisChoice.MAGNETIC) == \
            pytest.approx(expected, abs=1e-10)


@given(u=unit_vectors)
def test_hermiticity(u):
    for basis in BasisChoice:
        h = build_two_spin_hamiltonian(_pair(u, FRAME0, FRAME2), basis)
        assert np.linalg.norm(h - h.conj().T) < 1e-12


def test_zero_field_labelings_name_the_same_states():
    # dipolar's (|->, |0>, |+>) are spin_model's (|+>, |0>, -i|->) at phi_E = 0
    u = nonmagnetic_change_of_basis()
    s0, sm, sp = zero_field_states(0.0)
    for column, ref in zip(u.T, (sp, s0, sm)):
        assert abs(ref.conj() @ column) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(u[:, 0], sp) and np.array_equal(u[:, 1], s0)
    assert np.allclose(u[:, 2], -1j * sm, rtol=0.0, atol=1e-16)


@given(u=unit_vectors)
def test_basis_conjugation_equivalence(u):
    g = _pair(u, FRAME0, FRAME2)
    uu = np.kron(nonmagnetic_change_of_basis(), nonmagnetic_change_of_basis())
    h_mag = build_two_spin_hamiltonian(g, BasisChoice.MAGNETIC)
    h_non = build_two_spin_hamiltonian(g, BasisChoice.NONMAGNETIC)
    assert np.linalg.norm(uu.conj().T @ h_mag @ uu - h_non) < 1e-12


def test_retained_terms_only():
    # a transverse-longitudinal element like <0,+1|H|+1,+1> only exists
    # through the SxSz-type cross terms; u at 45 deg makes a_xz = 3/2
    u = (FRAME0.x_hat + FRAME0.z_hat) / np.sqrt(2.0)
    h = build_two_spin_hamiltonian(_pair(u), BasisChoice.MAGNETIC)
    assert h[5, 8] == pytest.approx(0.0, abs=1e-12)


def test_pair_geometry_validation():
    with pytest.raises(ValueError):
        PairGeometry(np.array([1.0, 1.0, 0.0]), FRAME0, FRAME0)
    with pytest.raises(ValueError, match="unknown channel 'z'"):
        flip_flop_amplitude(_pair(FRAME0.x_hat), BasisChoice.NONMAGNETIC,
                            "z")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("argument", ["u_hat"])
def test_non_finite_geometry_inputs_are_refused(argument, bad):
    # a NaN direction passed the unit check and gave NaN elements
    with pytest.raises(ValueError, match=argument):
        PairGeometry(np.array([bad, 0.0, 0.0]), FRAME0, FRAME0)


def test_stacked_elements_equal_row_by_row():
    # a stack of directions is a batch of single directions: every row
    # of each element has the bits of the row's own call
    rng = np.random.default_rng(7)
    u = rng.normal(size=(37, 3))
    u /= np.linalg.norm(u, axis=1)[:, None]
    elements = [
        lambda g: dipolar_coefficients(g).a_xx,
        lambda g: dipolar_coefficients(g).a_yy,
        lambda g: dipolar_coefficients(g).a_xy,
        lambda g: dipolar_coefficients(g).a_yx,
        lambda g: dipolar_coefficients(g).a_zz,
        lambda g: flip_flop_amplitude(g, BasisChoice.MAGNETIC),
        lambda g: flip_flop_amplitude(g, BasisChoice.NONMAGNETIC, "x"),
        lambda g: flip_flop_amplitude(g, BasisChoice.NONMAGNETIC, "y"),
        lambda g: double_flip_amplitude(g, BasisChoice.MAGNETIC),
        lambda g: double_flip_amplitude(g, BasisChoice.NONMAGNETIC),
    ]
    for frame2 in (FRAME0, FRAME2):
        stack = PairGeometry(u, FRAME0, frame2)
        for element in elements:
            batch = element(stack)
            assert batch.shape == (len(u),)
            rows = [element(PairGeometry(row, FRAME0, frame2)) for row in u]
            assert all(type(r) is float for r in rows)
            assert np.array_equal(batch, rows)


def test_pair_geometry_refuses_a_non_unit_row():
    u = np.tile(FRAME0.z_hat, (5, 1))
    PairGeometry(u, FRAME0, FRAME2)
    u[3] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="unit"):
        PairGeometry(u, FRAME0, FRAME2)
    with pytest.raises(ValueError, match="unit"):
        PairGeometry(u[None], FRAME0, FRAME2)
