"""Two-spin dipolar Hamiltonian and its exchange matrix elements.

For two spin-1 centers separated along the unit vector u_hat the
secular-relevant part of the dipolar coupling is, in units of J0/r^3,

    H / (J0/r^3) = -[ 3 (S1.u)(S2.u) - S1.S2 ]
                 = -sum_ab a_ab S_a^1 S_b^2,     a_ab = 3(u.a1)(u.b2) - a1.b2

where a, b run over each spin's local axes.  Terms mixing transverse
and longitudinal operators on the same spin (S_x S_z type) average out
for the processes of interest and are dropped.

Matrix elements can be taken in two single-spin eigenbases:

* MAGNETIC -- the |m_s> basis, ordered (|-1>, |0>, |+1>), appropriate
  when an axial magnetic field dominates.
* NONMAGNETIC -- the zero-field basis ordered (|->, |0>, |+>), the
  eigenbasis when a transverse electric (or magnetic) field dominates.
  Operator representations:

      Sx = [[0,1,0],[1,0,0],[0,0,0]]
      Sy = [[0,0,0],[0,0,1],[0,1,0]]
      Sz = [[0,0,-i],[0,0,0],[i,0,0]]

  realized by |-> = (|+1>+|-1>)/sqrt(2), |+> = -i(|+1>-|-1>)/sqrt(2).
  The phases (including the i in Sz) make the representation an exact
  unitary conjugation of the magnetic-basis operators; only magnitudes
  of matrix elements feed the downstream averages, so the phase and
  label conventions do not affect any physical output.

  The labels are not those of ``spin_model.zero_field_states``, whose
  |+-> = (|+1> +- exp(-i phi_E)|-1>)/sqrt(2) are named by energy
  branch.  At phi_E = 0 this module's |-> is spin_model's |+>, and this
  module's |+> is spin_model's |-> times -i.

The flip-flop channels in the nonmagnetic basis are named by operator:
channel "x" exchanges the quantum coupled by the x-type operators
(amplitude a_xx) and channel "y" the one coupled by the y-type
operators (amplitude a_yy).  In the magnetic basis both flip-flop
elements have equal magnitude and the channel argument is ignored.

The coefficients and amplitudes are floats for a single direction and
arrays for a ``PairGeometry`` holding an (n, 3) stack of them, each row
with the bits of its own single call; ``eta_average`` sums the magnetic
flip-flop amplitude over its sphere nodes a block at a time this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import spin_model
from .geometry import PairGeometry

__all__ = [
    "BasisChoice",
    "DipolarCoefficients",
    "nonmagnetic_spin_matrices",
    "nonmagnetic_change_of_basis",
    "dipolar_coefficients",
    "build_two_spin_hamiltonian",
    "flip_flop_amplitude",
    "double_flip_amplitude",
    "resonance_factor",
]


class BasisChoice(Enum):
    MAGNETIC = "magnetic"
    NONMAGNETIC = "nonmagnetic"


def nonmagnetic_spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 operators in the zero-field basis ordered (|->, |0>, |+>)."""
    sx = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    sy = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    sz = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    return sx, sy, sz


def nonmagnetic_change_of_basis() -> np.ndarray:
    """Unitary U with columns (|->, |0>, |+>) in the m_s representation.

    Satisfies U^dag S_a U = nonmagnetic_spin_matrices()[a] exactly for
    all three operators.
    """
    sq = 1.0 / np.sqrt(2.0)
    return np.array([
        [sq, 0.0, 1j * sq],
        [0.0, 1.0, 0.0],
        [sq, 0.0, -1j * sq],
    ], dtype=complex)


_AXES = ("x", "y", "z")
# the bilinears kept by the secular argument, in DipolarCoefficients order
_RETAINED = (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"), ("z", "z"))


@dataclass(frozen=True)
class DipolarCoefficients:
    """Geometric weights a_ab = 3(u.a1)(u.b2) - a1.b2 of the retained terms."""

    a_xx: float | np.ndarray
    a_yy: float | np.ndarray
    a_xy: float | np.ndarray
    a_yx: float | np.ndarray
    a_zz: float | np.ndarray


def _value(x):
    """A float for a single direction, the array for a stack."""
    return x if np.ndim(x) else float(x)


def _coefficients(g: PairGeometry) -> list:
    """a_ab for each retained (a, b), one projection per axis."""
    axes1, axes2 = ({a: getattr(f, f"{a}_hat") for a in _AXES}
                    for f in (g.frame1, g.frame2))
    # einsum, not matmul: BLAS rounds a row of a stack and the same row
    # on its own differently, einsum gives both the same bits
    u1, u2 = ({a: np.einsum("...j,j", g.u_hat, v) for a, v in axes.items()}
              for axes in (axes1, axes2))
    return [_value(3.0 * u1[a] * u2[b] - axes1[a] @ axes2[b])
            for a, b in _RETAINED]


def dipolar_coefficients(g: PairGeometry) -> DipolarCoefficients:
    return DipolarCoefficients(*_coefficients(g))


def _single_spin_ops(basis: BasisChoice):
    if basis is BasisChoice.MAGNETIC:
        return spin_model.spin_matrices()
    return nonmagnetic_spin_matrices()


def build_two_spin_hamiltonian(g: PairGeometry,
                               basis: BasisChoice) -> np.ndarray:
    """9x9 pair Hamiltonian in units of J0/r^3.

    Only the five bilinears retained by the secular argument (xx, yy,
    xy, yx, zz) enter.  ``g`` must hold a single direction.
    """
    if g.u_hat.ndim != 1:
        raise ValueError("the pair Hamiltonian takes a single direction")
    op = dict(zip(_AXES, _single_spin_ops(basis)))
    h = np.zeros((9, 9), dtype=complex)
    for (a, b), c in zip(_RETAINED, _coefficients(g)):
        h -= c * np.kron(op[a], op[b])
    return h


def flip_flop_amplitude(g: PairGeometry, basis: BasisChoice,
                        channel: str = "x") -> float | np.ndarray:
    """|<flip, 0| H/(J0/r^3) |0, flop>| for the one-quantum exchange.

    In the magnetic basis this is |<+1,0|H|0,+1>| (equal in magnitude to
    the -1 channel), |a_xx + a_yy + i(a_xy - a_yx)| / 2.  In the
    nonmagnetic basis ``channel`` picks the exchanged quantum: "x"
    (|a_xx|) or "y" (|a_yy|) per the module docstring.  These are the
    elements of ``build_two_spin_hamiltonian``, read off in closed form:
    a float for one direction, an array for an (n, 3) stack.
    """
    c = dipolar_coefficients(g)
    if basis is BasisChoice.MAGNETIC:
        return _value(np.hypot(c.a_xx + c.a_yy, c.a_xy - c.a_yx) / 2.0)
    if channel not in ("x", "y"):
        raise ValueError(f"unknown channel {channel!r}")
    return _value(np.abs(c.a_xx if channel == "x" else c.a_yy))


def double_flip_amplitude(g: PairGeometry,
                          basis: BasisChoice) -> float | np.ndarray:
    """|<up, 0| H/(J0/r^3) |0, down>|: both spins gain or lose a quantum.

    In the magnetic basis this is |a_xx - a_yy - i(a_xy + a_yx)| / 2 and
    the two orderings of which spin goes up have equal magnitude for
    every geometry.  In the nonmagnetic basis the element reduces to a
    single cross coefficient, |a_yx|, so for cross-class pairs the
    orderings can differ; the (up on spin 1) ordering is the one
    reported.  A float for one direction, an array for a stack.
    """
    c = dipolar_coefficients(g)
    if basis is BasisChoice.MAGNETIC:
        return _value(np.hypot(c.a_xx - c.a_yy, c.a_xy + c.a_yx) / 2.0)
    return _value(np.abs(c.a_yx))


def resonance_factor(omega_f_mhz: float, omega_nv_mhz: float,
                     gamma_f_mhz: float) -> float:
    """Lorentzian resonance weight 4 g^2 / (detuning^2 + 4 g^2) in (0, 1]."""
    if gamma_f_mhz <= 0.0:
        raise ValueError("gamma_f must be positive")
    det = omega_f_mhz - omega_nv_mhz
    return 4.0 * gamma_f_mhz**2 / (det**2 + 4.0 * gamma_f_mhz**2)
