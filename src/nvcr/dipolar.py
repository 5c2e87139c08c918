"""Exchange matrix elements of the two-spin dipolar Hamiltonian.

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
  eigenbasis when a transverse electric (or magnetic) field dominates,
  realized by |-> = (|+1>+|-1>)/sqrt(2), |+> = -i(|+1>-|-1>)/sqrt(2).
  Only magnitudes of matrix elements feed the downstream averages, so
  the phase and label conventions do not affect any physical output.
  The labels are not those of ``spin_model.zero_field_states``, which
  names its states by energy branch: at phi_E = 0 this module's |-> is
  spin_model's |+>, and this module's |+> is spin_model's |-> times -i.
  ``tests/reference.py`` writes out the operators in this basis and
  the change of basis from |m_s>, and builds the 9x9 pair operator in
  either basis; the tests read this module's closed forms off its
  elements and check the label map.

The flip-flop channels in the nonmagnetic basis are named by operator:
channel "x" exchanges the quantum coupled by the x-type operators
(amplitude a_xx) and channel "y" the one coupled by the y-type
operators (amplitude a_yy).  In the magnetic basis both flip-flop
elements have equal magnitude and the channel argument is ignored.

The coefficients and amplitudes are floats for a single direction and
arrays for a ``PairGeometry`` holding an (n, 3) stack of them, each row
with the bits of its own single call; ``eta_average`` sums the magnetic
flip-flop amplitude over the node stack of its sphere rule this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import PairGeometry

__all__ = [
    "BasisChoice",
    "dipolar_coefficients",
    "flip_flop_amplitude",
    "double_flip_amplitude",
]


class BasisChoice(Enum):
    MAGNETIC = "magnetic"
    NONMAGNETIC = "nonmagnetic"


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


def dipolar_coefficients(g: PairGeometry) -> DipolarCoefficients:
    """a_ab for each retained (a, b), one projection per axis."""
    axes1, axes2 = ({a: getattr(f, f"{a}_hat") for a in _AXES}
                    for f in (g.frame1, g.frame2))
    # einsum, not matmul: BLAS rounds a row of a stack and the same row
    # on its own differently, einsum gives both the same bits
    u1, u2 = ({a: np.einsum("...j,j", g.u_hat, v) for a, v in axes.items()}
              for axes in (axes1, axes2))
    return DipolarCoefficients(*(
        _value(3.0 * u1[a] * u2[b] - axes1[a] @ axes2[b])
        for a, b in _RETAINED))


def flip_flop_amplitude(g: PairGeometry, basis: BasisChoice,
                        channel: str = "x") -> float | np.ndarray:
    """|<flip, 0| H/(J0/r^3) |0, flop>| for the one-quantum exchange.

    In the magnetic basis this is |<+1,0|H|0,+1>| (equal in magnitude to
    the -1 channel), |a_xx + a_yy + i(a_xy - a_yx)| / 2.  In the
    nonmagnetic basis ``channel`` picks the exchanged quantum: "x"
    (|a_xx|) or "y" (|a_yy|) per the module docstring.  These are the
    elements of the 9x9 pair operator that ``tests/reference.py``
    builds, in closed form: a float for one direction, an array for an
    (n, 3) stack.
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

