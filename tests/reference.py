"""Second derivations that the tests check the package against.

The package computes the pair matrix elements and the ensemble
polarization in closed form.  This module derives each a second way,
independently of how the package does it:

* ``spin_matrices`` writes out the spin-1 operators in the |m_s>
  basis, and ``paper_hamiltonian`` writes eq. (1) of the paper term by
  term from them, with the electric field as its components;
* ``class_eigensystem_mp`` solves it to 40 digits with mpmath at a
  class field (B_perp, 0, B_z), phi_E = 0, in the |m_s> basis;
* ``build_two_spin_hamiltonian`` assembles the 9x9 secular pair
  operator from Kronecker products of single-spin operators, with its
  own operators in both bases, its own list of retained bilinears and
  its own weights a_ab = 3(u.a1)(u.b2) - a1.b2 from the frame axes, so
  that the closed-form amplitudes of ``nvcr.dipolar`` can be read off
  as its elements;
* ``polarization_from_density`` takes the Laplace transform of the rate
  density by quadrature, for the closed form exp(-sqrt(t/T));
* ``rotation_matrix``, ``rotate`` and ``swap`` move frames and pairs
  for the invariance checks;
* ``ETA_REFERENCE`` holds the table of normalized averages from
  quadrature rules independent of the package's;
* ``scenario_counts`` counts the same, close and far resonant pairs of
  a field direction from the class axes alone, and
  ``SCENARIO_DIRECTIONS`` holds a direction of each scenario of the
  multiplier table.

Only public names of ``nvcr`` are imported: constants, the geometry
types, ``CLASS_AXES`` and ``as_unit``, none of the computations checked
here.
"""

import mpmath
import numpy as np

from nvcr import BasisChoice, NVClassFrame, PairGeometry
from nvcr.constants import D_GHZ, GAMMA_E_MHZ_PER_G
from nvcr.geometry import CLASS_AXES, as_unit

_SAME_MAGNETIC = 2.0 / (3.0 * np.sqrt(3.0))
# each entry of the table from rules independent of the library's:
# magnetic against a 2048 x 4096 product rule, random against nested
# adaptive quadrature, aligned against a rule with its pole at z1 that
# splits each polar row at the cusp; the same-axis entries are exact
ETA_REFERENCE = {
    ("magnetic", "same"): _SAME_MAGNETIC,
    ("magnetic", "close"): 0.650711414684589,
    ("magnetic", "far"): 0.832777508057429,
    ("nonmagnetic_random", "same"): 0.710994107653050,
    ("nonmagnetic_random", "close"): 0.682750756138088,
    ("nonmagnetic_random", "far"): 0.682750756138088,
    ("nonmagnetic_aligned", "same"): 2.0 * _SAME_MAGNETIC,
    ("nonmagnetic_aligned", "close"): 0.695187487723620,
    ("nonmagnetic_aligned", "far"): 0.695187487723620,
}


# a representative field direction of each scenario, in the row order of
# the multiplier table; None is zero field
SCENARIO_DIRECTIONS = {
    "RANDOM": [1.0, 2.0, 5.0],        # four distinct shares
    "PLANE_100": [0.0, 1.0, 3.0],     # in the (100) plane
    "PLANE_110": [1.0, -1.0, 4.0],    # in the (110) plane
    "AXIS_111": [1.0, 1.0, 1.0],
    "AXIS_100": [1.0, 0.0, 0.0],
    "ZERO_FIELD": None,
}


def resonant_partners(direction) -> list[set[int]]:
    """Per class, the other classes that a field along ``direction``
    reaches with equal shares (|d x z|, |d . z|): its resonant
    partners."""
    d = as_unit(direction)
    shares = np.column_stack([np.linalg.norm(np.cross(d, CLASS_AXES), axis=1),
                              np.abs(CLASS_AXES @ d)])
    n = len(CLASS_AXES)
    return [{m for m in range(n) if m != k
             and np.allclose(shares[k], shares[m], rtol=0.0, atol=1e-12)}
            for k in range(n)]


def scenario_counts(direction) -> tuple[int, int, int]:
    """Counts of same, close and far resonant pairs for a field along
    ``direction``, read from the class with the most partners.  In the
    magnetic basis the relative axis sign(d.z_k) z_k . sign(d.z_l) z_l
    = +-1/3 of a pair makes it close or far.  ``None`` is zero field:
    every class is resonant with every other, and the zero-field basis
    sees only |z_k . z_l| = 1/3, so all of them count as close."""
    if direction is None:
        return (1, len(CLASS_AXES) - 1, 0)
    proj = CLASS_AXES @ as_unit(direction)
    assert np.all(proj != 0.0), "a class axis perpendicular to the field"
    signed = np.sign(proj)[:, None] * CLASS_AXES
    partners = resonant_partners(direction)
    k = max(range(len(CLASS_AXES)), key=lambda m: len(partners[m]))
    close = sum(int(signed[k] @ signed[m] > 0.0) for m in partners[k])
    return (1, close, len(partners[k]) - close)


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 operators (Sx, Sy, Sz) in the basis (|-1>, |0>, |+1>):
    S+ |m> = sqrt(2) |m + 1>, Sx = (S+ + S-)/2, Sy = (S+ - S-)/(2i)."""
    raise_ = np.diag([np.sqrt(2.0)] * 2, k=-1).astype(complex)   # S+
    lower = raise_.T                                            # S-
    return ((raise_ + lower) / 2.0, (raise_ - lower) / 2.0j,
            np.diag([-1.0, 0.0, 1.0]).astype(complex))


def paper_hamiltonian(b_gauss, ex_mhz: float, ey_mhz: float,
                      spin_ops=None) -> np.ndarray:
    """H/h of eq. (1) in GHz for an NV-frame field (Gauss):
    D Sz^2 + gamma_e B.S + d_perp [E_x (Sy^2 - Sx^2) + E_y (Sx Sy + Sy Sx)],
    with ``ex_mhz``, ``ey_mhz`` the energies d_perp E_x, d_perp E_y.
    ``spin_ops`` replaces ``spin_matrices()``, for example by object
    arrays of mpmath numbers."""
    sx, sy, sz = spin_matrices() if spin_ops is None else spin_ops
    bx, by, bz = np.asarray(b_gauss, dtype=float)
    gamma_ghz = GAMMA_E_MHZ_PER_G * 1e-3
    return (D_GHZ * sz @ sz + gamma_ghz * (bx * sx + by * sy + bz * sz)
            + 1e-3 * (ex_mhz * (sy @ sy - sx @ sx)
                      + ey_mhz * (sx @ sy + sy @ sx)))


def class_eigensystem_mp(b_perp_gauss: float, b_z_gauss: float,
                         e_perp_mhz: float, dps: int = 40):
    """Levels (GHz, ascending) of eq. (1) at the NV-frame field
    (B_perp, 0, B_z) with d_perp (E_x, E_y) = (-eps, 0),
    |<+|e>|^2 and |<+1|e>|^2 of the top level |e>, where
    |+> = (|+1> + |-1>)/sqrt(2), and the gap e - m of the top two
    levels (GHz), taken before rounding; each rounded to a double.

    ``paper_hamiltonian`` builds the complex m_s-basis matrix from spin
    operators in mpmath numbers, so no entry is rounded to a double (in
    doubles, D +- gamma_e B_z would carry 2e-16 GHz), and mpmath
    diagonalizes it at ``dps`` digits.  Where the top pair is
    degenerate the weights are those of an arbitrary state of the pair.
    """
    with mpmath.workdps(dps):
        r, i = 1 / mpmath.sqrt(2), mpmath.mpc(0, 1)
        ops = (np.array([[0, r, 0], [r, 0, r], [0, r, 0]]),
               i * r * np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]]),
               np.diag([mpmath.mpf(-1), 0, 1]))
        h = paper_hamiltonian([b_perp_gauss, 0.0, b_z_gauss], -e_perp_mhz,
                              0.0, ops)
        levels, vecs = mpmath.eighe(mpmath.matrix(h.tolist()))
        top = max(range(3), key=lambda k: levels[k])
        m1, p1 = vecs[0, top], vecs[2, top]
        ordered = sorted(levels)
        return (np.array(ordered, dtype=float),
                float(abs(m1 + p1) ** 2 / 2), float(abs(p1) ** 2),
                float(ordered[2] - ordered[1]))


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
# the bilinears kept by the secular argument
_RETAINED = (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"), ("z", "z"))


def _single_spin_ops(basis: BasisChoice):
    if basis is BasisChoice.MAGNETIC:
        return spin_matrices()
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
    axes1, axes2 = ({"x": f.x_hat, "y": f.y_hat, "z": f.z_hat}
                    for f in (g.frame1, g.frame2))
    u = g.u_hat
    h = np.zeros((9, 9), dtype=complex)
    for a, b in _RETAINED:
        weight = 3.0 * (u @ axes1[a]) * (u @ axes2[b]) - axes1[a] @ axes2[b]
        h -= weight * np.kron(op[a], op[b])
    return h


# trapezoid nodes y = e^u of the Laplace transform, u from -30 to 3.5:
# outside that range the integrand in u is below e^-30 ~ 1e-13
_LAPLACE_STEP = 0.1
_LAPLACE_Y = np.exp(np.arange(-300, 36) * _LAPLACE_STEP)


def polarization_from_density(t_s: float, big_t_s: float) -> float:
    """P(t) as the Laplace transform of the rate density.

    Numerically integrates rho(gamma) exp(-gamma t) over (0, inf).  The
    substitution gamma = 1/(4 T y^2) turns the integral into
    (2/sqrt(pi)) int_0^inf exp(-y^2 - t/(4 T y^2)) dy, and y = e^u into
    a smooth, doubly decaying integrand over the real line for a fixed
    trapezoid rule (step 0.1 in u over [-30, 3.5]).  Agrees with the
    closed form exp(-sqrt(t/T)) to ~1e-13 for t/T up to 1e4; with
    t = 0 this is the normalization check.
    """
    if not 0.0 <= t_s < np.inf:
        raise ValueError("t_s must be finite and >= 0")
    if not 0.0 < big_t_s < np.inf:
        raise ValueError("big_t_s must be finite and positive")
    y = _LAPLACE_Y
    ratio = t_s / (4.0 * big_t_s)
    integrand = y * np.exp(-y * y - ratio / (y * y))
    return float(2.0 / np.sqrt(np.pi)
                 * np.trapezoid(integrand, dx=_LAPLACE_STEP))


def rotation_matrix(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about ``axis`` by ``angle_rad``."""
    axis = as_unit(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle_rad) * k + (1.0 - np.cos(angle_rad)) * (k @ k)


def rotate(frame: NVClassFrame, rot: np.ndarray) -> NVClassFrame:
    """``frame`` with each axis rotated by ``rot``."""
    return NVClassFrame(rot @ frame.x_hat, rot @ frame.y_hat,
                        rot @ frame.z_hat)


def swap(g: PairGeometry) -> PairGeometry:
    """Exchange the two spins (and flip the inter-spin direction)."""
    return PairGeometry(-g.u_hat, g.frame2, g.frame1)
