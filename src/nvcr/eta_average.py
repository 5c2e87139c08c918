"""Solid-angle averaged dipolar couplings and scenario rate multipliers.

The cross-relaxation rate of an NV spin against a bath of resonant
fluctuators scales as eta_bar^2, where eta_bar averages the flip-flop
magnitude over the inter-spin direction u_hat, the participating class
pairs, and (in the zero-field basis) the relative orientation of the
in-plane reference axes.  Resonance between classes is applied as a
binary rule: a class pair either contributes its full angular average
or does not contribute at all.

All averages are reported normalized as A = eta_bar / (1/4 * sqrt(1/3)),
the convention of the coupling table; ``eta_bar`` applies the prefactor.

Each applied-field scenario of ``multiplier_table`` resonates n_same,
n_close and n_far class pairs in one basis, and its rate multiplier is
(sum n_i A_i / A_same,magnetic)^2, summed in that order:

    RANDOM      magnetic     1 0 0   generic direction, one class
    PLANE_100   magnetic     1 1 0
    PLANE_110   magnetic     1 0 1
    AXIS_111    magnetic     1 0 2
    AXIS_100    magnetic     1 2 1   all four classes resonant
    ZERO_FIELD  nonmagnetic  1 3 0   in-plane axes from uncorrelated
                                     local electric fields (RANDOM mode)

Quadrature: each average is one fixed rule that depends only on the
basis, the mode and czz = z1.z2, with gamma = arccos czz.  In the
zero-field basis the sphere average for a fixed pair of in-plane axes
is a kernel K(c) of their cosine alone, with the azimuthal integral in
closed form and the polar one split at its single kink (see
_pair_kernel_batch), accurate to ~1e-13.  "Graded" nodes below are
Gauss-Legendre nodes mapped by g(s) = s^3 / (s^3 + (1 - s)^3), which
integrates a corner or endpoint singularity of a panel to rounding.

* RANDOM (zero-field basis, independent in-plane azimuths psi1, psi2):
  x1.x2 = R cos(psi2 - delta) with R^2 = cos^2 psi1 + czz^2 sin^2 psi1,
  so the psi2 average is M(R) = (2/pi) int_0^{pi/2} K(R cos phi) dphi,
  taken on 32 Gauss-Legendre nodes in s with phi = (pi/2)(1 - s^3),
  which smooths K's cusp at c = 0 (Trefethen & Weideman, SIAM Rev. 56,
  2014).  The average is the mean of M(R) over a 64-point trapezoid in
  psi1; the same axis is R = 1.  Error below 1e-14 against nested
  adaptive quadrature.
* MAGNETIC basis, cross-class: t = cos(theta) about the pair-plane
  normal runs over [0, 1], and the azimuth over [0, pi) is split into
  two panels at the equatorial conical zeros of the element, phi =
  (gamma +- arccos((czz - 2)/3))/2 mod pi; 48 x 48 graded nodes per
  panel sum ``dipolar.flip_flop_amplitude`` over the node stack.  The
  same axis is half the kernel at c = 1, the constant 2/(3 sqrt 3).
  Error below 1e-14 against doubled node counts.
* ALIGNED (zero-field basis, in-plane axes projected from a shared
  field direction F uniform over the sphere), with |czz| since z2 ->
  -z2 leaves both transverse planes as they are: the pole sits at the
  pair-plane normal, F = sin(chi)(cos(alpha) z1 + sin(alpha) e2) +
  cos(chi) e3, a = F.z1 and b = F.z2, so that
  c = (1 - sin^2(chi) Q) / sqrt((1 - a^2)(1 - b^2)) with
  Q = 1 + (czz/2)(cos(2 alpha - gamma) - czz) and 1 - a^2 formed as
  cos^2(chi) + sin^2(chi) sin^2(alpha).  alpha in [0, pi) is split at
  0 and gamma, where the point singularities F = z1 and F = z2 sit,
  and chi where Q > 1 at the cusp sin(chi) = Q^(-1/2), which meets the
  equator exactly at those two points; 64 x 64 graded nodes per panel.
  Error below 1e-14 against doubled node counts and an independent rule
  with its pole at z1.  The same axis has c = 1 for every F: the
  constant K(1) = 4/(3 sqrt 3).

Gauss-Legendre nodes come from Newton's method on the Legendre
recurrence, with no eigenvalue solve.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache

import numpy as np

from .dipolar import BasisChoice, flip_flop_amplitude
from .geometry import NVClassFrame, PairGeometry

__all__ = [
    "ZAngle",
    "XMode",
    "scenario_frames",
    "pair_average",
    "eta_bar",
    "eta_table",
    "multiplier_table",
]

# eta_bar = (class population 1/4) * sqrt(1/3 resonance fraction) * A
ETA_PREFACTOR = 0.25 * np.sqrt(1.0 / 3.0)


class ZAngle(Enum):
    """Relative orientation of the two NV axes."""
    SAME = "same"      # parallel axes, z1.z2 = 1
    CLOSE = "close"    # arccos(1/3) = 70.5 deg, z1.z2 = +1/3
    FAR = "far"        # arccos(-1/3) = 109.5 deg, z1.z2 = -1/3


_Z_COS = {ZAngle.SAME: 1.0, ZAngle.CLOSE: 1.0 / 3.0, ZAngle.FAR: -1.0 / 3.0}


class XMode(Enum):
    """How the two in-plane reference axes relate."""
    ALIGNED = "aligned"   # both x axes from one shared field direction
    RANDOM = "random"     # independent uniform azimuths, averaged


_KERNEL_NODES = 32    # Gauss-Legendre nodes below the kink of the pair kernel
_NEWTON_STEPS = 10    # cap on the Newton iterations of _gl_nodes
_PSI_NODES = 64       # RANDOM: trapezoid nodes in psi1
_PHI_NODES = 32       # RANDOM: Gauss-Legendre nodes of M(R)
_MAGNETIC_NODES = 48  # MAGNETIC: graded nodes per panel and direction
_ALIGNED_NODES = 64   # ALIGNED: graded nodes per panel and direction
_K_SAME = 4.0 / (3.0 * math.sqrt(3.0))   # the pair kernel K(+-1)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], made once
    per ``n`` and shared, so read-only.

    Newton's method on the recurrence from x_k = cos(pi (k - 1/4) /
    (n + 1/2)), weights 2 / ((1 - x^2) P_n'(x)^2), then symmetrized
    (Hale & Townsend, SIAM J. Sci. Comput. 35, A652, 2013).
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    else:
        raise ArithmeticError(
            f"Gauss-Legendre nodes for n={n} did not settle in "
            f"{_NEWTON_STEPS} Newton steps")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = (0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]))
    for a in nodes:
        a.flags.writeable = False
    return nodes


def _graded(n: int, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """n graded Gauss-Legendre nodes on [lo, hi] and their weights.

    The nodes s on [0, 1] are mapped by g(s) = s^3 / (s^3 + (1 - s)^3),
    whose derivative vanishes to second order at both ends.  ``lo`` and
    ``hi`` may be arrays of intervals; the nodes then get a last axis.
    """
    x, w = _gl_nodes(n)
    s = 0.5 * (x + 1.0)
    d = s ** 3 + (1.0 - s) ** 3
    g, dg = s ** 3 / d, 1.5 * w * (s * (1.0 - s)) ** 2 / (d * d)
    lo, hi = (np.asarray(v, dtype=float)[..., None] for v in (lo, hi))
    return lo + (hi - lo) * g, (hi - lo) * dg


def _pair_kernel_batch(cosines) -> np.ndarray:
    """Sphere average K(c) of |3 (u.a)(u.b) - a.b| for a batch of axis cosines.

    By rotational invariance the average depends only on c = a.b.  With
    the polar axis along the common normal of a and b the integrand is
    |A cos 2phi + B| with A = (3/2)(1 - t^2), B = (A - 1) c and t the
    polar cosine, and its phi-average is exact: (2/pi)(B arcsin(B/A) +
    sqrt(A^2 - B^2)) where |B| < A, and |B| elsewhere.  The single kink
    |B| = A sits at t* = sqrt(1 - (2/3)|c|/(1 + |c|)).  Above it the
    integrand is the quadratic |c| (3t^2 - 1)/2, integrated in closed
    form; below it Gauss-Legendre runs in w with t = t* (1 - w^2), which
    turns the (t* - t)^(3/2) endpoint into a smooth integrand.  K is even
    in c, K(0) = 2/pi and K(+-1) = 4/(3 sqrt 3).
    """
    x, w = _gl_nodes(_KERNEL_NODES)
    s, ws = 0.5 * (x + 1.0), 0.5 * w               # nodes on [0, 1]
    c = np.abs(np.atleast_1d(np.asarray(cosines, dtype=float)))
    t_star = np.sqrt(1.0 - c / (1.5 * (1.0 + c)))
    out = 0.5 * c * t_star * (1.0 - t_star * t_star)   # [t*, 1] in closed form
    for sk, wk in zip(s, ws):  # node by node: memory stays O(len(c))
        t = t_star * (1.0 - sk * sk)
        a = 1.5 * (1.0 - t * t)
        b = (a - 1.0) * c
        r = np.clip(b / a, -1.0, 1.0)
        g = (2.0 / np.pi) * (b * np.arcsin(r) + a * np.sqrt(1.0 - r * r))
        out += (2.0 * wk * sk) * t_star * g        # dt = 2 t* w dw
    return out


def _pair_frames(czz: float) -> tuple[NVClassFrame, NVClassFrame]:
    """Frames with z1 = [001] and z2 = [sin gamma, 0, czz] in the xz
    plane, both x axes along the pair-plane normal [010]."""
    x = np.array([0.0, 1.0, 0.0])
    return tuple(NVClassFrame(x, np.cross(z, x), z) for z in (
        np.array([0.0, 0.0, 1.0]),
        np.array([np.sqrt(1.0 - czz * czz), 0.0, czz])))


def _magnetic_average(czz: float) -> float:
    """Sphere average of the magnetic-basis flip-flop magnitude."""
    if abs(abs(czz) - 1.0) < 1e-12:
        # axial symmetry: |M| = |3 (u.z)^2 - 1| / 2, half the kernel at c = 1
        return 0.5 * _K_SAME
    # the equatorial zeros of the element, one per azimuth panel edge
    gamma, spread = np.arccos(czz), np.arccos((czz - 2.0) / 3.0)
    lo, hi = np.sort(np.mod(0.5 * (gamma + np.array([-spread, spread])),
                            np.pi))
    t, w_t = _graded(_MAGNETIC_NODES, 0.0, 1.0)
    st, t = np.sqrt(1.0 - t * t)[:, None], t[:, None]
    frames = _pair_frames(czz)
    total = 0.0
    for p_lo, p_hi in ((lo, hi), (hi, lo + np.pi)):
        phi, w_phi = _graded(_MAGNETIC_NODES, p_lo, p_hi)
        # u = sin(theta)(cos(phi) z1 + sin(phi) e2) + t e3 with e2 = [100]
        # and e3 = [010]: the magnitude is even in t and pi-periodic in phi
        u = np.stack(np.broadcast_arrays(st * np.sin(phi), t,
                                         st * np.cos(phi)), axis=-1)
        total += float(flip_flop_amplitude(
            PairGeometry(u.reshape(-1, 3), *frames),
            BasisChoice.MAGNETIC) @ np.outer(w_t, w_phi).ravel())
    return total / np.pi


def _random_average(czz: float) -> float:
    """RANDOM mode: the mean over psi1 of M(R), with R^2 = cos^2 psi1 +
    czz^2 sin^2 psi1 and cos(phi) = sin((pi/2) s^3) in M's integral."""
    x, w = _gl_nodes(_PHI_NODES)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    psi = np.linspace(0.0, 2.0 * np.pi, _PSI_NODES, endpoint=False)
    c = np.outer(np.hypot(np.cos(psi), czz * np.sin(psi)),
                 np.sin(0.5 * np.pi * s ** 3))
    m = _pair_kernel_batch(c.ravel()).reshape(c.shape) @ (3.0 * s * s * ws)
    return float(np.mean(m))


def _aligned_cosines(alpha, chi, q_alpha, gamma) -> np.ndarray:
    """c on the (alpha, chi) nodes of one band, clipped and flattened."""
    cc, sc = np.cos(chi) ** 2, np.sin(chi) ** 2
    # 1 - a^2 and 1 - b^2 as sums: no cancellation near z1, z2
    c = (1.0 - sc * q_alpha[:, None]) / np.sqrt(
        (cc + sc * np.sin(alpha)[:, None] ** 2)
        * (cc + sc * np.sin(alpha - gamma)[:, None] ** 2))
    return np.clip(c, -1.0, 1.0).ravel()


def _aligned_average(czz: float) -> float:
    """ALIGNED mode: K at the cosine of the in-plane axes that a shared
    field direction F, uniform over the sphere, projects onto both
    transverse planes; hemisphere chi <= pi/2 and alpha in [0, pi)."""
    if abs(czz - 1.0) < 1e-12:
        return _K_SAME      # the same axis: the two x axes coincide
    gamma = np.arccos(czz)
    total = 0.0
    for a_lo, a_hi in ((0.0, gamma), (gamma, np.pi)):
        alpha, w_alpha = _graded(_ALIGNED_NODES, a_lo, a_hi)
        q_alpha = 1.0 + 0.5 * czz * (np.cos(2.0 * alpha - gamma) - czz)
        # Q >= 1 between z1 and z2, where chi splits at the cusp c = 0,
        # and Q <= 1 on the rest of [0, pi)
        cusp = np.arcsin(1.0 / np.sqrt(np.maximum(q_alpha, 1.0)))
        bands = ((0.0, cusp), (cusp, 0.5 * np.pi)) if a_lo == 0.0 \
            else ((0.0, 0.5 * np.pi),)
        for c_lo, c_hi in bands:
            chi, w_chi = _graded(_ALIGNED_NODES, c_lo, c_hi)
            w = w_chi * np.sin(chi) * w_alpha[:, None]
            k = _pair_kernel_batch(_aligned_cosines(alpha, chi, q_alpha, gamma))
            total += float(k @ w.ravel())
    return total / np.pi


def scenario_frames(z_angle: ZAngle) -> tuple[NVClassFrame, NVClassFrame]:
    """Canonical frame pair realizing a relative-axis class."""
    return _pair_frames(_Z_COS[z_angle])


def pair_average(frame1: NVClassFrame, frame2: NVClassFrame,
                 basis: BasisChoice, x_mode: XMode) -> float:
    """Angular average for an explicit frame pair, by the fixed rule of
    its basis and mode (module docstring).

    Only the frames' NV axes enter, through czz = z1.z2; in the
    zero-field basis ``x_mode`` sets the in-plane axes (a shared field
    direction averaged over the sphere, or independent uniform
    azimuths).
    """
    czz = float(np.clip(frame1.z_hat @ frame2.z_hat, -1.0, 1.0))
    if basis is BasisChoice.MAGNETIC:
        return _magnetic_average(czz)
    if x_mode is XMode.ALIGNED:
        return _aligned_average(abs(czz))
    return _random_average(czz)


def eta_bar(basis: BasisChoice, z_angle: ZAngle,
            x_mode: XMode = XMode.RANDOM) -> float:
    """Average coupling of one axis class including the population and
    bandwidth prefactor; in the magnetic basis ``x_mode`` plays no part
    (the flip-flop magnitude is invariant under in-plane axis rotations)."""
    return ETA_PREFACTOR * pair_average(*scenario_frames(z_angle), basis,
                                        x_mode)


def _row(basis: BasisChoice, x_mode: XMode = XMode.RANDOM) -> list[float]:
    """The [same, close, far] averages of one basis and mode.

    In the zero-field basis far reuses close: K is even and z2 -> -z2
    leaves both in-plane axis sets unchanged, so the two are one integral.
    """
    row = [pair_average(*scenario_frames(z), basis, x_mode)
           for z in (ZAngle.SAME, ZAngle.CLOSE)]
    if basis is BasisChoice.NONMAGNETIC:
        return row + row[1:]
    return row + [pair_average(*scenario_frames(ZAngle.FAR), basis, x_mode)]


def eta_table() -> dict:
    """The 3x3 table of normalized averages A per basis/mode and axis class.

    Rows: magnetic basis (mode-free), nonmagnetic with random in-plane
    axes, nonmagnetic with field-aligned axes.  Columns: same, close,
    far.
    """
    rows = {"magnetic": _row(BasisChoice.MAGNETIC),
            "nonmagnetic_random": _row(BasisChoice.NONMAGNETIC),
            "nonmagnetic_aligned": _row(BasisChoice.NONMAGNETIC,
                                        XMode.ALIGNED)}
    return {(family, z.value): value for family, row in rows.items()
            for z, value in zip(ZAngle, row)}


# scenario -> basis and counts of same, close and far resonant pairs
# (module docstring)
_SCENARIOS = {
    "RANDOM": (BasisChoice.MAGNETIC, (1, 0, 0)),
    "PLANE_100": (BasisChoice.MAGNETIC, (1, 1, 0)),
    "PLANE_110": (BasisChoice.MAGNETIC, (1, 0, 1)),
    "AXIS_111": (BasisChoice.MAGNETIC, (1, 0, 2)),
    "AXIS_100": (BasisChoice.MAGNETIC, (1, 2, 1)),
    "ZERO_FIELD": (BasisChoice.NONMAGNETIC, (1, 3, 0)),
}


def multiplier_table() -> dict:
    """Rate multiplier (eta_bar / eta_bar_0)^2 per field scenario.

    eta_bar_0 is the single-class magnetic-basis average, the rate unit
    of a generic field direction where only same-class pairs are
    resonant.
    """
    rows = {basis: _row(basis) for basis in BasisChoice}
    base = rows[BasisChoice.MAGNETIC][0]
    table = {}
    for name, (basis, counts) in _SCENARIOS.items():
        total = 0.0
        # in order: sum() compensates its float additions since Python 3.12
        for n, value in zip(counts, rows[basis]):
            total += n * value
        table[name] = (total / base) ** 2
    return table
