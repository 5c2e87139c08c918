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

Quadrature: in the zero-field basis the sphere average for a fixed pair
of in-plane axes is a kernel K(c) of their cosine alone, with the
azimuthal integral in closed form and the polar one split at its single
kink (see _pair_kernel_batch), accurate to ~1e-13.  Only the in-plane
axes are sampled: a uniform trapezoid in psi for RANDOM mode, a sphere
of shared field directions for ALIGNED mode.  The psi-average converges
algebraically, not spectrally, because K - K(0) ~ c^2 log|c| has a cusp
at c = 0 (Trefethen & Weideman, SIAM Rev. 56, 2014).  Magnetic-basis
cross-class averages sum dipolar.flip_flop_amplitude over product
Gauss-Legendre in cos(theta) x uniform trapezoid in phi.  Either way
the average is evaluated on a resolution ladder (half, nominal,
doubled, ...) until two successive rungs agree within tolerance; for
zero-field-basis averages only n_psi matters.  The axially symmetric
magnetic case is half the kernel at c = 1.  All node sets are built in
a triad derived from the pair geometry itself, so every average is
invariant under a common rotation of the frames to rounding accuracy.
Sphere grids (magnetic averages, ALIGNED field directions) are
generated and summed in blocks of whole theta rows of about _BLOCK
nodes, so no full grid is held.  Gauss-Legendre nodes come from
Newton's method on the Legendre recurrence, with no eigenvalue solve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cache

import numpy as np

from .dipolar import BasisChoice, flip_flop_amplitude
from .geometry import NVClassFrame, PairGeometry, as_unit

__all__ = [
    "ZAngle",
    "XMode",
    "FieldOrientationScenario",
    "EtaScenario",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "ConvergenceError",
    "scenario_frames",
    "pair_average",
    "angular_average",
    "eta_bar",
    "scenario_multiplier",
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


class FieldOrientationScenario(Enum):
    """Applied-field configurations and their resonant class sets."""
    RANDOM_DIRECTION = "random_direction"
    PLANE_110 = "plane_110"
    PLANE_100 = "plane_100"
    AXIS_111 = "axis_111"
    AXIS_100 = "axis_100"
    ZERO_FIELD_ELECTRIC = "zero_field_electric"


@dataclass(frozen=True)
class EtaScenario:
    """One angular-average specification."""

    basis: BasisChoice
    z_angle: ZAngle
    x_mode: XMode = XMode.RANDOM


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid resolutions and the convergence target for angular averages.

    n_theta and n_phi size the sphere grid of magnetic-basis averages;
    n_psi sizes the in-plane axis samples of zero-field-basis averages.
    """

    n_theta: int = 128
    n_phi: int = 128
    n_psi: int = 64
    tolerance: float = 5e-4
    max_doublings: int = 3

    def __post_init__(self):
        for name in ("n_theta", "n_phi", "n_psi", "max_doublings"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("n_theta", "n_phi", "n_psi"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be >= 8")
        if not (np.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be positive and finite")
        if self.max_doublings < 0:
            raise ValueError("max_doublings must be >= 0")

    def scaled(self, factor: float) -> "QuadratureSpec":
        return replace(
            self,
            n_theta=max(8, int(round(self.n_theta * factor))),
            n_phi=max(8, int(round(self.n_phi * factor))),
            n_psi=max(8, int(round(self.n_psi * factor))),
        )


class ConvergenceError(RuntimeError):
    """Raised when the quadrature ladder fails to settle."""


DEFAULT_QUADRATURE = QuadratureSpec()

_KERNEL_NODES = 32  # Gauss-Legendre nodes below the kink of the pair kernel
_NEWTON_STEPS = 10  # cap on the Newton iterations of _gl_nodes
_BLOCK = 2048       # sphere nodes per block of whole theta rows


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
        raise ConvergenceError(
            f"Gauss-Legendre nodes for n={n} did not settle in "
            f"{_NEWTON_STEPS} Newton steps")
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = (0.5 * (x - x[::-1]), 0.5 * (w + w[::-1]))
    for a in nodes:
        a.flags.writeable = False
    return nodes


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


def _relative_triad(z1: np.ndarray, z2: np.ndarray):
    """Orthonormal triad built from the two NV axes.

    Returns (e1, e2, e3) with e1 = z1 and e3 normal to the (z1, z2)
    plane; for parallel axes any fixed normal completes the triad.  All
    downstream node sets live in this triad, which is what makes the
    averages rotation covariant.
    """
    e1 = as_unit(z1)
    cross = np.cross(z1, z2)
    n = np.linalg.norm(cross)
    if n > 1e-12:
        e3 = cross / n
    else:
        seed = np.array([1.0, 0.0, 0.0])
        if abs(seed @ e1) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        e3 = as_unit(seed - (seed @ e1) * e1)
    e2 = np.cross(e3, e1)
    return e1, e2, e3


def _sphere_node_blocks(n_theta: int, n_phi: int, triad):
    """Yield (u, weight) of the product sphere grid in blocks of whole
    theta rows, about ``_BLOCK`` nodes each (one row when n_phi alone
    exceeds it), so no full grid is ever held."""
    e1, e2, e3 = triad
    t, w = _gl_nodes(n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    cp, sp = np.cos(phi), np.sin(phi)
    rows = max(1, _BLOCK // n_phi)
    for k in range(0, n_theta, rows):
        tk = t[k:k + rows]
        ct = np.repeat(tk, n_phi)
        st = np.sqrt(np.clip(1.0 - ct * ct, 0.0, None))
        # polar axis e3 so u covers the sphere relative to the pair plane
        u = (st * np.tile(cp, len(tk)))[:, None] * e1[None, :] \
            + (st * np.tile(sp, len(tk)))[:, None] * e2[None, :] \
            + ct[:, None] * e3[None, :]
        yield u, np.repeat(w[k:k + rows], n_phi) / (2.0 * n_phi)


def _magnetic_pair_average(z1: np.ndarray, z2: np.ndarray,
                           n_theta: int, n_phi: int) -> float:
    """Sphere average of the magnetic-basis flip-flop magnitude."""
    czz = float(z1 @ z2)
    if abs(abs(czz) - 1.0) < 1e-12:
        # axial symmetry: |M| = |3 (u.z)^2 - 1| / 2, half the kernel at c = 1
        return 0.5 * float(_pair_kernel_batch(1.0)[0])
    triad = _relative_triad(z1, z2)
    # the magnitude is invariant under in-plane axis rotations, so both
    # frames take the normal to both axes as their x axis
    frame1, frame2 = (NVClassFrame(k, triad[2], np.cross(z, triad[2]), z)
                      for k, z in ((0, z1), (1, z2)))
    total = 0.0
    for u, w in _sphere_node_blocks(n_theta, n_phi, triad):
        g = PairGeometry(u, frame1, frame2)
        total += float(flip_flop_amplitude(g, BasisChoice.MAGNETIC) @ w)
    return total


def _nonmagnetic_pair_average(z1: np.ndarray, z2: np.ndarray, x_mode: XMode,
                              n_psi: int) -> float:
    """Average of the zero-field-basis flip-flop magnitude (x channel).

    The in-plane axes are either derived from a shared field direction
    averaged over the sphere (ALIGNED), or independently randomized
    (RANDOM).  For a pair of in-plane axes the sphere average is the
    kernel of _pair_kernel_batch at their mutual cosine, so only the
    in-plane axes are sampled, on n_psi nodes per angle.
    """
    czz = float(np.clip(z1 @ z2, -1.0, 1.0))
    same_axis = abs(abs(czz) - 1.0) < 1e-12
    if x_mode is XMode.ALIGNED:
        if same_axis:
            # shared transverse plane: a common field projects onto the
            # same in-plane axis for both spins
            return float(_pair_kernel_batch(1.0)[0])
        # distinct axes: project a shared direction F, uniform over the
        # sphere, onto each transverse plane
        def in_plane(f, zhat):
            p = f - np.outer(f @ zhat, zhat)
            n = np.linalg.norm(p, axis=1)
            n[n < 1e-12] = 1.0  # measure-zero poles; numerator is ~0 there
            return p / n[:, None]

        total = 0.0
        for f, wf in _sphere_node_blocks(n_psi, n_psi,
                                         _relative_triad(z1, z2)):
            c = np.sum(in_plane(f, z1) * in_plane(f, z2), axis=1)
            total += float(_pair_kernel_batch(np.clip(c, -1.0, 1.0)) @ wf)
        return total
    # RANDOM mode: independent uniform azimuths psi_1, psi_2 of the two
    # in-plane axes; x1.x2 = cos(psi1)cos(psi2) + (z1.z2) sin(psi1)sin(psi2)
    psi = np.linspace(0.0, 2.0 * np.pi, n_psi, endpoint=False)
    cp, sp = np.cos(psi), np.sin(psi)
    if same_axis:
        c = cp  # only the relative azimuth matters in a shared plane
    else:
        c = (cp[:, None] * cp[None, :] + czz * sp[:, None] * sp[None, :]).ravel()
    return float(np.mean(_pair_kernel_batch(c)))


def scenario_frames(z_angle: ZAngle) -> tuple[NVClassFrame, NVClassFrame]:
    """Canonical frame pair realizing a relative-axis class."""
    z1 = np.array([0.0, 0.0, 1.0])
    czz = _Z_COS[z_angle]
    z2 = np.array([np.sqrt(max(0.0, 1.0 - czz * czz)), 0.0, czz])
    frames = []
    for cid, z in ((0, z1), (1, z2)):
        x = np.array([0.0, 1.0, 0.0])  # orthogonal to both axes
        frames.append(NVClassFrame(cid, x, np.cross(z, x), z))
    return frames[0], frames[1]


def pair_average(frame1: NVClassFrame, frame2: NVClassFrame,
                 basis: BasisChoice, x_mode: XMode,
                 q: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Converged angular average for an explicit frame pair.

    Only the frames' NV axes enter; in the zero-field basis ``x_mode``
    sets the in-plane axes (a shared field direction averaged over the
    sphere, or independent uniform azimuths).
    """

    def rung(spec: QuadratureSpec) -> float:
        if basis is BasisChoice.MAGNETIC:
            return _magnetic_pair_average(frame1.z_hat, frame2.z_hat,
                                          spec.n_theta, spec.n_phi)
        return _nonmagnetic_pair_average(frame1.z_hat, frame2.z_hat, x_mode,
                                         spec.n_psi)

    def sampled(spec: QuadratureSpec) -> tuple:
        if basis is BasisChoice.MAGNETIC:
            return spec.n_theta, spec.n_phi
        return (spec.n_psi,)

    half = q.scaled(0.5)
    # at the resolution floor of the sizes this average samples the half
    # spec repeats q's rung and would compare it with itself; step the
    # ladder up instead
    at_floor = sampled(half) == sampled(q)
    prev = rung(half)
    for k in range(q.max_doublings + 1):
        factor = float(2 ** (k + 1)) if at_floor else float(2 ** k)
        cur = rung(q.scaled(factor))
        change = abs(cur - prev)
        if change < q.tolerance:
            return cur
        prev = cur
    raise ConvergenceError(
        f"angular average did not settle within tolerance {q.tolerance:g}; "
        f"last change {change:.3e} at {factor:g}x resolution")


def angular_average(s: EtaScenario, q: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Normalized average A = eta_bar / (1/4 sqrt(1/3)) for one scenario.

    In the magnetic basis the result does not depend on x_mode (the
    flip-flop magnitude is invariant under in-plane axis rotations).
    """
    f1, f2 = scenario_frames(s.z_angle)
    return pair_average(f1, f2, s.basis, s.x_mode, q)


def eta_bar(s: EtaScenario, q: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Average coupling including the population and bandwidth prefactor."""
    return ETA_PREFACTOR * angular_average(s, q)


# resonant class-pair composition per applied-field configuration: each
# term is (z_angle, count); basis/x_mode depend on the configuration
_MAGNETIC_COMPOSITION = {
    FieldOrientationScenario.RANDOM_DIRECTION: [(ZAngle.SAME, 1)],
    FieldOrientationScenario.PLANE_110: [(ZAngle.SAME, 1), (ZAngle.FAR, 1)],
    FieldOrientationScenario.PLANE_100: [(ZAngle.SAME, 1), (ZAngle.CLOSE, 1)],
    FieldOrientationScenario.AXIS_111: [(ZAngle.SAME, 1), (ZAngle.FAR, 2)],
    FieldOrientationScenario.AXIS_100: [(ZAngle.SAME, 1), (ZAngle.CLOSE, 2),
                                        (ZAngle.FAR, 1)],
}


def _memoized_average(q: QuadratureSpec):
    """angular_average at ``q`` keyed by (basis, z_angle, x_mode).

    The dict lives only as long as the returned function, so a table
    evaluates each distinct average once per call and nothing is kept
    between calls.  A zero-field-basis FAR request reuses CLOSE: K is
    even and z2 -> -z2 leaves both in-plane axis sets unchanged, so the
    two are one integral.
    """
    cache = {}

    def average(basis: BasisChoice, z_angle: ZAngle,
                x_mode: XMode = XMode.RANDOM) -> float:
        if basis is BasisChoice.NONMAGNETIC and z_angle is ZAngle.FAR:
            z_angle = ZAngle.CLOSE
        key = (basis, z_angle, x_mode)
        if key not in cache:
            cache[key] = angular_average(EtaScenario(basis, z_angle, x_mode), q)
        return cache[key]

    return average


def _composition_total(fs: FieldOrientationScenario, average) -> float:
    if fs is FieldOrientationScenario.ZERO_FIELD_ELECTRIC:
        # all four classes resonant in the zero-field basis; in-plane
        # axes set by uncorrelated local electric fields
        same = average(BasisChoice.NONMAGNETIC, ZAngle.SAME)
        diff = average(BasisChoice.NONMAGNETIC, ZAngle.CLOSE)
        return same + 3.0 * diff
    total = 0.0
    for z_angle, count in _MAGNETIC_COMPOSITION[fs]:
        total += count * average(BasisChoice.MAGNETIC, z_angle)
    return total


def _multiplier(fs: FieldOrientationScenario, average) -> float:
    base = average(BasisChoice.MAGNETIC, ZAngle.SAME)
    return float((_composition_total(fs, average) / base) ** 2)


def scenario_multiplier(fs: FieldOrientationScenario,
                        q: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Rate multiplier (eta_bar / eta_bar_0)^2 for one field configuration.

    eta_bar_0 is the single-class magnetic-basis average, the rate unit
    of a generic field direction where only same-class pairs are
    resonant.
    """
    return _multiplier(fs, _memoized_average(q))


def eta_table(q: QuadratureSpec = DEFAULT_QUADRATURE) -> dict:
    """The 3x3 table of normalized averages A per basis/mode and axis class.

    Rows: magnetic basis (mode-free), nonmagnetic with random in-plane
    axes, nonmagnetic with field-aligned axes.  Columns: same, close,
    far.
    """
    average = _memoized_average(q)
    table = {}
    for z in ZAngle:
        table[("magnetic", z.value)] = average(BasisChoice.MAGNETIC, z)
    for mode in (XMode.RANDOM, XMode.ALIGNED):
        for z in ZAngle:
            table[(f"nonmagnetic_{mode.value}", z.value)] = average(
                BasisChoice.NONMAGNETIC, z, mode)
    return table


def multiplier_table(q: QuadratureSpec = DEFAULT_QUADRATURE) -> dict:
    """Rate multiplier per field-orientation scenario."""
    average = _memoized_average(q)
    return {fs.name: _multiplier(fs, average) for fs in FieldOrientationScenario}
