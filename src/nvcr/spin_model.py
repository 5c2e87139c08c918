"""Single-NV ground-state Hamiltonian and eigenstructure.

The spin-1 ground state is modeled as in eq. (1) of the paper,

    H/h = D Sz^2 + gamma_e (B . S)
          + d_perp [E_x (Sy^2 - Sx^2) + E_y (Sx Sy + Sy Sx)],

in the NV's own frame (z along the NV axis), with all operators written
in the |m_s> basis ordered (|-1>, |0>, |+1>) and energies in GHz.  The
electric term is given as the energy eps_perp = d_perp*E_perp and its
azimuth phi_E from the local x axis.  Projecting a crystal-frame field
onto a center is left to the caller: ``odmr`` puts the NV frame's x axis
along the field's transverse part, so each class's field arrives as
(B_perp, 0, B_z).

Sign convention: the transverse electric coupling is taken as
<+1|H|-1> = +eps_perp * exp(i phi_E), which is eq. (1) with
d_perp (E_x, E_y) = -eps_perp (cos phi_E, sin phi_E).  The zero-field
eigenstates are then |0> and |+-> = (|+1> +- exp(-i phi_E)|-1>)/sqrt(2)
with |+> the upper branch.  With this choice a field along x leaves
|-> an exact eigenstate (Sx annihilates it) and mixes |+> with |0>
only, so |e> tracks |+> and the d/e splitting grows monotonically with
B_perp.

At a class field (B_perp, 0, B_z) with phi_E = 0 eq. (1) is real, and
``_class_blocks`` solves it in closed form for ``eigenstate_map``,
``transverse_field_scan`` and the ``odmr`` line scans, so no scan calls
LAPACK.  ``build_hamiltonian`` and ``diagonalize`` remain the solver of
eq. (1) in general.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import D_GHZ, GAMMA_E_MHZ_PER_G

__all__ = [
    "zero_field_states",
    "build_hamiltonian",
    "diagonalize",
    "eigenstate_map",
    "transverse_field_scan",
]

# GHz; eigenvalues closer than this are tie-broken.  Re-mixing a group
# that spans a gap g leaves an eigen-residual of up to g, so the
# tolerance must not exceed diagonalize's residual bound,
# 1e-10 * max(|H_ij|, 1).
_DEG_TOL = 1e-10
_BLOCK = 512      # field points per _class_blocks block: bounds the
                  # temporaries of a large scan


# spin-1 operators Sx, Sy, Sz in the (|-1>, |0>, |+1>) basis
_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
_SY = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex) * (1j / np.sqrt(2.0))
_SZ = np.diag([-1.0, 0.0, 1.0]).astype(complex)
_SZ2 = _SZ @ _SZ


def zero_field_states(phi_e_rad: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference states (|0>, |->, |+>) as columns in the m_s basis.

    |+-> = (|+1> +- exp(-i phi_E) |-1>)/sqrt(2), named by energy branch.
    ``dipolar``'s zero-field basis names the same states by operator: at
    phi_E = 0 its |-> is this |+>, and its |+> is this |-> times -i.
    """
    s0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    ph = np.exp(-1j * phi_e_rad)
    sp = np.array([ph, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    sm = np.array([-ph, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return s0, sm, sp


@dataclass(frozen=True)
class SpinEigensystem:
    """Ordered eigenstructure of the 3x3 ground-state Hamiltonian.

    ``energies_ghz`` (..., 3) ascend and are labeled (g, d, e); ``states``
    (..., 3, 3) holds the eigenvectors as columns in the (|-1>, |0>, |+1>)
    basis.
    """

    energies_ghz: np.ndarray
    states: np.ndarray

    @property
    def g(self) -> np.ndarray:
        return self.states[..., :, 0]

    @property
    def d(self) -> np.ndarray:
        return self.states[..., :, 1]

    @property
    def e(self) -> np.ndarray:
        return self.states[..., :, 2]


def build_hamiltonian(b_gauss, e_perp_mhz: float = 0.0,
                      phi_e_rad: float = 0.0) -> np.ndarray:
    """Assemble H/h of eq. (1) in GHz, (..., 3, 3) for a field stack.

    ``b_gauss`` is the magnetic field (Gauss) in the NV frame: a finite
    3-vector or a (..., 3) stack.  ``e_perp_mhz`` is the transverse
    electric energy d_perp*E_perp (MHz), finite and >= 0, and
    ``phi_e_rad`` its finite azimuth from the local x axis.
    """
    b = np.asarray(b_gauss, dtype=float)
    if b.shape[-1:] != (3,) or not np.all(np.isfinite(b)):
        raise ValueError("b_gauss must be finite 3-vectors")
    if not 0.0 <= e_perp_mhz < np.inf:
        raise ValueError("e_perp_mhz must be finite and >= 0")
    if not np.isfinite(phi_e_rad):
        raise ValueError("phi_e_rad must be finite")
    bx, by, bz = (b[..., k, None, None] for k in range(3))
    gam = GAMMA_E_MHZ_PER_G * 1e-3  # GHz per Gauss
    h = D_GHZ * _SZ2 + gam * (bx * _SX + by * _SY + bz * _SZ)
    eps = e_perp_mhz * 1e-3
    if eps != 0.0:
        ph = np.exp(1j * phi_e_rad)
        h[..., 2, 0] += eps * ph
        h[..., 0, 2] += eps * np.conj(ph)
    return h


def _tie_break_degenerate(energies: np.ndarray, vecs: np.ndarray) -> None:
    """Rotate degenerate eigenvector groups onto the references, in place.

    Within each degenerate group the eigenbasis is arbitrary; it is
    re-mixed to maximize overlap with |0>, |->, |+> in that order so
    zero-field labels come out deterministic.
    """
    i = 0
    while i < 3:
        j = i + 1
        while j < 3 and energies[j] - energies[i] < _DEG_TOL:
            j += 1
        if j - i > 1:
            block = vecs[:, i:j]
            proj = block @ block.conj().T
            chosen: list[np.ndarray] = []
            for ref in zero_field_states(0.0):
                w = proj @ ref
                for prev in chosen:
                    w = w - (prev.conj() @ w) * prev
                n = np.linalg.norm(w)
                if n > 0.5:     # skips the ~gamma_e B / D leak of |0>
                    chosen.append(w / n)
                if len(chosen) == j - i:
                    break
            if len(chosen) == j - i:
                vecs[:, i:j] = np.stack(chosen, axis=1)
        i = j


def diagonalize(h: np.ndarray) -> SpinEigensystem:
    """Eigensystems of a Hermitian (..., 3, 3) stack, energies ascending.

    The checks divide each matrix by max(|H_ij|, 1), which cannot
    overflow, so they hold at any finite scale.
    """
    h = np.asarray(h, dtype=complex)
    shape = h.shape[:-2]
    h = h.reshape(-1, 3, 3)
    scale = np.maximum(np.abs(h).max(axis=(1, 2), initial=0.0),
                       1.0)[:, None, None]
    if np.any(np.linalg.norm((h - h.conj().transpose(0, 2, 1)) / scale,
                             axis=(1, 2)) > 1e-10):
        raise ValueError("Hamiltonian is not Hermitian")
    e, v = np.linalg.eigh(h)
    for i in np.flatnonzero((e[:, 1:] - e[:, :-1]).min(axis=1) < _DEG_TOL):
        _tie_break_degenerate(e[i], v[i])
    # deterministic global phase: largest component real positive
    big = v[np.arange(len(h))[:, None], np.abs(v).argmax(axis=1),
            np.arange(3)]
    v /= (big / np.abs(big))[:, None, :]
    resid = np.linalg.norm((h @ v - v * e[:, None, :]) / scale, axis=1)
    if np.any(resid > 1e-10):
        raise ArithmeticError(
            f"relative eigen-residual too large: {resid.max():.3e}")
    return SpinEigensystem(e.reshape(shape + (3,)), v.reshape(shape + (3, 3)))


def _class_blocks(b_perp_gauss: np.ndarray, b_z_gauss: np.ndarray,
                  e_perp_mhz: float):
    """Yield (slice, levels, w_plus, w_p1, gap) for each block of
    ``_BLOCK`` points of the NV-frame fields (B_perp, 0, B_z), phi_E = 0.

    In the basis (|0>, |+>, |->) eq. (1) is then the real arrowhead
    [[0, a, 0], [a, c, b], [0, b, d]], a = gamma_e B_perp,
    b = gamma_e B_z, c = D + eps, d = D - eps, solved here in closed
    form.  ``levels`` (n, 3) are g <= m <= e in GHz; w_plus = |<+|e>|^2
    and w_p1 = |<+1|e>|^2, |+1> = (|+> + |->)/sqrt(2).  ``gap`` is
    e - m in GHz, formed as u - (m - max(0, d)).  Only at B_z = 0 is it
    free of cancellation, m being the level d of |-> or at most 0
    there; elsewhere m - d cancels and the gap can be off by its own
    size, so only the transverse scan reads it.  The bits of a point do
    not depend on the blocking.
    """
    if not 0.0 <= e_perp_mhz < np.inf:
        raise ValueError("e_perp_mhz must be finite and >= 0")
    eps = e_perp_mhz * 1e-3
    gam = GAMMA_E_MHZ_PER_G * 1e-3  # GHz per Gauss
    for k in range(0, len(b_perp_gauss), _BLOCK):
        s = slice(k, k + _BLOCK)
        a = np.abs(gam * b_perp_gauss[s])
        b = gam * b_z_gauss[s]
        # a power of two scales the entries below 1: exact, no overflow
        _, ex = np.frexp(np.maximum(np.maximum(a, np.abs(b)), D_GHZ + eps))
        a, b, c, d, two_eps = (np.ldexp(v, -ex) for v in
                               (a, b, D_GHZ + eps, D_GHZ - eps, 2.0 * eps))
        # the levels interlace the poles 0 and d:
        # g <= min(0, d) <= m <= max(0, d) <= e, and e >= c.  e starts at
        # the top root of the trigonometric cubic (Smith 1961), which a
        # near-double root leaves good to only sqrt(DBL_EPSILON) ...
        shift = (c + d) / 3.0
        kc, kd = c - shift, d - shift
        p = (shift * shift + kc * kc + kd * kd + 2.0 * (a * a + b * b)) / 6.0
        q = -0.5 * (shift * (kc * kd - b * b) + a * a * kd)
        phi = np.arccos(np.clip(q / (p * np.sqrt(p)), -1.0, 1.0)) / 3.0
        pole = np.maximum(d, 0.0)
        u = np.maximum(shift + 2.0 * np.sqrt(p) * np.cos(phi) - pole, 0.0)
        # ... so two steps refine u = e - pole.  Each keeps the pole
        # (coupling kp) exact, linearizes the term of the other, |d|
        # below it (coupling kq), and solves the quadratic for u with no
        # cancellation.  Each lands at or below e, and they rise to it.
        upper_d, abs_b = d >= 0.0, np.abs(b)
        kp = np.where(upper_d, abs_b, a)
        kq = np.where(upper_d, a, abs_b)
        t = np.where(upper_d, two_eps, c)          # c - pole
        for _ in range(2):
            w = np.divide(kq, u + np.abs(d), out=np.zeros_like(u),
                          where=kq != 0.0)
            alpha = 1.0 + w * w
            beta = t + w * (kq + w * u)
            u = (beta + np.hypot(beta, 2.0 * np.sqrt(alpha) * kp)) / (
                2.0 * alpha)
        e = pole + u
        # |e> ~ (a/e, 1, b/(e - d)), and e - c = A + B, A = a^2/e,
        # B = b^2/(e - d), so g + m = d - A - B and g m = det/e = -A d;
        # g and m lie hypot((d + A - B)/2, sqrt(AB)) about their mean,
        # and the one nearer zero comes from the product
        r0 = a / e
        rm = np.divide(b, u + (pole - d), out=np.zeros_like(u),
                       where=b != 0.0)
        big_a, big_b = a * r0, b * rm
        mean = 0.5 * (d - big_a - big_b)
        half = np.hypot(0.5 * (d + big_a - big_b), np.sqrt(big_a * big_b))
        outer = mean + np.copysign(half, mean)
        # 0 - x, not (-x)/outer: the same bits for x != 0, and +0 at A = 0
        inner = 0.0 - np.divide(big_a * d, outer, out=np.zeros_like(u),
                                where=outer != 0.0)
        low = mean < 0.0
        m = np.minimum(np.where(low, inner, outer), e)
        levels = np.ldexp(np.stack([np.where(low, outer, inner), m, e],
                                   axis=-1), ex[:, None])
        # within _DEG_TOL of m, |e> drops its |-> part, as diagonalize's
        # tie-break makes |e> follow |+>
        rm[levels[:, 2] - levels[:, 1] < _DEG_TOL] = 0.0
        w_plus = 1.0 / (1.0 + r0 * r0 + rm * rm)
        yield (s, levels, w_plus, 0.5 * w_plus * (1.0 + rm) ** 2,
               np.ldexp(u - (m - pole), ex))


def eigenstate_map(b_amplitude_gauss, theta_rad, e_perp_mhz: float):
    """Overlap maps of |e> with |+1> and |+> over (B amplitude, polar angle).

    The field B (sin theta, 0, cos theta) is tilted by theta from the NV
    axis toward the local x axis.  The electric azimuth is held at
    phi_E = 0, which in eq. (1) is an electric field along -x: against
    the field's transverse part.

    Returns
    -------
    (overlap_e_p1, overlap_e_plus) : ndarray, ndarray
        Arrays of shape (len(b_amplitude_gauss), len(theta_rad)).
    """
    b_amplitude_gauss = np.atleast_1d(np.asarray(b_amplitude_gauss, dtype=float))
    theta_rad = np.atleast_1d(np.asarray(theta_rad, dtype=float))
    if b_amplitude_gauss.size == 0 or theta_rad.size == 0:
        raise ValueError("grids must be non-empty")
    if not np.all((0.0 <= b_amplitude_gauss) & (b_amplitude_gauss < np.inf)):
        raise ValueError("amplitudes must be finite and >= 0")
    if not np.all(np.isfinite(theta_rad)):
        raise ValueError("polar angles must be finite")
    b_perp = np.outer(b_amplitude_gauss, np.sin(theta_rad)).ravel()
    b_z = np.outer(b_amplitude_gauss, np.cos(theta_rad)).ravel()
    o_p1, o_plus = np.empty(b_perp.size), np.empty(b_perp.size)
    for s, _, w_plus, w_p1, _ in _class_blocks(b_perp, b_z, e_perp_mhz):
        o_plus[s], o_p1[s] = w_plus, w_p1
    shape = (b_amplitude_gauss.size, theta_rad.size)
    return o_p1.reshape(shape), o_plus.reshape(shape)


def transverse_field_scan(b_perp_gauss, e_perp_mhz: float):
    """Eigenstructure versus transverse field amplitudes ``b_perp_gauss``
    (Gauss) along the NV frame's x axis, the electric azimuth phi_E = 0:
    ``_class_blocks`` at the class field (B, 0, 0).

    Returns
    -------
    energies_ghz : (n, 3) ndarray
        (g, d, e) energies per amplitude, ascending.
    dnu_mhz : (n,) ndarray
        d/e splitting nu_+ - nu_- in MHz, taken from the solver rather
        than as the difference of two ~D levels, so it keeps its
        relative precision however small it is.
    matching : (n,) ndarray
        |<e|+>|^2, |+> taken at phi_E = 0: short of 1 by the
        second-order admixture of |0>.
    """
    b_perp_gauss = np.atleast_1d(np.asarray(b_perp_gauss, dtype=float))
    if not np.all(np.isfinite(b_perp_gauss)):
        raise ValueError("b_perp_gauss must be finite")
    energies = np.empty((len(b_perp_gauss), 3))
    dnu, matching = np.empty_like(b_perp_gauss), np.empty_like(b_perp_gauss)
    for s, levels, w_plus, _, gap in _class_blocks(
            b_perp_gauss, np.zeros_like(b_perp_gauss), e_perp_mhz):
        energies[s], matching[s] = levels, w_plus
        with np.errstate(over="ignore"):
            dnu[s] = gap * 1e3
    if not np.all(np.isfinite(dnu)):
        raise ValueError(
            "the d/e splitting overflows in MHz at a transverse field of "
            f"{b_perp_gauss[~np.isfinite(dnu)].max():g} G")
    return energies, dnu, matching
