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
only, so |e> tracks |+>, the d/e splitting grows monotonically with
B_perp, and ``transverse_field_scan`` needs no eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import D_GHZ, GAMMA_E_MHZ_PER_G

__all__ = [
    "spin_matrices",
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
_BLOCK = 512      # field points per _solve_fields block, the one place that
                  # blocks: bounds the temporaries of a large scan


def spin_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin-1 operators (Sx, Sy, Sz) in the (|-1>, |0>, |+1>) basis."""
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
    sy = np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], dtype=complex) * (1j / np.sqrt(2.0))
    sz = np.diag([-1.0, 0.0, 1.0]).astype(complex)
    return sx, sy, sz


_SX, _SY, _SZ = spin_matrices()
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


# eigenstate_map's bras <+1| and <+| (phi_E = 0)
_MAP_BRAS = np.conj([[0.0, 0.0, 1.0], zero_field_states(0.0)[2]])


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


def _solve_fields(b_gauss: np.ndarray, e_perp_mhz: float):
    """Yield (slice, SpinEigensystem) for each block of ``_BLOCK`` points
    of an (n, 3) NV-frame field stack, the electric azimuth phi_E = 0.

    Only one block's Hamiltonians and eigenvectors are alive at a time.
    Each matrix is built and solved on its own, so the bits do not
    depend on the blocking.  An empty stack still makes one (empty)
    block, so the electric energy is checked.
    """
    for k in range(0, max(len(b_gauss), 1), _BLOCK):
        s = slice(k, k + _BLOCK)
        yield s, diagonalize(build_hamiltonian(b_gauss[s], e_perp_mhz))


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
    tilt = np.stack([np.sin(theta_rad), np.zeros_like(theta_rad),
                     np.cos(theta_rad)], axis=-1)
    b = (b_amplitude_gauss[:, None, None] * tilt).reshape(-1, 3)
    o_p1, o_plus = np.empty(len(b)), np.empty(len(b))
    for s, es in _solve_fields(b, e_perp_mhz):
        o_p1[s], o_plus[s] = np.abs(_MAP_BRAS @ es.states)[:, :, 2].T ** 2
    shape = (b_amplitude_gauss.size, theta_rad.size)
    return o_p1.reshape(shape), o_plus.reshape(shape)


def transverse_field_scan(b_perp_gauss, e_perp_mhz: float):
    """Eigenstructure versus transverse field amplitudes ``b_perp_gauss``
    (Gauss) along the NV frame's x axis, the electric azimuth phi_E = 0.

    Closed form: the {|0>, |+>} block [[0, a], [a, s]], with
    a = gamma_e B, s = D + eps and r = hypot(s, 2a), has the levels
    (s + r)/2 and (s - r)/2; |-> sits at D - eps, lowest for eps > D.

    Returns
    -------
    energies_ghz : (n, 3) ndarray
        (g, d, e) energies per amplitude, ascending.
    dnu_mhz : (n,) ndarray
        d/e splitting nu_+ - nu_- in MHz.
    matching : (n,) ndarray
        |<e|+>|^2 = (1 + s/r)/2, |+> taken at phi_E = 0: short of 1 by
        the second-order admixture of |0>.
    """
    b_perp_gauss = np.atleast_1d(np.asarray(b_perp_gauss, dtype=float))
    if not np.all(np.isfinite(b_perp_gauss)):
        raise ValueError("b_perp_gauss must be finite")
    if not 0.0 <= e_perp_mhz < np.inf:
        raise ValueError("e_perp_mhz must be finite and >= 0")
    eps = e_perp_mhz * 1e-3
    a = GAMMA_E_MHZ_PER_G * 1e-3 * b_perp_gauss     # GHz
    s = D_GHZ + eps
    r = np.hypot(s, 2.0 * a)
    # (s - r)/2 as 0 - 2a a/(s + r): no cancellation, no a^2, +0 at B = 0
    energies = np.sort(np.stack(np.broadcast_arrays(
        0.0 - 2.0 * a * (a / (s + r)), D_GHZ - eps, 0.5 * (s + r)), -1), -1)
    with np.errstate(over="ignore"):
        dnu = (energies[:, 2] - energies[:, 1]) * 1e3
    if not np.all(np.isfinite(dnu)):
        raise ValueError(
            "the d/e splitting overflows in MHz at a transverse field of "
            f"{b_perp_gauss[~np.isfinite(dnu)].max():g} G")
    return energies, dnu, 0.5 * (1.0 + s / r)
