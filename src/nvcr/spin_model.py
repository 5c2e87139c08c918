"""Single-NV ground-state Hamiltonian and eigenstructure.

The spin-1 ground state is modeled as

    H/h = D Sz^2 + gamma_e (B . S) + eps_perp (transverse electric term)

with all operators written in the |m_s> basis ordered (|-1>, |0>, |+1>)
and energies in GHz.  ``eps_perp`` is the transverse electric energy
d_perp*E_perp; its azimuth phi_E is measured from the local x axis.

Sign convention: the transverse electric coupling is taken as
<+1|H|-1> = +eps_perp * exp(i phi_E), so the zero-field eigenstates are
|0> and |+-> = (|+1> +- exp(-i phi_E)|-1>)/sqrt(2) with |+> the upper
branch.  With this choice the upper eigenstate |e> tracks |+> as a
transverse magnetic field grows, and the d/e splitting increases
monotonically with B_perp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .geometry import NVClassFrame, as_unit

__all__ = [
    "FieldConfiguration",
    "SpinEigensystem",
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
class FieldConfiguration:
    """Applied fields seen by one NV center, or by a stack of field points.

    Attributes
    ----------
    b_gauss : array-like
        Crystal-frame magnetic field (Gauss): a 3-vector or a (..., 3) stack.
    e_perp_mhz : float
        Transverse electric energy d_perp*E_perp (MHz), finite and >= 0.
    phi_e_rad : float
        Azimuth of the transverse electric field in the NV transverse
        plane, measured from the local x axis; finite, folded into
        [0, 2*pi).
    """

    b_gauss: np.ndarray = field(default_factory=lambda: np.zeros(3))
    e_perp_mhz: float = 0.0
    phi_e_rad: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.b_gauss, dtype=float)
        if b.shape[-1:] != (3,) or not np.all(np.isfinite(b)):
            raise ValueError("b_gauss must be finite 3-vectors")
        object.__setattr__(self, "b_gauss", b)
        if not 0.0 <= self.e_perp_mhz < np.inf:
            raise ValueError("e_perp_mhz must be finite and >= 0")
        if not np.isfinite(self.phi_e_rad):
            raise ValueError("phi_e_rad must be finite")
        object.__setattr__(self, "phi_e_rad", float(self.phi_e_rad) % (2.0 * np.pi))


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


def build_hamiltonian(cls: NVClassFrame, f: FieldConfiguration,
                      c: PhysicalConstants = DEFAULT_CONSTANTS) -> np.ndarray:
    """Assemble H/h in GHz for one NV center, (..., 3, 3) for a field stack.

    The magnetic field is supplied in the crystal frame and projected
    onto the class triad internally; the electric term is specified
    directly as an energy so no susceptibility conversion is needed
    here.
    """
    # products summed along the last axis: the same bits in any stack shape
    b = (f.b_gauss[..., None, :] * [cls.x_hat, cls.y_hat, cls.z_hat]).sum(-1)
    bx, by, bz = (b[..., k, None, None] for k in range(3))
    gam = c.gamma_e_mhz_per_g * 1e-3  # GHz per Gauss
    h = c.d_ghz * _SZ2 + gam * (bx * _SX + by * _SY + bz * _SZ)
    eps = f.e_perp_mhz * 1e-3
    if eps != 0.0:
        ph = np.exp(1j * f.phi_e_rad)
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
                if n > 1e-6:
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


def _solve_fields(cls: NVClassFrame, b_gauss: np.ndarray,
                  c: PhysicalConstants, **electric):
    """Yield (slice, SpinEigensystem) for each block of ``_BLOCK`` points
    of an (n, 3) crystal-frame field stack.

    Only one block's Hamiltonians and eigenvectors are alive at a time;
    ``electric`` holds the other FieldConfiguration fields.  Each matrix
    is built and solved on its own, so the bits do not depend on the
    blocking.  An empty stack still makes one (empty) block, so the
    electric fields are checked.
    """
    for k in range(0, max(len(b_gauss), 1), _BLOCK):
        s = slice(k, k + _BLOCK)
        f = FieldConfiguration(b_gauss=b_gauss[s], **electric)
        yield s, diagonalize(build_hamiltonian(cls, f, c))


def eigenstate_map(cls: NVClassFrame, b_amplitude_gauss, theta_rad,
                   e_perp_mhz: float,
                   c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Overlap maps of |e> with |+1> and |+> over (B amplitude, polar angle).

    The field is tilted by theta from the NV axis toward the local x
    axis; the electric azimuth is held at phi_E = 0, i.e. the electric
    field lies along the same transverse direction.

    Returns
    -------
    (overlap_e_p1, overlap_e_plus) : ndarray, ndarray
        Arrays of shape (len(b_amplitude_gauss), len(theta_rad)).
    """
    b_amplitude_gauss = np.atleast_1d(np.asarray(b_amplitude_gauss, dtype=float))
    theta_rad = np.atleast_1d(np.asarray(theta_rad, dtype=float))
    if b_amplitude_gauss.size == 0 or theta_rad.size == 0:
        raise ValueError("grids must be non-empty")
    if np.any(b_amplitude_gauss < 0.0):
        raise ValueError("amplitudes must be >= 0")
    tilt = (np.cos(theta_rad)[:, None] * cls.z_hat
            + np.sin(theta_rad)[:, None] * cls.x_hat)
    b = (b_amplitude_gauss[:, None, None] * tilt).reshape(-1, 3)
    o_p1, o_plus = np.empty(len(b)), np.empty(len(b))
    for s, es in _solve_fields(cls, b, c, e_perp_mhz=e_perp_mhz):
        o_p1[s], o_plus[s] = np.abs(_MAP_BRAS @ es.states)[:, :, 2].T ** 2
    shape = (b_amplitude_gauss.size, theta_rad.size)
    return o_p1.reshape(shape), o_plus.reshape(shape)


def transverse_field_scan(cls: NVClassFrame, b_perp_gauss, e_perp_mhz: float,
                          c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Eigenstructure versus a purely transverse magnetic field along the
    frame's x axis.

    Parameters
    ----------
    b_perp_gauss : array-like
        Transverse field amplitudes (Gauss).

    Returns
    -------
    energies_ghz : (n, 3) ndarray
        (g, d, e) energies per amplitude.
    dnu_mhz : (n,) ndarray
        d/e splitting nu_+ - nu_- in MHz.
    matching : (n,) ndarray
        |<e|+>|^2 per amplitude, |+> taken at the scan's electric
        azimuth.  It includes the second-order admixture of |0>: with
        the field along the electric azimuth, |-> stays an exact
        eigenstate and |e> lies in the {|0>, |+>} block, so
        matching = (1 + s/sqrt(s^2 + 4 (gamma_e B)^2))/2 with s = D + eps.
    """
    b_perp_gauss = np.atleast_1d(np.asarray(b_perp_gauss, dtype=float))
    direction = as_unit(cls.x_hat)
    # keep the electric field along the scan direction so the d/e
    # splitting adds up coherently at all amplitudes
    phi_e = float(np.arctan2(direction @ cls.y_hat, direction @ cls.x_hat))
    ref = zero_field_states(phi_e)[2]
    b = b_perp_gauss[:, None] * direction
    energies, matching = np.empty((len(b), 3)), np.empty(len(b))
    for s, es in _solve_fields(cls, b, c, e_perp_mhz=e_perp_mhz,
                               phi_e_rad=phi_e):
        energies[s] = es.energies_ghz
        # a row sum, not a matrix-vector product, whose BLAS kernel
        # rounds differently with the number of rows
        matching[s] = np.abs((es.e.conj() * ref).sum(-1)) ** 2
    return energies, (energies[:, 2] - energies[:, 1]) * 1e3, matching
