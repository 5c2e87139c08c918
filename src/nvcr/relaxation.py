"""Fluctuator-bath relaxation: rate distribution and decay laws.

A dilute bath of fast-decaying spins ("fluctuators", lifetimes well
under 100 ns) relaxes the polarized NV population through resonant
dipolar flip-flops.  Averaging over fluctuator positions gives each NV
a random depolarization rate gamma with probability density

    rho(gamma) = exp(-1/(4 gamma T)) / sqrt(4 pi gamma^3 T),

whose characteristic time T is set by the density, coupling and
fluctuator linewidth.  The ensemble polarization is the Laplace
transform of rho, the square-root-stretched exponential
P(t) = exp(-sqrt(t/T)), the beta = 1/2 case of the decay law.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .constants import J0_MHZ_NM3

__all__ = [
    "FluctuatorParams",
    "DecayModel",
    "characteristic_rate",
    "rate_density",
    "polarization",
    "decay_signal",
]


@dataclass(frozen=True)
class FluctuatorParams:
    """Bath parameters entering the characteristic rate.

    Attributes
    ----------
    n_f_per_nm3 : float
        Fluctuator number density (nm^-3).
    gamma_f_per_s : float
        Fluctuator decay rate (s^-1); the fast-bath regime corresponds
        to values above 1e7 s^-1 (lifetimes below 100 ns).
    eta_bar : float
        Dimensionless orientation-averaged coupling factor.
    j0_mhz_nm3 : float
        Dipole-dipole strength (MHz nm^3).

    Every value must be finite and positive; construction checks it.
    """

    n_f_per_nm3: float
    gamma_f_per_s: float
    eta_bar: float
    j0_mhz_nm3: float = J0_MHZ_NM3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{f.name} must be finite and positive, "
                                 f"got {value}")


@dataclass(frozen=True)
class DecayModel:
    """Parameters of the polarization decay law.

    ``t1_dd_s`` is the dipolar (stretched) timescale, ``t1_ph_s`` the
    phonon-limited exponential one, ``beta`` the dipolar stretch (1/2 in
    the fluctuator model); it may run up to 1.5 so fitted values
    slightly above a pure exponential remain representable.  No field
    may be NaN; an infinite timescale switches its channel off, an
    infinite amplitude is refused.
    """

    t1_dd_s: float
    t1_ph_s: float = np.inf
    amplitude: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if not (self.t1_dd_s > 0.0 and self.t1_ph_s > 0.0):
            raise ValueError("timescales must be positive")
        if not 0.0 < self.amplitude < np.inf:
            raise ValueError("amplitude must be finite and positive")
        if not 0.0 < self.beta <= 1.5:
            raise ValueError("beta must lie in (0, 1.5]")


def characteristic_rate(p: FluctuatorParams) -> float:
    """1/T in s^-1 for the fluctuator bath.

    1/T = (4 pi n_f J0 eta_bar / 3)^2 * pi / gamma_f, with J0 converted
    from MHz nm^3 to s^-1 nm^3 explicitly; the density cancels the nm^3.
    A rate beyond the float range is refused.
    """
    with np.errstate(over="ignore"):    # an overflowed rate is refused
        coupling_per_s = (4.0 * np.pi / 3.0) * p.n_f_per_nm3 \
            * (p.j0_mhz_nm3 * 1e6) * p.eta_bar
        rate = np.square(coupling_per_s) * np.pi / p.gamma_f_per_s
    if rate == np.inf:
        raise ValueError(f"the characteristic rate overflows for {p}")
    return float(rate)


def rate_density(gamma_per_s, t_s: float):
    """Probability density rho(gamma) of single-NV depolarization rates.

    Normalized over gamma in (0, inf); heavy-tailed with median near
    1/T and mode at 1/(6T).
    """
    if not 0.0 < t_s < np.inf:
        raise ValueError("t_s must be finite and positive")
    gamma = np.asarray(gamma_per_s, dtype=float)
    if not np.all((0.0 < gamma) & (gamma < np.inf)):
        raise ValueError("gamma_per_s must be finite and positive")
    out = np.exp(-1.0 / (4.0 * gamma * t_s)) / np.sqrt(4.0 * np.pi * gamma**3 * t_s)
    return out if out.ndim else float(out)


def polarization(t_s, big_t_s: float):
    """Ensemble polarization P(t) = exp(-sqrt(t/T)): the decay law
    with T1_dd = T, beta = 1/2, no phonon channel and unit amplitude."""
    return decay_signal(t_s, DecayModel(t1_dd_s=big_t_s))


def _decay_law(t, t1_dd_s, t1_ph_s, amplitude, beta):
    """The decay law of ``decay_signal``, with no check of the
    parameters: a fit objective passes trial values that a
    ``DecayModel`` could refuse (an underflowed timescale, say).  An
    overflowed exponent gives the fully decayed limit, 0; each public
    caller evaluates the law under one ``np.errstate(over="ignore")``."""
    return amplitude * np.exp(-(t / t1_dd_s) ** beta - t / t1_ph_s)


def decay_signal(t_s, m: DecayModel):
    """Decay signal S = A exp(-(t/T1_dd)^beta - t/T1_ph) at ``t_s``.

    beta = 1/2 gives the two channels of the fluctuator model, T1_ph =
    inf a single stretch.  A scalar is a batch of one: numpy's array
    ``** 0.5`` is a square root to the bit, its scalar one is not.
    """
    t = np.asarray(t_s, dtype=float)
    if not np.all((0.0 <= t) & (t < np.inf)):
        raise ValueError("t_s must be finite and >= 0")
    with np.errstate(over="ignore"):    # an overflowed exponent gives 0
        out = _decay_law(t.ravel(), m.t1_dd_s, m.t1_ph_s, m.amplitude,
                         m.beta)
    return out.reshape(t.shape) if t.ndim else float(out[0])
