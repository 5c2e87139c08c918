"""Decay-curve fitting, spectral overlaps and sensitivity estimates.

Both fits are least squares of the decay law of ``relaxation`` with the
amplitude, in which the law is linear, profiled out in closed form
(variable projection, Golub & Pereyra 1973).  The rest is one 1-D
search, or an outer one around an inner one: each a coarse grid, then
a golden-section search around its best node.  No search has
starts or random draws, and the command path never imports SciPy.
Spectral overlaps of Gaussian and Lorentzian lines are closed-form
convolutions (only a mixed pair loads ``scipy.special`` for the Voigt
profile).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .relaxation import DecayModel, _decay_law

__all__ = [
    "DecayCurve",
    "FitResult",
    "FitError",
    "LineShape",
    "LineProfile",
    "fit_decay",
    "fit_beta",
    "spectral_overlap",
    "sensitivity",
]

# the search tolerance, relative to the size of the coordinate (at least 1)
_XTOL = 1e-10
# the log T1 grid runs from a stretched exponent (t/T1)^beta of
# _EXPONENT_SPAN at the first positive time to 1/_EXPONENT_SPAN at the
# last one, _NODES_PER_DECADE nodes per decade of the exponent
_EXPONENT_SPAN = 100.0
_NODES_PER_DECADE = 4
# the beta grid of fit_beta: beta may run up to 1.5 (see DecayModel)
_BETA_NODES = np.geomspace(0.05, 1.5, 16)
_GOLDEN = 0.5 * (5.0 ** 0.5 - 1.0)


@dataclass(frozen=True)
class DecayCurve:
    """Sampled decay signal: times (s), values, optional uncertainties."""

    tau_s: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        tau = np.asarray(self.tau_s, dtype=float)
        sig = np.asarray(self.signal, dtype=float)
        if tau.ndim != 1 or tau.size < 8:
            raise ValueError("need at least 8 samples")
        if not np.all((0.0 <= tau) & (tau < np.inf)):
            raise ValueError("tau_s must be finite and >= 0")
        if np.any(np.diff(tau) <= 0.0):
            raise ValueError("tau_s must be strictly increasing")
        if sig.shape != tau.shape or not np.all(np.isfinite(sig)):
            raise ValueError("signal must be finite and match tau in length")
        object.__setattr__(self, "tau_s", tau)
        object.__setattr__(self, "signal", sig)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != tau.shape or not np.all((0.0 < s) & (s < np.inf)):
                raise ValueError("sigma must be finite, positive and match tau")
            object.__setattr__(self, "sigma", s)

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.tau_s)
        return 1.0 / self.sigma**2


@dataclass(frozen=True)
class FitResult:
    model: DecayModel
    residual_rss: float
    converged: bool
    iterations: int


class FitError(RuntimeError):
    """Fit ended on an edge of its search window; carries that fit."""

    def __init__(self, message: str, best: FitResult):
        super().__init__(message)
        self.best = best


class _Min(NamedTuple):
    """A 1-D search's best point, its value, and whether it is a window
    end (so the minimum may lie beyond)."""

    x: float
    fun: float
    edge: bool


def _golden(f: Callable[[float], float], a: float, b: float
            ) -> tuple[float, float]:
    """Minimize ``f`` inside [a, b] by golden-section search until the
    bracket is narrower than ``_XTOL`` times max(1, |x|).  Returns the
    best point tried and its value."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _XTOL * max(1.0, abs(c)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _minimize(f: Callable[[float], float], nodes: np.ndarray) -> _Min:
    """Minimize ``f`` over [nodes[0], nodes[-1]]: ``f`` at every node,
    then a golden-section search of the node intervals next to the best
    one.  A best node at an end of the window is the edge result unless
    that search finds a better point away from it, that is, farther
    than its tolerance."""
    values = [f(float(x)) for x in nodes]
    k = int(np.argmin(values))
    node = float(nodes[k])
    x, fx = _golden(f, float(nodes[max(k - 1, 0)]),
                    float(nodes[min(k + 1, nodes.size - 1)]))
    end = k in (0, nodes.size - 1)
    if fx < values[k] and not (
            end and abs(x - node) <= _XTOL * max(1.0, abs(x))):
        return _Min(x, fx, False)
    return _Min(node, values[k], end)


class _Profile:
    """The decay law fitted to one curve with its amplitude profiled
    out.  For a trial shape m(t), the law at A = 1, the best amplitude
    is A = max(0, sum(w y m) / sum(w m^2)), and the shape scores the
    weighted residual sum at that A: a shape that underflows to all
    zeros, as the zero model.  ``evaluations`` counts the shapes tried.
    """

    def __init__(self, c: DecayCurve):
        peak = float(np.max(np.abs(c.signal)))
        if float(np.ptp(c.signal)) < 1e-12 * max(peak, 1e-300):
            raise ValueError("signal shows no decay; nothing to fit")
        t = c.tau_s[c.tau_s > 0.0]
        self.log_t = float(np.log(t[0])), float(np.log(t[-1]))
        self.curve = c
        self.weights = c.weights
        self.evaluations = 0

    def log_t1_nodes(self, beta: float) -> np.ndarray:
        """The log T1 grid of a channel of stretch ``beta``."""
        widen = np.log(_EXPONENT_SPAN) / beta
        lo, hi = self.log_t[0] - widen, self.log_t[1] + widen
        n = int(np.ceil((hi - lo) * beta / np.log(10.0) * _NODES_PER_DECADE))
        return np.linspace(lo, hi, n + 1)

    def amplitude_rss(self, t1_dd_s, t1_ph_s, beta) -> tuple[float, float]:
        self.evaluations += 1
        c, w = self.curve, self.weights
        m = _decay_law(c.tau_s, t1_dd_s, t1_ph_s, 1.0, beta)
        wm = w * m
        mm = float(wm @ m)
        a = max(0.0, float(wm @ c.signal) / mm) if mm > 0.0 else 0.0
        r = c.signal - a * m
        return a, float(r @ (w * r))

    def best_t1_dd(self, t1_ph_s, beta) -> _Min:
        """The best log T1_dd with T1_ph and beta held fixed."""
        return _minimize(
            lambda u: self.amplitude_rss(np.exp(u), t1_ph_s, beta)[1],
            self.log_t1_nodes(beta))

    def fit(self, t1_ph_s: float, beta: float, edge: bool = False
            ) -> FitResult:
        """Fit T1_dd and A with T1_ph and beta held.  Raises ``FitError``,
        carrying the fit, when this search or the caller's (``edge``)
        ended on an edge of its window; ``DecayModel`` raises ValueError
        when no shape correlates positively with the signal."""
        dd = self.best_t1_dd(t1_ph_s, beta)
        t1_dd = float(np.exp(dd.x))
        a, rss = self.amplitude_rss(t1_dd, t1_ph_s, beta)
        fit = FitResult(model=DecayModel(t1_dd, t1_ph_s, a, beta),
                        residual_rss=rss, converged=not (edge or dd.edge),
                        iterations=self.evaluations)
        if not fit.converged:
            raise FitError("the best fit lies on an edge of the search "
                           "window", fit)
        return fit


def fit_decay(c: DecayCurve, fixed_t1_ph_s: float | None = None
              ) -> FitResult:
    """Least-squares fit of the two-channel decay law (beta = 1/2).

    With ``fixed_t1_ph_s``, one search in log T1_dd over the window in
    which (t/T1_dd)^(1/2) runs from 100 at the first positive time to
    0.01 at the last one: the sampled times widened 1e4-fold on each
    side.  A minimum on an edge of that window raises ``FitError``.
    Otherwise an outer search in the phonon rate runs around it, over
    the rates of the phonon window (t/T1_ph from 100 to 0.01, the
    sampled times widened a hundredfold) and rate 0: the channel-off
    limit T1_ph = inf, evaluated exactly and no edge.
    """
    p = _Profile(c)
    if fixed_t1_ph_s is not None:
        return p.fit(fixed_t1_ph_s, 0.5)
    # the rate coordinate t_max / T1_ph, so that rate 0 is T1_ph = inf
    t_max = float(c.tau_s[-1])
    rates = np.concatenate([[0.0],
                            t_max * np.exp(-p.log_t1_nodes(1.0)[::-1])])

    def t1_ph(rate):
        return np.inf if rate == 0.0 else t_max / rate

    ph = _minimize(lambda r: p.best_t1_dd(t1_ph(r), 0.5).fun, rates)
    return p.fit(t1_ph(ph.x), 0.5, edge=ph.edge and ph.x > 0.0)


def fit_beta(c: DecayCurve) -> FitResult:
    """Fit the single stretch (T1_ph = inf) with free (A, T1, beta): an
    outer search in beta over [0.05, 1.5] around a search in log T1 over
    the window of that beta (see ``fit_decay``)."""
    p = _Profile(c)
    beta = _minimize(lambda b: p.best_t1_dd(np.inf, b).fun, _BETA_NODES)
    return p.fit(np.inf, beta.x, edge=beta.edge)


class LineShape(Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN = "lorentzian"


@dataclass(frozen=True)
class LineProfile:
    """One spectral line: Gaussian (width = standard deviation) or
    Lorentzian (width = half width at half maximum)."""

    shape: LineShape
    width_mhz: float = 1.0
    center_mhz: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.width_mhz < np.inf:
            raise ValueError("width must be finite and positive")
        if not np.isfinite(self.center_mhz):
            raise ValueError("center must be finite")

    def __call__(self, nu_mhz):
        """Unit-area density evaluated at nu (MHz)."""
        x = np.asarray(nu_mhz, dtype=float) - self.center_mhz
        if self.shape is LineShape.GAUSSIAN:
            s = self.width_mhz
            out = np.exp(-0.5 * (x / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
        else:
            g = self.width_mhz
            out = (g / np.pi) / (x * x + g * g)
        return out if out.ndim else float(out)


def spectral_overlap(p1: LineProfile, p2: LineProfile, delta_nu_mhz) -> np.ndarray:
    """Overlap S(dnu) = integral of p1(nu) p2(nu - dnu) over nu.

    Shifting p2 by dnu moves its center to center2 + dnu relative to
    p1.  The overlap is the closed form of the convolution at
    x = dnu + center2 - center1: a Gaussian of sigma = hypot(sigma1,
    sigma2), a Lorentzian of gamma = gamma1 + gamma2, or for a mixed
    pair the Voigt profile.
    """
    delta = np.atleast_1d(np.asarray(delta_nu_mhz, dtype=float))
    shapes = {p1.shape, p2.shape}
    x = delta + p2.center_mhz - p1.center_mhz
    if shapes == {LineShape.GAUSSIAN}:
        out = LineProfile(LineShape.GAUSSIAN,
                          float(np.hypot(p1.width_mhz, p2.width_mhz)))(x)
    elif shapes == {LineShape.LORENTZIAN}:
        out = LineProfile(LineShape.LORENTZIAN,
                          p1.width_mhz + p2.width_mhz)(x)
    else:
        g, lor = (p1, p2) if p1.shape is LineShape.GAUSSIAN else (p2, p1)
        # the one SciPy use on the command path, loaded only here
        from scipy.special import voigt_profile
        out = voigt_profile(x, g.width_mhz, lor.width_mhz)
    return out if np.ndim(delta_nu_mhz) else float(out[0])


def sensitivity(sigma_b_tesla: float, tau_lp_s: float) -> float:
    """DC magnetic sensitivity sigma_B * sqrt(tau) in T/sqrt(Hz).

    ``sigma_b_tesla`` is the standard deviation of the field readout
    noise and ``tau_lp_s`` the low-pass (lock-in) time constant.
    """
    if not (0.0 < sigma_b_tesla < np.inf and 0.0 < tau_lp_s < np.inf):
        raise ValueError("sigma and tau must be finite and positive")
    return float(sigma_b_tesla * np.sqrt(tau_lp_s))
