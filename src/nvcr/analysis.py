"""Decay-curve fitting, spectral overlaps and sensitivity estimates.

Fits use a derivative-free simplex over log-parameterized timescales
(positivity by construction) with several deterministic starting
points; the best residual wins.  The simplex is an in-package port of
SciPy's Nelder-Mead, so the command path never imports SciPy.
Spectral overlaps of analytic line pairs are closed-form convolutions
(only a mixed Gaussian/Lorentzian pair loads ``scipy.special`` for the
Voigt profile); a tabulated profile is integrated numerically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .relaxation import DecayModel, decay_signal

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

_SIMPLEX_XATOL = 1e-10   # relative, thanks to log parameterization
# relative to sum(w y^2), the objective of a zero model and so an upper
# bound on the optimum: an absolute test would sit below the rounding of
# a weighted residual sum of order the point count
_SIMPLEX_FTOL = 1e-14


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
        if np.any(np.diff(tau) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if sig.shape != tau.shape or not np.all(np.isfinite(sig)):
            raise ValueError("signal must be finite and match tau in length")
        object.__setattr__(self, "tau_s", tau)
        object.__setattr__(self, "signal", sig)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != tau.shape or np.any(s <= 0.0):
                raise ValueError("sigma must be positive and match tau in length")
            object.__setattr__(self, "sigma", s)

    @property
    def weights(self) -> np.ndarray:
        if self.sigma is None:
            return np.ones_like(self.tau_s)
        return 1.0 / self.sigma**2


@dataclass(frozen=True)
class FitResult:
    model: DecayModel
    mode: str
    residual_rss: float
    converged: bool
    iterations: int


class FitError(RuntimeError):
    """Fit failed to converge; carries the best attempt found."""

    def __init__(self, message: str, best: FitResult):
        super().__init__(message)
        self.best = best


def _check_decaying(c: DecayCurve):
    span = float(np.ptp(c.signal))
    scale = max(float(np.max(np.abs(c.signal))), 1e-300)
    if span < 1e-12 * scale:
        raise ValueError("signal shows no decay; nothing to fit")


def _t1_starts(c: DecayCurve, n: int = 5) -> np.ndarray:
    # log-spaced from well inside the sampled window to well beyond it
    lo = max(c.tau_s[1], c.tau_s[-1] * 1e-3)
    return np.geomspace(lo, 10.0 * c.tau_s[-1], n)


def _jittered(starts, seed: int | None):
    """Yield each start as an array; with a seed, every coordinate is
    shifted by a ``random.Random(seed).gauss(0, 1e-3)`` draw, so equal
    inputs and seeds give equal bits."""
    rng = None if seed is None else random.Random(seed)
    for x0 in starts:
        x0 = np.asarray(x0, dtype=float)
        if rng is not None:
            x0 = x0 + [rng.gauss(0.0, 1e-3) for _ in range(x0.size)]
        yield x0


class _Simplex(NamedTuple):
    """The end of one Nelder-Mead run: best vertex, its value, the
    iteration and evaluation counts and whether the tolerances (not a
    limit) stopped it."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    success: bool


class _Exhausted(Exception):
    """The evaluation budget ran out; ends the current step."""


def _nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int,
                 maxfev: int) -> _Simplex:
    """Minimize ``func`` from ``x0`` with the Nelder-Mead simplex.

    A step-by-step port of the unbounded, non-adaptive
    ``scipy.optimize.minimize(method="Nelder-Mead")``, so both return
    the same x, fun, nit, nfev and success to the bit: the same initial
    simplex (each coordinate in turn raised by 5 %, or set to 0.00025
    when zero), the same reflection, expansion, contraction and shrink
    expressions with rho = 1, chi = 2, psi = sigma = 1/2, the same
    ``xatol``/``fatol`` test, an evaluation budget that may stop a step
    midway, and the same re-sorting after every step.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.array(x0, dtype=float).ravel()
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim[k + 1] = y

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        return func(x)

    def by_value(sim, fsim):
        # SciPy sorts twice after the first evaluations; the default
        # argsort promises no stability, so a second sort of tied
        # values is kept rather than assumed to change nothing
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    sim, fsim = by_value(*by_value(sim, fsim))

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            iterations += 1
        except _Exhausted:
            pass
        sim, fsim = by_value(sim, fsim)

    return _Simplex(x=sim[0], fun=np.min(fsim), nit=iterations, nfev=nfev,
                    success=nfev < maxfev and iterations < maxiter)


def _run_simplex(objective, x0: np.ndarray, c: DecayCurve) -> _Simplex:
    fatol = _SIMPLEX_FTOL * float(np.sum(c.weights * c.signal ** 2))
    return _nelder_mead(objective, x0, xatol=_SIMPLEX_XATOL, fatol=fatol,
                        maxiter=4000, maxfev=8000)


def _pick_best(results, build_result):
    best = min(results, key=lambda r: r.fun)
    fit = build_result(best)
    if not any(r.success for r in results):
        raise FitError("no simplex start converged", fit)
    return fit


def fit_decay(c: DecayCurve, fixed_t1_ph_s: float | None = None,
              seed: int | None = None) -> FitResult:
    """Least-squares fit of the two-channel decay model.

    Free parameters are (A, T1_dd) when ``fixed_t1_ph_s`` is given, or
    (A, T1_dd, T1_ph) otherwise; all fitted in log space from at least
    five starting points log-spaced in T1_dd.  ``seed`` optionally
    jitters the starts; identical inputs and seed give identical
    results.
    """
    _check_decaying(c)
    w = c.weights
    a0 = max(float(np.max(np.abs(c.signal))), 1e-12)
    free_ph = fixed_t1_ph_s is None

    def objective(x):
        a, t_dd = np.exp(x[0]), np.exp(x[1])
        t_ph = np.exp(x[2]) if free_ph else fixed_t1_ph_s
        model = a * np.exp(-np.sqrt(c.tau_s / t_dd) - c.tau_s / t_ph)
        return float(np.sum(w * (c.signal - model) ** 2))

    starts = [[np.log(a0), np.log(t_start)]
              + ([np.log(10.0 * c.tau_s[-1])] if free_ph else [])
              for t_start in _t1_starts(c)]
    results = [_run_simplex(objective, x0, c)
               for x0 in _jittered(starts, seed)]

    def build(best):
        t_ph = float(np.exp(best.x[2])) if free_ph else float(fixed_t1_ph_s)
        model = DecayModel(t1_dd_s=float(np.exp(best.x[1])), t1_ph_s=t_ph,
                           amplitude=float(np.exp(best.x[0])), beta=0.5)
        return FitResult(model=model, mode="two_channel",
                         residual_rss=float(best.fun),
                         converged=bool(best.success),
                         iterations=int(best.nit))

    return _pick_best(results, build)


def fit_beta(c: DecayCurve, seed: int | None = None) -> FitResult:
    """Fit the single stretched exponential with free (A, T1, beta).

    beta is searched over (0, 1.5] through a logistic map so the
    simplex stays unconstrained.
    """
    _check_decaying(c)
    w = c.weights
    a0 = max(float(np.max(np.abs(c.signal))), 1e-12)

    def beta_of(z: float) -> float:
        return 1.5 / (1.0 + np.exp(-z))

    def objective(x):
        a, t1, beta = np.exp(x[0]), np.exp(x[1]), beta_of(x[2])
        model = a * np.exp(-((c.tau_s / t1) ** beta))
        return float(np.sum(w * (c.signal - model) ** 2))

    beta_starts = [0.4, 0.6, 0.8, 1.0, 1.2]
    starts = [[np.log(a0), np.log(t_start), -np.log(1.5 / b_start - 1.0)]
              for t_start, b_start in zip(_t1_starts(c), beta_starts)]
    results = [_run_simplex(objective, x0, c)
               for x0 in _jittered(starts, seed)]

    def build(best):
        model = DecayModel(t1_dd_s=float(np.exp(best.x[1])), t1_ph_s=np.inf,
                           amplitude=float(np.exp(best.x[0])),
                           beta=float(beta_of(best.x[2])))
        return FitResult(model=model, mode="stretched",
                         residual_rss=float(best.fun),
                         converged=bool(best.success),
                         iterations=int(best.nit))

    return _pick_best(results, build)


class LineShape(Enum):
    GAUSSIAN = "gaussian"
    LORENTZIAN = "lorentzian"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class LineProfile:
    """One spectral line: Gaussian (width = standard deviation),
    Lorentzian (width = half width at half maximum), or tabulated
    samples on a frequency grid."""

    shape: LineShape
    width_mhz: float = 1.0
    center_mhz: float = 0.0
    table_nu_mhz: np.ndarray | None = None
    table_values: np.ndarray | None = None

    def __post_init__(self):
        if self.shape is LineShape.TABULATED:
            if self.table_nu_mhz is None or self.table_values is None:
                raise ValueError("tabulated profile needs a grid and values")
            nu = np.asarray(self.table_nu_mhz, dtype=float)
            val = np.asarray(self.table_values, dtype=float)
            if np.any(np.diff(nu) <= 0.0) or val.shape != nu.shape:
                raise ValueError("tabulated grid must be increasing and matched")
            if np.any(val < 0.0) or not np.all(np.isfinite(val)):
                raise ValueError("tabulated values must be finite and >= 0")
            area = float(np.trapezoid(val, nu))
            if area <= 0.0:
                raise ValueError("tabulated profile is not normalizable")
            object.__setattr__(self, "table_nu_mhz", nu)
            object.__setattr__(self, "table_values", val / area)
        elif self.width_mhz <= 0.0:
            raise ValueError("width must be positive")

    def __call__(self, nu_mhz):
        """Unit-area density evaluated at nu (MHz)."""
        nu = np.asarray(nu_mhz, dtype=float)
        x = nu - self.center_mhz
        if self.shape is LineShape.GAUSSIAN:
            s = self.width_mhz
            out = np.exp(-0.5 * (x / s) ** 2) / (s * np.sqrt(2.0 * np.pi))
        elif self.shape is LineShape.LORENTZIAN:
            g = self.width_mhz
            out = (g / np.pi) / (x * x + g * g)
        else:
            out = np.interp(nu, self.table_nu_mhz, self.table_values,
                            left=0.0, right=0.0)
        return out if out.ndim else float(out)


def spectral_overlap(p1: LineProfile, p2: LineProfile, delta_nu_mhz) -> np.ndarray:
    """Overlap S(dnu) = integral of p1(nu) p2(nu - dnu) over nu.

    Shifting p2 by dnu moves its center to center2 + dnu relative to
    p1.  Analytic pairs take the closed form of the convolution at
    x = dnu + center2 - center1: a Gaussian of sigma = hypot(sigma1,
    sigma2), a Lorentzian of gamma = gamma1 + gamma2, or for a mixed
    pair the Voigt profile.  Any tabulated profile switches to
    trapezoid integration on a merged grid.
    """
    delta = np.atleast_1d(np.asarray(delta_nu_mhz, dtype=float))
    shapes = {p1.shape, p2.shape}
    if LineShape.TABULATED in shapes:
        grids = []
        for p in (p1, p2):
            if p.shape is LineShape.TABULATED:
                grids.append(p.table_nu_mhz)
            else:
                w = p.width_mhz
                grids.append(np.linspace(p.center_mhz - 30 * w,
                                         p.center_mhz + 30 * w, 4001))
        out = np.empty(delta.size)
        for i, d in enumerate(delta):
            nu = np.union1d(grids[0], grids[1] + d)
            out[i] = float(np.trapezoid(p1(nu) * p2(nu - d), nu))
    else:
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
    if sigma_b_tesla <= 0.0 or tau_lp_s <= 0.0:
        raise ValueError("sigma and tau must be positive")
    return float(sigma_b_tesla * np.sqrt(tau_lp_s))
