"""Decay-curve fitting, spectral overlaps and sensitivity estimates.

Both fits are least squares of the decay law of ``relaxation`` with the
amplitude, in which the law is linear, profiled out in closed form
(variable projection, Golub & Pereyra 1973), then Levenberg-Marquardt
steps from the best node of a fixed grid: no random starts, and the
command path never imports SciPy.  Spectral overlaps of Gaussian and
Lorentzian lines are closed-form convolutions (only a mixed pair loads
``scipy.special`` for the Voigt profile).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .relaxation import DecayModel, _decay_law

__all__ = [
    "DecayCurve",
    "FitError",
    "LineShape",
    "LineProfile",
    "fit_decay",
    "fit_beta",
    "spectral_overlap",
    "sensitivity",
]

# the search tolerance, relative to the size of the coordinate (at least 1)
_XTOL = 1e-11
_MAX_STEPS = 100    # Levenberg-Marquardt steps, rejected ones included
# the log T1 grid runs from a stretched exponent (t/T1)^beta of
# _EXPONENT_SPAN at the first positive time to 1/_EXPONENT_SPAN at the
# last one, _NODES_PER_DECADE nodes per decade of the exponent
_EXPONENT_SPAN = 100.0
_NODES_PER_DECADE = 4
# the beta grid of fit_beta: beta may run up to 1.5 (see DecayModel)
_BETA_NODES = np.geomspace(0.05, 1.5, 16)


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


class FitError(ValueError):
    """Fit ended on an edge of its search window, or did not settle;
    carries that fit as ``best``.  A ``ValueError``, as are the fits'
    refusals of bad data, so every fit refusal is one exception type."""

    def __init__(self, message: str, best: FitResult):
        super().__init__(message)
        self.best = best


# a shape m(t) tried at x: its amplitude, rss and residual y - A m
_Trial = namedtuple("_Trial", "x amplitude rss shape residual")


class _Profile:
    """The decay law fitted to one curve at x = (log T1_dd, beta, rate =
    t_max / T1_ph; rate 0 is T1_ph = inf) unless ``t1_ph_s`` holds T1_ph,
    its amplitude profiled out: a shape m(t), the law at A = 1, takes
    A = max(0, sum(w y m) / sum(w m^2)).  ``evaluations`` counts the
    shapes tried."""

    def __init__(self, c: DecayCurve, t1_ph_s: float | None = None):
        peak = float(np.max(np.abs(c.signal)))
        if float(np.ptp(c.signal)) < 1e-12 * max(peak, 1e-300):
            raise ValueError("signal shows no decay; nothing to fit")
        t = c.tau_s[c.tau_s > 0.0]
        self.log_t = float(np.log(t[0])), float(np.log(t[-1]))
        self.curve, self.weights, self.t1_ph_s = c, c.weights, t1_ph_s
        self.evaluations = 0

    def log_t1_window(self, beta: float) -> tuple[float, float]:
        """The log T1 window of a channel of stretch ``beta``."""
        widen = np.log(_EXPONENT_SPAN) / beta
        return self.log_t[0] - widen, self.log_t[1] + widen

    def log_t1_nodes(self, beta: float) -> np.ndarray:
        """The log T1 grid of a channel of stretch ``beta``."""
        lo, hi = self.log_t1_window(beta)
        n = int(np.ceil((hi - lo) * beta / np.log(10.0) * _NODES_PER_DECADE))
        return np.linspace(lo, hi, n + 1)

    def law(self, x, amplitude: float = 1.0) -> tuple:
        """(T1_dd, T1_ph, A, beta) at ``x``."""
        log_t1, beta, rate = (float(v) for v in x)
        t_max = float(self.curve.tau_s[-1])
        t1_ph = self.t1_ph_s or (t_max / rate if rate > 0.0 else np.inf)
        return float(np.exp(log_t1)), t1_ph, amplitude, beta

    def trial(self, x) -> _Trial:
        self.evaluations += 1
        c, w = self.curve, self.weights
        m = _decay_law(c.tau_s, *self.law(x))
        wm = w * m
        mm = float(wm @ m)
        a = max(0.0, float(wm @ c.signal) / mm) if mm > 0.0 else 0.0
        r = c.signal - a * m
        return _Trial(x, a, float(r @ (w * r)), m, r)

    def jacobian(self, s: _Trial) -> np.ndarray:
        """Kaufman's Jacobian of the residual (BIT 15, 49, 1975), a row
        per coordinate: -A times each derivative of m orthogonal to m."""
        t, m, (log_t1, beta, _) = self.curve.tau_s, s.shape, s.x
        # m (t/T1_dd)^beta and log(t/T1_dd), 0 where m or t is
        zm = np.where(m > 0.0, (t / np.exp(log_t1)) ** beta, 0.0) * m
        log_t = np.log(np.where(t > 0.0, t, 1.0)) - log_t1
        dm = np.array([beta * zm, -log_t * zm, -t / t[-1] * m])
        wm = self.weights * m
        return -s.amplitude * (dm - np.outer(dm @ wm / (wm @ m), m))


@np.errstate(over="ignore")     # see relaxation._decay_law
def _search(p: _Profile, betas) -> FitResult:
    """Levenberg-Marquardt steps in the coordinates that the start grid
    spans, from its best node until a step is below ``_XTOL`` relative,
    each coordinate kept to the span of its grid and put on an end
    within ``_XTOL`` of it.  The grid is each beta of ``betas`` times its
    log T1 grid, times rate 0 and, unless T1_ph is held, the rates of
    the phonon window (t/T1_ph from 100 to 0.01).  A fit on an end, or
    not settled in ``_MAX_STEPS`` steps, raises ``FitError``."""
    rates = [0.0] if p.t1_ph_s else \
        [0.0, *(p.curve.tau_s[-1] * np.exp(-p.log_t1_nodes(1.0)[::-1]))]
    starts = np.array([(u, b, r) for r in rates for b in betas
                       for u in p.log_t1_nodes(b)])
    span = np.array([starts.min(axis=0), starts.max(axis=0)])
    free = span[0] < span[1]

    def window(x) -> np.ndarray:    # the (2, 3) low and high ends at x
        return np.column_stack([p.log_t1_window(x[1]), span[:, 1:]])

    def project(x) -> np.ndarray:
        x = np.clip(x, *span)   # first: the log T1 window moves with beta
        (lo, hi), near = window(x), _XTOL * np.maximum(1.0, np.abs(x))
        return np.where(x - lo <= near, lo, np.where(hi - x <= near, hi, x))

    s = min((p.trial(x) for x in starts), key=lambda t: t.rss)
    if s.amplitude == 0.0:
        raise ValueError(f"no decay shape with T1_ph = {p.law(s.x)[1]:g} s "
                         f"and beta = {s.x[1]:g} fits with a positive "
                         f"amplitude")
    damping, growth, settled = 1e-3, 2.0, True
    for _ in range(_MAX_STEPS):
        jac = p.jacobian(s)
        grad = jac @ (p.weights * s.residual)
        normal = (jac * p.weights) @ jac.T
        # a coordinate on an end stays there if descent points past it
        on_lo, on_hi = s.x == window(s.x)
        move = free & ~(on_lo & (grad > 0.0) | on_hi & (grad < 0.0))
        a = normal[np.ix_(move, move)]
        # Marquardt's damping, relative to the diagonal
        scale = np.diag(np.where(np.diag(a) > 0.0, np.diag(a), 1.0))
        step = np.zeros(3)
        step[move] = np.linalg.solve(a + damping * scale, -grad[move])
        d = project(s.x + step) - s.x
        if np.all(np.abs(d) <= _XTOL * np.maximum(1.0, np.abs(s.x))):
            break
        t = p.trial(s.x + d)
        # the damping follows the gain ratio (Nielsen, IMM-REP-1999-05)
        predicted = -(2.0 * grad @ d + d @ normal @ d)
        gain = (s.rss - t.rss) / predicted if predicted > 0.0 else 0.0
        if t.rss < s.rss:
            s, growth = t, 2.0
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        else:
            damping, growth = damping * growth, 2.0 * growth
    else:
        settled = False
    # rate 0 is T1_ph = inf, not an edge
    edge = free & (s.x == window(s.x)).any(axis=0) & [True, True, s.x[2] > 0]
    fit = FitResult(model=DecayModel(*p.law(s.x, s.amplitude)),
                    residual_rss=s.rss, converged=settled and not edge.any(),
                    iterations=p.evaluations)
    if not fit.converged:
        raise FitError("the best fit lies on an edge of the search window"
                       if edge.any() else
                       f"the search did not settle in {_MAX_STEPS} steps", fit)
    return fit


def fit_decay(c: DecayCurve, fixed_t1_ph_s: float | None = None
              ) -> FitResult:
    """Least-squares fit of the two-channel decay law (beta = 1/2).

    T1_dd is searched in log T1_dd over the window in which
    (t/T1_dd)^(1/2) runs from 100 at the first positive time to 0.01 at
    the last one: the sampled times widened 1e4-fold on each side.
    Unless ``fixed_t1_ph_s`` holds T1_ph (inf switches the channel off),
    so is the phonon rate t_max / T1_ph (see ``_search``).
    """
    if fixed_t1_ph_s is not None and not fixed_t1_ph_s > 0.0:
        raise ValueError(f"fixed_t1_ph_s = {fixed_t1_ph_s!r} is not positive")
    return _search(_Profile(c, fixed_t1_ph_s), [0.5])


def fit_beta(c: DecayCurve) -> FitResult:
    """Fit the single stretch (T1_ph = inf) with free (A, T1, beta):
    beta in [0.05, 1.5], log T1 in the window of that beta (see
    ``fit_decay``)."""
    return _search(_Profile(c, np.inf), _BETA_NODES)


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
        gaussian = self.shape is LineShape.GAUSSIAN
        area = (np.sqrt(2.0 * np.pi) if gaussian else np.pi) * self.width_mhz
        return self.peak_normalized(nu_mhz) / area

    def peak_normalized(self, nu_mhz):
        """The profile at nu (MHz) over its peak value: exp(-u^2/2) or
        1/(1 + u^2) of the offset in widths, u = (nu - center)/width."""
        with np.errstate(over="ignore"):    # an overflowed offset gives 0
            u = (np.asarray(nu_mhz, dtype=float) - self.center_mhz) \
                / self.width_mhz
            out = np.exp(-0.5 * u ** 2) \
                if self.shape is LineShape.GAUSSIAN else 1.0 / (1.0 + u * u)
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
    if not np.all(np.isfinite(delta)):
        raise ValueError("delta_nu_mhz must be finite")
    shapes = {p1.shape, p2.shape}
    w1, w2 = p1.width_mhz, p2.width_mhz
    # an overflowed offset gives 0; an overflowed width or value is refused
    with np.errstate(over="ignore"):
        x = delta + p2.center_mhz - p1.center_mhz
        if len(shapes) == 2:
            g, lor = (p1, p2) if p1.shape is LineShape.GAUSSIAN else (p2, p1)
            # the one SciPy use on the command path, loaded only here
            from scipy.special import voigt_profile
            out = voigt_profile(x, g.width_mhz, lor.width_mhz)
        else:
            width = float(np.hypot(w1, w2)) if shapes == {LineShape.GAUSSIAN} \
                else w1 + w2
            out = LineProfile(p1.shape, width)(x) if width < np.inf else np.inf
    if not np.all(np.isfinite(out)):
        raise ValueError(f"the overlap overflows for widths {w1:g} and "
                         f"{w2:g} MHz")
    return out if np.ndim(delta_nu_mhz) else float(out[0])


def sensitivity(sigma_b_tesla: float, tau_lp_s: float) -> float:
    """DC magnetic sensitivity sigma_B * sqrt(tau) in T/sqrt(Hz).

    ``sigma_b_tesla`` is the standard deviation of the field readout
    noise and ``tau_lp_s`` the low-pass (lock-in) time constant.
    """
    if not (0.0 < sigma_b_tesla < np.inf and 0.0 < tau_lp_s < np.inf):
        raise ValueError("sigma and tau must be finite and positive")
    with np.errstate(over="ignore"):    # an overflowed value is refused
        eta = sigma_b_tesla * np.sqrt(tau_lp_s)
    if eta == np.inf:
        raise ValueError(f"the sensitivity overflows for sigma_b_tesla = "
                         f"{sigma_b_tesla:g} and tau_lp_s = {tau_lp_s:g}")
    return float(eta)
