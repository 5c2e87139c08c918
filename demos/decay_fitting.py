"""Round-trip the decay laws through the fitting machinery.

The ensemble polarization decays as exp(-sqrt(tau/T)) from the dipolar
channel times a plain exponential from the phonon channel.  Fitting a
single stretched exponential to such a curve yields an exponent
between 0.5 and 1 that slides toward 0.5 as the dipolar channel takes
over, which is a quick diagnostic for which channel dominates a
measured curve.

Run:  python3 demos/decay_fitting.py
"""

import numpy as np

from nvcr import DecayCurve, DecayModel, decay_signal, fit_beta, fit_decay

tau = np.geomspace(1e-5, 2e-2, 72)

# recover known parameters from a noiseless curve
truth = DecayModel(t1_dd_s=0.6e-3, t1_ph_s=3.62e-3, amplitude=1.0)
curve = DecayCurve(tau_s=tau, signal=decay_signal(tau, truth))
res = fit_decay(curve, fixed_t1_ph_s=3.62e-3)
print("generated with T1_dd = 0.600 ms, phonon channel held at 3.62 ms")
print("fit recovers  T1_dd = %.4f ms (rss %.1e, %d evaluations)"
      % (res.model.t1_dd_s * 1e3, res.residual_rss, res.iterations))

# the same machinery with the phonon channel free
res_free = fit_decay(curve)
print("with the phonon channel free: T1_dd = %.4f ms, T1_ph = %.3f ms"
      % (res_free.model.t1_dd_s * 1e3, res_free.model.t1_ph_s * 1e3))

# stretch exponent vs channel balance
print("\n  T1_dd/T1_ph   best single-exponent beta")
for ratio in (0.05, 0.2, 1.0, 5.0):
    m = DecayModel(t1_dd_s=ratio * 1e-3, t1_ph_s=1e-3, amplitude=1.0)
    c = DecayCurve(tau_s=tau, signal=decay_signal(tau, m))
    beta = fit_beta(c).model.beta
    print("  %10.2f   %.3f" % (ratio, beta))
print("small ratios (dipolar-dominated) sit near 0.5, large near 1.")
