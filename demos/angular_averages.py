"""Orientation-averaged pair couplings and the ensemble rate multipliers.

The flip-flop coupling between two centers depends on the direction of
the vector joining them.  Averaging its magnitude over that direction,
for each relative orientation of the two symmetry axes and in both
eigenbases, gives a small table of dimensionless numbers; squaring the
summed couplings of all resonant orientation classes turns the table
into relaxation-rate multipliers for each applied-field configuration.

Run:  python3 demos/angular_averages.py
"""

import numpy as np

from nvcr import BasisChoice, ZAngle, eta_bar, eta_table, multiplier_table
from nvcr.eta_average import ETA_PREFACTOR

table = eta_table()
print("normalized angular averages (rows: basis/axis handling):")
print("  %-22s %8s %8s %8s" % ("", "same", "close", "far"))
for fam in ("magnetic", "nonmagnetic_random", "nonmagnetic_aligned"):
    row = [table[(fam, axis)] for axis in ("same", "close", "far")]
    print("  %-22s %8.4f %8.4f %8.4f" % (fam, *row))

# the same-axis magnetic entry has a closed form
print("\nclosed forms: 2/(3 sqrt 3) = %.6f, 4/(3 sqrt 3) = %.6f"
      % (2.0 / (3.0 * np.sqrt(3.0)), 4.0 / (3.0 * np.sqrt(3.0))))

# with the 1/4 population weight and sqrt(1/3) bandwidth factor
print("\nweighted couplings eta_bar (magnetic basis):")
for z in ZAngle:
    val = eta_bar(BasisChoice.MAGNETIC, z)
    print("  %-6s %.4e" % (z.value, val))
print("  prefactor 1/4 * sqrt(1/3) = %.6f" % ETA_PREFACTOR)

mult = multiplier_table()
print("\nrate multipliers per field configuration (RANDOM = 1):")
for name, value in mult.items():
    print("  %-20s %6.2f" % (name, value))
ratio = mult["ZERO_FIELD"] / mult["AXIS_100"]
print("zero-field exceeds the best magnetic alignment by %.0f%%"
      % (100.0 * (ratio - 1.0)))
