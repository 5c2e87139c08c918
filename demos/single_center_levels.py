"""Walk through the single-center level structure at low field.

At zero magnetic field a transverse electric field splits the upper
spin doublet into |+> and |->, separated by twice the electric energy.
A transverse magnetic field widens that gap quadratically while the
upper eigenstate keeps almost full overlap with the zero-field |+>
state, which is what makes a bias field a good stand-in for a large
effective electric field.

Run:  python3 demos/single_center_levels.py
"""

import numpy as np

from nvcr import build_hamiltonian, diagonalize, transverse_field_scan

# zero field: |0> at zero energy, the doublet split by 2 * 4 MHz
es = diagonalize(build_hamiltonian(np.zeros(3), e_perp_mhz=4.0))
print("zero-field energies (GHz):", np.round(es.energies_ghz, 6))
print("doublet splitting: %.3f MHz"
      % ((es.energies_ghz[2] - es.energies_ghz[1]) * 1e3))

# ramp a transverse field and watch the splitting and the |+> character
b = np.linspace(0.0, 200.0, 41)
energies, dnu, matching = transverse_field_scan(b, e_perp_mhz=4.0)

print("\n  B_perp (G)   dnu (MHz)   |<e|+>|^2")
for i in range(0, b.size, 8):
    print("  %8.1f   %9.3f   %.6f" % (b[i], dnu[i], matching[i]))

i150 = int(np.argmin(np.abs(b - 150.0)))
print("\nat 150 G the splitting is %.1f MHz, up from 8 MHz at zero field,"
      % dnu[i150])
print("with upper-state overlap %.4f onto the zero-field |+>." % matching[i150])
