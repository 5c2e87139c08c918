"""Fan-out of the eight transition lines and the decoupling field.

Tilting the bias field away from every symmetry axis gives each of the
four orientation classes its own axial projection, so the two
zero-field lines fan out into eight.  Classes stop exchanging energy
once every neighboring line pair is further apart than the interaction
range; this script finds that field for the default tilted direction.

Run:  python3 demos/line_fan_and_crossing.py
"""

import numpy as np

from nvcr import all_transitions, degeneracy_lift
from nvcr.geometry import tilted_field_direction

direction = tilted_field_direction()
print("field direction (crystal frame):", np.round(direction, 4))

amps = np.linspace(0.0, 30.0, 61)
freqs = all_transitions(direction, amps)
print("\n  B (G)   line frequencies (GHz)")
for b, lines in zip(amps[::12], freqs[::12]):
    print("  %5.1f  " % b, " ".join("%.4f" % v for v in sorted(lines)))

rep = degeneracy_lift(direction, amps)
print("\nneighbor gaps must clear %.2f MHz; per-pair crossing fields:"
      % rep.cr_range_mhz)
for label, crossing in zip(rep.pair_labels, rep.pair_crossings_b_gauss):
    text = "never on this ramp" if crossing is None else "%.2f G" % crossing
    print("  %-10s %s" % (label, text))
print("all pairs separated above %.2f G" % rep.all_separated_b_gauss)

# a field along [100] keeps all four classes equivalent: nothing splits
rep100 = degeneracy_lift([1.0, 0.0, 0.0], amps)
print("\nalong [100]: %d of %d pairs stay degenerate at every amplitude"
      % (len(rep100.degenerate_pairs), len(rep100.pair_labels)))
