"""The paper's physical constants of the NV- ground-state spin model.

Internal unit conventions, used consistently across the package:
energies and frequencies in GHz (Hamiltonians) or MHz (splittings,
linewidths), magnetic fields in Gauss, distances in nm, times in
seconds.  Every public output restates its units.
"""

from __future__ import annotations

__all__ = ["D_GHZ", "GAMMA_E_MHZ_PER_G", "DEFAULT_E_PERP_MHZ",
           "DEFAULT_CR_RANGE_MHZ", "J0_MHZ_NM3"]

# Zero-field splitting D between |0> and |+-1> (GHz).
D_GHZ = 2.87

# Electron gyromagnetic ratio gamma_e (MHz per Gauss).
GAMMA_E_MHZ_PER_G = 2.8

# Default transverse electric energy d_perp*E_perp (MHz), typical of the
# local charge environment probed by the zero-field splitting feature.
DEFAULT_E_PERP_MHZ = 4.0

# Half width at half maximum of the zero-field cross-relaxation feature
# (MHz); doubles as the default interaction range in degeneracy analysis.
DEFAULT_CR_RANGE_MHZ = 8.04

# Characteristic dipole-dipole strength J0 (MHz nm^3): the coupling of
# two NV spins 1 nm apart; the default of ``FluctuatorParams``.
J0_MHZ_NM3 = 52.0
