"""Physical constants of the NV- ground-state spin model.

Internal unit conventions, used consistently across the package:
energies and frequencies in GHz (Hamiltonians) or MHz (splittings,
linewidths), magnetic fields in Gauss, distances in nm, times in
seconds.  Every public output restates its units.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["PhysicalConstants", "DEFAULT_CONSTANTS", "DEFAULT_E_PERP_MHZ",
           "DEFAULT_CR_RANGE_MHZ", "J0_MHZ_NM3"]

# Default transverse electric energy d_perp*E_perp (MHz), typical of the
# local charge environment probed by the zero-field splitting feature.
DEFAULT_E_PERP_MHZ = 4.0

# Half width at half maximum of the zero-field cross-relaxation feature
# (MHz); doubles as the default interaction range in degeneracy analysis.
DEFAULT_CR_RANGE_MHZ = 8.04

# Characteristic dipole-dipole strength J0 (MHz nm^3): the coupling of
# two NV spins 1 nm apart; the default of ``FluctuatorParams``.
J0_MHZ_NM3 = 52.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Ground-state spin-1 parameters.

    Attributes
    ----------
    d_ghz : float
        Zero-field splitting D between ``|0>`` and ``|+-1>`` (GHz).
    gamma_e_mhz_per_g : float
        Electron gyromagnetic ratio (MHz per Gauss).

    Every value must be finite and positive; construction checks it.
    """

    d_ghz: float = 2.87
    gamma_e_mhz_per_g: float = 2.8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not np.isfinite(value) or value <= 0.0:
                raise ValueError(f"{f.name} must be strictly positive, "
                                 f"got {value}")


DEFAULT_CONSTANTS = PhysicalConstants()
