"""Numerical model of dipolar cross-relaxation in spin-1 defect ensembles.

The package covers the chain from single-center eigenstructure through
pair-coupling amplitudes, orientation-averaged coupling strengths,
ensemble relaxation laws, decay-curve fitting and synthetic spectra,
with a CLI (``nvcr``) that emits every result as a reproducible file.
"""

from .analysis import (DecayCurve, FitError, FitResult, LineProfile,
                       LineShape, fit_beta, fit_decay, sensitivity,
                       spectral_overlap)
from .constants import (DEFAULT_CONSTANTS, DEFAULT_CR_RANGE_MHZ,
                        DEFAULT_E_PERP_MHZ, PhysicalConstants)
from .dipolar import (BasisChoice, DipolarCoefficients,
                      build_two_spin_hamiltonian, dipolar_coefficients,
                      double_flip_amplitude, flip_flop_amplitude,
                      nonmagnetic_change_of_basis, nonmagnetic_spin_matrices,
                      resonance_factor)
from .eta_average import (DEFAULT_QUADRATURE, ConvergenceError, EtaScenario,
                          FieldOrientationScenario, QuadratureSpec, XMode,
                          ZAngle, angular_average, eta_bar, eta_table,
                          multiplier_table, pair_average, scenario_frames,
                          scenario_multiplier)
from .geometry import (CLASS_AXES, NVClassFrame, PairGeometry, class_frame,
                       rotation_matrix, tilted_field_direction)
from .odmr import (DegeneracyReport, all_transitions, degeneracy_lift,
                   synth_spectrum)
from .relaxation import (DecayModel, FluctuatorParams, characteristic_rate,
                         decay_signal, polarization,
                         polarization_from_density, rate_density)
from .spin_model import (FieldConfiguration, SpinEigensystem,
                         build_hamiltonian, diagonalize, eigenstate_map,
                         spin_matrices, transverse_field_scan,
                         zero_field_states)
from .version import __version__

__all__ = [
    "__version__",
    # constants and geometry
    "PhysicalConstants", "DEFAULT_CONSTANTS", "DEFAULT_E_PERP_MHZ",
    "DEFAULT_CR_RANGE_MHZ", "CLASS_AXES", "NVClassFrame", "PairGeometry",
    "class_frame", "rotation_matrix", "tilted_field_direction",
    # single-center model
    "FieldConfiguration", "SpinEigensystem", "spin_matrices",
    "zero_field_states", "build_hamiltonian", "diagonalize",
    "eigenstate_map", "transverse_field_scan",
    # pair coupling
    "BasisChoice", "DipolarCoefficients", "dipolar_coefficients",
    "build_two_spin_hamiltonian", "flip_flop_amplitude",
    "double_flip_amplitude", "resonance_factor",
    "nonmagnetic_spin_matrices", "nonmagnetic_change_of_basis",
    # angular averages
    "ZAngle", "XMode", "EtaScenario", "FieldOrientationScenario",
    "QuadratureSpec", "DEFAULT_QUADRATURE", "ConvergenceError",
    "scenario_frames", "pair_average", "angular_average", "eta_bar",
    "eta_table", "scenario_multiplier", "multiplier_table",
    # relaxation
    "FluctuatorParams", "DecayModel", "characteristic_rate", "rate_density",
    "polarization", "polarization_from_density", "decay_signal",
    # analysis
    "DecayCurve", "FitResult", "FitError", "LineShape", "LineProfile",
    "fit_decay", "fit_beta", "spectral_overlap", "sensitivity",
    # spectra
    "DegeneracyReport", "all_transitions", "degeneracy_lift",
    "synth_spectrum",
]
