"""Numerical model of dipolar cross-relaxation in spin-1 defect ensembles.

The package covers the chain from single-center eigenstructure through
pair-coupling amplitudes, orientation-averaged coupling strengths,
ensemble relaxation laws, decay-curve fitting and synthetic spectra,
with a CLI (``nvcr``) that emits every result as a reproducible file.

The public names below are loaded on first access (PEP 562), so
``import nvcr`` loads neither numpy nor any submodule: the ``nvcr``
command imports the package before ``nvcr.cli`` configures numpy.
"""

from importlib import import_module

from .version import __version__

# submodule -> its ``__all__``, the public names loaded on first access
_SUBMODULES = {
    "constants": ("PhysicalConstants", "DEFAULT_CONSTANTS",
                  "DEFAULT_E_PERP_MHZ", "DEFAULT_CR_RANGE_MHZ", "J0_MHZ_NM3"),
    "geometry": ("CLASS_AXES", "NVClassFrame", "PairGeometry", "class_frame",
                 "rotation_matrix", "tilted_field_direction"),
    # single-center model
    "spin_model": ("FieldConfiguration", "SpinEigensystem", "spin_matrices",
                   "zero_field_states", "build_hamiltonian", "diagonalize",
                   "eigenstate_map", "transverse_field_scan"),
    # pair coupling
    "dipolar": ("BasisChoice", "DipolarCoefficients", "dipolar_coefficients",
                "build_two_spin_hamiltonian", "flip_flop_amplitude",
                "double_flip_amplitude", "nonmagnetic_spin_matrices",
                "nonmagnetic_change_of_basis"),
    # angular averages
    "eta_average": ("ZAngle", "XMode", "EtaScenario",
                    "FieldOrientationScenario", "QuadratureSpec",
                    "DEFAULT_QUADRATURE", "ConvergenceError",
                    "scenario_frames", "pair_average", "angular_average",
                    "eta_bar", "eta_table", "scenario_multiplier",
                    "multiplier_table"),
    "relaxation": ("FluctuatorParams", "DecayModel", "characteristic_rate",
                   "rate_density", "polarization",
                   "polarization_from_density", "decay_signal"),
    "analysis": ("DecayCurve", "FitResult", "FitError", "LineShape",
                 "LineProfile", "fit_decay", "fit_beta", "spectral_overlap",
                 "sensitivity"),
    # spectra
    "odmr": ("DegeneracyReport", "all_transitions", "degeneracy_lift",
             "synth_spectrum"),
}
_EXPORTS = {name: module for module, names in _SUBMODULES.items()
            for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
