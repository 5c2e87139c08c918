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
    "constants": ("D_GHZ", "GAMMA_E_MHZ_PER_G", "DEFAULT_E_PERP_MHZ",
                  "DEFAULT_CR_RANGE_MHZ", "J0_MHZ_NM3"),
    "geometry": ("CLASS_AXES", "NVClassFrame", "PairGeometry", "class_frame",
                 "tilted_field_direction"),
    # single-center model
    "spin_model": ("zero_field_states", "build_hamiltonian", "diagonalize",
                   "eigenstate_map", "transverse_field_scan"),
    # pair coupling
    "dipolar": ("BasisChoice", "dipolar_coefficients", "flip_flop_amplitude",
                "double_flip_amplitude"),
    # angular averages
    "eta_average": ("ZAngle", "XMode", "scenario_frames", "pair_average",
                    "eta_bar", "eta_table", "multiplier_table"),
    "relaxation": ("FluctuatorParams", "DecayModel", "characteristic_rate",
                   "rate_density", "polarization", "decay_signal"),
    "analysis": ("DecayCurve", "FitError", "LineShape", "LineProfile",
                 "fit_decay", "fit_beta", "spectral_overlap", "sensitivity"),
    # spectra
    "odmr": ("all_transitions", "degeneracy_lift", "synth_spectrum"),
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
