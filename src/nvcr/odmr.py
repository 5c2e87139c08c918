"""Ensemble ODMR line positions for the four defect orientation classes.

A magnetic field applied along one crystal direction projects
differently onto the four symmetry axes, so the single zero-field pair
of lines fans out into up to eight.  This module tracks those lines
versus field amplitude, measures the gaps between neighboring lines,
finds the field where every resolvable gap clears a requested width,
and renders simple synthetic spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import LineProfile, LineShape
from .constants import (DEFAULT_CONSTANTS, DEFAULT_CR_RANGE_MHZ,
                        DEFAULT_E_PERP_MHZ, PhysicalConstants)
from .geometry import CLASS_AXES, class_frame, tilted_field_direction
from .spin_model import FieldConfiguration, build_hamiltonian, diagonalize

__all__ = [
    "DegeneracyReport",
    "all_transitions",
    "degeneracy_lift",
    "synth_spectrum",
]

_DEGENERATE_MHZ = 1e-9   # gap below this over the whole scan: pair unresolvable


def _unit_direction(direction) -> np.ndarray:
    if direction is None:
        return tilted_field_direction()
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        raise ValueError("direction must be a nonzero vector")
    return direction / norm


def _ramp(b_amps_gauss) -> np.ndarray:
    """Field amplitudes of a scan (default 0..30 G), checked >= 0."""
    if b_amps_gauss is None:
        b_amps_gauss = np.linspace(0.0, 30.0, 121)
    amps = np.atleast_1d(np.asarray(b_amps_gauss, dtype=float))
    if np.any(amps < 0.0):
        raise ValueError("field amplitudes must be >= 0")
    return amps


def all_transitions(direction=None, b_amps_gauss=None,
                    e_perp_mhz: float = DEFAULT_E_PERP_MHZ,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS
                    ) -> np.ndarray:
    """Transition frequencies (GHz) of all four classes along a field ramp.

    ``direction`` is a crystal-frame vector (default: the tilted
    direction used for the line-splitting study); ``b_amps_gauss``
    defaults to 0..30 G.  Returns an (n, 8) array ordered class-major:
    for each class the lower line, then the upper line.

    Each class's two excited levels are labeled by energy order.  The
    class frame's x axis follows the field's transverse part and
    phi_E = 0, so the Hamiltonian is real; its only symmetry, m -> -m,
    holds when the field is transverse, and there the odd level
    (<= D - eps) stays below the even one (>= D + eps).  The two
    excited levels therefore never cross for B > 0, and energy order
    is the branch order.
    """
    direction = _unit_direction(direction)
    amps = _ramp(b_amps_gauss)
    amp_ref = float(np.max(amps)) if amps.size and np.max(amps) > 0 else 1.0

    freqs = np.empty((amps.size, 8))
    for cls_id in range(len(CLASS_AXES)):
        # one frame per scan so the in-plane field phase stays put
        frame = class_frame(cls_id, b_field=amp_ref * direction)
        for i, amp in enumerate(amps):
            f = FieldConfiguration(b_gauss=amp * direction,
                                   e_perp_mhz=e_perp_mhz)
            e = diagonalize(build_hamiltonian(frame, f, constants)).energies_ghz
            freqs[i, 2 * cls_id:2 * cls_id + 2] = e[1:] - e[0]
    return freqs


@dataclass(frozen=True)
class DegeneracyReport:
    """Neighbor gaps within each branch along a field ramp.

    Each pair gets the field where its gap first reaches
    ``cr_range_mhz`` (None when it never does).  Pairs whose gap is
    identically zero come from classes the direction cannot tell apart;
    they are listed in ``degenerate_pairs`` and excluded from the
    envelope.  ``all_separated_b_gauss`` is where the smallest
    resolvable gap clears the range.
    """

    b_gauss: np.ndarray
    pair_labels: list[str]
    dnu_mhz: np.ndarray
    pair_crossings_b_gauss: list[float | None]
    degenerate_pairs: list[str]
    envelope_mhz: np.ndarray | None
    all_separated_b_gauss: float | None
    cr_range_mhz: float


def _branch_pairs(freqs: np.ndarray) -> list[tuple[str, int, int]]:
    """Adjacent class pairs within each branch, ordered by frequency at
    the top of the ramp (where the fan is widest): (label, column,
    column) into the (n, 8) scan."""
    pairs = []
    for name, branch in (("lower", 0), ("upper", 1)):
        order = np.argsort(freqs[-1, branch::2], kind="stable")
        for a, b in zip(order[:-1], order[1:]):
            label = f"{name}_{min(a, b) + 1}{max(a, b) + 1}"
            pairs.append((label, 2 * a + branch, 2 * b + branch))
    return pairs


def _gaps_mhz(freqs: np.ndarray, pairs) -> np.ndarray:
    """Line gaps (MHz) of ``pairs``: (..., len(pairs)) for (..., 8) lines."""
    a = [p[1] for p in pairs]
    b = [p[2] for p in pairs]
    return np.abs(freqs[..., a] - freqs[..., b]) * 1e3


def degeneracy_lift(direction=None, b_amps_gauss=None,
                    cr_range_mhz: float = DEFAULT_CR_RANGE_MHZ,
                    e_perp_mhz: float = DEFAULT_E_PERP_MHZ,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS
                    ) -> DegeneracyReport:
    """Find where line-pair gaps cross the interaction range.

    Crossings are refined by bisection to about 1e-3 G on the first
    grid interval where a gap reaches ``cr_range_mhz``.
    """
    if cr_range_mhz <= 0.0:
        raise ValueError("cr_range must be positive")
    amps = _ramp(b_amps_gauss)
    if amps.size < 8:
        raise ValueError("need at least 8 scan points")
    if np.any(np.diff(amps) <= 0.0):
        raise ValueError("field amplitudes must be strictly increasing")
    freqs = all_transitions(direction, amps, e_perp_mhz, constants)
    pairs = _branch_pairs(freqs)
    dnu = _gaps_mhz(freqs, pairs)

    def crossing(subset) -> float | None:
        # where the smallest gap of ``subset`` first reaches cr_range
        above = _gaps_mhz(freqs, subset).min(axis=1) >= cr_range_mhz
        if not np.any(above):
            return None
        k = int(np.argmax(above))
        if k == 0:
            return float(amps[0])
        lo, hi = float(amps[k - 1]), float(amps[k])
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            lines = all_transitions(direction, mid, e_perp_mhz, constants)
            if _gaps_mhz(lines, subset).min() >= cr_range_mhz:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    resolved = np.max(dnu, axis=0) >= _DEGENERATE_MHZ
    kept = [p for p, ok in zip(pairs, resolved) if ok]
    return DegeneracyReport(
        b_gauss=amps, pair_labels=[p[0] for p in pairs], dnu_mhz=dnu,
        pair_crossings_b_gauss=[crossing([p]) if ok else None
                                for p, ok in zip(pairs, resolved)],
        degenerate_pairs=[p[0] for p, ok in zip(pairs, resolved) if not ok],
        envelope_mhz=np.min(dnu[:, resolved], axis=1) if kept else None,
        all_separated_b_gauss=crossing(kept) if kept else None,
        cr_range_mhz=cr_range_mhz)


def synth_spectrum(lines_ghz, profile: LineProfile,
                   contrast_per_line: float = 0.02, freq_ghz=None,
                   n_freq: int = 2001):
    """Synthetic continuous-wave spectrum of a set of lines.

    ``lines_ghz`` is a 1-D array of line frequencies (GHz), such as one
    row of :func:`all_transitions`.  Returns (freq_ghz, pl_norm):
    photoluminescence normalized to one away from any line, each line
    digging a dip of depth ``contrast_per_line`` scaled by the profile
    (peak-normalized, so coincident lines deepen the dip additively).
    Without ``freq_ghz`` the grid is ``n_freq`` points spanning the
    lines padded by 20 widths.
    """
    lines = np.asarray(lines_ghz, dtype=float)
    if lines.ndim != 1 or lines.size == 0 or not np.all(np.isfinite(lines)):
        raise ValueError("lines_ghz must be a non-empty 1-D array of "
                         "finite frequencies")
    if not 0.0 < contrast_per_line < 1.0:
        raise ValueError("contrast must be in (0, 1)")
    if profile.shape is LineShape.TABULATED:
        raise ValueError("synthetic spectra need an analytic profile")
    width_ghz = profile.width_mhz * 1e-3
    if freq_ghz is None:
        pad = 20.0 * width_ghz
        freq_ghz = np.linspace(lines.min() - pad, lines.max() + pad, n_freq)
    freq_ghz = np.asarray(freq_ghz, dtype=float)
    pl = np.ones_like(freq_ghz)
    for nu in np.sort(lines):
        x = freq_ghz - nu
        if profile.shape is LineShape.GAUSSIAN:
            dip = np.exp(-0.5 * (x / width_ghz) ** 2)
        else:
            dip = width_ghz**2 / (x * x + width_ghz**2)
        pl -= contrast_per_line * dip
    return freq_ghz, pl
