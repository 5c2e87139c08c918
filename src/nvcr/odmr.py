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
    "TransitionSet",
    "DegeneracyReport",
    "all_transitions",
    "transitions_matrix",
    "degeneracy_lift",
    "synth_spectrum",
]

_DEGENERATE_MHZ = 1e-9   # gap below this over the whole scan: pair unresolvable


@dataclass(frozen=True)
class TransitionSet:
    """Eight transition frequencies at one field amplitude.

    ``freqs_ghz`` is ordered class-major: for each class the
    lower-branch line then the upper-branch line.
    """

    b_gauss: float
    direction: np.ndarray
    e_perp_mhz: float
    freqs_ghz: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.freqs_ghz, dtype=float)
        if f.shape != (8,):
            raise ValueError("expected 8 transition frequencies")
        object.__setattr__(self, "freqs_ghz", f)

    @property
    def lower_ghz(self) -> np.ndarray:
        return self.freqs_ghz[0::2]

    @property
    def upper_ghz(self) -> np.ndarray:
        return self.freqs_ghz[1::2]


def _excited_pair(states: np.ndarray, energies: np.ndarray,
                  prev: np.ndarray | None):
    """Order the two excited states for continuity with the last step."""
    if prev is None:
        return states, energies
    # greedy 2x2 assignment by eigenvector overlap
    o = np.abs(prev.conj().T @ states)
    if o[0, 0] + o[1, 1] >= o[0, 1] + o[1, 0]:
        return states, energies
    return states[:, ::-1], energies[::-1]


def _unit_direction(direction) -> np.ndarray:
    if direction is None:
        return tilted_field_direction()
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        raise ValueError("direction must be a nonzero vector")
    return direction / norm


def all_transitions(direction=None, b_amps_gauss=None,
                    e_perp_mhz: float = DEFAULT_E_PERP_MHZ,
                    constants: PhysicalConstants = DEFAULT_CONSTANTS
                    ) -> list[TransitionSet]:
    """Transition frequencies of all four classes along a field ramp.

    ``direction`` is a crystal-frame vector (default: the tilted
    direction used for the line-splitting study); ``b_amps_gauss``
    defaults to 0..30 G.  Lines are tracked by eigenvector continuity
    so branches never swap between steps.
    """
    direction = _unit_direction(direction)
    if b_amps_gauss is None:
        b_amps_gauss = np.linspace(0.0, 30.0, 121)
    amps = np.atleast_1d(np.asarray(b_amps_gauss, dtype=float))
    if np.any(amps < 0.0):
        raise ValueError("field amplitudes must be >= 0")
    amp_ref = float(np.max(amps)) if amps.size and np.max(amps) > 0 else 1.0

    freqs = np.empty((amps.size, 8))
    for cls_id in range(len(CLASS_AXES)):
        # one frame per scan so the in-plane field phase stays put
        frame = class_frame(cls_id, b_field=amp_ref * direction)
        prev = None
        for i, amp in enumerate(amps):
            f = FieldConfiguration(b_gauss=amp * direction,
                                   e_perp_mhz=e_perp_mhz)
            es = diagonalize(build_hamiltonian(frame, f, constants))
            ground = es.energies_ghz[0]
            exc_states = es.states[:, 1:]
            exc_energies = es.energies_ghz[1:]
            exc_states, exc_energies = _excited_pair(exc_states, exc_energies,
                                                     prev)
            prev = exc_states
            freqs[i, 2 * cls_id] = exc_energies[0] - ground
            freqs[i, 2 * cls_id + 1] = exc_energies[1] - ground
    return [TransitionSet(b_gauss=float(a), direction=direction,
                          e_perp_mhz=e_perp_mhz, freqs_ghz=freqs[i])
            for i, a in enumerate(amps)]


def transitions_matrix(sets: list[TransitionSet]) -> tuple[np.ndarray, np.ndarray]:
    """Stack a transition scan into (amplitudes, (n, 8) frequencies)."""
    b = np.array([t.b_gauss for t in sets])
    f = np.vstack([t.freqs_ghz for t in sets])
    return b, f


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


def _branch_pairs(b: np.ndarray, freqs: np.ndarray):
    """Adjacent class pairs within each branch, ordered by frequency at
    the top of the ramp (where the fan is widest)."""
    pairs = []
    for name, block in (("lower", freqs[:, 0::2]), ("upper", freqs[:, 1::2])):
        order = np.argsort(block[-1], kind="stable")
        for a, bb in zip(order[:-1], order[1:]):
            label = f"{name}_{min(a, bb) + 1}{max(a, bb) + 1}"
            gaps = np.abs(block[:, a] - block[:, bb]) * 1e3
            pairs.append((label, gaps, name, int(a), int(bb)))
    return pairs


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
    sets = all_transitions(direction, b_amps_gauss, e_perp_mhz, constants)
    if len(sets) < 8:
        raise ValueError("need at least 8 scan points")
    amps, freqs = transitions_matrix(sets)
    if np.any(np.diff(amps) <= 0.0):
        raise ValueError("field amplitudes must be strictly increasing")
    raw = _branch_pairs(amps, freqs)
    direction = sets[0].direction

    def gap_at(amp: float, branch: str, a: int, b: int) -> float:
        sub = all_transitions(direction, [amp], e_perp_mhz, constants)[0]
        block = sub.lower_ghz if branch == "lower" else sub.upper_ghz
        return abs(block[a] - block[b]) * 1e3

    def refine(k: int, value) -> float:
        # value(amp) just crossed cr_range between grid points k-1 and k
        lo, hi = float(amps[k - 1]), float(amps[k])
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if value(mid) >= cr_range_mhz:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    labels, curves, crossings, degenerate = [], [], [], []
    kept_idx = []
    for label, gaps, branch, a, b in raw:
        labels.append(label)
        curves.append(gaps)
        if float(np.max(gaps)) < _DEGENERATE_MHZ:
            degenerate.append(label)
            crossings.append(None)
            continue
        kept_idx.append(len(labels) - 1)
        above = gaps >= cr_range_mhz
        if above[0]:
            crossings.append(float(amps[0]))
        elif np.any(above):
            k = int(np.argmax(above))
            crossings.append(refine(k, lambda x: gap_at(x, branch, a, b)))
        else:
            crossings.append(None)

    dnu = np.column_stack(curves)
    envelope = None
    all_sep = None
    if kept_idx:
        envelope = np.min(dnu[:, kept_idx], axis=1)
        above = envelope >= cr_range_mhz
        if above[0]:
            all_sep = float(amps[0])
        elif np.any(above):
            k = int(np.argmax(above))
            kept = [raw[i] for i in kept_idx]

            def env_at(amp: float) -> float:
                return min(gap_at(amp, br, a, b) for _, _, br, a, b in kept)

            all_sep = refine(k, env_at)

    return DegeneracyReport(b_gauss=amps, pair_labels=labels, dnu_mhz=dnu,
                            pair_crossings_b_gauss=crossings,
                            degenerate_pairs=degenerate,
                            envelope_mhz=envelope,
                            all_separated_b_gauss=all_sep,
                            cr_range_mhz=cr_range_mhz)


def synth_spectrum(t: TransitionSet, profile: LineProfile,
                   contrast_per_line: float = 0.02, freq_ghz=None,
                   n_freq: int = 2001):
    """Synthetic continuous-wave spectrum for one transition set.

    Returns (freq_ghz, pl_norm): photoluminescence normalized to one
    away from any line, each line digging a dip of depth
    ``contrast_per_line`` scaled by the profile (peak-normalized, so
    coincident lines deepen the dip additively).  Without ``freq_ghz``
    the grid is ``n_freq`` points spanning the lines padded by 20
    widths.
    """
    if not 0.0 < contrast_per_line < 1.0:
        raise ValueError("contrast must be in (0, 1)")
    if profile.shape is LineShape.TABULATED:
        raise ValueError("synthetic spectra need an analytic profile")
    lines = np.sort(t.freqs_ghz)
    width_ghz = profile.width_mhz * 1e-3
    if freq_ghz is None:
        pad = 20.0 * width_ghz
        freq_ghz = np.linspace(lines[0] - pad, lines[-1] + pad, n_freq)
    freq_ghz = np.asarray(freq_ghz, dtype=float)
    pl = np.ones_like(freq_ghz)
    for nu in lines:
        x = freq_ghz - nu
        if profile.shape is LineShape.GAUSSIAN:
            dip = np.exp(-0.5 * (x / width_ghz) ** 2)
        else:
            dip = width_ghz**2 / (x * x + width_ghz**2)
        pl -= contrast_per_line * dip
    return freq_ghz, pl
