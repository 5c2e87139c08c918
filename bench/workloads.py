"""Seeded command lists for the three benchmark workloads.

A workload is a list of ``nvcr`` invocations plus the input files they
read.  Everything that varies with the seed (the decay curves, their
true time constants, the extra scan direction) is drawn here; the
program only ever sees the files and flags.

* ``tables``: the paper's headline tables at the default quadrature.
  Nearly all time is the orientation averages in ``eta_average``.
* ``grids``: large field scans, where ``spin_model`` diagonalizations
  and CSV writes dominate.
* ``lab``: a relaxometry workflow of thirteen short processes, where
  process start-up, fits, overlaps and point-wise transition solves
  share the time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

T1_PH_S = 3.62e-3
# tau grid of the generated curves: the decay-sim --log-spacing default
TAU_MIN_S, TAU_MAX_S, N_TAU = 1e-5, 5e-3, 64
# noise of the two generated curves (fraction of the tau=0 signal)
NOISE_LEVELS = (0.01, 0.02)
# Fitted T1_dd has a relative standard error of about 2x the noise level
# on this grid (Monte Carlo over 150 curves per level: 0.021 at 0.01,
# 0.036 at 0.02).  The acceptance band is six standard errors.
T1_BAND_PER_NOISE = 12.0
# a noiseless curve must fit back to the simplex tolerance
T1_BAND_NOISELESS = 1e-6
# With a sigma column the weighted residual sum is of order the point
# count, below whose rounding the simplex's absolute fatol (1e-16) lies;
# a start then runs to the 8000-evaluation limit or not depending on the
# noise draw (0.4 to 2.0 s for the four fits across seeds).  The seeded
# curves therefore carry no sigma column, and one weighted curve that is
# the same for every seed keeps that path in each run at a fixed cost.
WEIGHTED_NOISE = 0.01


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy."""

    id: str
    args: list[str]
    output: str
    check: str
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    commands: list[Command]
    inputs: dict[str, str] = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def _unit_vector(rng: random.Random) -> list[float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 0.1:
            return [x / norm for x in v]


def _noisy_curve(rng: random.Random, t1_dd_s: float, noise: float,
                 weighted: bool = False) -> str:
    """Two-channel decay with Gaussian noise as a CSV for ``fit-t1``.

    ``weighted`` adds a ``sigma`` column holding the noise level.
    """
    lines = ["tau_s,signal,sigma" if weighted else "tau_s,signal"]
    ratio = (TAU_MAX_S / TAU_MIN_S) ** (1.0 / (N_TAU - 1))
    for k in range(N_TAU):
        tau = TAU_MIN_S * ratio ** k
        clean = math.exp(-math.sqrt(tau / t1_dd_s) - tau / T1_PH_S)
        row = f"{tau:.10g},{clean + rng.gauss(0.0, noise):.10g}"
        lines.append(row + (f",{noise:.10g}" if weighted else ""))
    return "\n".join(lines) + "\n"


def _tables(rng: random.Random, seed: int) -> Workload:
    return Workload([
        Command("eta-table", ["eta-table", "--output", "eta_table.csv"],
                "eta_table.csv", "eta_table"),
        Command("multipliers", ["multipliers", "--output", "multipliers.csv"],
                "multipliers.csv", "multipliers"),
    ])


def _grids(rng: random.Random, seed: int) -> Workload:
    direction = ",".join(f"{x:.6f}" for x in _unit_vector(rng))
    return Workload([
        Command("eigen-map", ["eigen-map", "--n-b", "121", "--n-theta", "91",
                              "--output", "eigen_map.csv"],
                "eigen_map.csv", "csv", {"rows": 121 * 91}),
        Command("transverse-scan", ["transverse-scan", "--n-b", "2001",
                                    "--output", "transverse_scan.csv"],
                "transverse_scan.csv", "transverse_scan", {"rows": 2001}),
        Command("transitions-default", ["transitions", "--n-b", "481",
                                        "--output", "transitions_default.csv"],
                "transitions_default.csv", "csv", {"rows": 481}),
        Command("transitions-seeded", ["transitions", "--n-b", "481",
                                       f"--direction={direction}",
                                       "--output", "transitions_seeded.csv"],
                "transitions_seeded.csv", "csv", {"rows": 481}),
    ], truth={"seeded_direction": direction})


def _lab(rng: random.Random, seed: int) -> Workload:
    s = str(seed)
    sim_t1 = float(f"{rng.uniform(0.3e-3, 1.2e-3):.4e}")
    commands = [
        Command("decay-sim", ["decay-sim", "--t1dd-s", repr(sim_t1),
                              "--t1ph-s", repr(T1_PH_S), "--log-spacing",
                              "--output", "decay_sim.csv"],
                "decay_sim.csv", "csv", {"rows": N_TAU}),
        Command("fit-t1-sim", ["fit-t1", "--input", "decay_sim.csv",
                               "--fix-t1ph", repr(T1_PH_S), "--seed", s,
                               "--output", "fit_t1_sim.json"],
                "fit_t1_sim.json", "fit",
                {"t1_dd_s": sim_t1, "rel_band": T1_BAND_NOISELESS}),
    ]
    inputs, truth = {}, {"decay_sim_t1_dd_s": sim_t1}
    for k, noise in enumerate(NOISE_LEVELS, start=1):
        t1 = rng.uniform(0.3e-3, 1.2e-3)
        name = f"noisy{k}.csv"
        inputs[name] = _noisy_curve(rng, t1, noise)
        truth[f"noisy{k}_t1_dd_s"] = t1
        commands += [
            Command(f"fit-t1-noisy{k}", ["fit-t1", "--input", name,
                                         "--fix-t1ph", repr(T1_PH_S),
                                         "--seed", s, "--output",
                                         f"fit_t1_noisy{k}.json"],
                    f"fit_t1_noisy{k}.json", "fit",
                    {"t1_dd_s": t1, "rel_band": T1_BAND_PER_NOISE * noise}),
            Command(f"fit-beta-noisy{k}", ["fit-beta", "--input", name,
                                           "--seed", s, "--output",
                                           f"fit_beta_noisy{k}.json"],
                    f"fit_beta_noisy{k}.json", "fit"),
        ]
    weighted = random.Random("lab:weighted")
    t1 = weighted.uniform(0.3e-3, 1.2e-3)
    inputs["weighted.csv"] = _noisy_curve(weighted, t1, WEIGHTED_NOISE,
                                          weighted=True)
    truth["weighted_t1_dd_s"] = t1
    commands += [
        Command("fit-t1-weighted", ["fit-t1", "--input", "weighted.csv",
                                    "--fix-t1ph", repr(T1_PH_S), "--seed", "0",
                                    "--output", "fit_t1_weighted.json"],
                "fit_t1_weighted.json", "fit",
                {"t1_dd_s": t1,
                 "rel_band": T1_BAND_PER_NOISE * WEIGHTED_NOISE}),
        Command("overlap-gaussian", ["overlap", "--output",
                                     "overlap_gaussian.csv"],
                "overlap_gaussian.csv", "csv", {"rows": 201}),
        Command("overlap-lorentzian", ["overlap", "--shape1", "lorentzian",
                                       "--shape2", "lorentzian", "--output",
                                       "overlap_lorentzian.csv"],
                "overlap_lorentzian.csv", "csv", {"rows": 201}),
        Command("degeneracy-default", ["degeneracy", "--output",
                                       "degeneracy_default.csv"],
                "degeneracy_default.csv", "degeneracy",
                {"rows": 121, "all_separated_B_gauss": [10.0, 18.0]}),
        Command("degeneracy-111", ["degeneracy", "--direction", "1,1,1",
                                   "--output", "degeneracy_111.csv"],
                "degeneracy_111.csv", "degeneracy", {"rows": 121}),
        Command("spectrum", ["spectrum", "--b-gauss", "20", "--output",
                             "spectrum.csv"],
                "spectrum.csv", "csv", {"rows": 2001}),
        Command("sensitivity", ["sensitivity", "--output", "sensitivity.json"],
                "sensitivity.json", "json"),
    ]
    return Workload(commands, inputs, truth)


WORKLOADS = {"tables": _tables, "grids": _grids, "lab": _lab}


def build(name: str, seed: int) -> Workload:
    """The command list of workload ``name`` drawn from ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), seed)
