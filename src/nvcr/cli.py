"""Command-line surface: every computation as a file-emitting subcommand.

Outputs are deterministic for fixed flags: a record as JSON, a table
as CSV, written to ``--output`` or else to the subcommand's default file
name in the working directory.  Bad flags exit with status 2; numeric
and I/O failures exit with status 1 and print a JSON diagnostic.  Each
subcommand is one row of ``_SUBCOMMANDS``: its runner, default output
file, help line and flags.  Each runner imports the library functions it
calls, so a process loads only the modules of the subcommand it runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

# before numpy loads: the CLI's linear algebra is 3x3 stacks, and idle
# OpenBLAS pool workers spin on the CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .constants import DEFAULT_CR_RANGE_MHZ, DEFAULT_E_PERP_MHZ
from .serialize import read_decay_csv, write_csv, write_json
from .version import TOOL_NAME, __version__

__all__ = ["main"]

@dataclass(frozen=True)
class _Number:
    """argparse type for a finite number, at least ``low`` if given
    (above it when ``strict``) and at most ``high`` if given (below it
    when ``high_strict``)."""

    cast: type = float
    low: float | None = None
    strict: bool = False
    high: float | None = None
    high_strict: bool = False

    def __call__(self, text: str):
        kind = "an integer" if self.cast is int else "a number"
        try:
            v = self.cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}")
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        low, high = self.low, self.high
        if low is not None and (v < low or (self.strict and v == low)):
            op = ">" if self.strict else ">="
            raise argparse.ArgumentTypeError(
                f"must be {op} {low:g}, got {text}")
        if high is not None and (v > high or (self.high_strict and v == high)):
            op = "<" if self.high_strict else "<="
            raise argparse.ArgumentTypeError(
                f"must be {op} {high:g}, got {text}")
        return v


_real = _Number()
_positive = _Number(low=0.0, strict=True)
_nonneg = _Number(low=0.0)
_count = _Number(int, low=2)


def _vector3(text: str) -> np.ndarray:
    """A direction ``x,y,z`` that ``as_unit`` accepts, kept as typed."""
    from .geometry import as_unit

    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 'x,y,z' with three components, got {text!r}")
    v = np.array([_real(p) for p in parts])
    try:
        as_unit(v)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return v


class _Columns(NamedTuple):
    """A table result: cells by column name, plus header comment lines."""

    columns: dict
    comments: list[str] | None = None


def _emit(args, result: dict | _Columns) -> Path:
    """Write a runner's result: a dict is a record, written as JSON; a
    ``_Columns`` a table, written as CSV."""
    skip = {"func", "command", "output"}
    params = {k: v for k, v in vars(args).items()
              if k not in skip and v is not None}
    path = Path(_SUBCOMMANDS[args.command].output if args.output is None
                else args.output)
    if isinstance(result, dict):
        return write_json(path, result, args.command, params)
    return write_csv(path, result.columns, args.command, params,
                     extra_comments=result.comments)


def _fit_payload(res) -> dict:
    """The record of an ``analysis`` fit result."""
    m = res.model
    t1ph = None if np.isinf(m.t1_ph_s) else m.t1_ph_s
    return {"A": m.amplitude, "T1_dd_s": m.t1_dd_s, "T1_ph_s": t1ph,
            "beta": m.beta, "rss": res.residual_rss,
            "converged": res.converged, "iterations": res.iterations}


def _ramp_points(args, x: str, unit: str, n: int,
                 log: bool = False) -> np.ndarray:
    """The ``n`` points of the ``--{x}-min-{unit}`` .. ``--{x}-max-{unit}``
    ramp, geometric when ``log``; a ramp whose points leave the float
    range is refused, naming both flags and values."""
    flags = [f"--{x}-{end}-{unit}" for end in ("min", "max")]
    lo, hi = (getattr(args, f[2:].replace("-", "_")) for f in flags)
    # a span past DBL_MAX makes inf - inf and 0 * inf points: refused below
    with np.errstate(over="ignore", invalid="ignore"):
        points = (np.geomspace if log else np.linspace)(lo, hi, n)
    if not np.all(np.isfinite(points)):
        raise ValueError(f"the ramp from {flags[0]}={lo:g} to "
                         f"{flags[1]}={hi:g} leaves the float range")
    return points


# subcommand runners: each returns a record dict or a _Columns table


def _cmd_eigen_map(args) -> _Columns:
    from .spin_model import eigenstate_map

    b = _ramp_points(args, "b", "gauss", args.n_b)
    th = _ramp_points(args, "theta", "rad", args.n_theta)
    o_p1, o_plus = eigenstate_map(b, th, args.e_perp_mhz)
    return _Columns({"B_gauss": np.repeat(b, th.size),
                     "theta_rad": np.tile(th, b.size),
                     "overlap_e_p1": o_p1.ravel(),
                     "overlap_e_plus": o_plus.ravel()})


def _cmd_transverse_scan(args) -> _Columns:
    from .spin_model import transverse_field_scan

    b = _ramp_points(args, "b", "gauss", args.n_b)
    energies, dnu, matching = transverse_field_scan(b, args.e_perp_mhz)
    return _Columns({"B_gauss": b, "e_g_GHz": energies[:, 0],
                     "e_d_GHz": energies[:, 1], "e_e_GHz": energies[:, 2],
                     "dnu_MHz": dnu, "overlap_e_plus": matching})


def _cmd_eta_table(args) -> _Columns:
    from .eta_average import eta_table

    table = eta_table()
    families = ["magnetic", "nonmagnetic_random", "nonmagnetic_aligned"]
    cols = {"family": families}
    for axis in ("same", "close", "far"):
        cols[axis] = [table[(fam, axis)] for fam in families]
    return _Columns(cols)


def _cmd_multipliers(args) -> _Columns:
    from .eta_average import multiplier_table

    table = multiplier_table()
    return _Columns({"scenario": list(table),
                     "multiplier": list(table.values())})


def _cmd_transitions(args) -> _Columns:
    from .odmr import all_transitions

    b = _ramp_points(args, "b", "gauss", args.n_b)
    freqs = all_transitions(args.direction, b, args.e_perp_mhz)
    return _Columns({"B_gauss": b, **{f"nu{k + 1}_GHz": freqs[:, k]
                                      for k in range(8)}})


def _cmd_degeneracy(args) -> _Columns:
    from .odmr import degeneracy_lift

    b = _ramp_points(args, "b", "gauss", args.n_b)
    rep = degeneracy_lift(args.direction, b, args.cr_range_mhz,
                          args.e_perp_mhz)
    cols = {"B_gauss": rep.b_gauss}
    comments = []
    for k, (label, crossing) in enumerate(zip(rep.pair_labels,
                                              rep.pair_crossings_b_gauss)):
        cols[f"dnu_pair{k + 1}_MHz"] = rep.dnu_mhz[:, k]
        state = "degenerate" if label in rep.degenerate_pairs else \
            ("absent" if crossing is None else f"{crossing:.4f}")
        comments.append(f"pair{k + 1}: {label} crossing_B_gauss={state}")
    sep = "absent" if rep.all_separated_b_gauss is None \
        else f"{rep.all_separated_b_gauss:.4f}"
    comments.append(f"all_separated_B_gauss: {sep}")
    return _Columns(cols, comments)


def _cmd_spectrum(args) -> _Columns:
    from .analysis import LineProfile, LineShape
    from .odmr import all_transitions, synth_spectrum

    lines = all_transitions(args.direction, [args.b_gauss], args.e_perp_mhz)[0]
    profile = LineProfile(shape=LineShape(args.shape),
                          width_mhz=args.linewidth_mhz)
    freq = None if args.f_min_ghz is None else \
        _ramp_points(args, "f", "ghz", args.n_freq)
    freq, pl = synth_spectrum(lines, profile, args.contrast, freq,
                              n_freq=args.n_freq)
    return _Columns({"freq_GHz": freq, "pl_norm": pl})


def _cmd_decay_sim(args) -> _Columns:
    from .relaxation import DecayModel, decay_signal

    t1ph = np.inf if args.t1ph_s is None else args.t1ph_s
    model = DecayModel(t1_dd_s=args.t1dd_s, t1_ph_s=t1ph,
                       amplitude=args.amplitude, beta=args.beta)
    tau = _ramp_points(args, "tau", "s", args.n_tau, args.log_spacing)
    sig = decay_signal(tau, model)
    return _Columns({"tau_s": tau, "signal": sig})


def _cmd_fit_t1(args) -> dict:
    from .analysis import fit_decay

    curve = read_decay_csv(args.input)
    return _fit_payload(fit_decay(curve, fixed_t1_ph_s=args.fix_t1ph_s))


def _cmd_fit_beta(args) -> dict:
    from .analysis import fit_beta

    curve = read_decay_csv(args.input)
    return _fit_payload(fit_beta(curve))


def _cmd_overlap(args) -> _Columns:
    from .analysis import LineProfile, LineShape, spectral_overlap

    p1 = LineProfile(shape=LineShape(args.shape1), width_mhz=args.width1_mhz,
                     center_mhz=args.center1_mhz)
    p2 = LineProfile(shape=LineShape(args.shape2), width_mhz=args.width2_mhz,
                     center_mhz=args.center2_mhz)
    dnu = _ramp_points(args, "dnu", "mhz", args.n_dnu)
    return _Columns({"dnu_MHz": dnu,
                     "overlap_per_MHz": spectral_overlap(p1, p2, dnu)})


def _cmd_sensitivity(args) -> dict:
    from .analysis import sensitivity

    eta = sensitivity(args.sigma_b_t, args.tau_lp_s)
    return {"sigma_b_tesla": args.sigma_b_t, "tau_lp_s": args.tau_lp_s,
            "sensitivity_t_per_sqrt_hz": eta}


# the subcommand table


def _flag(*names: str, **kwargs) -> tuple:
    """One ``add_argument`` call: its flag names and keywords."""
    return names, kwargs


_COMMON = (_flag("--output", help="output file path (default: the "
                 "subcommand's file name in the working directory)"),)
_SEED = _flag("--seed", type=_Number(int, low=0), help="accepted for "
              "compatibility and ignored: every fit is deterministic")
_DIRECTION = _flag("--direction", type=_vector3,
                   help="crystal-frame field direction x,y,z "
                   "(default: 24 deg off [100])")
_E_PERP = _flag("--e-perp-mhz", type=_nonneg, default=DEFAULT_E_PERP_MHZ,
                help="transverse electric splitting energy (MHz)")
_INPUT = _flag("--input", required=True,
               help="input CSV with header tau_s,signal[,sigma]")
# the values of analysis.LineShape, typed out so parsing loads no analysis
_SHAPES = ("gaussian", "lorentzian")


def _ramp(b_max: float, n_b: int, n_min: int = 2) -> tuple:
    """Field-amplitude ramp from 0 to ``b_max`` in ``n_b`` points, at
    least ``n_min`` of them."""
    return (
        _flag("--b-min-gauss", type=_nonneg, default=0.0,
              help="lowest field amplitude (Gauss)"),
        _flag("--b-max-gauss", type=_positive, default=b_max,
              help="highest field amplitude (Gauss)"),
        _flag("--n-b", type=_Number(int, low=n_min), default=n_b,
              help="number of amplitude points"),
    )


def _profile(k: int) -> tuple:
    """Shape, width and center of line profile ``k`` of an overlap."""
    which = ("first", "second")[k - 1]
    return (
        _flag(f"--shape{k}", choices=_SHAPES, default="gaussian",
              help=f"{which} profile shape"),
        _flag(f"--width{k}-mhz", type=_positive, default=1.0,
              help=f"{which} profile width (MHz)"),
        _flag(f"--center{k}-mhz", type=_real, default=0.0,
              help=f"{which} profile center (MHz)"),
    )


class _Subcommand(NamedTuple):
    run: Callable       # (args) -> record dict or _Columns
    output: str         # default output file name
    help: str
    flags: tuple = ()   # added after the common flags


_SUBCOMMANDS = {
    "eigen-map": _Subcommand(
        _cmd_eigen_map, "eigen_map.csv",
        "upper-state character over field amplitude and polar angle",
        (*_ramp(200.0, 41),
         _flag("--theta-min-rad", type=_nonneg, default=0.0,
               help="smallest polar angle from the defect axis (rad)"),
         _flag("--theta-max-rad", type=_positive, default=float(np.pi / 2),
               help="largest polar angle from the defect axis (rad)"),
         _flag("--n-theta", type=_count, default=31,
               help="number of angle points"),
         _E_PERP)),
    "transverse-scan": _Subcommand(
        _cmd_transverse_scan, "transverse_scan.csv",
        "energies, splitting and upper-state overlap vs transverse field",
        (*_ramp(200.0, 201), _E_PERP)),
    "eta-table": _Subcommand(
        _cmd_eta_table, "eta_table.csv",
        "3x3 table of angular averages (dimensionless)"),
    "multipliers": _Subcommand(
        _cmd_multipliers, "multipliers.csv",
        "relaxation-rate multiplier per field scenario (dimensionless)"),
    "transitions": _Subcommand(
        _cmd_transitions, "transitions.csv",
        "eight transition frequencies (GHz) vs field amplitude",
        (_DIRECTION, *_ramp(30.0, 121), _E_PERP)),
    "degeneracy": _Subcommand(
        _cmd_degeneracy, "degeneracy.csv",
        "line-pair gaps (MHz) vs field and crossing fields (Gauss)",
        (_DIRECTION, *_ramp(30.0, 121, n_min=8), _E_PERP,
         _flag("--cr-range-mhz", type=_positive, default=DEFAULT_CR_RANGE_MHZ,
               help="interaction range the gaps must clear (MHz)"))),
    "spectrum": _Subcommand(
        _cmd_spectrum, "spectrum.csv",
        "synthetic ODMR spectrum at one field amplitude",
        (_flag("--b-gauss", type=_nonneg, default=0.0,
               help="field amplitude (Gauss)"),
         _DIRECTION, _E_PERP,
         _flag("--linewidth-mhz", type=_positive, default=1.0,
               help="line width parameter (MHz)"),
         _flag("--shape", choices=_SHAPES, default="lorentzian",
               help="line profile shape"),
         _flag("--contrast", type=_Number(low=0.0, strict=True, high=1.0,
                                          high_strict=True), default=0.02,
               help="fractional dip depth per line"),
         _flag("--f-min-ghz", type=_positive,
               help="lowest probe frequency (GHz)"),
         _flag("--f-max-ghz", type=_positive,
               help="highest probe frequency (GHz)"),
         _flag("--n-freq", type=_count, default=2001,
               help="number of frequency points"))),
    "decay-sim": _Subcommand(
        _cmd_decay_sim, "decay_curve.csv",
        "generate a synthetic decay curve CSV",
        (_flag("--t1dd-s", type=_positive, default=0.6e-3,
               help="dipolar decay timescale (seconds)"),
         _flag("--t1ph-s", type=_positive,
               help="phonon decay timescale (seconds; omit for none)"),
         _flag("--amplitude", type=_positive, default=1.0,
               help="signal amplitude at tau=0 (dimensionless)"),
         _flag("--beta", type=_Number(low=0.0, strict=True, high=1.5),
               default=0.5,
               help="stretch exponent of the dipolar channel"),
         _flag("--tau-min-s", type=_positive, default=1e-5,
               help="shortest wait time (seconds)"),
         _flag("--tau-max-s", type=_positive, default=5e-3,
               help="longest wait time (seconds)"),
         _flag("--n-tau", type=_count, default=64,
               help="number of wait times"),
         _flag("--log-spacing", action="store_true",
               help="log-spaced wait times instead of linear"))),
    "fit-t1": _Subcommand(
        _cmd_fit_t1, "fit_t1.json",
        "fit the two-channel decay law to a curve CSV",
        (_SEED, _INPUT,
         _flag("--fix-t1ph-s", "--fix-t1ph", type=_positive,
               dest="fix_t1ph_s",
               help="hold the phonon timescale fixed (seconds)"))),
    "fit-beta": _Subcommand(
        _cmd_fit_beta, "fit_beta.json",
        "fit a stretched exponential with free exponent", (_SEED, _INPUT)),
    "overlap": _Subcommand(
        _cmd_overlap, "overlap.csv",
        "overlap of two line profiles vs detuning",
        (*_profile(1), *_profile(2),
         _flag("--dnu-min-mhz", type=_real, default=-20.0,
               help="lowest detuning (MHz)"),
         _flag("--dnu-max-mhz", type=_real, default=20.0,
               help="highest detuning (MHz)"),
         _flag("--n-dnu", type=_count, default=201,
               help="number of detuning points"))),
    "sensitivity": _Subcommand(
        _cmd_sensitivity, "sensitivity.json",
        "DC field sensitivity from readout noise",
        (_flag("--sigma-b-t", type=_positive, default=1.5e-6,
               help="field readout noise standard deviation (Tesla)"),
         _flag("--tau-lp-s", type=_positive, default=3e-3,
               help="low-pass time constant (seconds)"))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Spin-1 defect ensemble model: eigenstructure, angular "
                    "averages, relaxation and spectra as reproducible files.")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for names, kwargs in _COMMON + spec.flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=spec.run)
    return parser


def _join_negative_values(argv) -> list[str]:
    """Fold ``--direction -1,0,0`` into ``--direction=-1,0,0`` and
    ``--center1-mhz -1e-05`` into ``--center1-mhz=-1e-05``: argparse
    reads a value that starts with '-' and is no plain decimal as a flag."""
    out: list[str] = []
    for token in argv:
        if out and re.fullmatch(r"--[\w-]+", out[-1]) and \
                re.match(r"-[\d.]", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    # each --X-min-Y flag of the table must lie below its --X-max-Y partner
    for (low, *_), _ in _SUBCOMMANDS[args.command].flags:
        if "-min-" in low:
            high = low.replace("-min-", "-max-")
            lo, hi = (getattr(args, flag[2:].replace("-", "_"))
                      for flag in (low, high))
            if (lo is None) != (hi is None):
                parser.error(f"{low} and {high} go together")
            if lo is not None and lo >= hi:
                parser.error(f"{low} ({lo:g}) must be below {high} ({hi:g})")
    # argparse leaves reference cycles (the parsers, and a help formatter
    # per flag) in the young generations: freed before the runner imports
    # its modules, their memory serves those imports
    del parser
    gc.collect(1)
    try:
        out = _emit(args, args.func(args))
    except (ValueError, ArithmeticError, OSError) as exc:
        # the JSON diagnostic; an analysis.FitError adds the fit it ended on
        diag = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "best"):
            diag["best"] = _fit_payload(exc.best)
        print(json.dumps(diag, sort_keys=True))
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
