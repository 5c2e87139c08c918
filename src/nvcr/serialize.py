"""Reproducible CSV and JSON emitters plus decay-curve CSV ingestion.

Every file starts with comment lines recording the tool version, the
subcommand that produced it and the full parameter set, so results can
be regenerated byte for byte.  Formatting is fixed-width %g with a
``.`` decimal separator regardless of locale.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .version import TOOL_NAME, __version__

__all__ = [
    "format_value",
    "header_lines",
    "write_csv",
    "write_json",
    "read_decay_csv",
]

FLOAT_FMT = "%.10g"
# rows formatted per write in write_csv; bounds the Python objects alive
# at once (about 50 KB for four float columns)
_CSV_CHUNK = 128


def format_value(v) -> str:
    if isinstance(v, float):
        return FLOAT_FMT % v
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(format_value(float(x)) for x in v) + "]"
    return str(v)


def header_lines(subcommand: str, params: dict) -> list[str]:
    items = " ".join(f"{k}={format_value(v)}" for k, v in sorted(params.items()))
    return [
        f"# {TOOL_NAME} {__version__}",
        f"# subcommand: {subcommand}",
        f"# params: {items}" if items else "# params:",
    ]


def _all_finite(value) -> bool:
    """True unless ``value`` holds a NaN or infinite number anywhere."""
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "O":
            return _all_finite(value.tolist())
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return True


def write_csv(path, names: list[str], columns, subcommand: str,
              params: dict, extra_comments: list[str] | None = None) -> Path:
    """Write named columns with provenance comments, LF endings.

    Columns may be numeric or strings; ``extra_comments`` lines are
    appended to the provenance block (without the leading ``#``).
    A non-finite number, or a float column whose largest magnitude
    prints at ``FLOAT_FMT`` as text that reads back as inf (DBL_MAX
    prints as 1.797693135e+308), raises ``ValueError`` before the file
    is opened.
    """
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    if len(cols) != len(names):
        raise ValueError("one name per column required")
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ValueError("columns must share a length")
    for name, c in zip(names, cols):
        if not _all_finite(c):
            raise ValueError(f"column {name!r} holds a non-finite value")
        if c.dtype.kind == "f" and n:
            top = max(c.max(), -c.min())
            text = FLOAT_FMT % top
            if math.isinf(float(text)):
                raise ValueError(f"column {name!r} holds {top:g}, which "
                                 f"prints as {text} and reads back as inf")

    row = ",".join("%s" if c.dtype.kind in "USO" else FLOAT_FMT
                   for c in cols) + "\n"
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines(subcommand, params):
            fh.write(line + "\n")
        for line in extra_comments or ():
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        # a bounded chunk of rows at a time: the text of the whole table
        # is never held in memory
        for k in range(0, n, _CSV_CHUNK):
            chunk = zip(*(c[k:k + _CSV_CHUNK].tolist() for c in cols))
            fh.write("".join(row % cells for cells in chunk))
    return path


def write_json(path, payload: dict, subcommand: str, params: dict) -> Path:
    """Write a result object with an embedded provenance block.

    A non-finite number raises ``ValueError`` before the file is opened.
    """
    if not _all_finite(payload):
        raise ValueError("result holds a non-finite value")
    doc = dict(payload)
    doc["meta"] = {
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "params": {k: format_value(v) for k, v in sorted(params.items())},
    }
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_decay_csv(path):
    """Read a `tau_s,signal[,sigma]` CSV, ignoring `#` comment lines, as
    an ``analysis.DecayCurve``.  A bad header, a row whose cell count
    differs from the header's, or a cell that is not a finite number is
    refused with its line number."""
    from .analysis import DecayCurve

    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                if cells not in (["tau_s", "signal"],
                                 ["tau_s", "signal", "sigma"]):
                    raise ValueError(f"line {number}: expected the header "
                                     f"'tau_s,signal[,sigma]', got {line!r}")
                header = cells
                continue
            if len(cells) != len(header):
                raise ValueError(f"line {number} has {len(cells)} cells, "
                                 f"but the header has {len(header)}")
            row = []
            for name, cell in zip(header, cells):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise ValueError(f"line {number}: {name} {cell!r} is "
                                     "not a number") from None
                if not math.isfinite(row[-1]):
                    raise ValueError(f"line {number}: {name} {cell!r} is "
                                     "not a finite number")
            rows.append(row)
    if not rows:
        raise ValueError("the decay table has no rows")
    data = np.asarray(rows, dtype=float)
    sigma = data[:, 2] if len(header) == 3 else None
    return DecayCurve(tau_s=data[:, 0], signal=data[:, 1], sigma=sigma)
