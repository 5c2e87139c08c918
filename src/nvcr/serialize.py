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

__all__ = ["write_csv", "write_json", "read_decay_csv"]

FLOAT_FMT = "%.10g"
# rows formatted per write in write_csv; bounds the Python objects alive
# at once (about 50 KB for four float columns)
_CSV_CHUNK = 128


def _format_param(v) -> str:
    if isinstance(v, float):
        return FLOAT_FMT % v
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ",".join(_format_param(float(x)) for x in v) + "]"
    return str(v)


def write_csv(path, columns: dict, subcommand: str, params: dict,
              extra_comments: list[str] | None = None) -> Path:
    """Write named columns with provenance comments, LF endings.

    ``columns`` maps each column name to its cells, in column order:
    floats, integers or strings.  ``extra_comments`` lines are appended
    to the provenance block (without the leading ``#``).  A column of
    any other kind (object, complex, bool), a non-finite float, or a
    float column whose largest magnitude prints at ``FLOAT_FMT`` as
    text that reads back as inf (DBL_MAX prints as 1.797693135e+308)
    raises ``ValueError`` before the file is opened.
    """
    cols = {name: np.atleast_1d(np.asarray(c)) for name, c in columns.items()}
    if len({c.size for c in cols.values()}) != 1:
        raise ValueError("columns must share a length")
    n = next(iter(cols.values())).size
    for name, c in cols.items():
        if c.dtype.kind not in "fiuU":
            raise ValueError(f"column {name!r} holds {c.dtype} cells, "
                             "not numbers or strings")
        if c.dtype.kind == "f" and n:
            if not np.isfinite(c).all():
                raise ValueError(f"column {name!r} holds a non-finite value")
            top = max(c.max(), -c.min())
            text = FLOAT_FMT % top
            if math.isinf(float(text)):
                raise ValueError(f"column {name!r} holds {top:g}, which "
                                 f"prints as {text} and reads back as inf")

    row = ",".join("%s" if c.dtype.kind == "U" else FLOAT_FMT
                   for c in cols.values()) + "\n"
    params_line = " ".join(["# params:", *(
        f"{k}={_format_param(v)}" for k, v in sorted(params.items()))])
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {TOOL_NAME} {__version__}\n"
                 f"# subcommand: {subcommand}\n{params_line}\n")
        for line in extra_comments or ():
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        # a bounded chunk of rows at a time: the text of the whole table
        # is never held in memory
        for k in range(0, n, _CSV_CHUNK):
            chunk = zip(*(c[k:k + _CSV_CHUNK].tolist()
                          for c in cols.values()))
            fh.write("".join(row % cells for cells in chunk))
    return path


def write_json(path, payload: dict, subcommand: str, params: dict) -> Path:
    """Write a result object with an embedded provenance block.

    The encoder refuses a NaN or infinite number (``ValueError``) and a
    value JSON cannot hold (``TypeError``) before the file is opened.
    """
    doc = {**payload, "meta": {
        "tool": TOOL_NAME,
        "version": __version__,
        "subcommand": subcommand,
        "params": {k: _format_param(v) for k, v in sorted(params.items())},
    }}
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError("result holds a non-finite value") from None
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    return path


def read_decay_csv(path):
    """Read a `tau_s,signal[,sigma]` CSV, ignoring `#` comment lines and
    a leading UTF-8 byte-order mark, as an ``analysis.DecayCurve``.  A
    bad header, a row whose cell count differs from the header's, a cell
    that is not a finite number, or a time that does not exceed the
    previous row's is refused with its line number."""
    from .analysis import DecayCurve

    rows = []
    header = None
    with open(path, "r", encoding="utf-8-sig") as fh:
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
            if rows and row[0] <= rows[-1][0]:
                raise ValueError(f"line {number}: tau_s {row[0]!r} does not "
                                 f"exceed the previous row's {rows[-1][0]!r}")
            rows.append(row)
    if not rows:
        raise ValueError("the decay table has no rows")
    data = np.asarray(rows, dtype=float)
    sigma = data[:, 2] if len(header) == 3 else None
    return DecayCurve(tau_s=data[:, 0], signal=data[:, 1], sigma=sigma)
