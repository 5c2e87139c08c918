"""Print the numeric stack the benchmarked commands run on, as JSON.

Run as a child process with the same interpreter and environment as the
commands, so the record shows what they load: numpy and scipy versions,
the BLAS library and the number of threads it starts.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform

import numpy
import scipy

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# settings that change how every command starts up
PYTHON_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE", "PYTHONHASHSEED")
THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def record() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "python_env": {k: os.environ.get(k) for k in PYTHON_ENV},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": blas_threads(),
                 "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}},
    }


if __name__ == "__main__":
    print(json.dumps(record()))
