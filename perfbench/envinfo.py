"""Environment record printed with every result.

The harness changes no machine setting: caches are not dropped, CPU
frequency and affinity are left alone, and file I/O goes through the
page cache.  BLAS keeps its default thread count, which is recorded.
"""

import ctypes
import os
import platform

import numpy as np

NOTES = (
    "no machine setting is changed: caches are not dropped and file I/O goes "
    "through the page cache; every working set fits in L3, so timings are "
    "cache-resident, not memory-bandwidth measurements"
)


def _blas_info():
    """(BLAS name and version, library path) from NumPy's build record and the loaded maps."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        name = "unknown"
    path = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            for line in fh:
                if "openblas" in line.lower() and line.rstrip().endswith(".so"):
                    path = line.split()[-1]
                    break
    except OSError:
        pass
    return name, path


def _blas_threads(path):
    """Thread count OpenBLAS will use, queried from the loaded library."""
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="utf-8") as fh:
            text = fh.read().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
    return int(text.rstrip("KM")) * scale


def machine_record():
    blas, path = _blas_info()
    l3 = _l3_bytes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(path),
        "nproc": os.cpu_count(),
        "l3_mb": None if l3 is None else l3 / 2 ** 20,
        "notes": NOTES,
    }
