"""The environment block attached to every benchmark result.

Timings depend on the core count and on the BLAS library and its thread
count (the Ackley workload runs measurably faster single-threaded), so both
sides of a comparison must show the same values here.
"""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _loaded_blas_path():
    """Path of the OpenBLAS shared object mapped into this process, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    paths = sorted(p for p in paths if p.startswith("/"))
    return paths[0] if paths else None


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, asked of the library."""
    path = _loaded_blas_path()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return {}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _git_commit(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def _source_digest(root):
    """SHA-256 over the package sources, which identifies the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "ctdopt")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment(root):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in _THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
