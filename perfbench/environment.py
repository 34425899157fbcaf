"""The numeric environment a result was measured in."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import platform
import signal
import statistics
import sys
import time

import numpy as np

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """Vendor and version from numpy's build record; threads from the library."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "name": blas.get("name", "unknown"),
        "version": blas.get("version", "unknown"),
        "threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def describe() -> dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
    }


# ---------------------------------------------------------------------
# host speed: a fixed reference kernel timed in-band during the run
# ---------------------------------------------------------------------

# Mean reference_once() time on the baseline VM (see README "Noise").
# Only ratios to it matter; parent and change share this constant.
REF_NOMINAL_S = 0.0032
REF_PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_REF_W = _rng.standard_normal((100, 400)).astype(np.float32)
_REF_X = _rng.standard_normal((128, 100)).astype(np.float32)
_REF_OUT = np.empty((128, 400), dtype=np.float32)
_REF_TMP = np.empty((128, 100), dtype=np.float32)
_REF_VALUES = tuple(_rng.standard_normal(4000).tolist())


def reference_once() -> float:
    """Wall time of a fixed mix of the program's kinds of work: Python
    bytecode, float formatting, numpy element-wise ops and batch-128
    sgemm.  It allocates no object the garbage collector tracks, so it
    never triggers a collection of the program's garbage."""
    started = time.perf_counter()
    total = 0
    for i in range(8000):
        total += i * i
    for v in _REF_VALUES:
        f"{v:.9g}"
    for _ in range(20):
        np.tanh(_REF_X, out=_REF_TMP)
    for _ in range(4):
        np.matmul(_REF_X, _REF_W, out=_REF_OUT)
    return time.perf_counter() - started


class HostSpeed:
    """How slow the host runs, measured alongside the work.

    The VM's speed varies by ±20% within seconds and drifts as much over
    minutes, alike for all of the program's kinds of work.  While active,
    a SIGALRM handler runs ``reference_once`` every ``REF_PERIOD_S`` of
    wall time, between the program's bytecodes.  ``adjust`` turns the
    wall time of an interval into time at nominal speed: it removes the
    handler's own time and divides by the interval's mean kernel time
    over ``REF_NOMINAL_S``.
    """

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in order
        self._busy = False
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late alarm while the kernel still runs
            return
        self._busy = True
        try:
            self.samples.append(reference_once())
        finally:
            self._busy = False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Mean kernel time since a mark, over nominal; 1.0 with no samples."""
        window = self.samples[since:] or [REF_NOMINAL_S]
        return statistics.fmean(window) / REF_NOMINAL_S

    def adjust(self, wall_s: float, since: int) -> float:
        """Wall time since ``mark()`` returned ``since``, at nominal speed."""
        own = math.fsum(self.samples[since:])
        return (wall_s - own) / self.factor(since)
