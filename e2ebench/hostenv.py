"""Run discipline and the environment record kept with every run.

:func:`pin_blas_threads` must run before numpy is first imported: the
OpenBLAS build numpy ships defaults to one thread per CPU, which
oversubscribes a 2-vCPU host next to the serving threads or two training
ranks.  :class:`CpuSteal` reads the host's steal counter from
``/proc/stat`` so a slow run can be told apart from a slow host without a
rerun.  :func:`stop_child_processes` ends a run with no process of its
own left behind.
"""

from __future__ import annotations

import ctypes
import gc
import glob
import os
import platform
import resource
import signal
import time

__all__ = [
    "BLAS_ENV_VARS",
    "pin_blas_threads",
    "CpuSteal",
    "environment",
    "rusage_cpu",
    "reset_peak_rss",
    "peak_rss_mb",
    "child_pids",
    "stop_child_processes",
]

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin every BLAS thread pool to one thread (before numpy loads)."""
    for var in BLAS_ENV_VARS:
        os.environ[var] = "1"


class CpuSteal:
    """Share of CPU time the hypervisor stole between start and :meth:`share`."""

    PATH = "/proc/stat"

    def __init__(self) -> None:
        self._t0 = self._read()

    def _read(self) -> tuple[int, int] | None:
        try:
            with open(self.PATH) as f:
                fields = f.readline().split()
        except OSError:
            return None
        if not fields or fields[0] != "cpu":
            return None
        ticks = [int(x) for x in fields[1:9]]  # user..steal; guest is inside user
        return sum(ticks), ticks[7] if len(ticks) > 7 else 0

    def share(self) -> float | None:
        t1 = self._read()
        if t1 is None or self._t0 is None or t1[0] <= self._t0[0]:
            return None
        return (t1[1] - self._t0[1]) / (t1[0] - self._t0[0])


def rusage_cpu() -> float:
    """User+sys CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reset_peak_rss() -> bool:
    """Restart this process's peak-RSS count; returns whether the kernel allowed it.

    Writing 5 to ``/proc/self/clear_refs`` (Linux) resets the high-water
    mark behind ``ru_maxrss`` to the current RSS, so generating or loading
    inputs before the measurement does not set ``peak_rss_mb``.  Without the
    reset, a run that trained the serving checkpoints peaked 20 MB above one
    that found them cached.  The heap is settled first (:func:`_settle_heap`).
    """
    gc.collect()
    _settle_heap()
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def _settle_heap() -> None:
    """Leave glibc's allocator in one state, whatever made the inputs.

    Freeing an mmap'd block raises glibc's mmap threshold to that block's
    size, up to 32 MB, so what input generation freed decided which later
    arrays came from fresh pages.  train-mlp-2w set up in 44-47 ms in runs
    that generated their inputs and in 46-64 ms in runs that loaded them
    from the cache, at equal throughput: set medians 30% apart.  One 31 MB
    block, allocated and freed, puts the threshold near its ceiling in
    every run.  Then the freed heap goes back to the kernel
    (``malloc_trim``): with it still mapped, a run that trained its serving
    checkpoints peaked 18 MB (13%) above one that loaded them.  Without
    glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL(None)
        malloc, free, trim = libc.malloc, libc.free, libc.malloc_trim
    except (OSError, AttributeError):
        return
    malloc.argtypes = [ctypes.c_size_t]
    malloc.restype = ctypes.c_void_p
    free.argtypes = [ctypes.c_void_p]
    free.restype = None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    free(malloc(31 << 20))
    trim(0)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kid = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kid) / 1024.0  # ru_maxrss is KiB on Linux


def child_pids() -> list[int]:
    """Child processes of this process, running or not yet reaped (Linux)."""
    pids: list[int] = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as f:
                pids += [int(p) for p in f.read().split()]
        except OSError:  # the thread ended while we listed
            pass
    return pids


def stop_child_processes(timeout: float = 10.0) -> None:
    """Stop every child process of this run and wait until each has ended.

    The program starts one child the run never asks for: ``SharedArena``
    (``repro.parallel``) uses ``multiprocessing.shared_memory``, whose first
    segment launches the resource-tracker process.  The tracker lives until
    its pipe closes, so it would outlive the run by a moment; the tracker's
    own ``_stop`` (private API) closes the pipe and waits for it.  Ranks are
    joined by ``ParallelTrainer``; any child still running after that is
    sent SIGTERM, and SIGKILL after ``timeout``.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in child_pids():
        _end(pid, timeout)


def _end(pid: int, timeout: float) -> None:
    """SIGTERM ``pid``, SIGKILL it after ``timeout``, and reap it."""
    try:
        os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except (ChildProcessError, ProcessLookupError):  # reaped meanwhile
        pass


def environment() -> dict:
    """nproc, BLAS, kernel backend, sanitize flag and versions."""
    import numpy as np

    from repro.analyze.sanitize import sanitize_enabled
    from repro.tensor import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV_VARS},
        "kernel_backend": kernels.get_backend(),
        "sanitize": sanitize_enabled(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
