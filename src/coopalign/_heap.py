"""glibc heap settings that keep freed numpy temporaries resident.

The screen and the exchange are chains of numpy temporaries of 1-4 MiB.
By default glibc serves each one with a fresh mmap, or trims the heap top
once it is freed, so every trial makes the kernel fault in and zero about
2,400 new pages.  Raising the mmap threshold puts those temporaries on the
heap, and raising the trim threshold keeps the freed heap resident, so the
next call reuses its pages.  Importing the package applies the setting
once; forked workers inherit it.

Both values were measured on tx-coop N = 4 trials and the N = 3 screen,
and only the pair helps:
- Setting either value alone switches off glibc's dynamic threshold and
  makes things worse: trim alone gave about 57,000 faults per tx-coop
  N = 4 trial, the mmap threshold alone about 17,000, against 2,638 with
  neither.
- M_MMAP_THRESHOLD 6 MiB.  4 MiB left about 570 faults per screen and
  3 MiB more peak RSS.  32 MiB also moves 8 MiB arrays off their mmaps
  onto the heap, which slowed pipebench's calibration reference, built on
  copies between two such arrays, by about a fifth.
- M_TRIM_THRESHOLD 32 MiB, the smallest power of two that kept the
  steady-state faults near 0 on every benchmark workload; at 16 MiB a
  tx-coop N = 4 trial still took about 4,500.
"""

from __future__ import annotations

import ctypes

# <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 6 << 20
TRIM_THRESHOLD = 32 << 20


def libc_mallopt():
    """The C library's mallopt, or None where it has none (macOS,
    Windows)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_memory(mallopt) -> bool:
    """Set both thresholds through mallopt, or nothing when mallopt is
    None; True when both were accepted.

    The trim threshold is set only after the mmap threshold was accepted:
    alone it makes things worse (see the module docstring).  musl's mallopt
    accepts nothing and returns 0.
    """
    return (mallopt is not None
            and bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD))
            and bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)))
