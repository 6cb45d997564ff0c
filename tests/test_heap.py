import os
import subprocess
import sys
from pathlib import Path

import pytest

from coopalign import _heap

# re-applies the setting that importing coopalign made, which changes nothing
needs_mallopt = pytest.mark.skipif(
    not _heap.keep_freed_memory(_heap.libc_mallopt()),
    reason="the C library has no mallopt that takes both thresholds")


# three N = 3 screens after a warm-up, in a fresh interpreter that only
# imports coopalign, so the count is of the setting the import made
_SCREENS = """
import resource
import numpy as np
import coopalign
from coopalign.lattice import channel_is_generic, random_gains
rng = np.random.default_rng(5)
gains = [random_gains(rng) for _ in range(4)]
channel_is_generic(gains[0], 3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for h in gains[1:]:
    channel_is_generic(h, 3)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@needs_mallopt
def test_importing_the_package_makes_the_screen_reuse_freed_memory():
    # the screen is a chain of 1-4 MiB temporaries: with glibc's default
    # thresholds each call faults in about 2,340 fresh pages
    env = dict(os.environ, PYTHONPATH=str(Path(_heap.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _SCREENS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 3 * 100


def _recording(accepts):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return int(accepts(param))

    return mallopt, calls


def test_trim_threshold_waits_for_the_mmap_threshold():
    # trim alone switches off glibc's dynamic mmap threshold, which made a
    # tx-coop N = 4 trial take about 20 times the faults
    mallopt, calls = _recording(lambda p: p != _heap.M_MMAP_THRESHOLD)
    assert not _heap.keep_freed_memory(mallopt)
    assert calls == [(_heap.M_MMAP_THRESHOLD, _heap.MMAP_THRESHOLD)]


def test_both_thresholds_set_when_accepted():
    mallopt, calls = _recording(lambda p: True)
    assert _heap.keep_freed_memory(mallopt)
    assert calls == [(_heap.M_MMAP_THRESHOLD, 6 << 20),
                     (_heap.M_TRIM_THRESHOLD, _heap.TRIM_THRESHOLD)]


def test_no_mallopt_sets_nothing():
    assert not _heap.keep_freed_memory(None)
