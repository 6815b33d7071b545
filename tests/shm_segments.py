"""The ``/dev/shm`` arena segments this test process created.

``ShmArena`` names every segment ``mrscan-<creator pid>-...``, and only
the driver-side executor builds an arena, so a transport living in the
test process stages only into segments carrying the test's pid.  Leak
and growth checks scoped to that prefix still fail on a leak of the
test's own, but do not count the segments of another run on the same
host.  Checks of segments a subprocess made name those segments instead.
"""

from __future__ import annotations

import os

from repro.runtime import SEGMENT_PREFIX


def own_segments() -> set[str]:
    """Names of this process's arena segments in ``/dev/shm``."""
    mine = f"{SEGMENT_PREFIX}{os.getpid()}-"
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(mine)}
    except FileNotFoundError:  # non-Linux
        return set()


def own_usage() -> tuple[int, int]:
    """(segments, allocated bytes) of :func:`own_segments`."""
    stats = [os.stat(f"/dev/shm/{name}") for name in own_segments()]
    return len(stats), sum(st.st_blocks * 512 for st in stats)
