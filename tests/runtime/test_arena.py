"""Tests for the shared-memory arena: staging, refs, lifecycle, leaks."""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import TransportError
from repro.points import PointSet
from repro.runtime import (
    PointSetRef,
    ShmArena,
    ShmArrayRef,
    active_segment_names,
    as_pointset,
)
from repro.runtime.arena import REF_WIRE_BYTES, _cleanup_live_arenas


@pytest.fixture
def arena():
    a = ShmArena()
    yield a
    a.close()


# ------------------------------ staging ------------------------------- #


def test_stage_roundtrip_dtypes(arena):
    for arr in (
        np.arange(100, dtype=np.int64),
        np.linspace(0, 1, 333).reshape(-1, 3).astype(np.float64),
        np.ones((7, 5), dtype=np.float32),
        np.array([True, False, True]),
    ):
        ref = arena.stage(arr)
        out = ref.asarray()
        assert out.dtype == arr.dtype
        np.testing.assert_array_equal(out, arr)


def test_staged_view_is_zero_copy(arena):
    """asarray in the staging process views the same memory, not a copy."""
    ref = arena.stage(np.zeros(8, dtype=np.int64))
    view_a, view_b = ref.asarray(), ref.asarray()
    view_a[3] = 42
    assert view_b[3] == 42


def test_stage_copies_input(arena):
    """Mutating the source after staging must not change the staged data."""
    src = np.arange(10, dtype=np.int64)
    ref = arena.stage(src)
    src[:] = -1
    np.testing.assert_array_equal(ref.asarray(), np.arange(10))


def test_stage_empty_array_needs_no_segment(arena):
    ref = arena.stage(np.empty((0, 2), dtype=np.float64))
    assert ref.segment == ""
    out = ref.asarray()
    assert out.shape == (0, 2) and out.dtype == np.float64
    assert arena.segment_names == []


def test_offsets_are_aligned(arena):
    refs = [arena.stage(np.arange(n, dtype=np.int8)) for n in (3, 5, 7, 64)]
    assert all(r.offset % 64 == 0 for r in refs)


def test_noncontiguous_input(arena):
    arr = np.arange(40, dtype=np.float64).reshape(10, 4)[::2, 1:3]
    np.testing.assert_array_equal(arena.stage(arr).asarray(), arr)


def test_multiblock_growth():
    with ShmArena(block_bytes=4096) as arena:
        refs = [arena.stage(np.ones(400, dtype=np.float64)) for _ in range(3)]
        assert len(arena.segment_names) >= 2
        for ref in refs:
            np.testing.assert_array_equal(ref.asarray(), np.ones(400))
        # An array bigger than block_bytes gets its own exact-size block.
        big = np.arange(10_000, dtype=np.float64)
        np.testing.assert_array_equal(arena.stage(big).asarray(), big)


def test_stage_pointset_roundtrip(arena):
    ps = PointSet.from_coords(np.random.default_rng(0).normal(size=(500, 2)))
    ref = arena.stage_pointset(ps)
    assert isinstance(ref, PointSetRef)
    assert len(ref) == 500
    out = as_pointset(ref)
    np.testing.assert_array_equal(out.ids, ps.ids)
    np.testing.assert_array_equal(out.coords, ps.coords)
    np.testing.assert_array_equal(out.weights, ps.weights)
    assert as_pointset(ps) is ps  # pass-through for real point sets


# ------------------------------ rewind -------------------------------- #


def test_rewind_reuses_offset_zero_of_block_zero():
    with ShmArena(block_bytes=4096) as arena:
        first = arena.stage(np.arange(100, dtype=np.int64))
        arena.stage(np.ones(480, dtype=np.float64))  # spills into block 1
        names = arena.segment_names
        assert len(names) == 2
        arena.rewind()
        again = arena.stage(np.full(100, 7, dtype=np.int64))
        assert (again.segment, again.offset) == (names[0], 0) == (
            first.segment, first.offset
        )
        np.testing.assert_array_equal(again.asarray(), np.full(100, 7))
        # The same staging sequence again needs no new segment.
        arena.stage(np.ones(480, dtype=np.float64))
        assert arena.segment_names == names


def test_oversized_array_after_rewind_gets_its_own_block():
    with ShmArena(block_bytes=4096) as arena:
        small = arena.stage(np.arange(8, dtype=np.int64))
        arena.rewind()
        big = np.arange(10_000, dtype=np.float64)
        ref = arena.stage(big)
        assert ref.segment != small.segment and ref.offset == 0
        assert len(arena.segment_names) == 2
        np.testing.assert_array_equal(ref.asarray(), big)
        # After the next rewind the big block is found again, not re-made.
        arena.rewind()
        arena.stage(np.arange(8, dtype=np.int64))
        assert arena.stage(big).segment == ref.segment
        assert len(arena.segment_names) == 2


def test_stage_into_closed_arena_raises_after_rewind():
    arena = ShmArena()
    arena.stage(np.arange(4))
    arena.close()
    arena.rewind()
    with pytest.raises(TransportError):
        arena.stage(np.arange(4))


# ------------------------------- refs --------------------------------- #


def test_refs_pickle_small(arena):
    array_ref = arena.stage(np.zeros((100_000, 2)))
    ps_ref = arena.stage_pointset(
        PointSet.from_coords(np.zeros((100_000, 2)))
    )
    assert len(pickle.dumps(array_ref)) < 4 * REF_WIRE_BYTES
    assert len(pickle.dumps(ps_ref)) < 12 * REF_WIRE_BYTES
    assert array_ref.payload_bytes() == REF_WIRE_BYTES
    assert ps_ref.payload_bytes() == 3 * REF_WIRE_BYTES
    # ...while the logical size is the real traffic they avoid.
    assert array_ref.array_nbytes == 100_000 * 2 * 8


def test_ref_survives_pickle_roundtrip(arena):
    ref = arena.stage(np.arange(64, dtype=np.float32))
    clone = pickle.loads(pickle.dumps(ref))
    np.testing.assert_array_equal(clone.asarray(), np.arange(64, dtype=np.float32))


def test_dangling_ref_raises_transport_error():
    arena = ShmArena()
    ref = arena.stage(np.arange(16))
    arena.close()
    with pytest.raises(TransportError):
        ShmArrayRef(
            segment=ref.segment, dtype=ref.dtype, shape=ref.shape, offset=ref.offset
        ).asarray()


# ----------------------------- lifecycle ------------------------------ #


def test_close_unlinks_and_is_idempotent():
    arena = ShmArena()
    arena.stage(np.arange(1000))
    names = arena.segment_names
    assert names and set(names) <= set(active_segment_names())
    arena.close()
    arena.close()  # idempotent
    assert active_segment_names() == []
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")


def test_stage_into_closed_arena_raises():
    arena = ShmArena()
    arena.close()
    with pytest.raises(TransportError):
        arena.stage(np.arange(4))


def test_close_with_live_views_still_unlinks():
    arena = ShmArena()
    ref = arena.stage(np.arange(256, dtype=np.int64))
    view = ref.asarray()  # keeps the mapping's buffer exported
    names = arena.segment_names
    arena.close()
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
    assert int(view[255]) == 255  # existing mapping stays readable


def test_atexit_hook_closes_leaked_arenas():
    arena = ShmArena()
    arena.stage(np.arange(64))
    assert active_segment_names()
    _cleanup_live_arenas()  # what atexit runs
    assert active_segment_names() == []
    assert arena.closed


def test_context_manager():
    with ShmArena() as arena:
        name = arena.stage(np.arange(8)).segment
        assert os.path.exists(f"/dev/shm/{name}") or name in active_segment_names()
    assert active_segment_names() == []


# --------------------------- leak sweeps ------------------------------ #


_CHILD = """
import sys
import numpy as np
from repro.runtime import ShmArena

arena = ShmArena()
arena.stage(np.arange(100_000))
print(",".join(arena.segment_names), flush=True)
if "--hang" in sys.argv:
    import time
    time.sleep(60)
"""


def _wait_gone(names: list[str], timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not any(os.path.exists(f"/dev/shm/{n}") for n in names):
            return True
        time.sleep(0.05)
    return False


@pytest.mark.slow
def test_no_leak_after_normal_exit():
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, timeout=60, check=True,
    )
    names = out.stdout.strip().split(",")
    assert names and all(n for n in names)
    assert _wait_gone(names), f"segments leaked after clean exit: {names}"


@pytest.mark.slow
def test_no_leak_after_sigkill():
    """A SIGKILLed run cannot run atexit hooks — the resource tracker
    (which survives the kill) must unlink the segments instead."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, "--hang"],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        names = proc.stdout.readline().strip().split(",")
        assert names and all(names)
        assert any(os.path.exists(f"/dev/shm/{n}") for n in names)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert _wait_gone(names), f"segments leaked after SIGKILL: {names}"
