"""ServeServer over a real unix socket: protocol, concurrency, shutdown."""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading

import numpy as np
import pytest

from repro.core.config import MrScanConfig
from repro.points import PointSet
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.protocol import PROTOCOL_VERSION
from repro.serve.server import ServeServer


@pytest.fixture
def base() -> PointSet:
    rng = np.random.default_rng(1)
    centers = rng.uniform(-3, 3, size=(5, 2))
    which = rng.integers(0, 5, size=4000)
    return PointSet.from_coords(
        centers[which] + rng.normal(0, 0.1, size=(4000, 2))
    )


@contextlib.contextmanager
def _serving(base, socket_path, **server_kwargs):
    """A live daemon on a unix socket, torn down on exit."""
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=8)
    loop = asyncio.new_event_loop()
    box: dict = {}
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            server = ServeServer(base, config, socket_path=socket_path, **server_kwargs)
            box["server"] = server
            await server.start()
            started.set()
            await server.serve_forever()
            server.close()

        loop.run_until_complete(_main())

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert started.wait(timeout=300), "daemon failed to start"
    try:
        yield socket_path
    finally:
        # Ensure teardown even if the test never sent shutdown.  If it
        # did, the connect fails fast (or the dying server EOFs us) —
        # either way the attempt is harmless and bounded.
        try:
            with ServeClient(socket_path=socket_path, timeout=10) as c:
                c.shutdown()
        except Exception:
            pass
        thread.join(timeout=60)


@pytest.fixture
def daemon(base, tmp_path):
    with _serving(base, tmp_path / "serve.sock") as socket_path:
        yield socket_path


def _batch(base: PointSet, n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    anchor = base.coords[int(rng.integers(0, len(base)))]
    return (anchor + rng.normal(0, 0.03, size=(n, 2))).tolist()


def test_ingest_query_shutdown_roundtrip(base, daemon):
    with ServeClient(socket_path=daemon) as c:
        pong = c.ping()
        assert pong["version"] == PROTOCOL_VERSION
        for seed in range(3):
            ack = c.ingest(_batch(base, 50, seed))
            assert ack["n_points"] == 50
            assert 0.0 < ack["dirty_ratio"] <= 1.0
        labels, core = c.labels([0, 1, 2, len(base)])
        assert len(labels) == len(core) == 4
        stats = c.stats()
        assert stats["n_points"] == len(base) + 150
        assert stats["n_ingests"] == 3
        dump = c.dump()
        assert len(dump["ids"]) == len(dump["labels"]) == len(base) + 150
        c.shutdown()


def test_daemon_run_dir_holds_only_its_wal(base, tmp_path):
    """Bootstrap and two acked ingests leave the ingest journal and the
    batch blobs in the run dir, nothing else (no leaf spills), and a
    resume from it gives the same labels and core flags."""
    run_dir = tmp_path / "run"
    with _serving(base, tmp_path / "serve.sock", run_dir=run_dir) as sock:
        with ServeClient(socket_path=sock) as c:
            for seed in range(2):
                c.ingest(_batch(base, 50, seed))
            acked = c.dump()
            c.shutdown()
    files = sorted(str(p.relative_to(run_dir)) for p in run_dir.rglob("*"))
    assert files == [
        "batches", "batches/batch_000000.npz", "batches/batch_000001.npz",
        "ingest.jsonl",
    ]
    with _serving(base, tmp_path / "resumed.sock", run_dir=run_dir, resume=True) as sock:
        with ServeClient(socket_path=sock) as c:
            assert c.stats()["n_ingests"] == 2
            assert c.dump() == acked
            c.shutdown()


def test_concurrent_clients(base, daemon):
    """Query clients stay live while another connection ingests."""
    errors: list[Exception] = []

    def _querier(seed: int) -> None:
        try:
            rng = np.random.default_rng(seed)
            with ServeClient(socket_path=daemon) as c:
                for _ in range(20):
                    ids = rng.integers(0, len(base), size=8).tolist()
                    labels, _ = c.labels(ids)
                    assert len(labels) == 8
        except Exception as exc:  # surface in the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=_querier, args=(i,), daemon=True) for i in range(3)
    ]
    for t in threads:
        t.start()
    with ServeClient(socket_path=daemon) as c:
        for seed in range(2):
            c.ingest(_batch(base, 40, 10 + seed))
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors


def test_protocol_errors_do_not_kill_connection(base, daemon):
    with ServeClient(socket_path=daemon) as c:
        with pytest.raises(ServeRequestError):
            c.labels([])  # empty id list rejected
        with pytest.raises(ServeRequestError):
            c.request({"op": "no-such-op"})
        with pytest.raises(ServeRequestError):
            c.ingest([[1.0, 2.0]], ids=[0])  # clashes with resident id 0
        # Connection is still usable after three rejected requests.
        assert c.ping()["ok"] is True


def test_malformed_json_gets_error_response(base, daemon):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(daemon))
    try:
        sock.sendall(b"this is not json\n")
        line = b""
        while not line.endswith(b"\n"):
            chunk = sock.recv(65536)
            assert chunk, "server closed connection on malformed input"
            line += chunk
        response = json.loads(line)
        assert response["ok"] is False
        assert "error" in response
    finally:
        sock.close()


def test_tcp_listener_with_ephemeral_port(base):
    config = MrScanConfig(eps=0.08, minpts=8, n_leaves=8)
    loop = asyncio.new_event_loop()
    box: dict = {}
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _main() -> None:
            server = ServeServer(base, config, port=0)
            await server.start()
            box["port"] = server.port
            started.set()
            await server.serve_forever()
            server.close()

        loop.run_until_complete(_main())

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert started.wait(timeout=300)
    assert box["port"] > 0
    with ServeClient(port=box["port"]) as c:
        assert c.ping()["ok"] is True
        assert c.stats()["n_points"] == len(base)
        c.shutdown()
    thread.join(timeout=60)
