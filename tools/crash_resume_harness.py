#!/usr/bin/env python
"""Kill a real driver process mid-run, resume it, and gate on label equality.

The in-repo resume tests simulate crashes by raising inside the driver;
this harness does it for real: it launches ``mrscan cluster --run-dir``
as a subprocess, SIGKILLs the process once the journal shows the cluster
phase completed (a slowdown fault injected into the merge phase holds
the driver there long enough to make the kill deterministic), then
re-runs with ``--resume`` and verifies:

1. the resumed labels are byte-identical to an uninterrupted baseline;
2. the journal proves no completed leaf re-clustered (every post-resume
   ``leaf_done`` record carries ``from_checkpoint: true``).

With ``--transport tcp`` the harness additionally SIGKILLs one of the
driver's remote worker agents mid-cluster, before killing the driver
itself: the transport must detect the dead connection, re-dispatch the
lost task, and respawn the agent — the label gate then proves the whole
chain (remote worker death, driver death, resume) is invisible in the
output.

Exit status 0 on success, 1 on any divergence — CI gates on it.

With ``--serve`` the harness instead targets the long-lived daemon: it
starts ``mrscan serve --run-dir``, holds an ingest open inside the
daemon's chaos window (``MRSCAN_SERVE_INGEST_DELAY`` pins the thread
between the durable blob write and the journal commit), SIGKILLs the
daemon mid-ingest, restarts it with ``--resume``, re-sends the lost
batch plus a fresh one, then exercises the graceful path: SIGTERM lands
mid-ingest on the resumed daemon, which must finish the in-flight
transaction within its ``--drain-grace``, ack it, and exit 0 — a final
``--resume`` proves the drained batch survived.  The gate is the final
dump being equivalence-equal to a from-scratch in-process run on the
union.  Last, ``--resume`` on a copy of the run dir with one acked batch
blob truncated must exit 2 with an ``error:`` line naming the blob and
no traceback.

Exit status 0 on success, 1 on any divergence — CI gates on it.

Usage::

    PYTHONPATH=src python tools/crash_resume_harness.py \
        --points 50000 --leaves 8 --transport local
    PYTHONPATH=src python tools/crash_resume_harness.py \
        --serve --points 20000 --leaves 8 --transport shm
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.durability import replay_journal  # noqa: E402


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *map(str, args)]


def _worker_agent_pids(parent_pid: int) -> list[int]:
    """PIDs of ``mrscan worker`` agents spawned by the given driver."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().split(b"\0")
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # the process raced away
        if b"repro" not in cmdline or b"worker" not in cmdline:
            continue
        # ppid is the second field after the parenthesised comm.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == parent_pid:
            pids.append(int(entry.name))
    return pids


def _read_labels(path: Path) -> list[tuple[int, int]]:
    out = []
    for line in path.read_text().splitlines():
        pid, lab = line.split()
        out.append((int(pid), int(lab)))
    return out


def _wait_for_daemon(socket_path: Path, proc: subprocess.Popen,
                     timeout: float) -> None:
    """Block until the daemon answers ``ping`` (bootstrap can be slow)."""
    from repro.serve.client import ServeClient

    deadline = time.monotonic() + timeout
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited early (rc={proc.returncode})")
        if time.monotonic() > deadline:
            raise RuntimeError("daemon never came up")
        try:
            with ServeClient(socket_path=socket_path, timeout=10) as c:
                c.ping()
            return
        except OSError:
            time.sleep(0.2)


def serve_main(args: argparse.Namespace) -> int:
    """Kill the serve daemon mid-ingest; resume; gate on equivalence."""
    import numpy as np

    from repro.core import mrscan
    from repro.points import PointSet
    from repro.serve.client import ServeClient
    from repro.serve.state import INGEST_DELAY_ENV
    from repro.validate.equivalence import labels_equivalent

    workdir = Path(tempfile.mkdtemp(prefix="mrscan-serve-crash-"))
    data = workdir / "points.mrs"
    run_dir = workdir / "run"
    socket_path = workdir / "serve.sock"
    env = dict(os.environ, PYTHONPATH="src")
    print(f"workdir: {workdir}")

    subprocess.run(
        _cli("generate", "blobs", args.points, data, "--seed", args.seed),
        check=True, env=env,
    )
    from repro.io.formats import read_points_binary

    base = read_points_binary(data)

    def _batch(seed: int, n: int = 200) -> list:
        brng = np.random.default_rng(seed)
        if seed == 12:
            # Uniform over the base: some points land in empty cells
            # beside another partition's resident cells, so adoption
            # widens a shadow over resident rows and the final resume
            # replays that append.
            lo, hi = base.coords.min(axis=0), base.coords.max(axis=0)
            return brng.uniform(lo, hi, size=(n, 2)).tolist()
        anchor = base.coords[int(brng.integers(0, len(base)))]
        return (anchor + brng.normal(0, 0.05, size=(n, 2))).tolist()

    serve_cmd = _cli(
        "serve", data, "--eps", args.eps, "--minpts", args.minpts,
        "--leaves", args.leaves, "--transport", args.transport,
        "--socket", socket_path, "--run-dir", run_dir,
    )

    # 1. Daemon with the chaos window armed: every ingest sleeps between
    # its durable blob write and its journal commit, so a SIGKILL there
    # provably loses only the unacked in-flight batch.
    delay = args.ingest_delay
    victim = subprocess.Popen(
        serve_cmd, env=dict(env, **{INGEST_DELAY_ENV: str(delay)}),
    )
    try:
        _wait_for_daemon(socket_path, victim, args.kill_timeout)
        with ServeClient(socket_path=socket_path) as c:
            ack0 = c.ingest(_batch(10))
            print(f"acked batch 0: dirty_leaves={ack0['dirty_leaves']}")

        # Send the doomed batch from a thread; it will hang in the delay.
        import threading

        def _doomed() -> None:
            try:
                with ServeClient(socket_path=socket_path) as c:
                    c.ingest(_batch(11))
            except Exception:
                pass  # expected: the daemon dies under us

        doomed = threading.Thread(target=_doomed, daemon=True)
        doomed.start()
        blob = run_dir / "batches" / "batch_000001.npz"
        deadline = time.monotonic() + args.kill_timeout
        while not blob.exists():
            if time.monotonic() > deadline:
                print("FAIL: in-flight blob never appeared", file=sys.stderr)
                return 1
            time.sleep(0.05)
        # Blob durable, commit still `delay` seconds away: kill NOW.
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        doomed.join(timeout=30)
        print(f"killed daemon pid {victim.pid} mid-ingest (batch 1 unacked)")
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait()

    # 2. Resume: the daemon must come back to the last ACKED state —
    # base + batch 0, with the torn batch 1 ignored.  This daemon keeps
    # a (shorter) chaos delay armed and a generous --drain-grace: it is
    # also the SIGTERM-drain victim of step 4.
    drain_delay = min(args.ingest_delay, 3.0)
    survivor = subprocess.Popen(
        serve_cmd + ["--resume", "--drain-grace", "120"],
        env=dict(env, **{INGEST_DELAY_ENV: str(drain_delay)}),
    )
    try:
        _wait_for_daemon(socket_path, survivor, args.kill_timeout)
        with ServeClient(socket_path=socket_path) as c:
            stats = c.stats()
            want = len(base) + 200
            if stats["n_points"] != want or stats["n_ingests"] != 1:
                print(
                    f"FAIL: resumed daemon has n_points={stats['n_points']} "
                    f"n_ingests={stats['n_ingests']}, want {want}/1",
                    file=sys.stderr,
                )
                return 1
            # 3. The client retries the lost batch, then keeps streaming.
            c.ingest(_batch(11))
            c.ingest(_batch(12))

        # 4. Drain leg: SIGTERM lands while an ingest sits in the chaos
        # window (blob durable, commit pending).  Graceful drain must let
        # it finish — the client gets its ack, the daemon exits 0 — and
        # the batch must survive into the next resume.
        drain_result: dict = {}

        def _draining_ingest() -> None:
            try:
                with ServeClient(socket_path=socket_path) as c:
                    drain_result["ack"] = c.ingest(_batch(13))
            except Exception as exc:  # noqa: BLE001 - recorded, gated below
                drain_result["error"] = f"{type(exc).__name__}: {exc}"

        drainer = threading.Thread(target=_draining_ingest, daemon=True)
        drainer.start()
        blob = run_dir / "batches" / "batch_000003.npz"
        deadline = time.monotonic() + args.kill_timeout
        while not blob.exists():
            if time.monotonic() > deadline:
                print("FAIL: drain-leg blob never appeared", file=sys.stderr)
                return 1
            time.sleep(0.05)
        survivor.send_signal(signal.SIGTERM)
        rc = survivor.wait(timeout=args.kill_timeout)
        drainer.join(timeout=60)
        if rc != 0:
            print(f"FAIL: drained daemon exited {rc}, want 0", file=sys.stderr)
            return 1
        if "ack" not in drain_result:
            print(
                "FAIL: in-flight ingest was not acked across the drain: "
                f"{drain_result.get('error', 'no response')}",
                file=sys.stderr,
            )
            return 1
        print(
            f"drained daemon pid {survivor.pid} via SIGTERM mid-ingest "
            f"(exit 0, batch 3 acked: seq={drain_result['ack']['seq']})"
        )
    finally:
        if survivor.poll() is None:
            survivor.kill()
            survivor.wait()

    # 5. Final resume: the drained daemon's last batch must be there.
    final_daemon = subprocess.Popen(serve_cmd + ["--resume"], env=env)
    try:
        _wait_for_daemon(socket_path, final_daemon, args.kill_timeout)
        with ServeClient(socket_path=socket_path) as c:
            stats = c.stats()
            want = len(base) + 4 * 200
            if stats["n_points"] != want or stats["n_ingests"] != 4:
                print(
                    f"FAIL: post-drain daemon has n_points={stats['n_points']} "
                    f"n_ingests={stats['n_ingests']}, want {want}/4",
                    file=sys.stderr,
                )
                return 1
            final = c.dump()
            c.shutdown()
    finally:
        if final_daemon.poll() is None:
            final_daemon.kill()
            final_daemon.wait()

    # 6. Gate: the daemon's final labels are equivalence-equal to a
    # from-scratch run on the union it converged to.
    union_coords = np.vstack(
        [base.coords] + [np.asarray(_batch(s)) for s in (10, 11, 12, 13)]
    )
    union = PointSet(
        ids=np.arange(len(union_coords), dtype=np.int64), coords=union_coords
    )
    ref = mrscan(
        union, args.eps, args.minpts, n_leaves=args.leaves,
        transport=args.transport,
    )
    order = np.argsort(np.asarray(final["ids"], dtype=np.int64))
    got_labels = np.asarray(final["labels"], dtype=np.int64)[order]
    got_core = np.asarray(final["core"], dtype=bool)[order]
    report = labels_equivalent(
        union, args.eps, ref.labels, ref.core_mask, got_labels, got_core
    )
    if not report.ok:
        print(f"FAIL: {report.summary()}", file=sys.stderr)
        return 1

    # 7. Torn-blob leg: on a copy of the run dir, truncate one acked
    # batch blob.  ``--resume`` must refuse it as a store error (exit 2,
    # an ``error:`` line naming the blob), not crash with a traceback.
    torn_dir = workdir / "run-torn"
    shutil.copytree(run_dir, torn_dir)
    torn = torn_dir / "batches" / "batch_000001.npz"
    torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
    torn_cmd = _cli(
        "serve", data, "--eps", args.eps, "--minpts", args.minpts,
        "--leaves", args.leaves, "--transport", args.transport,
        "--socket", workdir / "torn.sock", "--run-dir", torn_dir, "--resume",
    )
    refused = subprocess.run(
        torn_cmd, env=env, capture_output=True, text=True,
        timeout=args.kill_timeout,
    )
    errors = [
        line for line in refused.stderr.splitlines()
        if line.startswith("error:") and torn.name in line
    ]
    if refused.returncode != 2 or not errors or "Traceback" in refused.stderr:
        print(
            f"FAIL: resume over a torn batch blob exited {refused.returncode}, "
            f"want 2 with an error naming {torn.name} and no traceback; "
            f"stderr:\n{refused.stderr}",
            file=sys.stderr,
        )
        return 1
    print(f"torn blob refused: {errors[0]}")
    print(
        "OK: daemon killed mid-ingest, resumed to last acked state, "
        "drained gracefully under SIGTERM, "
        f"converged equivalence-equal ({report.summary()}); "
        "a torn batch blob is refused cleanly"
    )
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--points", type=int, default=50_000)
    ap.add_argument("--leaves", type=int, default=8)
    ap.add_argument("--eps", type=float, default=0.15)
    ap.add_argument("--minpts", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--transport", choices=["local", "process", "shm", "tcp"],
        default="local",
        help="transport for BOTH the crashed and the resumed run",
    )
    ap.add_argument(
        "--serve", action="store_true",
        help="chaos-test the serve daemon (SIGKILL mid-ingest + --resume) "
        "instead of the batch driver",
    )
    ap.add_argument(
        "--ingest-delay", type=float, default=20.0,
        help="serve mode: seconds each ingest stalls between blob write "
        "and commit — the deterministic kill window",
    )
    ap.add_argument(
        "--merge-delay", type=float, default=30.0,
        help="injected merge slowdown (seconds) that holds the driver "
        "mid-merge so the SIGKILL lands deterministically",
    )
    ap.add_argument(
        "--kill-timeout", type=float, default=300.0,
        help="give up if cluster_done never appears in the journal",
    )
    args = ap.parse_args()
    if args.serve:
        return serve_main(args)

    workdir = Path(tempfile.mkdtemp(prefix="mrscan-crash-resume-"))
    data = workdir / "points.mrs"
    run_dir = workdir / "run"
    journal = run_dir / "journal.jsonl"
    base_labels = workdir / "baseline.labels"
    resumed_labels = workdir / "resumed.labels"
    env = dict(os.environ, PYTHONPATH="src")
    # Remote agents are whole processes; keep the tcp fleet small.
    tr = ["--transport", args.transport] + (
        ["--workers", "2"] if args.transport == "tcp" else []
    )

    print(f"workdir: {workdir}")
    subprocess.run(
        _cli("generate", "blobs", args.points, data, "--seed", args.seed),
        check=True, env=env,
    )

    # 1. Uninterrupted baseline (no durability — the control arm).
    subprocess.run(
        _cli(
            "cluster", data, "--eps", args.eps, "--minpts", args.minpts,
            "--leaves", args.leaves, *tr, "--output", base_labels,
        ),
        check=True, env=env,
    )

    # 2. Durable run, killed mid-merge.  The slowdown fault pins the
    # driver inside the merge phase after every leaf has completed and
    # journaled, which is exactly the acceptance window.
    plan = workdir / "faults.json"
    plan.write_text(json.dumps({
        "seed": None,
        "faults": [{
            "node": 0, "phase": "merge", "attempt": 0, "kind": "slowdown",
            "point": "before", "delay_seconds": args.merge_delay,
            "permanent": False,
        }],
    }))
    victim = subprocess.Popen(
        _cli(
            "cluster", data, "--eps", args.eps, "--minpts", args.minpts,
            "--leaves", args.leaves, *tr,
            "--run-dir", run_dir, "--faults", plan,
        ),
        env=env,
    )
    deadline = time.monotonic() + args.kill_timeout
    agent_killed = False
    try:
        while True:
            # tcp leg: SIGKILL the first remote worker agent we can see,
            # mid-cluster — the driver's transport must detect the dead
            # connection, re-dispatch the lost task, and respawn.
            if args.transport == "tcp" and not agent_killed:
                agents = _worker_agent_pids(victim.pid)
                if agents:
                    os.kill(agents[0], signal.SIGKILL)
                    agent_killed = True
                    print(f"SIGKILLed tcp worker agent pid {agents[0]}")
            if victim.poll() is not None:
                print(
                    "FAIL: driver exited before it could be killed "
                    f"(rc={victim.returncode}); raise --merge-delay",
                    file=sys.stderr,
                )
                return 1
            if time.monotonic() > deadline:
                print("FAIL: cluster_done never journaled", file=sys.stderr)
                return 1
            if journal.exists() and any(
                r.type == "cluster_done" for r in replay_journal(journal)
            ):
                break
            time.sleep(0.2)
    finally:
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
    print(f"killed driver pid {victim.pid} after cluster_done was journaled")
    if args.transport == "tcp" and not agent_killed:
        print(
            "FAIL: tcp leg never saw a worker agent to kill", file=sys.stderr
        )
        return 1

    pre_resume_leaves = {
        r.payload["leaf_id"]
        for r in replay_journal(journal) if r.type == "leaf_done"
    }
    if len(pre_resume_leaves) != args.leaves:
        print(
            f"FAIL: crashed journal records {len(pre_resume_leaves)} "
            f"leaf_done, expected {args.leaves}",
            file=sys.stderr,
        )
        return 1

    # 3. Resume (no fault plan — execution knobs may legally change).
    subprocess.run(
        _cli(
            "cluster", data, "--eps", args.eps, "--minpts", args.minpts,
            "--leaves", args.leaves, *tr,
            "--run-dir", run_dir, "--resume", "--output", resumed_labels,
        ),
        check=True, env=env,
    )

    # 4. Gate: byte-identical labels ...
    if _read_labels(base_labels) != _read_labels(resumed_labels):
        print("FAIL: resumed labels differ from baseline", file=sys.stderr)
        return 1
    # ... and the journal proves completed leaves skipped re-clustering.
    records = replay_journal(journal)
    post = [r for r in records if r.type == "leaf_done"][len(pre_resume_leaves):]
    not_from_ckpt = [
        r.payload["leaf_id"] for r in post if not r.payload["from_checkpoint"]
    ]
    if not_from_ckpt:
        print(
            f"FAIL: resumed run re-clustered leaves {not_from_ckpt}",
            file=sys.stderr,
        )
        return 1
    if not any(r.type == "run_end" for r in records):
        print("FAIL: resumed run never journaled run_end", file=sys.stderr)
        return 1
    print(
        f"OK: killed mid-merge, resumed, labels byte-identical; "
        f"{len(post)} leaf(s) recovered from checkpoints"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
