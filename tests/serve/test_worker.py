"""Detection-worker lifecycle: a worker never outlives its coordinator."""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.serve.config import ServeConfig
from repro.serve.worker import worker_main
from repro.storage import MANIFEST_NAME


def _holds_open(pid: int, path: str) -> bool:
    """Whether process ``pid`` has ``path`` among its open files."""
    fd_dir = f"/proc/{pid}/fd"
    try:
        fds = os.listdir(fd_dir)
    except OSError:
        return False
    for fd in fds:
        try:
            if os.readlink(os.path.join(fd_dir, fd)) == path:
                return True
        except OSError:
            continue
    return False


def _spawn_worker_then_die(spool_dir: str, pid_file: str) -> None:
    """Stand-in coordinator that dies while its worker is still starting.

    It exits once the worker has unpickled its arguments and is blocked
    reading the spool manifest, a FIFO the test holds: the worker
    reaches its orphan watchdog only after it has been reparented.
    """
    ctx = multiprocessing.get_context("spawn")
    config = ServeConfig(spool_dir=spool_dir, n_shards=1)
    # Referenced until exit: a collected queue unlinks the semaphores
    # the still-booting worker is about to open by name.
    inbox, outbox = ctx.Queue(), ctx.Queue()
    worker = ctx.Process(
        target=worker_main,
        args=(0, 0, config, inbox, outbox, spool_dir, None),
    )
    worker.start()
    Path(pid_file).write_text(str(worker.pid))
    manifest = os.path.join(spool_dir, MANIFEST_NAME)
    deadline = time.monotonic() + 60
    while not _holds_open(worker.pid, manifest) and time.monotonic() < deadline:
        time.sleep(0.05)
    os._exit(0)


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="needs /proc")
def test_worker_exits_when_coordinator_died_during_its_startup(tmp_path):
    spool_dir = tmp_path / "spool"
    spool_dir.mkdir()
    manifest = spool_dir / MANIFEST_NAME
    os.mkfifo(manifest)
    # Holding the FIFO read-write lets the worker's open() return and
    # parks it in read() until this test writes and closes.
    fifo = os.open(manifest, os.O_RDWR)
    pid_file = tmp_path / "worker.pid"
    ctx = multiprocessing.get_context("spawn")
    coordinator = ctx.Process(
        target=_spawn_worker_then_die, args=(str(spool_dir), str(pid_file))
    )
    coordinator.start()
    coordinator.join(timeout=90)
    assert coordinator.exitcode == 0
    worker_pid = int(pid_file.read_text())
    assert not _gone(worker_pid)
    # An unreadable manifest is an empty spool: the worker replays
    # nothing and enters its command loop as an orphan.
    os.write(fifo, b"x")
    os.close(fifo)
    deadline = time.monotonic() + 30
    while not _gone(worker_pid) and time.monotonic() < deadline:
        time.sleep(0.2)
    if not _gone(worker_pid):
        os.kill(worker_pid, 9)
        pytest.fail("orphaned worker outlived its coordinator")
