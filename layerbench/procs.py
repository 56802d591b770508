"""A ``gleipnir-serve`` child that never outlives the benchmark.

The server is started in a session of its own, so it and every pool worker
it forks share one process group whose id is the server's pid.  Teardown
always addresses that group: SIGTERM, a bounded wait, then SIGKILL.  It runs
from ``finally`` blocks, from the SIGTERM/SIGINT handler that
:func:`install_handlers` sets, and from ``atexit``.  Killing only the server
pid would leave a worker forked mid-batch running.

The benchmark also makes itself a child subreaper, so workers orphaned by
the server's death are re-parented to it and reaped here instead of lingering
as zombies that still answer ``kill(pid, 0)``.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_BANNER = re.compile(r"listening on (http://[\d.]+:\d+)")
_PR_SET_CHILD_SUBREAPER = 36

#: The child's program: optionally install the layer wrappers, then run the
#: documented entry point (``gleipnir-serve`` is ``repro.engine.service:main``).
_LAUNCHER = """
import json, os, sys
trace_dir = os.environ.get("LAYERBENCH_TRACE_DIR")
if trace_dir:
    from tracer import Tracer
    Tracer(trace_dir).install()
from repro.engine.service import main
raise SystemExit(main(json.loads(sys.argv[1])))
"""

_live: dict[int, "Server"] = {}
# Re-entrant: the signal handler may run while the main thread holds it.
_live_lock = threading.RLock()
_handlers_installed = False


def become_subreaper() -> bool:
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def _proc_stat(pid: str) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Fields after the parenthesised command name: state, ppid, pgrp, ...
    return raw[raw.rindex(")") + 2 :].split()


def _living(predicate) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _proc_stat(entry)
        if fields is not None and fields[0] != "Z" and predicate(fields):
            found.append(int(entry))
    return found


def group_members(pgid: int) -> list[int]:
    """Pids of the group's processes that are still running (zombies excluded)."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return []
    return _living(lambda fields: int(fields[2]) == pgid)


def live_children() -> list[int]:
    """Pids of this process's children that are still running."""
    me = os.getpid()
    return _living(lambda fields: int(fields[1]) == me)


def _reap(pgid: int) -> None:
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-pgid, os.WNOHANG)[0] > 0:
            pass


class Server:
    """One ``gleipnir-serve --workers N`` process group and its base URL."""

    def __init__(self, run_dir: Path, src_dir: Path, args: list[str], trace_dir=None):
        run_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = run_dir / f"server-{time.monotonic_ns()}.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir), str(Path(__file__).resolve().parent)]
        )
        env.pop("LAYERBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            env["LAYERBENCH_TRACE_DIR"] = str(trace_dir)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-c", _LAUNCHER, json.dumps(["--port", "0", *args])],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
        self.pgid = self.process.pid
        with _live_lock:
            _live[self.pgid] = self
        self.survivors: list[int] = []
        self.base_url = self._await_banner(timeout=120.0)

    def _await_banner(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1)
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.stop()
        raise RuntimeError(
            f"gleipnir-serve did not start:\n{self.log_path.read_text(errors='replace')}"
        )

    def stop(self, grace: float = 5.0) -> list[int]:
        """Tear the whole group down; returns the pids that survived (none, normally)."""
        with _live_lock:
            if _live.pop(self.pgid, None) is None:
                return self.survivors
        self.survivors = stop_group(self.pgid, self.process, grace)
        return self.survivors


def _vm_hwm_kb(pid: int) -> int:
    """A process's peak resident set (``VmHWM``) in kB; 0 once it is gone."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def descendants(pid: int) -> list[int]:
    """Pids of every process below ``pid`` (children, their children, ...)."""
    found, parents = [], [pid]
    while parents:
        parent = parents.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for task in tasks:
            with contextlib.suppress(OSError):
                children = Path(f"/proc/{parent}/task/{task}/children").read_text().split()
                found.extend(int(child) for child in children)
                parents.extend(int(child) for child in children)
    return found


class PeakRss:
    """The largest ``VmHWM`` of the servers and their pool workers during a block.

    The engine forks a fresh pool for every batch and its workers exit with
    the batch, so a background thread samples every process below each
    server while the block runs, and once more at its end.
    """

    def __init__(self, servers: list["Server"], interval: float = 0.025):
        self.roots = [server.pgid for server in servers]
        self.interval = interval
        self.peak_kb = 0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        for root in self.roots:
            for pid in (root, *descendants(root)):
                self.peak_kb = max(self.peak_kb, _vm_hwm_kb(pid))

    def _loop(self) -> None:
        while not self._done.wait(self.interval):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._done.set()
        self._thread.join()
        self.sample()

    @property
    def mb(self) -> float:
        return self.peak_kb / 1024.0


def stop_group(pgid: int, process: subprocess.Popen | None, grace: float) -> list[int]:
    """SIGTERM the group, wait up to ``grace`` seconds, then SIGKILL it."""
    for sig, wait in ((signal.SIGTERM, grace), (signal.SIGKILL, grace)):
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, sig)
        deadline = time.monotonic() + wait
        while True:
            if process is not None:
                with contextlib.suppress(subprocess.TimeoutExpired):
                    process.wait(timeout=0.05)
            _reap(pgid)
            if not group_members(pgid) or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        if not group_members(pgid):
            break
    return group_members(pgid)


def stop_all() -> None:
    with _live_lock:
        servers = list(_live.values())
    for server in servers:
        server.stop()


def _on_signal(signum, _frame) -> None:
    # Nothing may keep this from exiting: an exception raised here would
    # surface inside whatever the main thread was running, and could be
    # caught there as an ordinary failure.
    try:
        stop_all()
        with contextlib.suppress(OSError):
            os.write(2, f"layerbench: stopped by signal {signum}\n".encode())
    finally:
        os._exit(128 + signum)


def install_handlers() -> None:
    """Tear servers down on SIGTERM/SIGINT and at interpreter exit."""
    global _handlers_installed
    if _handlers_installed:
        return
    _handlers_installed = True
    become_subreaper()
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    atexit.register(stop_all)
