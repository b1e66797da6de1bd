"""Process accounting from ``/proc`` (psutil is not available here).

The measured process runs as the leader of its own session, and Ray starts
its GCS, raylet and workers inside that session, so "every process the
benchmark started" is exactly the set of processes with that session id.
"""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf('SC_PAGE_SIZE')
_TICK = os.sysconf('SC_CLK_TCK')


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (field 3 on)."""
    try:
        with open(f'/proc/{pid}/stat') as f:
            raw = f.read()
    except OSError:
        return None
    return raw.rsplit(')', 1)[1].split()


def _cmdline(pid: int) -> bytes:
    try:
        with open(f'/proc/{pid}/cmdline', 'rb') as f:
            return f.read()
    except OSError:
        return b''


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    out = []
    for name in os.listdir('/proc'):
        if not name.isdigit():
            continue
        st = _stat(int(name))
        # st[0] = state, st[3] = session id
        if st is not None and st[0] != 'Z' and int(st[3]) == sid:
            out.append(int(name))
    return out


def ray_workers(sid: int) -> list[int]:
    """Ray worker processes (their command line is rewritten to ``ray::``)."""
    return [p for p in session_pids(sid) if _cmdline(p).startswith(b'ray::')]


def rss_bytes(pid: int) -> int:
    try:
        with open(f'/proc/{pid}/statm') as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process."""
    st = _stat(pid)
    if st is None:
        return 0.0
    # st[11] = utime, st[12] = stime (fields 14 and 15 of stat)
    return (int(st[11]) + int(st[12])) / _TICK


class JobMeter:
    """What the Ray workers of session ``sid`` and the measuring process use while the
    ``with`` block runs, sampled every ``interval_s``.

    ``peak_mb`` is the peak of their summed resident memory.  ``cpu_s`` is
    the CPU time the workers spent, counting each worker seen (a worker that
    starts during the block counts from zero).  Sampling catches workers that
    start and exit within a job (the join aggregator actors), which reading
    the processes once at each end would miss."""

    def __init__(self, sid: int, interval_s: float = 0.1):
        self.sid = sid
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._cpu0: dict[int, float] = {}
        self._cpu: dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        workers = ray_workers(self.sid)
        for pid in workers:
            self._cpu[pid] = max(self._cpu.get(pid, 0.0), cpu_seconds(pid))
        rss = sum(rss_bytes(p) for p in [os.getpid()] + workers)
        self.peak_bytes = max(self.peak_bytes, rss)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> 'JobMeter':
        self._sample()
        self._cpu0 = dict(self._cpu)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)

    @property
    def cpu_s(self) -> float:
        return sum(c - self._cpu0.get(p, 0.0) for p, c in self._cpu.items())


def kill_session(sid: int, wait_s: float = 30.0) -> bool:
    """SIGKILL every process of session ``sid`` and wait until none is left.

    Returns True when the session is empty."""
    deadline = time.monotonic() + wait_s
    while True:
        pids = session_pids(sid)
        if not pids:
            return True
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
