"""Child-process helpers: bounded reaping with peak-RSS readout, free ports."""

from __future__ import annotations

import os
import socket
import subprocess
import time
from typing import Tuple


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout`` seconds).

    Returns ``(exit code, peak RSS in MiB)``.  The peak comes from the
    kernel's accounting of the reaped child (``wait4``), so it is read from
    outside the process doing the work.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def free_port() -> int:
    """A TCP port on the loopback interface that nothing listens on now."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
