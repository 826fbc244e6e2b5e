"""Child processes of one benchmark run: start, read, stop, reap.

Every child runs in its own session, so its process group holds it and
everything it starts; :meth:`Fleet.close` kills and reaps every group still
alive.  The run calls it on every exit path (normal end, failed check,
exception, SIGINT, SIGTERM), so no process outlives the run.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"


class ChildFailed(RuntimeError):
    """A child process exited or stayed silent when it should have answered."""


class Fleet:
    """The live children of one run."""

    def __init__(self, workdir: Path, env: Dict[str, str]):
        self.workdir = workdir
        self.env = env
        self._children: List[subprocess.Popen] = []
        self._logs: Dict[int, Path] = {}

    def launch(self, *args: str) -> subprocess.Popen:
        """Start ``launcher.py ARGS`` in a new process group."""
        log = self.workdir / f"child-{len(self._children)}.log"
        with open(log, "wb") as stderr:
            child = subprocess.Popen(
                [sys.executable, str(LAUNCHER), *args],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=self.env,
                start_new_session=True,
            )
        self._children.append(child)
        self._logs[child.pid] = log
        return child

    def read_line(self, child: subprocess.Popen, timeout: float) -> dict:
        """The next JSON line the child prints, within ``timeout`` seconds."""
        assert child.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildFailed(f"pid {child.pid} printed nothing in {timeout}s{self._tail(child)}")
            ready, _, _ = select.select([child.stdout], [], [], remaining)
            if ready:
                line = child.stdout.readline()
                if not line:
                    child.wait(timeout=5)
                    raise ChildFailed(
                        f"pid {child.pid} exited with {child.returncode}{self._tail(child)}"
                    )
                return json.loads(line)

    def _tail(self, child: subprocess.Popen) -> str:
        try:
            text = self._logs[child.pid].read_text(errors="replace")
        except OSError:
            return ""
        return ": " + " | ".join(text.strip().splitlines()[-6:])

    def stop(self, child: subprocess.Popen, sig: int = signal.SIGKILL, timeout: float = 30) -> None:
        """Send ``sig`` to the child's group and wait until the child has ended."""
        if child.poll() is None:
            try:
                os.killpg(child.pid, sig)
            except ProcessLookupError:
                pass
            try:
                child.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        self._reap_group(child)
        if child.stdout is not None:
            child.stdout.close()
        if child in self._children:
            self._children.remove(child)

    @staticmethod
    def _reap_group(child: subprocess.Popen) -> None:
        """Kill whatever else is left in the child's process group."""
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def close(self) -> None:
        """Kill and reap every child still running."""
        for child in list(self._children):
            self.stop(child, signal.SIGKILL)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM of a live process (this one by default), in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path) as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildFailed(f"no VmHWM in {path}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def process_age() -> float:
    """Seconds since this process started (exec keeps the start time)."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def directory_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total
