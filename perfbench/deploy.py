"""Launch the daemon the way users deploy it, and read its cost from /proc.

A :class:`Deployment` is one ``python -m repro serve`` process tree (a
single daemon, or a shard router plus its workers) listening on a Unix
socket in the run directory.  CPU time and memory are read from
``/proc`` for every process of the tree, so they cover exactly the
deployment and never the load generator.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024

#: A Unix socket path has at most 107 characters; the router puts its
#: workers' sockets at ``$TMPDIR/jg-shards-XXXXXXXX/w0e0.sock``.
_MAX_TMPDIR_CHARS = 107 - len("/jg-shards-XXXXXXXX/w0e0.sock")

SOCKET_NAME = "jg.sock"


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _stat_fields(pid: int) -> List[str]:
    text = _read(f"/proc/{pid}/stat")
    # The command name may contain spaces; fields resume after ')'.
    return text[text.rindex(")") + 2 :].split()


def _children_of(pid: int) -> List[int]:
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(int(entry))[1]) == pid:
                children.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue  # the process exited while we looked
    return children


class Deployment:
    """One ``repro serve`` process tree under measurement.

    ``run_dir`` is the process's working directory; its socket is the
    relative path :data:`SOCKET_NAME` there, so the caller must share
    that working directory to connect.  ``launcher``, when given, is a
    script run in place of ``-m repro`` entry (the traced launcher);
    it receives the same arguments.
    """

    def __init__(
        self,
        src_dir: Path,
        run_dir: Path,
        shards: int = 1,
        launcher: Optional[Path] = None,
        extra_env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.run_dir = run_dir
        command = [sys.executable]
        if launcher is not None:
            command.append(str(launcher))
        command += ["-m", "repro", "serve", "--unix", SOCKET_NAME]
        if shards > 1:
            command += ["--shards", str(shards)]
        self.command = command
        env = dict(os.environ)
        # The product default: contracts on.  Whatever the caller's
        # shell says, the deployment must not inherit a kill switch.
        env.pop("REPRO_CONTRACTS", None)
        env["PYTHONPATH"] = str(src_dir)
        tmp_dir = run_dir / "tmp"
        if len(str(tmp_dir)) <= _MAX_TMPDIR_CHARS:
            # Keep the router's worker sockets inside the run directory;
            # from a deeper checkout they fall back to the system's.
            tmp_dir.mkdir(parents=True, exist_ok=True)
            env["TMPDIR"] = str(tmp_dir)
        env.update(extra_env or {})
        self.env = env
        self.process: Optional[subprocess.Popen] = None
        self.pids: List[int] = []

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        sock = self.run_dir / SOCKET_NAME
        if sock.exists():
            sock.unlink()
        self.log = open(self.run_dir / "serve.log", "ab")
        self.process = subprocess.Popen(
            self.command,
            cwd=self.run_dir,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until the socket answers ``hello``; record the tree."""
        assert self.process is not None
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.process.returncode}; "
                    f"see {self.run_dir / 'serve.log'}"
                )
            try:
                with socket.socket(socket.AF_UNIX) as probe:
                    probe.connect(SOCKET_NAME)
                    probe.sendall(b'{"type":"hello"}\n')
                    if b'"ok":true' in probe.recv(65536):
                        break
            except OSError:
                pass
            time.sleep(0.005)
        else:
            raise RuntimeError("serve did not become ready in time")
        self.pids = [self.process.pid] + _children_of(self.process.pid)

    def stop(self) -> None:
        """SIGTERM the tree, wait for every process, then SIGKILL leftovers."""
        if self.process is None:
            return
        pids = self.pids or [self.process.pid]
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pid in pids[1:]:
            deadline = time.monotonic() + 10.0
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.log.close()
        self.process = None

    # -- /proc readings --------------------------------------------------
    def cpu_by_pid(self) -> Dict[int, float]:
        """User + system CPU seconds of each deployment process."""
        cpu = {}
        for pid in self.pids:
            fields = _stat_fields(pid)
            cpu[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
        return cpu

    def _status_kb(self, key: str) -> int:
        total = 0
        for pid in self.pids:
            for line in _read(f"/proc/{pid}/status").splitlines():
                if line.startswith(key):
                    total += int(line.split()[1])
        return total

    def peak_rss_mb(self) -> float:
        """Summed VmHWM (peak resident set) of the deployment, in MB."""
        return self._status_kb("VmHWM:") / 1024.0

    def rss_bytes(self) -> int:
        """Summed current resident set of the deployment, in bytes."""
        total = 0
        for pid in self.pids:
            resident = int(_read(f"/proc/{pid}/statm").split()[1])
            total += resident * _PAGE_KB * 1024
        return total

    def contracts_env(self) -> str:
        """``REPRO_CONTRACTS`` as the daemon process sees it."""
        assert self.process is not None
        with open(f"/proc/{self.process.pid}/environ", "rb") as handle:
            environ = handle.read()
        for item in environ.split(b"\0"):
            if item.startswith(b"REPRO_CONTRACTS="):
                return item.split(b"=", 1)[1].decode()
        return "unset"
