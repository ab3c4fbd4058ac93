"""Child processes: the CLI under test and the ``repro serve`` daemon.

All children are spawned and reaped by ``launcher.py`` (see there why),
which :func:`start_launcher` starts before the benchmark imports
anything large.  Every child is reaped with ``os.wait4``, whose rusage
gives the child's peak resident set at no cost inside the timed
process.  No child outlives its call (CLI) or its ``Daemon`` context.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

_launcher: Optional[subprocess.Popen] = None
_lock = threading.Lock()


def start_launcher() -> None:
    global _launcher
    _launcher = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("launcher.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)


def stop_launcher() -> None:
    """Close the launcher's input (it kills any child left) and wait."""
    if _launcher is not None and _launcher.poll() is None:
        _launcher.stdin.close()
        _launcher.wait(timeout=30)


def _ask(**request) -> dict:
    with _lock:
        _launcher.stdin.write(json.dumps(request) + "\n")
        _launcher.stdin.flush()
        reply = _launcher.stdout.readline()
    if not reply:
        raise RuntimeError("the process launcher died")
    return json.loads(reply)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(root / ".perfbench")
    env.pop("REPRO_SPAN_SPOOL", None)
    return env


@dataclass
class Result:
    returncode: int
    stdout: bytes
    stderr: bytes
    seconds: float
    rss_mb: float


def run(argv: List[str], root: Path, timeout: float = 170.0) -> Result:
    """Run one child to completion; time it from spawn to exit."""
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as scratch:
        out, err = Path(scratch) / "out", Path(scratch) / "err"
        reply = _ask(op="run", argv=argv, cwd=str(root),
                     env=child_env(root), stdout=str(out),
                     stderr=str(err), timeout=timeout)
        return Result(reply["returncode"], out.read_bytes(),
                      err.read_bytes(), reply["seconds"], reply["rss_mb"])


def repro(args: List[str], root: Path, **kwargs) -> Result:
    return run([sys.executable, "-m", "repro", *args], root, **kwargs)


def python(code: str, root: Path) -> Result:
    return run([sys.executable, "-c", code], root)


class Daemon:
    """A ``repro serve`` subprocess, spawned on an ephemeral port.

    Entering the context waits until the first ``/healthz`` answers
    200.  Leaving it sends SIGTERM (the daemon drains and exits 0) and
    reaps the child; ``rss_mb`` is its peak resident set and
    ``returncode`` its exit status.
    """

    def __init__(self, root: Path, store: Path, workers: int = 2,
                 max_store_bytes: Optional[int] = None,
                 max_cache_bytes: Optional[int] = None) -> None:
        self.root = root
        self.store = store
        self.args = ["--port", "0", "--store", str(store),
                     "--workers", str(workers)]
        if max_store_bytes is not None:
            self.args += ["--max-store-bytes", str(max_store_bytes)]
        if max_cache_bytes is not None:
            self.args += ["--max-cache-bytes", str(max_cache_bytes)]
        self.pid: Optional[int] = None
        self.url = ""
        self.rss_mb = 0.0
        self.returncode: Optional[int] = None

    def __enter__(self) -> "Daemon":
        ready = self.store.with_name(self.store.name + ".ready")
        if ready.exists():
            ready.unlink()
        deadline = time.perf_counter() + 60.0
        self.pid = _ask(
            op="start", cwd=str(self.root), env=child_env(self.root),
            stdout=str(self.store.with_name(self.store.name + ".log")),
            argv=[sys.executable, "-m", "repro", "serve", *self.args,
                  "--ready-file", str(ready)])["pid"]
        try:
            while not self._ready(ready):
                if _ask(op="poll", pid=self.pid)["returncode"] is not None:
                    raise RuntimeError("repro serve exited during start-up")
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve did not become ready")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        return self

    def _ready(self, ready: Path) -> bool:
        try:
            text = ready.read_text()
        except OSError:
            return False
        if not text.endswith("\n"):
            return False
        host, port = text.split()
        self.url = f"http://{host}:{port}"
        try:
            with urllib.request.urlopen(self.url + "/healthz",
                                        timeout=5) as response:
                return response.status == 200
        except (urllib.error.URLError, OSError):
            return False

    def stop(self) -> None:
        if self.pid is None or self.returncode is not None:
            return
        reply = _ask(op="stop", pid=self.pid, timeout=60.0)
        self.returncode, self.rss_mb = reply["returncode"], reply["rss_mb"]

    def __exit__(self, *exc_info) -> None:
        self.stop()
