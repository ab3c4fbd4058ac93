"""Spawns and reaps the benchmark's child processes.

Linux carries a process's peak-RSS mark across ``fork``/``exec``: a
child's ``ru_maxrss`` is never below its parent's resident set at the
fork.  The benchmark process holds numpy, the program and the corpus,
so children forked from it would inherit that mark.  This launcher is
started first, while the benchmark is still small, and forks every
child itself; ``os.wait4`` then reports each child's own peak.

Protocol: one JSON request per line on stdin, one JSON reply per line
on stdout.

* ``run``   — spawn, wait, reply ``returncode``, ``seconds`` (spawn to
  exit) and ``rss_mb``; the child is killed after ``timeout`` seconds;
* ``start`` — spawn without waiting, reply ``pid``;
* ``poll``  — reply ``returncode`` (``None`` while it runs);
* ``stop``  — SIGTERM, wait (kill after ``timeout``), reply
  ``returncode`` and ``rss_mb``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _reap(process, timeout=None):
    """wait4 the child, killing it after ``timeout`` seconds; with no
    timeout, only look.  Returns (exit code, peak RSS MB) or None."""
    timer = None
    if timeout is not None:
        timer = threading.Timer(timeout, process.kill)
        timer.start()
    try:
        pid, status, usage = os.wait4(
            process.pid, 0 if timeout is not None else os.WNOHANG)
    finally:
        if timer is not None:
            timer.cancel()
    if not pid:
        return None
    process.returncode = os.waitstatus_to_exitcode(status)
    return process.returncode, usage.ru_maxrss / 1024.0


def _spawn(request, stdout, stderr):
    return subprocess.Popen(request["argv"], cwd=request["cwd"],
                            env=request["env"], stdout=stdout,
                            stderr=stderr, stdin=subprocess.DEVNULL)


def main() -> int:
    children = {}
    finished = {}
    try:
        for line in sys.stdin:
            reply = _serve(json.loads(line), children, finished)
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    except BrokenPipeError:
        pass                       # the benchmark went away mid-request
    finally:
        for pid, process in children.items():
            if pid not in finished:
                process.kill()
                _reap(process, 5.0)
    return 0


def _serve(request, children, finished) -> dict:
    op = request["op"]
    if op == "run":
        with open(request["stdout"], "wb") as out, \
                open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            process = _spawn(request, out, err)
            code, rss = _reap(process, request["timeout"])
            seconds = time.perf_counter() - start
        return {"returncode": code, "seconds": seconds, "rss_mb": rss}
    if op == "start":
        with open(request["stdout"], "wb") as log:
            process = _spawn(request, log, subprocess.STDOUT)
        children[process.pid] = process
        return {"pid": process.pid}
    if op == "poll":
        pid = request["pid"]
        if pid not in finished:
            result = _reap(children[pid])
            if result is not None:
                finished[pid] = result
        return {"returncode": finished.get(pid, (None,))[0]}
    if op == "stop":
        pid = request["pid"]
        if pid not in finished:
            children[pid].send_signal(signal.SIGTERM)
            finished[pid] = _reap(children[pid], request["timeout"])
        code, rss = finished.pop(pid)
        children.pop(pid)
        return {"returncode": code, "rss_mb": rss}
    return {"error": f"unknown op {op!r}"}


if __name__ == "__main__":
    sys.exit(main())
