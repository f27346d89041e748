"""Run one command as a child subreaper and report its whole tree's usage.

Usage::

    python3 layerbench/reaper.py USAGE_JSON TIMEOUT_S -- COMMAND [ARGS...]

Pool workers, the forkserver and fleet subprocesses outlive or escape the
process that started them, so reading ``RUSAGE_CHILDREN`` in that process
undercounts.  As a subreaper this process inherits every orphaned
descendant, waits for each one, and only then reads ``RUSAGE_CHILDREN``:
its CPU time is the whole tree's and its ``ru_maxrss`` the largest RSS of
any process in it.  Descendants still alive after a grace period, or the
command itself after ``TIMEOUT_S``, are killed.  Writes ``{"returncode",
"cpu_s", "maxrss_kb"}`` to ``USAGE_JSON`` and exits with the command's
return code.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import signal
import subprocess
import sys
import time

#: ``prctl`` option making this process inherit orphaned descendants.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds orphaned descendants get to exit after the command returns.
GRACE_S = 15.0


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> int:
    usage_path, timeout = sys.argv[1], float(sys.argv[2])
    command = sys.argv[sys.argv.index("--") + 1:]
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    # Its own session, so one killpg reaches every descendant.
    child = subprocess.Popen(command, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.wait()
        code = 124
    grace_end = time.monotonic() + GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            continue
        if time.monotonic() > grace_end:
            _kill_group(child.pid)
        time.sleep(0.02)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(usage_path, "w") as handle:
        json.dump({"returncode": code,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "maxrss_kb": usage.ru_maxrss}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
