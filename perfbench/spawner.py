"""Process launcher: a small, long-lived process that starts each
measured command and reports the command's own wall clock, CPU time
and peak RSS.

Linux carries the launching process's resident high-water mark into a
child's ``ru_maxrss`` (the child is a copy of its parent until
``exec``), so a child started by the benchmark's client, which holds
the generated inputs, would report the client's peak whenever it is
the larger one.  This launcher imports only the standard library and
stays far below any measured program.

Protocol: each stdin line is a JSON object ``{"cmd": [...], "cwd":
dir, "out": path, "err": path, "timeout": seconds}``; the command runs
with stdout and stderr in those files, and the launcher answers one
JSON line ``{"returncode", "wall_s", "cpu_s", "peak_rss_mb"}``.  A
command still running after ``timeout`` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out, open(request["err"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], cwd=request["cwd"],
                                stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            watchdog.cancel()
            watchdog.join()
    # wait4 reaped the child; tell Popen so it never waits again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
