"""Starts the benchmark's program processes from a small process.

On Linux a child's ``ru_maxrss`` also counts the peak memory of the process
it was forked from, so children started by the benchmark itself (which
holds the stubs and the generated plans) would report the benchmark's
memory.  The benchmark starts this launcher before it grows; the launcher
reads one JSON request per line on stdin (argv, cwd, env, log path,
timeout), runs it to completion and answers with one JSON line: exit code,
start and end (``time.monotonic``, which is system-wide) and peak RSS.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["log"], "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                env=request["env"], stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        ended = time.monotonic()
    return {"code": proc.returncode, "started": started, "ended": ended,
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
