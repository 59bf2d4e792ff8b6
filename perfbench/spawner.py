"""Start the measured children from a small process.

    python perfbench/spawner.py        (driven by run.py over stdin/stdout)

On Linux a child's ``ru_maxrss`` includes the resident set of the process
it was forked from, as it was when the child called exec.  run.py holds
numpy and parsed outputs (well over 100 MB after a simulate check), which
would hide the child's own peak, so children are forked from this process,
which imports only the standard library.

Protocol: one JSON request per stdin line, one JSON reply per stdout line.
A request ``{"argv", "cwd", "stdout", "stderr", "timeout"}`` runs a child
to completion and replies ``{"code", "wall_s", "rss_mb"}``, the wall time
from spawn to reap.  With ``"stdout": null`` the child's stdout is a pipe:
the spawner first replies ``{"ready": <first line>}`` as soon as the child
prints a line, then the exit reply.
"""

import json
import os
import subprocess
import sys
import threading
import time


def reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def serve(req: dict) -> None:
    piped = req["stdout"] is None
    out = subprocess.PIPE if piped else open(req["stdout"], "wb")
    err = open(req["stderr"], "wb")
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            if piped:
                reply({"ready": proc.stdout.readline().decode(errors="replace").strip()})
                proc.stdout.read()
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        err.close()
        if not piped:
            out.close()
    reply({"code": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0})


def main() -> int:
    for line in sys.stdin:
        serve(json.loads(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
