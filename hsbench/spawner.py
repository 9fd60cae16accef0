"""Small long-lived helper that starts each pipeline subcommand and reaps it.

Linux keeps the peak RSS of a process across exec, and a child started
with vfork inherits its parent's peak. Started from the benchmark itself,
every subcommand would report at least the benchmark's own peak, so the
subcommands are started from this process instead, which stays small.

Protocol: one JSON request per line on stdin,
{"argv", "cwd", "env", "stderr", "timeout"}; one JSON reply per line on
stdout, {"seconds", "maxrss_kb", "status"}. EOF on stdin ends it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": seconds, "maxrss_kb": usage.ru_maxrss,
                          "status": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
