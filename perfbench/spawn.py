"""Run one command and report its own wall time and peak RSS.

    python3 perfbench/spawn.py LOG TIMEOUT_S CMD [ARG ...]

A process started with vfork or posix_spawn, as ``subprocess`` starts it,
takes on its parent's peak-RSS high-water mark at ``exec``. The benchmark
holds generated corpora, so a report process it started directly would
report at least the benchmark's own peak. This small intermediate process
starts the command instead, so the command's ``ru_maxrss`` (from ``wait4``)
is its own. The command's output goes to LOG; it is killed after
TIMEOUT_S seconds. The last line of standard output is a JSON object with
``code``, ``wall_s`` and ``maxrss_kib``.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    log_path, timeout_s, cmd = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
