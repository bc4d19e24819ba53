"""Runs the benchmark's child processes from a small process.

A child's peak RSS from ``os.wait4`` counts the memory of the process it
was forked from, so children forked straight from the benchmark, which holds
the inputs and the timing samples, would all report the benchmark's size.
This launcher is started before any of that exists and stays small.

One JSON object per line on standard input:
    {"argv": [...], "env": {...}, "cwd": "...", "out": "path for stdout and stderr"}
and one per line back on standard output, when the child has ended:
    {"code": exit code, "wall_s": seconds from fork to reaped, "rss_kib": peak RSS}
It exits when its standard input closes.
"""

import json
import os
import sys
import time


def run(job: dict) -> dict:
    with open(job["out"], "wb") as out, open(os.devnull, "rb") as null:
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(job["cwd"])
                os.dup2(null.fileno(), 0)
                os.dup2(out.fileno(), 1)
                os.dup2(out.fileno(), 2)
                os.execve(job["argv"][0], job["argv"], job["env"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        wall_s = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status), "wall_s": wall_s, "rss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
