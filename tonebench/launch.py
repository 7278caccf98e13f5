"""Stdlib-only launcher: starts the benchmark's CLI children and reports their cost.

Linux carries a process's resident set into the peak RSS of the children it
forks, across exec, so ``os.wait4`` can never report a child below the RSS
of the process that forked it. ``run.py`` holds numpy and the generated
inputs; it hands every launch to this small process instead.

On a shared host the same work can take a third longer or shorter from one
stretch of seconds to the next. So the launcher also times two fixed probes
right before and right after each child: a pure-Python loop, and a Python
process that imports numpy. ``run.py`` uses them to correct the child's wall
time for the host's speed. Neither probe runs any tonelab code.

Protocol: one JSON request per stdin line, {"argv", "cwd", "stdout", "stderr"};
one JSON reply per stdout line, {"wall_s", "maxrss_kb", "code", "before",
"after"}, the last two being [loop seconds, launch seconds] from the probes.
A child still running after TIMEOUT_S is killed. The launcher exits at end
of input.
"""
import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120.0
CALIBRATION_STEPS = 500_000


def calibrate() -> list[float]:
    """Seconds the host takes right now for a fixed loop and a fixed launch."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i
    loop = time.perf_counter() - start
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdout=subprocess.DEVNULL,
                   check=True)
    return [loop, time.perf_counter() - start]


def main() -> None:
    before = None
    for line in sys.stdin:
        request = json.loads(line)
        if before is None:
            before = calibrate()
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        after = calibrate()  # also the next child's "before": launches follow closely
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                          "code": proc.returncode, "before": before, "after": after}),
              flush=True)
        before = after


if __name__ == "__main__":
    main()
