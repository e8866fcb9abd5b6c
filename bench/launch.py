"""Run one command to exit; record its wall time, exit status and peak RSS.

Usage:
    python -S -I bench/launch.py RESULT_JSON -- COMMAND [ARGS...]

The command inherits this process's stdin, stdout, stderr and
environment.  The benchmark starts every command through this small
process because Linux carries the spawning process's peak RSS into the
child's `ru_maxrss` across exec: spawned from run.py, a command would
report run.py's peak when that is higher than its own.
This process stays far below any command measured.  SIGTERM kills the
command, which is still reaped and recorded.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    result_path, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    # SIGTERM stays blocked until the handler knows the child's pid; the
    # child starts with an empty signal mask.
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, setsigmask=())
    signal.signal(signal.SIGTERM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "exit_code": os.waitstatus_to_exitcode(status),
                   "maxrss_kib": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
