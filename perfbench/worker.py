"""Worker process that runs a workload's timed passes for ``run.py``.

    python3 perfbench/worker.py

It reads one JSON request per line from standard input, each the keyword
arguments of ``workloads.run_pass``, and answers each with one JSON line on
standard output. It exits at the end of its input. Everything else the
program writes to standard output goes to standard error, so it cannot mix
with the answers. The worker never sets anything up, so its peak RSS is that
of the interpreter and the timed passes.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int) -> None:
    """Have the kernel kill this process when the process that started it
    ends, so a killed ``run.py`` leaves no worker behind (Linux only)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:  # the parent ended before prctl took effect
        os._exit(1)


def main() -> int:
    _die_with_parent(int(os.environ.get("PERFBENCH_PARENT", os.getppid())))
    answers = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import run_pass

    for line in sys.stdin:
        answers.write(json.dumps(run_pass(**json.loads(line))) + "\n")
        answers.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
