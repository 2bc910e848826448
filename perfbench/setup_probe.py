"""Time, from a fresh interpreter, importing the simulator and building one
workload's top-level object: the server, the rack, or the sweep's runner.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the set-up seconds and, after a space, the mean time of the speed
kernel run right before and right after it in the same interpreter
(``hostspeed.py``).  ``run.py`` starts it several times, converts each
set-up time to reference seconds and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

import hostspeed


def main():
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    hostspeed.kernel_seconds()  # warm-up: the first run pays cold caches
    before = hostspeed.kernel_seconds()
    started = time.perf_counter()
    import harness

    harness.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    elapsed = time.perf_counter() - started
    after = hostspeed.kernel_seconds()
    print("{!r} {!r}".format(elapsed, (before + after) / 2.0))


if __name__ == "__main__":
    main()
