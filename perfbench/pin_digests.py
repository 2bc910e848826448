"""Recompute the pinned result digests in ``perfbench/digests.json``.

    python3 perfbench/pin_digests.py [--seeds 32] [--workload NAME ...]

Run this only when a change is *meant* to alter simulated results; a
performance change must leave every digest as it is.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from run import PINNED_ENV

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "digests.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=32,
                        help="pin seeds 0 .. SEEDS-1 (default 32)")
    parser.add_argument("--workload", action="append",
                        help="only these workloads (default: all)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    import harness

    pinned = json.loads(DIGESTS_FILE.read_text()) if DIGESTS_FILE.exists() else {}
    for name in args.workload or list(harness.WORKLOADS):
        workload = harness.WORKLOADS[name]
        pinned[name] = {
            "canary": workload.canary_digest(),
            "seeds": {
                str(seed): workload.reference(seed).digest
                for seed in range(args.seeds)
            },
        }
        DIGESTS_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
        print("pinned {} seeds of {}".format(args.seeds, name), flush=True)


if __name__ == "__main__":
    main()
