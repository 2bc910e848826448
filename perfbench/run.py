"""End-to-end benchmark of the Concord simulator.

    python3 perfbench/run.py --workload server-concord --seed 1 --seconds 20 --trace 0

Runs one workload (see ``BENCHMARK.json``) for ``--seconds`` of
measurement and checks every simulated result against its reference and
the digest pinned in ``perfbench/digests.json``.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
table from a separate traced run.  It prints a human-readable table and a
provenance record, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when a
check fails and 2 when the simulator's source is not beside it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import hostspeed
from metricmath import check_metric_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
DIGESTS_FILE = HERE / "digests.json"
#: Scratch space (result caches, temporary files), removed on exit.
WORK_ROOT = ROOT / ".perfbench-work"
#: Cleared so the developer's shell cannot change what is measured: they
#: pick the worker count, event-queue backend, kernel executor and cache.
PINNED_ENV = ("REPRO_JOBS", "REPRO_QUEUE", "REPRO_IR_BACKEND", "REPRO_CACHE_DIR")
#: Fresh-interpreter set-ups timed per run, after one untimed one that
#: writes the bytecode caches.  Half are taken before the measurement and
#: half after it, so they see the host at two different times.
SETUP_SAMPLES = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be in [1, 600]")
    return args


def time_setup(workload, seed, count):
    """``count`` set-up times in reference seconds, each from a fresh
    interpreter that also times the speed kernel around its set-up."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, check=True)
        setup_s, kernel_s = map(float, done.stdout.strip().splitlines()[-1].split())
        samples.append(setup_s * hostspeed.factor(kernel_s, kernel_s))
    return samples


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def check_digests(harness, name, workload, seed, ref):
    """Compare the reference digests with the pinned ones.  An unpinned
    seed is still checked through a pinned canary run of seed 0."""
    pinned = json.loads(DIGESTS_FILE.read_text())[name]
    expected = pinned["seeds"].get(str(seed))
    if expected is not None:
        harness.check(ref.digest == expected,
                      "{} seed {}: digest differs from the pinned one", name, seed)
        return "pinned"
    harness.check(workload.canary_digest() == pinned["canary"],
                  "{}: canary run of seed 0 differs from its pinned digest", name)
    return "canary"


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def measure(args, spec, ambient):
    import harness
    from repro.parallel import code_fingerprint

    if args.workload not in harness.WORKLOADS:
        print("unknown workload {!r}; known: {}".format(
            args.workload, ", ".join(harness.WORKLOADS)), file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    setup = []
    if not args.trace:
        time_setup(args.workload, args.seed, 1)
        setup += time_setup(args.workload, args.seed, SETUP_SAMPLES // 2)
    work_dir = tempfile.gettempdir()
    try:
        ref = workload.reference(args.seed)
        digest_check = check_digests(harness, args.workload, workload, args.seed, ref)
        if args.trace:
            values, counts = workload.measure_traced(
                args.seed, args.seconds, ref, work_dir)
        else:
            values, counts = workload.measure(args.seed, args.seconds, ref, work_dir)
            setup += time_setup(args.workload, args.seed,
                                SETUP_SAMPLES - SETUP_SAMPLES // 2)
            values["setup_s"] = statistics.median(setup)
            values["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            counts["samples"]["setup_s"] = len(setup)
        harness.check(counts["failed"] == 0, "{}: {} of {} attempted failed",
                      args.workload, counts["failed"], counts["attempted"])
    except harness.CheckFailed as exc:
        print("CHECK FAILED: {}".format(exc), file=sys.stderr)
        emit(False, 1, 1, {})
        return 1

    section = "per_layer" if args.trace else "end_to_end"
    units = {check_metric_name(m["name"]): m["unit"] for m in spec[section]}
    extra = sorted(set(values) - set(units))
    if extra:
        raise KeyError("metrics missing from BENCHMARK.json: {}".format(extra))
    missing = sorted(set(units) - set(values))
    if not args.trace and missing:
        raise KeyError("end-to-end metrics not measured: {}".format(missing))
    # Per-layer metrics of a layer the workload never enters read 0.
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}

    print("perfbench {} seed={} seconds={} trace={}".format(
        args.workload, args.seed, args.seconds, args.trace))
    for name, metric in metrics.items():
        print("  {:<32} {:>16.6g} {}".format(name, metric["value"], metric["unit"]))
    print("  samples: {}".format(json.dumps(counts["samples"], sort_keys=True)))
    for name, tail in sorted(counts.get("tails", {}).items()):
        if tail is not None:
            print("  repetition {}: p{} {:.6g} reference s".format(name, *tail))
    if counts.get("kernel_s"):
        print("  speed kernel: median {:.6f} s over {} runs; reference {} s".format(
            statistics.median(counts["kernel_s"]), len(counts["kernel_s"]),
            hostspeed.REFERENCE_KERNEL_S))
    provenance = {
        "workload": args.workload,
        "params": workload.params(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sim.events": ref.events,
        "digest_check": digest_check,
        "code_fingerprint": code_fingerprint(),
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cleared_env": ambient,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    emit(True, counts["attempted"], counts["failed"], metrics)
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("simulator source not found at {}".format(SRC), file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    ambient = {name: os.environ.pop(name, None) for name in PINNED_ENV}
    work_dir = WORK_ROOT / str(os.getpid())
    work_dir.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = str(work_dir)
    sys.path.insert(0, str(SRC))
    try:
        return measure(args, spec, ambient)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
