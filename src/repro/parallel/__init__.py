"""Parallel sweep execution: supervised process-pool fan-out of
independent simulation jobs with a content-addressed result cache.

Three layers:

* :mod:`repro.parallel.jobs` — picklable job specs (:class:`SimJob`,
  :class:`ServerJob`, :class:`RackJob`, :class:`FaultJob`) whose
  ``run()`` is a pure function of their fields and the only entry point
  the runner calls, in-process and in pool workers alike;
* :mod:`repro.parallel.runner` — :class:`ParallelRunner`, which maps jobs
  across a supervised process pool (or in-process when ``jobs=1`` /
  pickling fails) and returns results bit-identical to serial execution;
  hung jobs are watchdog-killed, retried, and finally quarantined
  (:class:`Quarantined`) without disturbing the rest of the sweep; a job
  that raises lets the rest of its round settle, then its error is
  re-raised, identically at every worker count;
* :mod:`repro.parallel.cache` — :class:`ResultCache`, keyed by a stable
  hash of (machine, config, workload, arrival process, seed, request
  count, code version), so re-running ``run all`` only re-simulates what
  changed; corrupt entries self-heal into counted misses.  Each result is
  stored atomically as its job settles, so an interrupted sweep resumes,
  bit-identically, by rerunning it against the same cache directory.
"""

from repro.parallel.cache import (
    ResultCache,
    UncacheableValue,
    code_fingerprint,
    default_cache_dir,
    stable_describe,
)
from repro.parallel.jobs import FaultJob, RackJob, ServerJob, SimJob
from repro.parallel.runner import (
    ParallelRunner,
    Quarantined,
    get_default_runner,
    resolve_jobs,
    set_default_runner,
    using_runner,
)

__all__ = [
    "SimJob",
    "ServerJob",
    "RackJob",
    "FaultJob",
    "ParallelRunner",
    "Quarantined",
    "resolve_jobs",
    "get_default_runner",
    "set_default_runner",
    "using_runner",
    "ResultCache",
    "UncacheableValue",
    "stable_describe",
    "code_fingerprint",
    "default_cache_dir",
]
