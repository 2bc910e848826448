"""Content-addressed on-disk cache for simulation results.

A cache key is a SHA-256 over (schema version, code fingerprint, job
description).  The job description is a *stable* structural encoding of the
job spec — machine spec, runtime config (including its preemption-factory
fields), workload, arrival process, seed, request count, warmup fraction —
produced by :func:`stable_describe`.  The code fingerprint hashes the source
of every ``repro`` package that participates in a simulation (``sim``,
``core``, ``workloads``, ...), so editing the simulator invalidates
everything while editing one experiment's parameters re-simulates only the
points whose parameters actually changed.

Values are pickled whole; entries are written atomically (tmp + rename) so
concurrent sweep processes can share one cache directory, and a sweep
killed mid-write leaves no torn entry behind.  The runner stores each
result as its job settles, so rerunning an interrupted sweep against the
same directory resumes it.
"""

import enum
import functools
import hashlib
import json
import os
import pickle
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path

__all__ = [
    "ResultCache",
    "UncacheableValue",
    "stable_describe",
    "code_fingerprint",
    "default_cache_dir",
]

#: Bump when the key derivation or stored-value layout changes.
#: 3: fault-injection layer — FaultJob rows, Cluster fault_plan/resilience.
CACHE_SCHEMA_VERSION = 3

#: CPython's Py_TPFLAGS_HEAPTYPE: set for classes defined in Python.
_PY_TPFLAGS_HEAPTYPE = 1 << 9

#: repro subpackages whose source does NOT feed the code fingerprint:
#: ``experiments`` only choose parameters (already captured per-job) and
#: ``parallel`` is the orchestration layer (results are bit-identical
#: regardless of how jobs are executed).
_FINGERPRINT_EXCLUDED = ("experiments", "parallel")

_code_fingerprint = None


class UncacheableValue(TypeError):
    """The job spec contains something without a stable description
    (a lambda, closure, open file, ...); the job runs uncached."""


def stable_describe(obj, _seen=None):
    """A process-independent, JSON-ready structural description of ``obj``.

    Handles primitives, containers, dataclasses, functions/classes (by
    qualified name — lambdas and closures are rejected because their names
    do not identify their behaviour), and plain objects (class name plus
    recursively described attributes).  Raises :class:`UncacheableValue`
    for anything else.
    """
    if isinstance(obj, enum.Enum):
        # Before the primitive check: IntEnum/StrEnum members must encode
        # as their enum identity, not as a bare 2 or "fifo" that would
        # collide with a plain field holding the same value.
        return ["enum", _qualified_name(type(obj)), obj.name]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips exactly and distinguishes 1.0 from 1.
        return ["f", repr(obj)]
    if isinstance(obj, bytes):
        return ["b", hashlib.sha256(obj).hexdigest()]
    if _seen is None:
        _seen = set()
    marker = id(obj)
    if marker in _seen:
        raise UncacheableValue("cyclic object graph in job spec")
    _seen = _seen | {marker}
    if isinstance(obj, (list, tuple)):
        return ["l", [stable_describe(item, _seen) for item in obj]]
    if isinstance(obj, dict):
        items = [
            [stable_describe(k, _seen), stable_describe(v, _seen)]
            for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return ["d", items]
    if isinstance(obj, (set, frozenset)):
        members = [stable_describe(item, _seen) for item in obj]
        members.sort(key=lambda m: json.dumps(m, sort_keys=True))
        return ["s", members]
    if isinstance(obj, type) or _is_plain_function(obj):
        return _describe_by_name(obj)
    if isinstance(obj, functools.partial):
        return [
            "partial",
            stable_describe(obj.func, _seen),
            stable_describe(list(obj.args), _seen),
            stable_describe(obj.keywords, _seen),
        ]
    if is_dataclass(obj):
        state = {
            f.name: stable_describe(getattr(obj, f.name), _seen)
            for f in fields(obj)
        }
        return ["obj", _qualified_name(type(obj)), ["d", sorted(state.items())]]
    if type(obj).__flags__ & _PY_TPFLAGS_HEAPTYPE:
        # A Python-defined class: __dict__ + __slots__ capture its whole
        # state, and the class identity (plus the code fingerprint) covers
        # its behaviour.  C-implemented objects fall through — their state
        # is invisible from here, and guessing risks false cache hits.
        return [
            "obj",
            _qualified_name(type(obj)),
            stable_describe(_object_state(obj), _seen),
        ]
    raise UncacheableValue(
        "no stable description for {!r} of type {}".format(obj, type(obj))
    )


def _is_plain_function(obj):
    import types

    return isinstance(
        obj, (types.FunctionType, types.BuiltinFunctionType, types.MethodType)
    )


def _describe_by_name(obj):
    name = _qualified_name(obj)
    if "<lambda>" in name or "<locals>" in name:
        raise UncacheableValue(
            "lambdas/closures have no stable identity: {}".format(name)
        )
    return ["ref", name]


def _qualified_name(obj):
    module = getattr(obj, "__module__", None) or "?"
    qualname = getattr(obj, "__qualname__", None) or getattr(
        obj, "__name__", repr(obj)
    )
    return "{}:{}".format(module, qualname)


def _object_state(obj):
    """Every data attribute of a plain object, from __dict__ and __slots__
    across the MRO."""
    state = {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot.startswith("__"):
                continue
            try:
                state.setdefault(slot, getattr(obj, slot))
            except AttributeError:
                pass
    state.update(getattr(obj, "__dict__", {}))
    return state


def code_fingerprint():
    """SHA-256 over the source of the simulation-relevant repro packages.
    Computed once per process."""
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root)
            if rel.parts and rel.parts[0] in _FINGERPRINT_EXCLUDED:
                continue
            digest.update(str(rel).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def default_cache_dir():
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ResultCache:
    """Pickle-on-disk store addressed by stable job-content hashes.

    Layout: ``<dir>/<key[:2]>/<key>.pkl``.  The store is *self-healing*:
    a truncated, corrupted, or otherwise unreadable entry is a counted
    miss (``corrupt``) whose poison file is deleted so it can never be
    read — or crash a sweep — twice.  Writes are best-effort: a result
    that cannot be pickled is skipped (counted under ``unpicklable`` and
    warned about once), so the sweep still returns it; it just re-runs
    next time.  ``hits``/``misses``/``stores`` count this instance's
    traffic.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.unpicklable = 0
        self._warned_corrupt = False
        self._warned_unpicklable = False

    def key_for(self, job):
        """The cache key for ``job``, or None when the job has no stable
        description (and must always run)."""
        try:
            material = stable_describe(job)
        except UncacheableValue:
            return None
        payload = json.dumps(
            [CACHE_SCHEMA_VERSION, code_fingerprint(), material],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, key):
        return self.cache_dir / key[:2] / (key + ".pkl")

    def get(self, key):
        """``(True, value)`` on a hit, ``(False, None)`` otherwise.

        An entry that exists but cannot be read back because its *content*
        is bad (torn write, disk corruption, stale class layout)
        self-heals: it is deleted, counted under ``corrupt``, warned
        about once per cache, and reported as a plain miss — never an
        exception.  A transient I/O failure (EIO, permissions, an NFS
        hiccup) is just a miss: the entry may be perfectly valid, so it
        is never deleted."""
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except OSError:
            self.misses += 1
            return False, None
        except Exception:
            self.misses += 1
            self.corrupt += 1
            try:
                os.unlink(str(path))
            except OSError:
                pass
            if not self._warned_corrupt:
                self._warned_corrupt = True
                warnings.warn(
                    "result cache entry {} was unreadable (truncated or "
                    "corrupt); deleted it and treated the lookup as a "
                    "miss".format(path.name),
                    RuntimeWarning,
                    stacklevel=3,
                )
            return False, None
        self.hits += 1
        return True, value

    def put(self, key, value):
        """Store ``value`` under ``key`` (atomic; best-effort).  Returns
        whether the entry was written; never raises ``Exception``."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as f:
                    pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, str(path))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        except Exception as exc:
            # Only pickle.dump raises anything but OSError here: the value
            # is unpicklable (a generator, a local function, ...), which
            # surfaces as PicklingError, TypeError or AttributeError.
            self.unpicklable += 1
            if not self._warned_unpicklable:
                self._warned_unpicklable = True
                warnings.warn(
                    "result cache skipped an unpicklable {} result ({}: "
                    "{}); it will be re-simulated next run".format(
                        type(value).__name__, type(exc).__name__, exc,
                    ),
                    RuntimeWarning,
                    stacklevel=3,
                )
            return False
        self.stores += 1
        return True

    def __repr__(self):
        return (
            "ResultCache(dir={!r}, hits={}, misses={}, stores={}, "
            "corrupt={})".format(
                str(self.cache_dir), self.hits, self.misses, self.stores,
                self.corrupt,
            )
        )
